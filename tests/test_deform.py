"""Coordinate-rounding deformation onto a coarse grid."""

import contextlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from flatchains import BoxCell, BoxChain, PreconditionError, deform, grid_chain
from flatchains.cli import main
from genutil import random_box_chain, ref_of, ref_optimized_thresholds

FIXTURES = Path(__file__).parent / "fixtures"

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def cell(*intervals):
    return BoxCell(tuple(intervals))


def fine_edge():
    # a horizontal edge strictly inside the unit coarse cell
    return BoxChain(2, 1, [(cell((QUARTER, 3 * QUARTER), (QUARTER, QUARTER)), 1)])


def test_coarse_chain_is_a_fixed_point():
    t = grid_chain(2, 2, [(0, 2), (0, 1)], 1)
    res = deform(t, 1)
    assert res.rounded == t
    assert res.boundary_sweep.is_zero()
    assert res.chain_sweep.is_zero()
    assert res.ratio_boundary_sweep == 0 and res.ratio_chain_sweep == 0


def test_fine_edge_pinned_decomposition():
    t = fine_edge()
    res = deform(t, 1, rho=(HALF, HALF))
    assert res.rounded == BoxChain(2, 1, [(cell((0, 1), (0, 0)), 1)])
    assert res.chain_sweep == BoxChain(2, 2, [(cell((0, 1), (0, QUARTER)), -1)])
    assert res.boundary_sweep.mass() == 1
    assert res.original == res.rounded + res.boundary_sweep + res.chain_sweep.boundary()
    assert res.ratio_rounded == Fraction(2, 5)
    assert res.ratio_boundary_sweep == HALF
    assert res.ratio_chain_sweep == HALF
    # the default thresholds land in the same coarse cells here
    assert deform(t, 1).rounded == res.rounded


def test_fine_cycle_rounds_to_coarse_cycle():
    square = BoxChain(2, 2, [(cell((QUARTER, 3 * QUARTER),
                                   (QUARTER, 3 * QUARTER)), 1)])
    t = square.boundary()
    res = deform(t, 1)
    assert res.boundary_sweep.is_zero()
    assert res.rounded == grid_chain(2, 2, [(0, 1), (0, 1)], 1).boundary()
    assert res.chain_sweep.boundary() == t - res.rounded


def test_threshold_search_can_cancel_a_small_cycle():
    square = BoxChain(2, 2, [(cell((QUARTER, HALF), (QUARTER, HALF)), 1)])
    t = square.boundary()
    res = deform(t, 1, optimize_thresholds=True)
    assert res.rounded.is_zero()
    assert res.rho == (Fraction(1, 8), Fraction(1, 8))
    assert res.boundary_sweep.is_zero()
    assert res.chain_sweep == square
    assert res.chain_sweep.boundary() == t


def test_threshold_search_matches_a_full_scan(rng):
    # the search tries one midpoint per fractional part; scanning every
    # midpoint of the fine lattice must choose the same thresholds
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        k = rng.randint(0, n)
        t = random_box_chain(rng, n, k, max_cells=4, denom=rng.choice([2, 3, 4, 6, 10]))
        eta = rng.choice([1, Fraction(1, 2), 2])
        res = deform(t, eta, optimize_thresholds=True)
        rho, rounded = ref_optimized_thresholds(ref_of(t), n, eta)
        assert res.rho == rho
        assert ref_of(res.rounded) == rounded


def test_threshold_search_is_bounded_by_the_fractional_parts():
    # coordinates over the prime 999983: a scan of every fine midpoint
    # would try 999983 thresholds on axis 1
    argv = ["deform", str(FIXTURES / "prime_denominator.chain"), "--eta", "1",
            "--optimize", "--json"]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(argv)
    assert time.perf_counter() - start < 2
    assert rc == 0
    doc = json.loads(out.getvalue())["result"]
    assert doc["rho"] == ["1/2", "3/1999966"]
    assert doc["rounded"]["items"] == [["b1[0..1;0]", 1]]


def test_zero_chain_deforms_to_zero():
    res = deform(BoxChain(2, 1, {}), 1)
    assert res.rounded.is_zero() and res.chain_sweep.is_zero()
    assert res.ratio_rounded == 0


def test_threshold_validation():
    t = fine_edge()
    with pytest.raises(PreconditionError, match="collides with coordinate 1/4"):
        deform(t, 1, rho=(QUARTER, HALF))
    with pytest.raises(PreconditionError, match="not in \\(0, 1\\)"):
        deform(t, 1, rho=(0, HALF))
    with pytest.raises(PreconditionError, match="expected 2 thresholds, got 1"):
        deform(t, 1, rho=(HALF,))
    with pytest.raises(PreconditionError, match="not both"):
        deform(t, 1, rho=(HALF, HALF), optimize_thresholds=True)
    with pytest.raises(PreconditionError, match="coarse scale"):
        deform(t, 0)


def test_scalar_threshold_broadcasts():
    t = fine_edge()
    assert deform(t, 1, rho=HALF).rho == (HALF, HALF)


def test_modulus_only_affects_reported_ratios():
    t = fine_edge()
    plain = deform(t, 1, rho=(HALF, HALF))
    relaxed = deform(t, 1, rho=(HALF, HALF), p=2)
    assert relaxed.modulus == 2
    assert relaxed.rounded == plain.rounded
    assert relaxed.ratio_rounded == Fraction(2, 5)


def test_boundary_sweep_ratio_is_taken_mod_p():
    # 3 times an edge: its boundary and the boundary's sweep vanish mod 3
    # but not over Z, so the ratio is 0/0, not an integral mass over 0
    argv = ["deform", str(FIXTURES / "vanishing_boundary.chain"), "--eta", "1", "--p", "3",
            "--json"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(argv)
    assert rc == 0, out.getvalue()
    doc = json.loads(out.getvalue())["result"]
    assert doc["ratios"] == {"boundary_sweep": "0", "chain_sweep": "0", "rounded": "0"}
    assert doc["boundary_sweep"]["items"]
    res = deform(BoxChain(2, 1, [(cell((QUARTER, 3 * QUARTER), (QUARTER, QUARTER)), 3)]), 1,
                 p=3)
    assert res.ratio_boundary_sweep == 0
    assert res.boundary_sweep.mass() == 3


def test_random_deformations(rng):
    for _ in range(15):
        k = rng.choice([1, 2])
        t = random_box_chain(rng, 2, k, max_cells=3, nonzero=True)
        eta = rng.choice([1, 2])
        res = deform(t, eta)
        assert res.original == (res.rounded + res.boundary_sweep
                                + res.chain_sweep.boundary())
        for c, _ in res.rounded.items():
            for lo, hi in c.intervals:
                assert (Fraction(lo) / eta).denominator == 1
                assert (Fraction(hi) / eta).denominator == 1
        assert res.ratio_rounded >= 0


def test_cycles_never_sweep_boundary(rng):
    for _ in range(10):
        t = random_box_chain(rng, 2, 2, max_cells=3, nonzero=True)
        res = deform(t.boundary(), 1)
        assert res.boundary_sweep.is_zero()
        assert res.chain_sweep.boundary() == t.boundary() - res.rounded


def test_deforming_the_boundary_is_the_boundary_of_the_deformation(rng):
    for _ in range(10):
        k = rng.choice([1, 2])
        t = random_box_chain(rng, 2, k, max_cells=3, nonzero=True)
        res = deform(t, 1)
        if t.boundary().is_zero():
            continue
        res_b = deform(t.boundary(), 1, rho=res.rho)
        assert res_b.rounded == res.rounded.boundary()
        assert res_b.chain_sweep == res.boundary_sweep


def test_each_boundary_is_built_once(monkeypatch):
    built = []
    real_boundary = BoxChain.boundary

    def counting_boundary(self):
        built.append(self)
        return real_boundary(self)

    monkeypatch.setattr(BoxChain, "boundary", counting_boundary)
    t = grid_chain(2, 1, [(0, 1), (0, 1)], QUARTER)
    res = deform(t, 1, p=3)
    # the ratios the CLI reports reuse the boundary deform built
    assert res.ratio_rounded >= 0 and res.ratio_boundary_sweep >= 0
    assert sum(1 for c in built if c is t) == 1
    assert sum(1 for c in built if c is res.rounded) == 1
    assert res.original_boundary == real_boundary(t)
