"""Acceptance suite: ten end-to-end checks, one terminal line each.

Every test prints a single `[PASS]`/`[FAIL]` line directly on the real
terminal (bypassing capture) stating the sample sizes and tolerances it
enforced.  Seeds are derived from the test id, so reruns exercise the
same instances and the reported constants are reproducible.
"""

import contextlib
import io
import itertools
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from flatchains import (IntChain, Simplex, SimplicialChain,
                        arrangement_complex, grid_chain)
from flatchains.boxes import deform, slice_mass_integral
from flatchains.cli import main
from flatchains.cone import boundary_simplicial, cone, cone_mass_report
from flatchains.curves import cycle_representative, extract_cycle_indices
from flatchains.flatnorm import (flat_norm_int, flat_norm_mod_p,
                                 flat_norm_under_refinement,
                                 isoperimetric_ratio)

from genutil import (flat_norm_mod_p_oracle, generic_apex, generic_level,
                     path_complex, random_box_chain, random_chain_on,
                     random_curve_system, random_grid_complex,
                     random_simplicial_chain)
from test_io_cli import CANONICAL, FIXTURES, GOLDEN_CASES, GOLDENS, fixture_argv

MODULE_T0 = time.perf_counter()


def _close(a, b, rel=1e-12):
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= rel * max(1.0, abs(fa), abs(fb))


def _leq(a, b, rel=1e-12):
    fa, fb = float(a), float(b)
    return fa <= fb + rel * max(1.0, abs(fa), abs(fb))


@pytest.fixture
def verdict(request):
    """One-line PASS/FAIL reporter that suspends output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    @contextlib.contextmanager
    def criterion(num, name, notes):
        status = "FAIL"
        try:
            yield
            status = "PASS"
        finally:
            detail = notes.get("detail", "did not finish")
            line = f"[{status}] criterion {num:02d} {name}: {detail}"
            if capman is None:
                print(line, file=sys.__stdout__, flush=True)
            else:
                with capman.global_and_fixture_disabled():
                    print(line, flush=True)

    return criterion


def brute_flat_norm_int(t, bound):
    cx, k = t.complex, t.dim
    sigmas = cx.cells(k + 1)
    best = None
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(sigmas)):
        s = IntChain(cx, k + 1, dict(zip(sigmas, combo)))
        v = (t - s.boundary()).mass() + s.mass()
        if best is None or v < best:
            best = v
    return best


def test_criterion_01_oracle_equivalence(rng, verdict):
    notes = {}
    with verdict(1, "flat norm mod p matches the enumeration oracle", notes):
        t0 = time.perf_counter()
        checked = Counter()
        n_complexes = 54
        for i in range(n_complexes):
            exact = i % 2 == 0
            cx = random_grid_complex(rng, float_volumes=not exact)
            top = max(cx.dims())
            for p in (2, 3, 5):
                for _ in range(4):
                    dim = top - 1 if rng.random() < 0.8 else top
                    t = random_chain_on(rng, cx, dim)
                    want = flat_norm_mod_p_oracle(t, p)
                    got = flat_norm_mod_p(t, p).value
                    if exact:
                        assert got == want
                    else:
                        assert _close(got, want)
                    checked[p] += 1
        elapsed = time.perf_counter() - t0
        assert n_complexes >= 50
        assert all(checked[p] >= 200 for p in (2, 3, 5))
        assert elapsed < 60.0
        notes["detail"] = (
            f"{n_complexes} complexes, {sum(checked.values())} chains "
            f"({checked[2]}/{checked[3]}/{checked[5]} for p=2/3/5), exact on "
            f"exact volumes and rel<=1e-12 on real volumes, {elapsed:.1f}s")


def test_criterion_02_pinned_worked_values(verdict):
    notes = {}
    with verdict(2, "pinned worked values", notes):
        full = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
        _, square = arrangement_complex(full)
        rim = square.boundary()
        for p in (2, 3):
            assert flat_norm_mod_p(rim, p).value == 1
        expected = {
            (Fraction(1, 2),): Fraction(1, 2),
            (Fraction(1),): Fraction(1),
            (Fraction(1), Fraction(1), Fraction(1)): Fraction(2),
        }
        for vols, want in expected.items():
            cx = path_complex(vols)
            ends = cx.chain(0, {"q0": -1, f"q{len(vols)}": 1})
            value = flat_norm_int(ends).value
            assert value == brute_flat_norm_int(ends, 2) == want
            assert want == min(Fraction(2), sum(vols))
        notes["detail"] = (
            "unit square rim = 1 for p in {2,3}; endpoint difference on "
            "paths of length 1/2, 1, 3 = 1/2, 1, 2, equal to the "
            "enumeration oracle; all exact")


def test_criterion_03_inequality_suite(rng, verdict):
    notes = {}
    with verdict(3, "norm and mass inequalities", notes):
        counts = Counter()
        # boundary contraction and the norm sandwich
        for i in range(200):
            exact = i % 4 != 3
            cx = random_grid_complex(rng, small=True, float_volumes=not exact)
            top = max(cx.dims())
            p = rng.choice([2, 3, 5])
            t = random_chain_on(rng, cx, top - 1, max_cells=4, coeff=2)
            fp = flat_norm_mod_p(t, p).value
            fb = flat_norm_mod_p(t.boundary(), p).value if t.dim >= 1 else 0
            fi = flat_norm_int(t).value
            pairs = [(fb, fp), (fp, fi), (fi, t.mass()), (fp, t.mass_p(p))]
            for a, b in pairs:
                assert a <= b if exact else _leq(a, b)
            counts["boundary"] += 1
            counts["sandwich"] += 1
        # the canonical lift preserves mass mod p
        for i in range(200):
            exact = i % 4 != 3
            cx = random_grid_complex(rng, float_volumes=not exact)
            dim = rng.choice(sorted(cx.dims()))
            p = rng.choice([2, 3, 5])
            t = random_chain_on(rng, cx, dim)
            lifted, target = t.reduce_mod_p(p).lift().mass(), t.mass_p(p)
            assert lifted == target if exact else _close(lifted, target)
            counts["lift"] += 1
        # slice mass integrals never exceed the mass they cut
        for _ in range(200):
            n = rng.choice([2, 3])
            k = rng.randint(1, n)
            p = rng.choice([2, 3, 5])
            t = random_box_chain(rng, n, k, max_cells=3)
            axes = tuple(rng.sample(range(n), rng.randint(1, k)))
            assert slice_mass_integral(t, axes, p) <= t.mass_p(p)
            counts["slice-mass"] += 1
        # subdividing a grid never increases the flat norm; integer
        # coordinates keep the refined arrangements branch-and-bound sized
        for _ in range(200):
            t = random_box_chain(rng, 2, 1, max_cells=2, denom=1, coeff=2)
            p = rng.choice([2, 3, 5])
            coarse, refined = flat_norm_under_refinement(
                t, p, rng.choice([2, 3]) if p < 5 else 2)
            assert refined <= coarse
            counts["refinement"] += 1
        assert all(c >= 200 for c in counts.values())
        notes["detail"] = (
            "200 instances each: boundary contraction, flat norm sandwich "
            "(codim 1, |coeff|<=2), canonical-lift mass, slice-mass bound, "
            "refinement monotonicity; exact on exact volumes, else rel<=1e-12")


def test_criterion_04_slice_calculus(rng, verdict):
    notes = {}
    with verdict(4, "slice and restriction calculus", notes):
        counts = Counter()
        for _ in range(220):
            n = rng.choice([2, 3])
            k = rng.randint(1, min(3, n))
            t = random_box_chain(rng, n, k, max_cells=3)
            axis = rng.randrange(n)
            r = generic_level(rng, t, axis)
            below = t.restrict(axis, r, side="below")
            above = t.restrict(axis, r, side="above")
            assert below + above == t
            counts["additivity"] += 1
            if k >= 2:
                lhs = t.slice(axis, r).boundary()
                rhs = t.boundary().slice(axis, r)
                assert lhs == -rhs
                counts["anticommute"] += 1
            if n >= 2:
                other = rng.choice([j for j in range(n) if j != axis])
                s = generic_level(rng, t, other)
                assert (t.slice(axis, r).restrict(other, s, side="below")
                        == t.restrict(other, s, side="below").slice(axis, r))
                counts["commute"] += 1
            if k >= 2:
                axes = rng.sample(range(n), 2)
                levels = [generic_level(rng, t, j) for j in axes]
                one = t.iterated_slice((axes[0], axes[1]), (levels[0], levels[1]))
                two = t.iterated_slice((axes[1], axes[0]), (levels[1], levels[0]))
                assert one == -two
                counts["order-swap"] += 1
        chains = 220
        while counts["anticommute"] < 200 or counts["order-swap"] < 200:
            n = rng.choice([2, 3])
            k = rng.randint(2, min(3, n))
            t = random_box_chain(rng, n, k, max_cells=3)
            axis = rng.randrange(n)
            r = generic_level(rng, t, axis)
            assert t.slice(axis, r).boundary() == -t.boundary().slice(axis, r)
            counts["anticommute"] += 1
            axes = rng.sample(range(n), 2)
            levels = [generic_level(rng, t, j) for j in axes]
            one = t.iterated_slice((axes[0], axes[1]), (levels[0], levels[1]))
            two = t.iterated_slice((axes[1], axes[0]), (levels[1], levels[0]))
            assert one == -two
            counts["order-swap"] += 1
            chains += 1
        assert min(counts.values()) >= 200
        notes["detail"] = (
            f"{chains} random box chains in R^2/R^3, k<=3, all exact: "
            f"restriction additivity x{counts['additivity']}, boundary "
            f"anticommutation x{counts['anticommute']}, slice/restrict "
            f"commutation x{counts['commute']}, order swap sign "
            f"x{counts['order-swap']}")


def test_criterion_05_deformation(rng, verdict):
    notes = {}
    with verdict(5, "deformation onto the unit grid", notes):
        c_p = c_u = c_q = Fraction(0)
        runs = cycles = 0
        for denom in (2, 3, 4):
            for n in (2, 3):
                for k in (1, 2):
                    for _ in range(10):
                        t = random_box_chain(rng, n, k, max_cells=3,
                                             denom=denom, coeff=2, nonzero=True)
                        res = deform(t, 1)
                        assert (res.rounded + res.boundary_sweep
                                + res.chain_sweep.boundary() == t)
                        for cell, _ in res.rounded.items():
                            for lo, hi in cell.intervals:
                                assert lo.denominator == hi.denominator == 1
                        c_p = max(c_p, res.ratio_rounded)
                        c_u = max(c_u, res.ratio_boundary_sweep)
                        c_q = max(c_q, res.ratio_chain_sweep)
                        runs += 1
        for denom in (2, 3, 4):
            for n, k in ((2, 1), (3, 1), (3, 2)):
                for _ in range(2):
                    w = random_box_chain(rng, n, k + 1, max_cells=2,
                                         denom=denom, coeff=2)
                    t = w.boundary()
                    if t.is_zero():
                        continue
                    res = deform(t, 1)
                    assert res.boundary_sweep.is_zero()
                    assert (res.rounded + res.chain_sweep.boundary() == t)
                    c_p = max(c_p, res.ratio_rounded)
                    c_q = max(c_q, res.ratio_chain_sweep)
                    runs += 1
                    cycles += 1
        assert runs >= 100
        assert c_p >= 0 and c_u >= 0 and c_q >= 0
        notes["detail"] = (
            f"{runs} fine chains (denominators 2/3/4, n in {{2,3}}, "
            f"k in {{1,2}}, {cycles} cycles), identity and grid membership "
            f"exact, cycles sweep no boundary; observed constants "
            f"c_P={float(c_p):.3f}, c_U={float(c_u):.3f}, c_Q={float(c_q):.3f}")


def test_criterion_06_divisible_boundary_extraction(rng, verdict):
    notes = {}
    with verdict(6, "cycle extraction from divisible boundaries", notes):
        runs = 0
        for p in (2, 3, 5, 7):
            for _ in range(140):
                system = random_curve_system(rng, p)
                idx = extract_cycle_indices(system, p)
                chosen = set(idx)
                assert list(idx) == sorted(chosen)
                # chosen items reweighted by 1-p leave the class mod p and
                # kill the boundary exactly
                boundary = Counter()
                mass = total = Fraction(0)
                for item in system.items:
                    w = 1 - p if item.index in chosen else 1
                    boundary[item.start] -= w
                    boundary[item.end] += w
                    mass += abs(w) * item.mass
                    total += item.mass
                assert not +boundary and not -boundary
                assert mass <= (p - 1) * total
                runs += 1
        assert runs >= 500
        notes["detail"] = (
            f"{runs} systems (140 per modulus, p in {{2,3,5,7}}): "
            "termination, exactly zero combined boundary, combined mass "
            "<= (p-1) x system mass; per-iteration invariants asserted "
            "inside the extractor")


def test_criterion_07_cycle_representatives(rng, verdict):
    notes = {}
    with verdict(7, "integral representatives of grid cycles", notes):
        runs = 0
        for p in (2, 3, 5):
            for _ in range(72):
                cx = random_grid_complex(rng, small=True)
                r = random_chain_on(rng, cx, 1, coeff=2)
                s = random_chain_on(rng, cx, 2, coeff=2)
                t = p * r + s.boundary()
                rep = cycle_representative(t, p)
                assert rep.boundary().is_zero()
                assert (rep - t).reduce_mod_p(p).is_zero()
                assert rep.mass() <= (p - 1) * t.mass_p(p)
                runs += 1
        assert runs >= 200
        notes["detail"] = (
            f"{runs} grid 1-chains with boundary divisible by p "
            "(72 per modulus, p in {2,3,5}): exactly closed output, "
            "cellwise congruent input, mass <= (p-1) x mass mod p; exact")


def test_criterion_08_cone_identities(rng, verdict):
    notes = {}
    with verdict(8, "cone identity and mass bounds", notes):
        runs = twice = 0
        for _ in range(220):
            n = rng.choice([2, 3, 4])
            k = rng.randint(0, n - 1)
            t = random_simplicial_chain(rng, n, k)
            x = generic_apex(rng, t)
            c = cone(x, t)
            if k >= 1:
                assert boundary_simplicial(c) == t - cone(x, boundary_simplicial(t))
            else:
                total = sum(g for _, g in t.items())
                apex = SimplicialChain(n, 0, [(Simplex((x,)), total)])
                assert boundary_simplicial(c) == t - apex
            p = rng.choice([2, 3, 5])
            report = cone_mass_report(x, t, p)
            tol = 1e-9 * (1.0 + report.radius * t.mass())
            assert report.cone_mass <= report.radius * t.mass() + tol
            assert report.cone_mass_p <= report.radius * t.mass_p(p) + tol
            if k + 2 <= n:
                assert cone(x, c).is_zero()
                twice += 1
            runs += 1
        assert runs >= 200 and twice >= 30
        notes["detail"] = (
            f"{runs} random simplicial chains: boundary identity exact, "
            "integral and mod-p cone masses within radius x base mass "
            f"(tol 1e-9 relative), cone of a cone vanished x{twice}")


def test_criterion_09_isoperimetric_ratios(rng, verdict):
    notes = {}
    with verdict(9, "isoperimetric ratios on grids", notes):
        full = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
        _, square = arrangement_complex(full)
        rim = square.boundary()
        for p in (2, 3):
            pinned = isoperimetric_ratio(rim, p)
            assert pinned == Fraction(1, 16)
            assert float(pinned) == 0.0625
        worst = Fraction(0)
        runs = 0
        shapes = [(2, 2), (3, 3), (2, 3), (4, 4)]
        for p in (2, 3):
            while runs < 60 * (1 if p == 2 else 2):
                shape = shapes[runs % len(shapes)]
                cx, _ = arrangement_complex(
                    grid_chain(2, 2, [(0, s) for s in shape], 1))
                r = random_chain_on(rng, cx, 1, coeff=2)
                s = random_chain_on(rng, cx, 2, coeff=2)
                t = p * r + s.boundary()
                if t.reduce_mod_p(p).is_zero():
                    continue
                ratio = isoperimetric_ratio(t, p)
                assert ratio >= 0
                worst = max(worst, ratio)
                runs += 1
        assert runs >= 100
        notes["detail"] = (
            f"{runs} random 1-cycles mod p on grids up to 4x4 (p in {{2,3}}); "
            f"every ratio finite, sample max {worst} = {float(worst):.4f}; "
            "unit square pinned at 1/16 = 0.0625 exactly")


def test_criterion_10_cli_goldens(verdict):
    notes = {}
    with verdict(10, "golden command line outputs", notes):
        for name, argv in GOLDEN_CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(fixture_argv(argv))
            assert rc == 0, name
            assert buf.getvalue() == (GOLDENS / f"{name}.json").read_text(), name
        from flatchains.fileio import parse_chainfile, serialize_chainfile
        for name in CANONICAL:
            text = (FIXTURES / f"{name}.chain").read_text()
            assert serialize_chainfile(parse_chainfile(text)) == text
        elapsed = time.perf_counter() - MODULE_T0
        assert elapsed < 290.0
        notes["detail"] = (
            f"{len(GOLDEN_CASES)} golden outputs byte-identical, "
            f"{len(CANONICAL)} fixtures round-trip byte-identical; "
            f"acceptance module finished in {elapsed:.1f}s")
