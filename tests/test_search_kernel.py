"""The flat-norm solvers' shared input table: volumes scaled to
integers, float volumes at their exact binary values, non-finite ones
refused, and one table per call; searches deeper than the interpreter's
recursion limit, 0-chain fills refused before solving, and inputs the
search alone could not finish."""

import random
import time
from fractions import Fraction

import pytest

from flatchains import (BoxCell, BoxChain, ChainFile, Complex,
                        FillInfeasibleError, PreconditionError, arrangement_complex,
                        fill_mod_p, flat_norm_int, flat_norm_mod_p, grid_chain,
                        serialize_chainfile)
from flatchains.cli import main
import flatchains.flatnorm as flatnorm
import flatchains.search as search

from genutil import (flat_norm_mod_p_oracle, path_complex, random_chain_on,
                     random_grid_complex, unit_grid_complex)


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def mixed_denominator_setup():
    """A 2x2 arrangement of 1/2-by-1/3 boxes: edges of length 1/2 and 1/3,
    faces of area 1/6, so the volumes scale to integers by 6."""
    h, t = Fraction(1, 2), Fraction(1, 3)
    cells = [(BoxCell(((i * h, (i + 1) * h), (j * t, (j + 1) * t))), 1 + i + 2 * j)
             for i in range(2) for j in range(2)]
    return arrangement_complex(BoxChain(2, 2, cells))


def test_mixed_denominators_match_oracle(rng):
    cx, _ = mixed_denominator_setup()
    for p in (2, 3, 5):
        for _ in range(8):
            t = random_chain_on(rng, cx, 1)
            value = flat_norm_mod_p(t, p).value
            assert isinstance(value, Fraction)
            assert value == flat_norm_mod_p_oracle(t, p)


def test_flat_norm_int_on_mixed_denominators():
    # twice the rim of one 1/2-by-1/3 box: filling it twice costs 2/6,
    # anything else keeps rim mass 5/3 or more
    cx, _ = mixed_denominator_setup()
    face = cx.chain(2, {"b2[0..1/2;0..1/3]": 1})
    w = flat_norm_int(2 * face.boundary())
    assert w.value == Fraction(1, 3)
    assert w.exact
    assert w.filling == 2 * face
    assert w.remainder.is_zero()


def test_float_volumes_match_oracle(rng):
    for _ in range(6):
        cx = random_grid_complex(rng, float_volumes=True, small=True)
        t = random_chain_on(rng, cx, cx.top_dim - 1)
        for p in (2, 3, 5):
            got = flat_norm_mod_p(t, p).value
            want = flat_norm_mod_p_oracle(t, p)
            assert isinstance(got, float)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(got), abs(want))


def test_float_volumes_take_the_frontier(rng, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("took the search")

    monkeypatch.setattr(search, "_exact_search", no_search)
    for _ in range(4):
        cx = random_grid_complex(rng, float_volumes=True, small=True)
        k = cx.top_dim - 1
        # a fill is the flat norm where every k-cell outweighs any filling
        heavy_vol = 5 * sum(cx.volume(s) for s in cx.cells(k + 1))
        heavy = Complex({d: [(cid, heavy_vol if d == k else cx.volume(cid),
                              list(cx.boundary_of(cid).items())) for cid in cx.cells(d)]
                         for d in cx.dims()})
        for p in (2, 3, 5):
            t = random_chain_on(rng, cx, k)
            assert close(flat_norm_mod_p(t, p).value, flat_norm_mod_p_oracle(t, p))
            cycle = random_chain_on(rng, cx, k + 1).boundary()
            assert close(fill_mod_p(cycle, p).mass_p(p),
                         flat_norm_mod_p_oracle(heavy.chain(k, dict(cycle.coeffs)), p))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_volumes_are_refused(bad):
    ends = path_complex([1, bad, 1]).chain(0, {"q0": 1, "q3": -1})
    for solve in (lambda: flat_norm_mod_p(ends, 2), lambda: fill_mod_p(ends, 2),
                  lambda: flat_norm_int(ends)):
        with pytest.raises(PreconditionError, match="cell volumes must be finite"):
            solve()


@pytest.mark.parametrize("bad", [0, -1, "x"])
def test_invalid_volumes_are_refused(bad):
    # on a (k+1)-cell and on a k-cell of the problem alike
    cx = path_complex([1, bad, 1])
    ends, edge = cx.chain(0, {"q0": 1, "q3": -1}), cx.chain(1, {"e2": 1})
    for solve in (lambda: flat_norm_mod_p(ends, 3), lambda: fill_mod_p(ends, 3),
                  lambda: flat_norm_int(ends), lambda: flat_norm_mod_p(edge, 3),
                  lambda: flat_norm_int(edge)):
        with pytest.raises(PreconditionError, match="cell volumes must be positive numbers"):
            solve()


def test_one_table_per_call(monkeypatch):
    built, searched = [], []

    class Counted(flatnorm._Problem):
        __slots__ = ()

        def __init__(self, T):
            built.append(T)
            super().__init__(T)

    exact_search = search._exact_search

    def spied(*args, **kwargs):
        searched.append(kwargs)
        return exact_search(*args, **kwargs)

    monkeypatch.setattr(flatnorm, "_Problem", Counted)
    monkeypatch.setattr(search, "_exact_search", spied)
    # codimension 2: the flow does not apply, and the search falls back
    cx, _ = arrangement_complex(grid_chain(3, 3, [(0, 2), (0, 1), (0, 1)], 1))
    assert flat_norm_int(cx.chain(1, {cx.cells(1)[0]: 1})).bound == 4
    assert (len(built), len(searched)) == (1, 1)
    # width 33 at p = 2: the mod-p search
    flat_norm_mod_p(unit_grid_complex(32).chain(1, {"h16_16": 1}), 2)
    assert (len(built), len(searched)) == (2, 2)


def test_single_edge_on_32x32_grid(tmp_path, capsys):
    # 1024 squares: one search level per square, deeper than the default
    # recursion limit of the interpreter
    cx = unit_grid_complex(32)
    edge = cx.chain(1, {"h16_16": 1})
    w = flat_norm_mod_p(edge, 2)
    assert w.value == 1
    assert w.exact
    assert w.remainder + w.filling.boundary() == edge

    path = tmp_path / "grid32.chain"
    path.write_text(serialize_chainfile(ChainFile("abstract", (cx, edge))))
    assert main(["flatnormp", str(path), "--p", "2", "--json"]) == 0
    assert '"value": "1"' in capsys.readouterr().out


def test_infeasible_0_chain_fill_is_refused_at_once():
    # the coefficient sum -14 is not divisible by 5, so nothing bounds it
    # mod 5; the search alone would walk 5^24 edge assignments
    cx = unit_grid_complex(3)
    chain = cx.chain(0, {"v0_0": -4, "v1_2": -5, "v3_1": -5})
    started = time.perf_counter()
    with pytest.raises(FillInfeasibleError, match="infeasible in this complex"):
        fill_mod_p(chain, 5)
    assert time.perf_counter() - started < 1


def test_feasible_0_chain_fills_are_unchanged():
    cx = unit_grid_complex(3)
    assert (fill_mod_p(cx.chain(0, {"v0_0": -4, "v1_2": -5, "v3_1": -6}), 3)
            == cx.chain(1, {"h0_2": 1, "u0_0": 1, "u0_1": 1}))
    corners = cx.chain(0, {"v0_0": 1, "v3_3": 1})
    assert fill_mod_p(corners, 2) == cx.chain(1, {e: 1 for e in (
        "h0_3", "h1_3", "h2_3", "u0_0", "u0_1", "u0_2")})


@pytest.mark.parametrize("coeffs,mass,witness", [
    ({"v0_0": 1, "v1_1": -1}, 2, {"h0_1": -1, "u0_0": -1}),
    ({"v0_0": -4, "v1_2": -5, "v3_1": 4}, 4, {"h0_1": -1, "h1_1": -1, "h2_1": -1, "u0_0": -1}),
])
def test_feasible_0_chain_fills_at_p5_are_fast(coeffs, mass, witness):
    # the search walks up to 5^24 edge assignments here (5-10 s)
    cx = unit_grid_complex(3)
    started = time.perf_counter()
    filling = fill_mod_p(cx.chain(0, coeffs), 5)
    assert time.perf_counter() - started < 1
    assert filling == cx.chain(1, witness)
    assert filling.mass_p(5) == mass


@pytest.mark.parametrize("p", [11, 31, 101])
def test_a_two_point_fill_does_not_grow_with_p(p):
    # the search's values stop at the cost of the elimination's filling, not
    # at p / 2: at the old limit p = 31 took ~2 s and p = 101 over a minute
    cx, _ = arrangement_complex(grid_chain(3, 3, [(0, 1), (0, 1), (0, 2)], 1))
    started = time.perf_counter()
    filling = fill_mod_p(cx.chain(0, {"b0[0;0;0]": 1, "b0[1;1;2]": -1}), p)
    assert time.perf_counter() - started < 1
    assert filling.mass_p(p) == 4


def test_forty_one_random_segments_are_answered():
    # the 41 unit segments of the benchmark's `segments34` input, drawn the
    # same way; duplicates merge into 34 cells, 7 of them with coefficient
    # 2, so its mass mod 2 is 27, which no filling improves
    pool = random.Random(44)
    coeffs: dict = {}
    for x, y in ((pool.randrange(12), pool.randrange(12)) for _ in range(41)):
        coeffs[(x, y)] = coeffs.get((x, y), 0) + 1
    assert len(coeffs) == 34
    chain = BoxChain(2, 1, [(BoxCell(((x, x + 1), (y, y))), g) for (x, y), g in coeffs.items()])
    _, compiled = arrangement_complex(chain)
    started = time.perf_counter()
    w = flat_norm_mod_p(compiled, 2)
    assert time.perf_counter() - started < 2
    assert w.value == 27
    assert w.exact
