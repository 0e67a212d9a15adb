"""Flat-norm solvers: exact values, witnesses, inequalities, fillings."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from flatchains import (
    BoxCell,
    BoxChain,
    Complex,
    FillInfeasibleError,
    IntChain,
    InternalDefectError,
    PreconditionError,
    arrangement_complex,
    compile_chain,
    fill_mod_p,
    flat_norm_int,
    flat_norm_mod_p,
    flat_norm_under_refinement,
    grid_chain,
    isoperimetric_ratio,
)
import flatchains.flatnorm as flatnorm
from flatchains.flatnorm import _exact_search, _Problem
from genutil import (WITNESS_ORACLE_LIMIT, flat_norm_mod_p_oracle, lexmin_witness_oracle,
                     path_complex, random_chain_on, random_grid_complex, unit_grid_complex)


def square_setup():
    sq = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    return arrangement_complex(sq)


def box_flat_norm(t, p):
    """Flat norm mod p of a box chain relative to its own arrangement."""
    _, chain = arrangement_complex(t)
    return flat_norm_mod_p(chain, p).value


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


# ---------------------------------------------------------------------------
# mod-p solver

def test_reduced_chain_gives_the_same_witness(rng):
    for _ in range(30):
        cx = random_grid_complex(rng, small=True)
        t = random_chain_on(rng, cx, rng.choice([0, 1]))
        for p in (2, 3, 5):
            m = t.reduce_mod_p(p)
            w = flat_norm_mod_p(t, p)
            wm = flat_norm_mod_p(m, p)
            assert wm == flat_norm_mod_p(m.lift(), p)
            assert (wm.value, wm.filling, wm.exact, wm.modulus) == (
                w.value, w.filling, w.exact, w.modulus)
            # the remainders differ by t - m, a multiple of p
            assert wm.remainder == w.remainder - (t - m)
            assert type(wm.remainder) is IntChain
    with pytest.raises(PreconditionError, match="chain has modulus 3, requested 2"):
        flat_norm_mod_p(t.reduce_mod_p(3), 2)


def test_square_boundary_flat_norm_pinned():
    cx, sq = square_setup()
    rim = sq.boundary()
    for p in (2, 3):
        w = flat_norm_mod_p(rim, p)
        assert w.value == 1
        assert w.exact and w.modulus == p
        assert w.remainder.is_zero()
        assert abs(w.filling.mass_p(p)) == 1
        assert w.value == flat_norm_mod_p_oracle(rim, p)


def test_multiples_of_p_have_zero_flat_norm():
    cx, sq = square_setup()
    rim = sq.boundary()
    assert flat_norm_mod_p(2 * rim, 2).value == 0
    assert flat_norm_mod_p(3 * sq, 3).value == 0


def test_no_fillings_means_relaxed_mass():
    # the compiled 1-skeleton has no 2-cells, so S = 0 is forced
    sq = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    cx, rim = compile_chain(sq.boundary())
    assert cx.dims() == (0, 1)
    doubled = 2 * rim
    w = flat_norm_mod_p(doubled, 3)
    assert w.filling.is_zero()
    assert w.value == doubled.mass_p(3) == 4


def test_witness_decomposition_is_congruent(rng):
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        cx = random_grid_complex(rng, small=True)
        k = rng.choice([d for d in cx.dims() if d < cx.top_dim])
        t = random_chain_on(rng, cx, k)
        w = flat_norm_mod_p(t, p)
        gap = t - w.remainder - w.filling.boundary()
        assert gap.reduce_mod_p(p).is_zero()
        assert w.value == w.remainder.mass_p(p) + w.filling.mass_p(p)


def test_mod_p_solver_matches_oracle_small(rng):
    for _ in range(25):
        p = rng.choice([2, 3])
        cx = random_grid_complex(rng, small=True)
        k = rng.choice([d for d in cx.dims() if d < cx.top_dim])
        t = random_chain_on(rng, cx, k)
        assert flat_norm_mod_p(t, p).value == flat_norm_mod_p_oracle(t, p)


CUBE_EDGES = [tuple((0, 1) if j == axis else (corner[j], corner[j]) for j in range(3))
              for axis in range(3) for corner in itertools.product((0, 1), repeat=3)
              if corner[axis] == 0]


def small_instance(rng, dim, k, p, fill):
    """A complex small enough for the witness oracle and a k-chain on it,
    a cycle mod p (or a 0-chain with coefficient sum 0 mod p) for a fill.

    3-D 0-chains live on a graph of unit-cube edges in R^3; the rest on
    box grids.  Cell ids are shuffled, and some of the time the volumes
    are random fractions."""
    if dim == 3 and k == 0:
        edges = rng.sample(CUBE_EDGES, rng.randint(3, 7))
        cx, _ = compile_chain(BoxChain(3, 1, [(BoxCell(e), 1) for e in edges]))
    else:
        shapes = ([(1, 1, 1), (1, 1, 2)] if dim == 3 else
                  [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3)])
        fits = []
        for shape in shapes:
            cx, _ = arrangement_complex(grid_chain(dim, dim, [(0, s) for s in shape], 1))
            if p ** cx.num_cells(k + 1) <= WITNESS_ORACLE_LIMIT:
                fits.append(cx)
        cx = rng.choice(fits)
    # shuffled ids, so that id order is not the solver's sweep order
    ids = [cid for d in cx.dims() for cid in cx.cells(d)]
    name = {cid: f"c{n:02d}" for n, cid in enumerate(rng.sample(ids, len(ids)))}
    rescale = rng.random() < 0.3
    cx = Complex({d: [(name[cid], Fraction(rng.randint(1, 6), rng.randint(1, 3))
                       if rescale and d else cx.volume(cid),
                       [(name[f], c) for f, c in cx.boundary_of(cid).items()])
                      for cid in cx.cells(d)] for d in cx.dims()})
    # two cells at +-1 on unit volumes make tied optima common
    cells, coeff = rng.choice([(2, 1), (5, 6)])
    if not fill:
        return random_chain_on(rng, cx, k, max_cells=cells, coeff=coeff)
    if k == 1:
        return (random_chain_on(rng, cx, 2, max_cells=cells, coeff=coeff).boundary()
                + p * random_chain_on(rng, cx, 1, max_cells=2, coeff=2))
    coeffs = dict(random_chain_on(rng, cx, 0, max_cells=cells, coeff=coeff).coeffs)
    first = next(iter(coeffs))
    coeffs[first] -= sum(coeffs.values()) % p
    return cx.chain(0, coeffs)


@pytest.mark.parametrize("route,reps", [("frontier", 5), ("search", 1)])
def test_witness_is_the_least_optimum_in_id_order(rng, monkeypatch, route, reps):
    # both routes return the least cost, then the least (|v|, v < 0) tuple
    # over the filling's cells in id order
    def no_search(*args, **kwargs):
        raise AssertionError("took the search")

    if route == "search":
        monkeypatch.setattr(flatnorm, "_FRONTIER_STATES", 0)
    else:
        monkeypatch.setattr(flatnorm, "_exact_search", no_search)
    cases = list(itertools.product((2, 3), (0, 1), (2, 3, 5), (False, True))) * reps
    for dim, k, p, fill in cases:
        t = small_instance(rng, dim, k, p, fill)
        want = lexmin_witness_oracle(t, p, fill)
        if not fill:
            w = flat_norm_mod_p(t, p)
            assert (w.value, w.filling) == want, (dim, k, p, t)
        elif want is None:
            with pytest.raises(FillInfeasibleError):
                fill_mod_p(t, p)
        else:
            filling = fill_mod_p(t, p)
            assert (filling.mass_p(p), filling) == want, (dim, k, p, t)


def test_tied_fills_break_in_id_order_not_in_sweep_order():
    # This filling ties at mass 4 with {h0_1, u1_0, u2_0, u2_1}.  In id
    # order (h0_0, h0_1, ...) it comes first, being 0 on h0_1; in the
    # solver's sweep order (h0_0, h1_0, ...) it would come second.
    cx = unit_grid_complex(2)
    chain = cx.chain(0, {v: 1 for v in ("v0_1", "v1_0", "v2_0", "v2_2")})
    want = cx.chain(1, {e: 1 for e in ("h0_2", "h1_0", "h1_2", "u0_1")})
    assert lexmin_witness_oracle(chain, 2, fill=True) == (4, want)
    assert fill_mod_p(chain, 2) == want


def test_modulus_mismatch_and_validation():
    cx, sq = square_setup()
    reduced = sq.boundary().reduce_mod_p(2)
    with pytest.raises(PreconditionError, match="modulus 2, requested 3"):
        flat_norm_mod_p(reduced, 3)
    with pytest.raises(PreconditionError, match="invalid modulus"):
        flat_norm_mod_p(sq, 1)


def test_oracle_refuses_oversized_search():
    big = grid_chain(2, 2, [(0, 6), (0, 4)], 1)
    _, chain = arrangement_complex(big)
    with pytest.raises(PreconditionError, match="oracle too large"):
        flat_norm_mod_p_oracle(chain.boundary(), 2)


# ---------------------------------------------------------------------------
# integral solver

def test_point_difference_on_paths_pinned():
    for lengths, expected in [([1, 1, 1], 2), ([Fraction(1, 2)], Fraction(1, 2)),
                              ([3], 2)]:
        cx = path_complex(lengths)
        last = len(lengths)
        t = cx.chain(0, {f"q{last}": 1, "q0": -1})
        w = flat_norm_int(t)
        assert w.value == expected
        assert w.exact
        assert t == w.remainder + w.filling.boundary()


def test_square_boundary_integral_flat_norm():
    cx, sq = square_setup()
    w = flat_norm_int(sq.boundary())
    assert w.value == 1
    assert w.remainder.is_zero()
    assert abs(w.filling.mass()) == 1
    assert w.exact


def test_integral_bound_argument():
    cx = path_complex([1, 1, 1])
    t = cx.chain(0, {"q3": 1, "q0": -1})
    # the proved optimum (S = 0) fits in the box, so the flow answers
    w = flat_norm_int(t, bound=1)
    assert w.bound is None and w.value == 2 and w.exact
    with pytest.raises(PreconditionError, match="bound"):
        flat_norm_int(t, bound=0)


def test_integral_bound_smaller_than_the_optimum_runs_the_search():
    # twice the unit square's rim: the optimum fills the square twice
    # (value 2); within |S| <= 1 the best is one fill and one rim left (5)
    cx, sq = square_setup()
    rim2 = 2 * sq.boundary()
    assert flat_norm_int(rim2).value == 2
    w = flat_norm_int(rim2, bound=1)
    assert (w.value, w.bound, w.exact) == (5, 1, False)
    assert w.filling == sq and w.remainder == sq.boundary()
    w = flat_norm_int(rim2, bound=2)
    assert (w.value, w.bound, w.exact) == (2, None, True)


def test_integral_solver_matches_brute_force(rng):
    for _ in range(8):
        shape = rng.choice([(1, 3), (3, 1), (2, 1), (1, 2)])
        full = grid_chain(2, 2, [(0, shape[0]), (0, shape[1])], 1)
        cx, _ = arrangement_complex(full)
        t = random_chain_on(rng, cx, 1, max_cells=3, coeff=2)
        w = flat_norm_int(t)
        # |coefficients| <= 2 on at most 3 unit edges: mass(T) <= 6, so no
        # optimal filling has a coefficient above 6
        assert w.value == brute_flat_norm_int(t, 6)
        assert t == w.remainder + w.filling.boundary()


# ---------------------------------------------------------------------------
# integral solver as a min-cost flow

def sufficient_bound(t):
    """No optimal filling has a coefficient above this: one such cell would
    cost more than leaving T as it is."""
    cx = t.complex
    return int(t.mass() / min(cx.volume(s) for s in cx.cells(t.dim + 1))) + 1


def check_against_search(t, brute_limit=3000):
    """The flow's value equals the search at a sufficient bound and, when
    small enough, brute force; returns the flow witness."""
    w = flat_norm_int(t)
    assert w.exact and w.bound is None
    assert t == w.remainder + w.filling.boundary()
    assert w.value == w.remainder.mass() + w.filling.mass()
    b = sufficient_bound(t)
    cost, _ = _exact_search(_Problem(t), bound=b)
    assert w.value == cost
    if (2 * b + 1) ** len(t.complex.cells(t.dim + 1)) <= brute_limit:
        assert w.value == brute_flat_norm_int(t, b)
    return w


def relabelled(cx, rng, flip=0.0):
    """A copy of cx with random exact volumes on the positive-dimensional
    cells, and each top cell's orientation reversed with probability flip."""
    top = cx.top_dim
    layout = {}
    for d in cx.dims():
        rows = []
        for cid in cx.cells(d):
            vol = 1 if d == 0 else rng.choice([Fraction(1, 2), Fraction(1, 3),
                                               Fraction(2, 3), 1, Fraction(3, 2)])
            sign = -1 if d == top and rng.random() < flip else 1
            rows.append((cid, vol, [(f, sign * c) for f, c in cx.boundary_of(cid).items()]))
        layout[d] = rows
    return Complex(layout)


def random_graph(rng, nodes=6, edges=8):
    """A random multigraph-free graph complex with fractional edge lengths."""
    verts = [f"v{i}" for i in range(nodes)]
    pairs = rng.sample(list(itertools.combinations(verts, 2)), edges)
    return Complex({0: [(v, 1, []) for v in verts],
                    1: [(f"e{i}", rng.choice([Fraction(1, 2), Fraction(1, 3), 1, 2]),
                         [(a, -1), (b, 1)]) for i, (a, b) in enumerate(pairs)]})


def test_flow_matches_search_on_box_complexes(rng):
    for _ in range(25):
        cx = random_grid_complex(rng, small=True)
        t = random_chain_on(rng, cx, cx.top_dim - 1, max_cells=3, coeff=2)
        check_against_search(t)


def test_flow_matches_search_on_flipped_fractional_complexes(rng):
    # reversed top cells need the 2-colouring; volumes scale by their LCM
    for _ in range(25):
        cx = relabelled(random_grid_complex(rng, small=True), rng, flip=0.5)
        t = random_chain_on(rng, cx, cx.top_dim - 1, max_cells=3, coeff=2)
        w = check_against_search(t)
        assert isinstance(w.value, (int, Fraction))


def test_flow_matches_search_on_graph_0_chains(rng):
    # vertices of degree 3 or more: the primal-flow case
    for _ in range(15):
        cx = random_graph(rng)
        t = random_chain_on(rng, cx, 0, max_cells=3, coeff=2)
        check_against_search(t)
    grid = unit_grid_complex(3)
    for _ in range(5):
        check_against_search(random_chain_on(rng, grid, 0, max_cells=3, coeff=2))
    # a triangle with a pendant edge is small enough for brute force
    paw = Complex({0: [(v, 1, []) for v in "abcd"],
                   1: [(f"{u}{v}", 1, [(u, -1), (v, 1)]) for u, v in ("ab", "bc", "ac", "cd")]})
    for _ in range(4):
        check_against_search(random_chain_on(rng, paw, 0, max_cells=3, coeff=1),
                             brute_limit=10 ** 4)


def test_flow_witness_is_the_least_optimal_filling():
    # two unit edges: q2 - q0 costs 2 as it stands or filled by the path;
    # the least filling is 0 for q2 - q0 and -(e1 + e2) for q0 - q2
    cx = path_complex([1, 1])
    assert flat_norm_int(cx.chain(0, {"q2": 1, "q0": -1})).filling.is_zero()
    assert flat_norm_int(cx.chain(0, {"q0": 1, "q2": -1})).filling == cx.chain(
        1, {"e1": -1, "e2": -1})


def test_flow_witness_does_not_depend_on_listing_order(rng):
    cx = random_grid_complex(rng, small=True)
    mirror = Complex({d: [(cid, cx.volume(cid), list(reversed(cx.boundary_of(cid).items())))
                          for cid in reversed(cx.cells(d))] for d in reversed(cx.dims())})
    for _ in range(10):
        t = random_chain_on(rng, cx, cx.top_dim - 1, coeff=2)
        w = flat_norm_int(t)
        v = flat_norm_int(mirror.chain(t.dim, dict(t.coeffs)))
        assert dict(w.filling.coeffs) == dict(v.filling.coeffs)


def test_codimension_2_takes_the_search():
    # in a 2x1x1 block of cubes an edge of the shared square has three
    # square cofaces and every square four edges: no network structure
    cx, _ = arrangement_complex(grid_chain(3, 3, [(0, 2), (0, 1), (0, 1)], 1))
    edge = cx.chain(1, {cx.cells(1)[0]: 1})
    w = flat_norm_int(edge)
    assert (w.value, w.bound, w.exact) == (1, 4, True)
    # with squares of area 1/100 the box test no longer proves the value
    tiny = Complex({d: [(cid, Fraction(1, 100) if d == 2 else cx.volume(cid),
                         list(cx.boundary_of(cid).items())) for cid in cx.cells(d)]
                    for d in cx.dims()})
    w = flat_norm_int(tiny.chain(1, dict(edge.coeffs)))
    assert (w.value, w.bound, w.exact) == (1, 4, False)


def test_float_volumes_take_the_flow(rng):
    cx = path_complex([0.01] * 4)
    w = flat_norm_int(cx.chain(0, {"q4": 3, "q0": -3}))
    assert w.exact and w.bound is None
    assert abs(w.value - 0.12) < 1e-12
    for _ in range(5):
        fcx = random_grid_complex(rng, float_volumes=True, small=True)
        t = random_chain_on(rng, fcx, fcx.top_dim - 1, max_cells=3, coeff=2)
        w = flat_norm_int(t)
        assert w.exact and w.bound is None
        old_bound = 2 * (max(abs(g) for _, g in t.items()) + 1)
        cost, _ = _exact_search(_Problem(t), bound=3 * old_bound)
        assert abs(w.value - cost) <= 1e-12 * max(1.0, abs(cost))


def float_edge_grid(rng, shape):
    """The unit box grid of this shape with edge lengths drawn from 0.1,
    0.2 and 0.3; every other cell keeps its volume."""
    n = len(shape)
    cx, _ = arrangement_complex(grid_chain(n, n, [(0, s) for s in shape], 1))
    return Complex({d: [(cid, rng.choice([0.1, 0.2, 0.3]) if d == 1 else cx.volume(cid),
                         sorted(cx.boundary_of(cid).items())) for cid in cx.cells(d)]
                    for d in cx.dims()})


def test_float_zero_chains_on_grids_are_proved_quickly(rng):
    # a 0-chain is a network problem whatever its volumes: the flow proves
    # it, where an unbounded search over the edges could run for minutes
    shapes = [(1, 2), (2, 2), (3, 3), (4, 4), (1, 1, 1), (1, 1, 2), (2, 2, 2), (3, 3, 3)]
    elapsed = 0.0
    for shape in shapes * 2:
        cx = float_edge_grid(rng, shape)
        t = random_chain_on(rng, cx, 0, max_cells=3, coeff=2)
        started = time.perf_counter()
        w = flat_norm_int(t)
        elapsed += time.perf_counter() - started
        assert w.exact and w.bound is None
        assert t == w.remainder + w.filling.boundary()
        if len(cx.cells(1)) <= 12:
            # an acyclic optimal flow carries at most sum |T| on any edge
            cost, _ = _exact_search(_Problem(t), bound=sum(abs(g) for _, g in t.items()))
            assert abs(w.value - cost) <= 1e-12 * max(1.0, abs(cost))
    assert elapsed < 1.0


@pytest.mark.parametrize("n,limit", [(5, 0.1), (20, 1.0)])
def test_random_grid_chains_are_proved_quickly(n, limit):
    cx = unit_grid_complex(n)
    rng = random.Random(n)
    t = cx.chain(1, {e: rng.choice([-1, 1]) for e in cx.cells(1)})
    started = time.perf_counter()
    w = flat_norm_int(t)
    elapsed = time.perf_counter() - started
    assert w.exact and w.bound is None
    assert t == w.remainder + w.filling.boundary()
    assert elapsed < limit


# ---------------------------------------------------------------------------
# inequality suite (the acceptance run repeats these at volume)

def test_boundary_inequality(rng):
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        cx = random_grid_complex(rng, small=True)
        t = random_chain_on(rng, cx, cx.top_dim)
        assert flat_norm_mod_p(t.boundary(), p).value <= flat_norm_mod_p(t, p).value


def test_flat_norm_sandwich(rng):
    # the integral solve stays at codimension 1 so the filling search is
    # over the handful of top cells, not every edge of the grid
    for _ in range(15):
        p = rng.choice([2, 3, 5])
        cx = random_grid_complex(rng, small=True)
        t = random_chain_on(rng, cx, cx.top_dim - 1, coeff=2)
        fp = flat_norm_mod_p(t, p).value
        fi = flat_norm_int(t).value
        assert fp <= fi <= t.mass()
        assert fp <= t.mass_p(p)


def test_nondegeneracy(rng):
    for _ in range(15):
        p = rng.choice([2, 3])
        cx = random_grid_complex(rng, small=True)
        t = random_chain_on(rng, cx, cx.top_dim - 1)
        value = flat_norm_mod_p(t, p).value
        assert (value == 0) == t.reduce_mod_p(p).is_zero()
        assert flat_norm_mod_p(p * t, p).value == 0


def test_triangle_inequality(rng):
    for _ in range(15):
        p = rng.choice([2, 3])
        cx = random_grid_complex(rng, small=True)
        k = cx.top_dim - 1
        a = random_chain_on(rng, cx, k)
        b = random_chain_on(rng, cx, k)
        assert (flat_norm_mod_p(a + b, p).value
                <= flat_norm_mod_p(a, p).value + flat_norm_mod_p(b, p).value)


# ---------------------------------------------------------------------------
# fillings and the isoperimetric ratio

def test_fill_pinned_examples():
    cx, sq = square_setup()
    filling = fill_mod_p(sq.boundary(), 2)
    assert filling.mass_p(2) == 1
    assert (filling.boundary() - sq.boundary()).reduce_mod_p(2).is_zero()

    zero = cx.zero_chain(1)
    assert fill_mod_p(zero, 2).is_zero()


def test_fill_rejects_non_cycles():
    cx, sq = square_setup()
    edge = cx.chain(1, {cx.cells(1)[0]: 1})
    with pytest.raises(PreconditionError, match="not a cycle mod p: boundary residue"):
        fill_mod_p(edge, 2)


def test_fill_infeasible_without_top_cells(monkeypatch):
    # each solver's exit when nothing costs less than the limit
    def no_search(*args, **kwargs):
        raise AssertionError("took the search")

    sq = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    cx, rim = compile_chain(sq.boundary())  # 1-skeleton only
    with monkeypatch.context() as patch:
        patch.setattr(flatnorm, "_exact_search", no_search)
        with pytest.raises(FillInfeasibleError, match="infeasible in this complex"):
            fill_mod_p(rim, 2)
    monkeypatch.setattr(flatnorm, "_FRONTIER_STATES", 0)
    with pytest.raises(FillInfeasibleError, match="infeasible in this complex"):
        fill_mod_p(rim, 2)


def test_fill_checks_the_solver_cost(monkeypatch):
    solve = flatnorm._solve_mod_p

    def off_by_one(prob, p, limit):
        cost, s_coeffs = solve(prob, p, limit)
        return cost + 1, s_coeffs

    _, sq = square_setup()
    assert fill_mod_p(sq.boundary(), 3).mass_p(3) == 1
    monkeypatch.setattr(flatnorm, "_solve_mod_p", off_by_one)
    with pytest.raises(InternalDefectError, match="solver cost disagrees"):
        fill_mod_p(sq.boundary(), 3)


def test_fill_zero_dimensional_chain():
    cx = path_complex([1, 1, 1])
    t = cx.chain(0, {"q3": 1, "q0": -1})
    s = fill_mod_p(t, 2)
    assert (s.boundary() - t).reduce_mod_p(2).is_zero()
    assert s.mass_p(2) == 3


def test_fill_zero_dimensional_chain_per_component():
    # two separate edges: the total sum vanishes, each component's does not
    cx = Complex({0: [("a", 1, []), ("b", 1, []), ("c", 1, []), ("d", 1, [])],
                  1: [("ab", 1, [("a", -1), ("b", 1)]),
                      ("cd", 1, [("c", -1), ("d", 1)])]})
    with pytest.raises(FillInfeasibleError, match="infeasible in this complex"):
        fill_mod_p(cx.chain(0, {"a": 1, "c": -1}), 3)
    assert fill_mod_p(cx.chain(0, {"a": 1, "b": -1}), 3) == cx.chain(1, {"ab": -1})


def test_fill_zero_dimensional_chain_with_a_one_ended_edge():
    # the edge's boundary sums to 1, so a lone vertex bounds
    cx = Complex({0: [("a", 1, [])], 1: [("e", 1, [("a", 1)])]})
    assert fill_mod_p(cx.chain(0, {"a": 1}), 2) == cx.chain(1, {"e": 1})


def test_isoperimetric_pinned_values():
    _, sq = square_setup()
    rim = sq.boundary()
    assert isoperimetric_ratio(rim, 2) == Fraction(1, 16)
    assert isoperimetric_ratio(rim, 3) == Fraction(1, 16)

    rect = grid_chain(2, 2, [(0, 2), (0, 1)], 1)
    _, tr = arrangement_complex(rect)
    assert isoperimetric_ratio(tr.boundary(), 2) == Fraction(1, 18)


def test_isoperimetric_preconditions():
    cx, sq = square_setup()
    with pytest.raises(PreconditionError, match="zero cycle"):
        isoperimetric_ratio(cx.zero_chain(1), 2)
    point = cx.chain(0, {cx.cells(0)[0]: 2})
    with pytest.raises(PreconditionError, match="dimension"):
        isoperimetric_ratio(point, 2)


# ---------------------------------------------------------------------------
# refinement

def test_refinement_pinned():
    sq = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    assert flat_norm_under_refinement(sq.boundary(), 2, 2) == (1, 1)


def test_refinement_is_monotone(rng):
    from genutil import random_box_chain

    for _ in range(10):
        t = random_box_chain(rng, 2, 1, max_cells=2, denom=1, lo=0, hi=2)
        coarse, refined = flat_norm_under_refinement(t, 2, 2)
        assert refined <= coarse


def test_refinement_preconditions():
    cx, sq = square_setup()
    with pytest.raises(PreconditionError, match="box"):
        flat_norm_under_refinement(sq, 2, 2)
    box = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    with pytest.raises(PreconditionError, match="subdivision"):
        flat_norm_under_refinement(box, 2, 1)


# ---------------------------------------------------------------------------
# restriction flat-norm control

def test_restriction_controls_flat_norm(rng):
    # midpoint quadrature of r -> F_p(T below r) against (width + 1) * F_p(T);
    # the integrand is concave between breakpoints, so this overestimates the
    # integral and the check is conservative
    from genutil import generic_level, random_box_chain

    for _ in range(8):
        p = rng.choice([2, 3])
        t = random_box_chain(rng, 2, rng.choice([1, 2]), max_cells=2,
                             denom=2, lo=0, hi=2, coeff=3, nonzero=True)
        total = flat_norm_mod_p(arrangement_complex(t)[1], p).value
        for axis in range(2):
            vals = t.axis_values(axis)
            if len(vals) < 2:
                continue
            quad = 0
            for lo, hi in zip(vals, vals[1:]):
                mid = (lo + hi) / 2
                piece = t.restrict(axis, mid)
                if piece.is_zero():
                    continue
                quad += (hi - lo) * flat_norm_mod_p(
                    arrangement_complex(piece)[1], p).value
            width = vals[-1] - vals[0]
            assert quad <= (width + 1) * total
