"""Box chains: construction, restriction, slicing, slice-mass integrals."""

import itertools
import math
from fractions import Fraction

import pytest

from flatchains import (
    BoxCell,
    BoxChain,
    PreconditionError,
    arrangement_complex,
    canonical_residue,
    compile_chain,
    deform,
    grid_chain,
    slice_mass_integral,
    slice_mass_star,
)
from genutil import (
    cross_section,
    generic_level,
    mixed_box_items,
    random_box_chain,
    ref_boundary,
    ref_chain,
    ref_mass,
    ref_mass_p,
    ref_neg,
    ref_push_round,
    ref_restrict,
    ref_slice,
    ref_sum,
    ref_token,
    slice_mass_integral_oracle,
)


def unit_square():
    return BoxChain(2, 2, [(BoxCell(((0, 1), (0, 1))), 1)])


def cell(*intervals):
    return BoxCell(tuple(intervals))


# ---------------------------------------------------------------------------
# cells and chains

def test_cell_geometry():
    c = cell((0, 1), (Fraction(1, 2), Fraction(1, 2)))
    assert c.dim == 1
    assert c.directions == (0,)
    assert c.volume == 1
    assert cell((0, 2), (0, 3)).volume == 6
    with pytest.raises(PreconditionError, match="reversed"):
        cell((1, 0))


def test_cell_equality_and_hash_ignore_coordinate_type():
    as_int = cell((0, 1), (2, 2))
    as_fraction = cell((Fraction(0), Fraction(1)), (Fraction(2), Fraction(2)))
    as_text = cell(("0.0", "1"), ("2", "2.00"))
    assert as_int == as_fraction == as_text
    assert hash(as_int) == hash(as_fraction) == hash(as_text)
    assert len({as_int, as_fraction, as_text}) == 1
    other = cell((0, Fraction(1, 2)), (2, 2))
    ordered = sorted([as_text, other, as_int, as_fraction])
    assert ordered[0] == other and ordered[1:] == [as_int] * 3
    assert not as_int < as_text and not as_text < as_int


def test_cell_directions_on_degenerate_axes():
    c = cell((0, 1), (Fraction(1, 3), Fraction(1, 3)), (-2, 5))
    assert c.directions == (0, 2) and c.dim == 2
    point = cell((1, 1), (0, 0))
    assert point.directions == () and point.dim == 0
    assert cell((0, 1), (0, 0)).face(0, "hi").directions == ()
    assert cell((0, 0), (0, 0)).replace(1, 0, 2).directions == (1,)


def test_cell_cached_fields_stay_out_of_identity():
    c = cell((0, 1), (2, 2), (0, Fraction(3, 2)))
    assert repr(c) == "[0,1]x{2}x[0,3/2]"
    assert c.id_token() == "b2[0..1;2;0..3/2]"
    # the intervals are the only constructor argument
    with pytest.raises(TypeError):
        BoxCell(c.intervals, ())
    # equality and order see the intervals alone, even when a cached field differs
    twin = cell((0, 1), (2, 2), (0, Fraction(3, 2)))
    object.__setattr__(twin, "directions", ())
    assert twin == c and not twin < c and not c < twin


def test_chain_canonicalization_splits_overlaps():
    a = BoxChain(1, 1, [(cell((0, 2)), 1), (cell((1, 3)), 1)])
    assert dict(a.items()) == {cell((0, 1)): 1, cell((1, 2)): 2, cell((2, 3)): 1}
    # equality is about the underlying current, not the box list
    halves = BoxChain(1, 1, [(cell((0, 1)), 1), (cell((1, 2)), 1)])
    assert halves == BoxChain(1, 1, [(cell((0, 2)), 1)])
    assert BoxChain(1, 1, [(cell((0, 1)), 1), (cell((0, 1)), -1)]).is_zero()


def test_chain_construction_rules():
    with pytest.raises(PreconditionError):
        BoxChain(2, 1, [(cell((0, 1), (0, 1)), 1)])  # dim mismatch
    with pytest.raises(PreconditionError):
        BoxChain(1, 1, [(cell((0, 1), (0, 0)), 1)])  # wrong ambient
    with pytest.raises(PreconditionError):
        BoxChain(1, 1, [(cell((0, 1)), Fraction(1, 2))])
    with pytest.raises(PreconditionError):
        2.0 * BoxChain(1, 1, [(cell((0, 1)), 1)])


def test_negation_and_scaling_match_the_constructor(rng):
    # -c and n * c skip re-canonicalization; they must equal the chains the
    # constructor builds from the same item maps, cell for cell
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        k = rng.randint(0, n)
        t = random_box_chain(rng, n, k, max_cells=4)
        for scaled, factor in ((-t, -1), (3 * t, 3), (0 * t, 0)):
            built = BoxChain(n, k, {c: factor * g for c, g in t.items()})
            assert (scaled.ambient_dim, scaled.dim) == (n, k)
            assert scaled.items() == built.items()
            assert scaled == built
    assert (0 * t).is_zero()
    with pytest.raises(PreconditionError):
        Fraction(1, 2) * t


def test_reduce_mod_p_matches_the_constructor(rng):
    # reduce_mod_p skips re-canonicalization: dropping the cells whose
    # residue is 0 only removes cuts
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        k = rng.randint(0, n)
        t = random_box_chain(rng, n, k, max_cells=5, coeff=6)
        for p in (2, 3, 5):
            reduced = t.reduce_mod_p(p)
            built = BoxChain(n, k, {c: canonical_residue(g, p) for c, g in t.items()})
            assert (reduced.ambient_dim, reduced.dim) == (n, k)
            assert reduced.items() == built.items()
            assert reduced == built


def same_as_fresh(c):
    fresh = BoxCell(c.intervals)
    assert c == fresh and hash(c) == hash(fresh)
    assert c.directions == fresh.directions and repr(c) == repr(fresh)
    assert c.id_token() == fresh.id_token()


def test_faces_and_deformation_cells_match_fresh_cells(rng):
    # faces and the cells restrict and deform build skip __post_init__'s
    # checks; they must be indistinguishable from constructor-built cells
    for _ in range(20):
        n = rng.choice([2, 3])
        t = random_box_chain(rng, n, rng.randint(1, n), max_cells=3, coeff=3, nonzero=True)
        for c, _ in t.items():
            for axis in c.directions:
                for side in ("lo", "hi"):
                    same_as_fresh(c.face(axis, side))
        res = deform(t, 1)
        level = generic_level(rng, t, 0)
        for chain in (res.rounded, res.chain_sweep, res.boundary_sweep,
                      t.restrict(0, level), t.restrict(0, level, "above")):
            for c, _ in chain.items():
                same_as_fresh(c)


def test_boundary_signs_of_the_square():
    b = unit_square().boundary()
    assert b.coefficient(cell((1, 1), (0, 1))) == 1   # right
    assert b.coefficient(cell((0, 0), (0, 1))) == -1  # left
    assert b.coefficient(cell((0, 1), (1, 1))) == -1  # top
    assert b.coefficient(cell((0, 1), (0, 0))) == 1   # bottom


def test_boundary_of_boundary_vanishes(rng):
    for _ in range(40):
        n = rng.choice([2, 3])
        k = rng.randint(2, n)
        t = random_box_chain(rng, n, k)
        assert t.boundary().boundary().is_zero()


def test_mass_and_reduction():
    t = BoxChain(1, 1, [(cell((0, 2)), 3), (cell((3, 4)), -5)])
    assert t.mass() == 11
    assert t.mass_p(3) == 2 * 0 + 1 * 1
    assert dict(t.reduce_mod_p(3).items()) == {cell((3, 4)): 1}


# ---------------------------------------------------------------------------
# grid_chain

def test_grid_chain_pinned_examples():
    sq = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    assert sq == unit_square()
    edges = grid_chain(2, 1, [(0, 1), (0, 1)], 1)
    assert len(edges) == 4 and edges.mass() == 4
    four = grid_chain(2, 2, [(0, 2), (0, 2)], 1)
    assert len(four) == 4 and four.mass() == 4


def test_grid_chain_misaligned_region():
    with pytest.raises(PreconditionError, match="misaligned"):
        grid_chain(2, 2, [(0, Fraction(1, 2)), (0, 1)], 1)


def test_grid_chain_coefficient_callable():
    t = grid_chain(1, 1, [(0, 2)], 1, lambda c: int(c.intervals[0][0]) % 2)
    assert dict(t.items()) == {cell((1, 2)): 1}


# ---------------------------------------------------------------------------
# restriction

def test_restrict_pinned_examples():
    sq = unit_square()
    below = sq.restrict(0, Fraction(1, 2))
    assert below == BoxChain(2, 2, [(cell((0, Fraction(1, 2)), (0, 1)), 1)])
    assert sq.restrict(0, Fraction(-1, 2)).is_zero()
    edge = BoxChain(2, 1, [(cell((0, 0), (0, 1)), 1)])
    assert edge.restrict(0, Fraction(1, 2)) == edge


def test_restrict_rejects_face_levels():
    with pytest.raises(PreconditionError, match="hits a face on axis 0; perturb r"):
        unit_square().restrict(0, 1)
    with pytest.raises(PreconditionError, match="perturb"):
        unit_square().restrict(1, 0)


def test_restrict_level_suggestion_is_usable():
    try:
        unit_square().restrict(0, 0)
    except PreconditionError as err:
        suggested = Fraction(str(err).rsplit("to ", 1)[1].rstrip(")"))
    assert unit_square().restrict(0, suggested) is not None


def test_restrict_additivity(rng):
    for _ in range(60):
        n = rng.choice([2, 3])
        k = rng.randint(0, n)
        t = random_box_chain(rng, n, k)
        axis = rng.randrange(n)
        r = generic_level(rng, t, axis)
        assert t.restrict(axis, r) + t.restrict(axis, r, side="above") == t


def test_restrict_side_argument():
    with pytest.raises(PreconditionError, match="side"):
        unit_square().restrict(0, Fraction(1, 2), side="under")


# ---------------------------------------------------------------------------
# slicing

def test_slice_pinned_examples():
    sq = unit_square()
    half = Fraction(1, 2)
    assert sq.slice(0, half) == BoxChain(2, 1, [(cell((half, half), (0, 1)), 1)])
    assert sq.slice(1, half) == BoxChain(2, 1, [(cell((0, 1), (half, half)), -1)])
    upright = BoxChain(2, 1, [(cell((0, 0), (0, 1)), 1)])
    assert upright.slice(0, half).is_zero()
    flat = BoxChain(2, 1, [(cell((0, 1), (0, 0)), 1)])
    assert flat.slice(0, half) == BoxChain(2, 0, [(cell((half, half), (0, 0)), 1)])


def test_slice_requires_positive_dimension():
    t = BoxChain(1, 0, [(cell((0, 0)), 1)])
    with pytest.raises(PreconditionError):
        t.slice(0, Fraction(1, 2))


def test_slice_matches_geometric_cross_section(rng):
    for _ in range(80):
        n = rng.choice([2, 3])
        k = rng.randint(1, n)
        t = random_box_chain(rng, n, k)
        axis = rng.randrange(n)
        r = generic_level(rng, t, axis)
        assert t.slice(axis, r) == cross_section(t, axis, r)


def test_iterated_slice_pinned_examples():
    sq = unit_square()
    half = Fraction(1, 2)
    point = BoxChain(2, 0, [(cell((half, half), (half, half)), 1)])
    assert sq.iterated_slice((0, 1), (half, half)) == point
    assert sq.iterated_slice((1, 0), (half, half)) == -point
    cube = grid_chain(3, 3, [(0, 1)] * 3, 1)
    got = cube.iterated_slice((0, 1, 2), (half, half, half))
    assert len(got) == 1 and abs(got.items()[0][1]) == 1


def test_iterated_slice_preconditions():
    sq = unit_square()
    with pytest.raises(PreconditionError, match="distinct"):
        sq.iterated_slice((0, 0), (Fraction(1, 4), Fraction(1, 2)))
    with pytest.raises(PreconditionError):
        sq.iterated_slice((0, 1), (Fraction(1, 2),))
    edge = BoxChain(2, 1, [(cell((0, 1), (0, 0)), 1)])
    with pytest.raises(PreconditionError, match="slices"):
        edge.iterated_slice((0, 1), (Fraction(1, 2), Fraction(1, 2)))


def test_boundary_slice_anticommute(rng):
    for _ in range(60):
        n = rng.choice([2, 3])
        k = rng.randint(2, n)
        t = random_box_chain(rng, n, k)
        axis = rng.randrange(n)
        r = generic_level(rng, t, axis)
        assert t.boundary().slice(axis, r) == -(t.slice(axis, r).boundary())


def test_slice_restrict_commute(rng):
    for _ in range(60):
        n = rng.choice([2, 3])
        k = rng.randint(1, n)
        t = random_box_chain(rng, n, k)
        axis = rng.randrange(n)
        u = rng.randrange(n)
        r = generic_level(rng, t, axis)
        s = generic_level(rng, t, u, extra=[r] if u == axis else [])
        lhs = t.restrict(u, s).slice(axis, r)
        rhs = t.slice(axis, r).restrict(u, s)
        if u == axis and s < r:
            # everything below s misses the hyperplane at r
            assert lhs.is_zero() and rhs == t.slice(axis, r).restrict(u, s)
        assert lhs == rhs


def test_slice_order_swap_sign(rng):
    done = 0
    while done < 50:
        n = rng.choice([2, 3])
        k = rng.randint(2, n)
        t = random_box_chain(rng, n, k)
        axes = rng.sample(range(n), 2)
        r = generic_level(rng, t, axes[0])
        s = generic_level(rng, t, axes[1])
        fwd = t.iterated_slice(tuple(axes), (r, s))
        rev = t.iterated_slice(tuple(reversed(axes)), (s, r))
        assert rev == -fwd
        done += 1


def test_slice_group_order_swap_sign_in_r3(rng):
    # groups of sizes (1, 2) on a 3-chain: the swap sign is (-1)**2 = +1
    for _ in range(15):
        t = random_box_chain(rng, 3, 3)
        r0 = generic_level(rng, t, 0)
        r1 = generic_level(rng, t, 1)
        r2 = generic_level(rng, t, 2)
        fwd = t.iterated_slice((0, 1, 2), (r0, r1, r2))
        rev = t.iterated_slice((1, 2, 0), (r1, r2, r0))
        assert rev == fwd


# ---------------------------------------------------------------------------
# slice-mass integrals

def test_slice_mass_integral_pinned_examples():
    sq = unit_square()
    assert slice_mass_integral(sq, (0,), 2) == 1
    assert slice_mass_integral(sq, (0, 1), 2) == 1
    assert slice_mass_integral(3 * sq, (0,), 3) == 0


def test_slice_mass_integral_matches_literal_slicing(rng):
    # random chains with overlapping cells, some cancelling mod p
    cases = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        p = rng.choice([2, 3, 5])
        t = random_box_chain(rng, n, k, max_cells=5, denom=rng.choice([1, 2, 4]), coeff=6)
        style = rng.random()
        if style < 0.3:
            t = t + p * random_box_chain(rng, n, k, max_cells=3, denom=2)
        elif style < 0.4:
            t = p * t
        for m in range(k + 1):
            for axes in itertools.permutations(range(n), m):
                assert slice_mass_integral(t, axes, p) == slice_mass_integral_oracle(t, axes, p)
                cases += 1
    assert cases > 200


def test_slice_mass_integral_cancellation_mod_p():
    # two overlapping squares with coefficients 1 and 2: the overlap cancels mod 3
    t = BoxChain(2, 2, [(cell((0, 2), (0, 1)), 1), (cell((1, 3), (0, 1)), 2)])
    for axes in [(), (0,), (1,), (0, 1), (1, 0)]:
        assert slice_mass_integral(t, axes, 3) == 2 == slice_mass_integral_oracle(t, axes, 3)
    assert slice_mass_integral(3 * t, (0, 1), 3) == 0


def test_slice_mass_integral_preconditions():
    sq = unit_square()
    zero = BoxChain(2, 2, {})
    for chain in (sq, zero):
        for axes in [(2,), (0, 2), (-1,)]:
            with pytest.raises(PreconditionError, match="out of range"):
                slice_mass_integral(chain, axes, 2)
        with pytest.raises(PreconditionError, match="distinct"):
            slice_mass_integral(chain, (0, 0), 2)
        for p in (1, 0, 2.0, None):
            with pytest.raises(PreconditionError, match="invalid modulus"):
                slice_mass_integral(chain, (0,), p)
    edge = BoxChain(2, 1, [(cell((0, 1), (0, 0)), 1)])
    for chain in (edge, BoxChain(2, 1, {})):
        with pytest.raises(PreconditionError, match="cannot integrate 2 slices"):
            slice_mass_integral(chain, (0, 1), 2)
    # a chain with no cell extended along the axis still checks p
    with pytest.raises(PreconditionError, match="invalid modulus"):
        slice_mass_integral(edge, (1,), 1)


def test_slice_mass_star_pinned_examples():
    sq = unit_square()
    assert slice_mass_star(sq, 2) == 1 == sq.mass_p(2)
    edge = BoxChain(2, 1, [(cell((0, 1), (0, 0)), 1)])
    assert slice_mass_star(edge, 2) == 1
    assert slice_mass_star(2 * edge, 2) == 0


def test_slice_mass_integral_bounded_by_relaxed_mass(rng):
    for _ in range(60):
        n = rng.choice([2, 3])
        k = rng.randint(1, n)
        t = random_box_chain(rng, n, k, coeff=5)
        p = rng.choice([2, 3, 5])
        for m in range(1, k + 1):
            for axes in itertools.combinations(range(n), m):
                assert slice_mass_integral(t, axes, p) <= t.mass_p(p)
        assert slice_mass_star(t, p) <= t.mass_p(p)


def test_slice_mass_star_gap_can_be_strict():
    # a staircase: two unit edges meeting at a corner
    t = BoxChain(2, 1, [(cell((0, 1), (0, 0)), 1), (cell((1, 1), (0, 1)), 1)])
    star = slice_mass_star(t, 2)
    assert star == 1 < t.mass_p(2)


# ---------------------------------------------------------------------------
# compilation

def test_compile_pinned_examples():
    cx, t = compile_chain(unit_square())
    assert [cx.num_cells(d) for d in (0, 1, 2)] == [4, 4, 1]
    assert cx.validate().ok
    assert t.mass() == 1

    two = grid_chain(2, 2, [(0, 2), (0, 1)], 1)
    cx2, _ = compile_chain(two)
    assert cx2.num_cells(1) == 7  # the shared edge appears once

    cxe, te = compile_chain(BoxChain(2, 1, {}))
    assert te.is_zero() and cxe.dims() == ()


def test_compiled_boundary_matches_box_boundary(rng):
    for _ in range(20):
        n = rng.choice([2, 3])
        k = rng.randint(1, n)
        t = random_box_chain(rng, n, k)
        cx, tc = compile_chain(t)
        assert cx.validate().ok
        assert tc.boundary().mass() == t.boundary().mass()
        assert tc.mass() == t.mass()


def test_arrangement_complex_has_fillings(rng):
    t = unit_square().boundary()
    cx, tc = arrangement_complex(t)
    assert cx.num_cells(2) == 1
    assert cx.validate().ok
    with pytest.raises(PreconditionError):
        arrangement_complex(t, subdivide=0)


# ---------------------------------------------------------------------------
# the integer lattice against the literal Fraction reference

def box_chain(n, k, items):
    return BoxChain(n, k, [(BoxCell(ivs), g) for ivs, g in items])


def assert_matches(chain, ref):
    cells = sorted(ref)
    assert chain.items() == [(BoxCell(c), ref[c]) for c in cells]
    assert [c.id_token() for c, _ in chain.items()] == [ref_token(c) for c in cells]
    assert chain.mass() == ref_mass(ref)
    for p in (2, 3):
        assert chain.mass_p(p) == ref_mass_p(ref, p)


def new_level(rng, chain, axis):
    # a level off the chain's lattice: its denominator occurs in no coordinate
    while True:
        r = Fraction(rng.randint(-2, 30), rng.choice([11, 13]))
        if r not in chain.axis_values(axis):
            return r


def test_integer_lattice_matches_the_fraction_reference(rng):
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        k = rng.randint(0, n)
        a_items, b_items = mixed_box_items(rng, n, k), mixed_box_items(rng, n, k)
        a, ref_a = box_chain(n, k, a_items), ref_chain(a_items)
        b, ref_b = box_chain(n, k, b_items), ref_chain(b_items)
        assert_matches(a, ref_a)
        # sums of chains whose denominators differ rescale to one lattice
        assert_matches(a + b, ref_sum(ref_a, ref_b))
        assert_matches(a - b, ref_sum(ref_a, ref_neg(ref_b)))
        _, compiled = compile_chain(a)
        assert dict(compiled.items()) == {ref_token(c): g for c, g in ref_a.items()}
        if k:
            assert_matches(a.boundary(), ref_boundary(ref_a))
        for axis in range(n):
            r = new_level(rng, a, axis)
            for side in ("below", "above"):
                assert_matches(a.restrict(axis, r, side), ref_restrict(ref_a, axis, r, side))
            if k:
                assert_matches(a.slice(axis, r), ref_slice(ref_a, axis, r))
        # a coarse scale and thresholds of new denominators push-round exactly
        eta = rng.choice([1, Fraction(1, 2), Fraction(2, 5), Fraction(3, 11)])
        rho = [Fraction(rng.randint(1, 12), 13) for _ in range(n)]
        ref_rounded = ref_a
        for axis, r in enumerate(rho):
            ref_rounded = ref_push_round(ref_rounded, axis, Fraction(eta), r)
        assert_matches(deform(a, eta, rho=rho).rounded, ref_rounded)


def primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % q for q in found):
            found.append(candidate)
        candidate += 1
    return found


def test_distinct_prime_denominators_stay_exact():
    # 40 squares along the diagonal, each overlapping the next, every
    # coordinate with a prime denominator of its own
    pool = iter(primes(160))
    items = [(tuple((i + Fraction(1, next(pool)), i + 1 + Fraction(1, next(pool)))
                    for _ in range(2)), (-1) ** i * (1 + i % 3)) for i in range(40)]
    t, ref = box_chain(2, 2, items), ref_chain(items)
    lattice = math.lcm(*(v.denominator for axis in (0, 1) for v in t.axis_values(axis)))
    assert lattice > 2 ** 300
    assert_matches(t, ref)
    assert_matches(t.boundary(), ref_boundary(ref))
    for axis, r in ((0, Fraction(7, 3)), (1, Fraction(9, 4))):
        assert_matches(t.restrict(axis, r), ref_restrict(ref, axis, r))
        assert_matches(t.slice(axis, r), ref_slice(ref, axis, r))
    assert_matches(t - t, {})
    rho = Fraction(5, 12)  # no coordinate has a composite denominator
    res = deform(t, 1, rho=rho)
    assert_matches(res.rounded, ref_push_round(ref_push_round(ref, 0, 1, rho), 1, 1, rho))
