"""Simplicial chains and coning over an apex."""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flatchains import (
    ChainFile,
    InternalDefectError,
    PreconditionError,
    Simplex,
    SimplicialChain,
    boundary_simplicial,
    cone,
    cone_mass_report,
    format_number,
    load_chainfile,
    parse_chainfile,
    serialize_chainfile,
)
from flatchains.fileio import _chain_doc
from genutil import (
    generic_apex,
    mixed_point,
    mixed_simplicial_items,
    random_simplicial_chain,
    ref_cone,
    ref_cone_report,
    ref_simplicial,
    ref_simplicial_boundary,
    ref_simplicial_mass,
    ref_volume_squared,
    span_point,
)

cone_module = sys.modules["flatchains.cone"]  # flatchains.cone is the function


def seg(a, b):
    return Simplex((a, b))


def test_simplex_geometry_pinned():
    assert seg((0, 0), (1, 0)).volume == 1.0
    tri = Simplex(((0, 0), (1, 0), (0, 1)))
    assert tri.volume_squared == Fraction(1, 4)
    assert tri.volume == 0.5
    tetra = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert tetra.volume_squared == Fraction(1, 36)
    assert Simplex(((0, 0), (1, 0), (2, 0))).degenerate
    assert Simplex(((3, 4),)).volume_squared == 1


def test_simplex_validation():
    with pytest.raises(PreconditionError, match="at least one vertex"):
        Simplex(())
    with pytest.raises(PreconditionError, match="different dimensions"):
        Simplex(((0, 0), (1,)))
    with pytest.raises(PreconditionError, match="does not fit"):
        Simplex(((0,), (1,), (2,)))


def test_faces_and_canonical_sign():
    tri = Simplex(((0, 0), (1, 0), (0, 1)))
    assert tri.face(1) == Simplex(((0, 0), (0, 1)))
    swapped = Simplex(((1, 0), (0, 0)))
    canon, sign = swapped.canonical()
    assert canon == seg((0, 0), (1, 0)) and sign == -1


def test_chain_folds_orientation_into_coefficients():
    fwd = SimplicialChain(2, 1, [(seg((0, 0), (1, 0)), 1)])
    rev = SimplicialChain(2, 1, [(seg((1, 0), (0, 0)), 1)])
    assert rev == -fwd
    assert (fwd + rev).is_zero()


def test_chain_drops_degenerate_cells():
    flat = SimplicialChain(2, 2, [(Simplex(((0, 0), (1, 0), (2, 0))), 5)])
    assert flat.is_zero()


def test_chain_validation():
    with pytest.raises(PreconditionError, match="not an integer"):
        SimplicialChain(2, 1, [(seg((0, 0), (1, 0)), Fraction(1, 2))])
    with pytest.raises(PreconditionError, match="does not match"):
        SimplicialChain(2, 1, [(Simplex(((0, 0),)), 1)])
    with pytest.raises(PreconditionError, match="different shape"):
        (SimplicialChain(2, 1, [(seg((0, 0), (1, 0)), 1)])
         + SimplicialChain(2, 0, [(Simplex(((0, 0),)), 1)]))
    for ambient, dim in ((2, 3), (2, -1)):
        with pytest.raises(PreconditionError,
                           match=rf"^dimension {dim} invalid in ambient {ambient}$"):
            SimplicialChain(ambient, dim)


def test_chain_repr_and_operators_on_other_values():
    t = SimplicialChain(2, 1, [(seg((0, 0), (1, Fraction(1, 2))), 2), (seg((0, 0), (0, 1)), -1)])
    assert repr(t) == "SimplicialChain(-1*Simplex[(0,0), (0,1)] + 2*Simplex[(0,0), (1,1/2)])"
    assert repr(SimplicialChain(3, 1)) == "SimplicialChain(0; dim 1 in R^3)"
    assert t.__eq__(1) is NotImplemented and t != 1
    assert t.__add__(1) is NotImplemented and t.__rmul__(Fraction(2)) is NotImplemented
    with pytest.raises(TypeError):
        t + 1
    with pytest.raises(TypeError):
        Fraction(2) * t
    with pytest.raises(TypeError):
        True * t  # a bool is no coefficient
    assert SimplicialChain(2, 1) != SimplicialChain(3, 1)
    assert t != SimplicialChain(3, 1, [(seg((0, 0, 0), (1, Fraction(1, 2), 0)), 2)])
    assert Simplex(((0, 0, 0), (1, 0, 0))).ambient_dim == 3


def test_boundary_pinned_and_squares_to_zero():
    tri_chain = SimplicialChain(2, 2, [(Simplex(((0, 0), (1, 0), (0, 1))), 1)])
    b = boundary_simplicial(tri_chain)
    assert len(b) == 3 and b.mass() == pytest.approx(2 + math.sqrt(2))
    assert boundary_simplicial(b).is_zero()
    point = SimplicialChain(2, 0, [(Simplex(((0, 0),)), 1)])
    with pytest.raises(PreconditionError, match="no boundary"):
        boundary_simplicial(point)


def test_cone_pinned_example():
    t = SimplicialChain(2, 1, [(seg((1, 0), (1, 1)), 1)])
    c = cone((0, 0), t)
    assert c == SimplicialChain(2, 2, [(Simplex(((0, 0), (1, 0), (1, 1))), 1)])
    report = cone_mass_report((0, 0), t, p=2)
    assert report.cone_mass == 0.5
    assert report.cone_mass_p == 0.5
    assert report.radius == 1.4142135623730951


def test_cone_identity_on_a_fan():
    tri_chain = SimplicialChain(2, 2, [(Simplex(((0, 0), (3, 0), (0, 3))), 1)])
    rim = boundary_simplicial(tri_chain)
    fan = cone((1, 1), rim)
    assert len(fan) == 3
    assert boundary_simplicial(fan) == rim  # the rim is a cycle


def test_cone_identity_for_point_chains():
    t = SimplicialChain(2, 0, [(Simplex(((1, 0),)), 2), (Simplex(((0, 1),)), 3)])
    c = cone((0, 0), t)
    apex_chain = SimplicialChain(2, 0, [(Simplex(((0, 0),)), 5)])
    assert boundary_simplicial(c) == t - apex_chain


def test_cone_twice_is_zero():
    t = SimplicialChain(3, 1, [(seg((1, 0, 0), (0, 1, 0)), 2)])
    once = cone((0, 0, 1), t)
    assert cone((0, 0, 1), once).is_zero()
    points = SimplicialChain(2, 0, [(Simplex(((1, 1),)), 1)])
    assert cone((0, 0), cone((0, 0), points)).is_zero()


def test_cone_preconditions():
    t = SimplicialChain(2, 1, [(seg((0, 0), (1, 0)), 1)])
    with pytest.raises(PreconditionError, match="apex lives in dimension 3"):
        cone((0, 0, 0), t)
    line = SimplicialChain(1, 1, [(Simplex(((0,), (1,))), 1)])
    with pytest.raises(PreconditionError, match="no room"):
        cone((2,), line)


def test_cone_identity_random(rng):
    for _ in range(25):
        k = rng.choice([1, 2])
        t = random_simplicial_chain(rng, 3, k)
        if t.is_zero():
            continue
        x = generic_apex(rng, t)
        lhs = boundary_simplicial(cone(x, t))
        assert lhs == t - cone(x, boundary_simplicial(t))


def test_cone_mass_bounds_random(rng):
    for _ in range(20):
        k = rng.choice([0, 1])
        t = random_simplicial_chain(rng, 2, k)
        if t.is_zero():
            continue
        x = generic_apex(rng, t)
        p = rng.choice([2, 3])
        report = cone_mass_report(x, t, p=p)
        tol = 1e-9 * (1 + report.radius * t.mass())
        assert report.cone_mass <= report.radius * t.mass() + tol
        assert report.cone_mass_p <= report.radius * t.mass_p(p) + tol


def test_cone_report_checks_each_cell_exactly(monkeypatch):
    # the segment (1,0)-(1,1) under the apex (0,0): r^2 = 2, the base's
    # Gram determinant is 1 and the cone's is 1.  A cone determinant of
    # 3 = r^2 * 1 + 1 breaks the per-cell bound, though its float masses
    # still meet it (sqrt(3)/2 <= sqrt(2) * 1)
    t = load_chainfile(Path(__file__).parent / "fixtures" / "segment.chain").payload
    assert cone_mass_report((0, 0), t, p=2) == (0.5, 0.5, math.sqrt(2))
    gram_det = cone_module._gram_det
    monkeypatch.setattr(cone_module, "_gram_det",
                        lambda key: 3 if len(key) == 3 else gram_det(key))
    with pytest.raises(InternalDefectError, match="Gram determinant 3 above 2 times"):
        cone_mass_report((0, 0), t)


def test_cone_report_at_equality_and_on_a_degenerate_cone():
    # the cone over a point at distance r meets the bound with equality;
    # a segment on a line through the apex cones to nothing
    points = SimplicialChain(2, 0, [(((3, 4),), 1), (((0, 5),), -2), (((1, 1),), 1)])
    assert cone_mass_report((0, 0), points, p=3) == (
        15 + math.sqrt(2), 10 + math.sqrt(2), 5.0)
    t = SimplicialChain(2, 1, [(seg((0, 1), (1, 1)), 2), (seg((0, 2), (0, 3)), -1)])
    assert len(cone((0, 0), t)) == 1
    assert cone_mass_report((0, 0), t) == (1.0, None, 3.0)


# ---------------------------------------------------------------------------
# differential tests against the Fraction reference


def tokens(ref):
    return [[" ; ".join(",".join(format_number(c) for c in v) for v in vertices), g]
            for vertices, g in ref]


def assert_matches(chain, ref):
    assert [(s.vertices, g) for s, g in chain.items()] == ref
    assert _chain_doc(chain)["items"] == tokens(ref)
    assert len(chain) == len(ref)
    assert chain.mass() == ref_simplicial_mass(ref)
    for p in (2, 3, 5):
        assert chain.mass_p(p) == ref_simplicial_mass(ref, lambda g: min(g % p, -g % p))


def test_chains_match_the_fraction_reference(rng):
    cases = cones = 0
    while cases < 80:
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        items = mixed_simplicial_items(rng, n, k)
        for vertices, _ in items:
            assert Simplex(vertices).volume_squared == ref_volume_squared(
                [tuple(Fraction(c) for c in v) for v in vertices])
        t = SimplicialChain(n, k, items)
        ref = ref_simplicial(items)
        assert_matches(t, ref)
        cases += 1
        # the parser's path: numerators straight from the file's text
        cf = parse_chainfile(serialize_chainfile(ChainFile("simplicial", t)))
        assert cf.payload == t
        assert_matches(cf.payload, ref)
        if k >= 1:
            assert_matches(boundary_simplicial(t), ref_simplicial_boundary(ref))
        if k < n and ref:
            cell = rng.choice(ref)[0]
            x = span_point(rng, cell) if rng.random() < 0.3 else mixed_point(rng, n)
            assert_matches(cone(x, t), ref_cone(x, ref))
            p = rng.choice([2, 3])
            assert tuple(cone_mass_report(x, t, p)) == ref_cone_report(x, ref, p)
            cones += 1
    assert cones >= 30


def test_a_determinant_per_simplex(monkeypatch, rng):
    # the Gram determinant of each simplex is computed once, when its
    # chain is built: the report's masses reuse them
    tris = []
    while len(tris) < 200:
        s = Simplex(tuple(tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(3)))
        if not s.degenerate:
            tris.append((s, rng.choice((1, -1, 2))))
    t = SimplicialChain(3, 2, tris)
    apex = (Fraction(1, 3), Fraction(2, 7), Fraction(31, 5))
    calls = []
    det = cone_module._det
    monkeypatch.setattr(cone_module, "_det", lambda rows: calls.append(1) or det(rows))
    cone_mass_report(apex, t, p=3)
    monkeypatch.undo()
    assert len(calls) <= len(t) + len(cone(apex, t))
