"""Residue arithmetic, chains, boundaries, validation, cellular maps, value classes."""

import re
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatchains import (
    BoxCell,
    BoxChain,
    CellularMap,
    ChainFile,
    Complex,
    CurveItem,
    CurvePath,
    CurveSystem,
    DeformationResult,
    FlatWitness,
    IntChain,
    ModPChain,
    PreconditionError,
    PreprocessTrace,
    Simplex,
    ValidationReport,
    as_fraction,
    canonical_residue,
    mass_p,
    norm_mod_p,
    push_forward,
    validate_complex,
)
from flatchains.core import _Cell
from genutil import random_chain_on, random_grid_complex

moduli = st.integers(2, 97)
coefficients = st.integers(-10**9, 10**9)


# ---------------------------------------------------------------------------
# residue arithmetic

def test_norm_mod_p_pinned_values():
    assert norm_mod_p(5, 3) == 1
    assert norm_mod_p(2, 4) == 2
    for p in (2, 3, 5, 11):
        assert norm_mod_p(7 * p, p) == 0


@given(coefficients, moduli)
def test_norm_mod_p_is_distance_to_p_multiples(g, p):
    d = norm_mod_p(g, p)
    assert 0 <= d <= p // 2
    assert d == min(abs(g - (g // p) * p), abs(g - (g // p + 1) * p))


@given(coefficients, moduli)
def test_canonical_residue_window_and_congruence(g, p):
    r = canonical_residue(g, p)
    assert -p < 2 * r <= p
    assert (g - r) % p == 0
    assert abs(r) == norm_mod_p(g, p)


def test_canonical_residue_tie_is_positive():
    assert canonical_residue(2, 4) == 2
    assert canonical_residue(-2, 4) == 2
    assert canonical_residue(3, 6) == 3
    assert canonical_residue(-3, 6) == 3


@pytest.mark.parametrize("p", [1, 0, -2, 2.0, "2"])
def test_invalid_modulus_rejected(p):
    with pytest.raises(PreconditionError):
        norm_mod_p(1, p)
    with pytest.raises(PreconditionError):
        canonical_residue(1, p)


def test_non_integer_coefficient_rejected():
    with pytest.raises(PreconditionError):
        norm_mod_p(1.5, 3)


# ---------------------------------------------------------------------------
# hand-built complexes

def path_complex(volumes):
    """Points q0..qm joined by edges e1..em with the given volumes."""
    m = len(volumes)
    return Complex({
        0: [(f"q{i}", 1, []) for i in range(m + 1)],
        1: [(f"e{i}", volumes[i - 1], [(f"q{i - 1}", -1), (f"q{i}", 1)])
            for i in range(1, m + 1)],
    })


def square_complex():
    edges = {
        "EB": [("P00", -1), ("P10", 1)],
        "ET": [("P01", -1), ("P11", 1)],
        "EL": [("P00", -1), ("P01", 1)],
        "ER": [("P10", -1), ("P11", 1)],
    }
    return Complex({
        0: [(p, 1, []) for p in ("P00", "P01", "P10", "P11")],
        1: [(e, 1, b) for e, b in edges.items()],
        2: [("SQ", 1, [("ER", 1), ("EL", -1), ("ET", -1), ("EB", 1)])],
    })


def test_handbuilt_complexes_validate():
    assert path_complex([1, 1, 1]).validate().ok
    assert square_complex().validate().ok


def test_validate_catches_dangling_face():
    cx = Complex({0: [("a", 1, [])],
                  1: [("e", 1, [("a", -1), ("ghost", 1)])]})
    report = cx.validate()
    assert not report.ok
    assert report.cell_id == "e"
    assert "missing" in report.message


def test_validate_catches_wrong_dimension_face():
    cx = Complex({0: [("a", 1, []), ("b", 1, [])],
                  1: [("e", 1, [("a", -1), ("b", 1)])],
                  2: [("s", 1, [("a", 1)])]})
    report = cx.validate()
    assert not report.ok and report.cell_id == "s"


def test_validate_catches_bad_volumes():
    assert not Complex({0: [("a", 2, [])]}).validate().ok
    assert not Complex({0: [("a", 1, [])],
                        1: [("e", 0, [("a", 1)])]}).validate().ok
    assert not Complex({0: [("a", 1, [])],
                        1: [("e", -3, [("a", 1)])]}).validate().ok
    for bad in (float("inf"), float("nan")):
        report = Complex({0: [("a", 1, [])], 1: [("e", bad, [("a", 1)])]}).validate()
        assert (report.ok, report.cell_id, report.message) == (
            False, "e", "cell volume must be finite")


def test_validate_refuses_a_volume_not_comparable_to_0():
    report = Complex({0: [("a", 1, [])], 1: [("e", "x", [("a", 1)])]}).validate()
    assert (report.ok, report.cell_id, report.message, report.detail) == (
        False, "e", "cell volume is not comparable to 0", {"volume": "x"})


def test_validate_catches_nonzero_boundary_of_boundary():
    cx = Complex({
        0: [("a", 1, []), ("b", 1, [])],
        1: [("e", 1, [("a", -1), ("b", 1)]), ("f", 1, [("a", -1), ("b", 1)])],
        2: [("s", 1, [("e", 1), ("f", 1)])],
    })
    report = cx.validate()
    assert not report.ok
    assert report.cell_id == "s"
    assert "boundary of boundary" in report.message


def test_validate_catches_dim0_with_boundary():
    cx = Complex({0: [("a", 1, []), ("b", 1, [("a", 1)])]})
    assert not cx.validate().ok


def test_duplicate_cell_id_rejected():
    with pytest.raises(PreconditionError):
        Complex({0: [("a", 1, []), ("a", 1, [])]})


@pytest.mark.parametrize("dim", [-1, "1", 1.0])
def test_a_bad_dimension_is_rejected(dim):
    with pytest.raises(PreconditionError, match=re.escape(f"invalid cell dimension {dim!r}")):
        Complex({dim: [("a", 1, [])]})
    cx = Complex({0: [("a", 1, [])]})
    with pytest.raises(PreconditionError, match=re.escape(f"invalid chain dimension {dim!r}")):
        IntChain(cx, dim, {})


def test_a_non_integer_boundary_coefficient_is_rejected():
    with pytest.raises(PreconditionError,
                       match="boundary coefficient of 'e' on 'a' must be an integer"):
        Complex({0: [("a", 1, [])], 1: [("e", 1, [("a", Fraction(1, 2))])]})


def test_random_grid_complexes_validate(rng):
    for _ in range(10):
        cx = random_grid_complex(rng)
        assert validate_complex(cx).ok


# ---------------------------------------------------------------------------
# integer chains

def test_mass_pinned_value():
    cx = path_complex([Fraction(1, 2), Fraction(1, 4)])
    t = cx.chain(1, {"e1": 1, "e2": -2})
    assert t.mass() == 1
    assert t.mass_p(2) == Fraction(1, 2)


def test_reduce_pinned_values():
    cx = path_complex([1, 1, 1])
    t = cx.chain(1, {"e1": 5, "e2": -4, "e3": 3})
    r = t.reduce_mod_p(3)
    assert dict(r.items()) == {"e1": -1, "e2": -1}
    assert dict(cx.chain(1, {"e1": 7}).reduce_mod_p(2).items()) == {"e1": 1}


def test_chain_construction_rules():
    cx = path_complex([1])
    assert cx.chain(1, {"e1": 0}).is_zero()
    with pytest.raises(PreconditionError):
        cx.chain(1, {"e1": 1.5})
    with pytest.raises(PreconditionError):
        cx.chain(1, {"q0": 1})
    with pytest.raises(PreconditionError):
        cx.chain(1, {"nope": 1})


def test_boundary_of_points_is_an_error():
    cx = path_complex([1])
    with pytest.raises(PreconditionError, match="no boundary"):
        cx.chain(0, {"q0": 1}).boundary()


def test_boundary_telescopes_on_a_path():
    cx = path_complex([1, 1, 1])
    t = cx.chain(1, {"e1": 1, "e2": 1, "e3": 1})
    assert dict(t.boundary().items()) == {"q0": -1, "q3": 1}


def test_boundary_of_boundary_vanishes(rng):
    for _ in range(25):
        cx = random_grid_complex(rng)
        t = random_chain_on(rng, cx, cx.top_dim)
        if cx.top_dim < 2:
            continue
        assert t.boundary().boundary().is_zero()


def test_chain_arithmetic_and_equality():
    cx = path_complex([1, 1])
    a = cx.chain(1, {"e1": 2})
    b = cx.chain(1, {"e1": -2, "e2": 5})
    assert dict((a + b).items()) == {"e2": 5}
    assert (a - a).is_zero()
    assert dict((3 * b).items()) == {"e1": -6, "e2": 15}
    assert a + b == cx.chain(1, {"e2": 5})
    with pytest.raises(PreconditionError):
        a + cx.chain(0, {"q0": 1})
    with pytest.raises(PreconditionError):
        a + path_complex([1, 1]).chain(1, {"e1": 1})


def test_chain_arithmetic_checks_no_cell_its_operands_hold(rng, monkeypatch):
    for _ in range(40):
        cx = random_grid_complex(rng)
        dim = rng.randint(0, cx.top_dim)
        a, b = random_chain_on(rng, cx, dim), random_chain_on(rng, cx, dim)
        b = b + rng.choice([-1, 1]) * a  # cancellation on shared cells
        naive = {}
        for c, g in [*a.items(), *b.items()]:
            naive[c] = naive.get(c, 0) + g
        n = rng.choice([-3, -1, 0, 2])
        with monkeypatch.context() as patch:
            patch.setattr(Complex, "dim_of", lambda self, cid: pytest.fail("cell re-checked"))
            out = [a + b, a - b, -a, n * a, True * a]
        want = [naive, {c: a[c] - b[c] for c in {*a.coeffs, *b.coeffs}},
                {c: -g for c, g in a.items()}, {c: n * g for c, g in a.items()}, dict(a.items())]
        for chain, coeffs in zip(out, want):
            assert type(chain) is IntChain
            assert chain == IntChain(cx, dim, coeffs)
            assert 0 not in chain.coeffs.values()
    with pytest.raises(PreconditionError, match="only scale by integers"):
        Fraction(1, 2) * a


@given(st.lists(st.integers(-40, 40), min_size=3, max_size=3),
       st.lists(st.integers(-40, 40), min_size=3, max_size=3),
       st.integers(2, 13))
def test_mass_subadditive_and_reduce_exact(ga, gb, p):
    cx = path_complex([1, Fraction(1, 2), Fraction(3, 4)])
    ids = ["e1", "e2", "e3"]
    a = cx.chain(1, dict(zip(ids, ga)))
    b = cx.chain(1, dict(zip(ids, gb)))
    assert (a + b).mass() <= a.mass() + b.mass()
    assert (a + b).mass_p(p) <= a.mass_p(p) + b.mass_p(p)
    # the canonical lift realizes the relaxed mass exactly
    assert a.reduce_mod_p(p).lift().mass() == a.mass_p(p)
    # reduction is idempotent
    r = a.reduce_mod_p(p)
    assert r.lift().reduce_mod_p(p) == r
    # congruence cellwise
    for cid in ids:
        assert (a[cid] - r.lift()[cid]) % p == 0


def test_modp_chain_rules():
    cx = path_complex([1, 1])
    with pytest.raises(PreconditionError, match="not canonical"):
        ModPChain(cx, 3, 1, {"e1": 2})
    m = ModPChain(cx, 3, 1, {"e1": -1, "e2": 0})
    assert dict(m.items()) == {"e1": -1}
    assert m.mass_p() == 1
    assert mass_p(m, 3) == 1
    with pytest.raises(PreconditionError):
        mass_p(m, 5)


def test_modp_chain_is_its_canonical_lift_carrying_p():
    cx = path_complex([1, Fraction(1, 2)])
    m = cx.chain(1, {"e1": 4, "e2": -5}).reduce_mod_p(3)
    assert isinstance(m, IntChain) and m.p == 3
    assert dict(m.items()) == {"e1": 1, "e2": 1}
    assert type(m.lift()) is IntChain
    assert dict(m.lift().items()) == dict(m.items())


def test_chain_equality_never_crosses_type_or_modulus():
    cx = path_complex([1, 1])
    t = cx.chain(1, {"e1": 1, "e2": -1})
    m3, m5 = t.reduce_mod_p(3), t.reduce_mod_p(5)
    assert dict(m3.items()) == dict(m5.items()) == dict(t.items())
    assert m3 == ModPChain(cx, 3, 1, {"e1": 1, "e2": -1})
    assert m3 != m5 and m5 != m3
    assert t != m3 and m3 != t
    assert m3.lift() == t
    assert cx.zero_chain(1) != ModPChain(cx, 2, 1, {})
    with pytest.raises(TypeError):
        hash(m3)


@given(st.lists(st.integers(-40, 40), min_size=3, max_size=3), st.integers(2, 13))
def test_modp_mass_p_agrees_and_checks_the_modulus(g, p):
    cx = path_complex([1, Fraction(1, 2), Fraction(3, 4)])
    t = cx.chain(1, dict(zip(["e1", "e2", "e3"], g)))
    m = t.reduce_mod_p(p)
    assert m.mass_p() == m.mass_p(m.p) == mass_p(m, p) == t.mass_p(p) == m.mass()
    for q in (p + 1, 2 * p):
        with pytest.raises(PreconditionError, match=f"chain has modulus {p}, requested {q}"):
            m.mass_p(q)
        with pytest.raises(PreconditionError, match="chain has modulus"):
            mass_p(m, q)


def test_modp_arithmetic_acts_on_the_lift():
    cx = path_complex([1, 1])
    m = ModPChain(cx, 3, 1, {"e1": 1, "e2": -1})
    for out, want in ((m + m, {"e1": 2, "e2": -2}), (-m, {"e1": -1, "e2": 1}),
                      (m - m, {}), (2 * m, {"e1": 2, "e2": -2}),
                      (m.boundary(), {"q0": -1, "q2": -1, "q1": 2})):
        assert type(out) is IntChain
        assert dict(out.items()) == want
    assert (m + m).reduce_mod_p(3) == ModPChain(cx, 3, 1, {"e1": -1, "e2": 1})


# ---------------------------------------------------------------------------
# cellular maps

def collapse_map():
    src = path_complex([1, 1])
    dst = Complex({
        0: [("Q0", 1, []), ("Q2", 1, [])],
        1: [("E", 2, [("Q0", -1), ("Q2", 1)])],
    })
    f = CellularMap(src, dst, {
        "q0": ("Q0", 1), "q1": ("Q2", 1), "q2": ("Q2", 1),
        "e1": ("E", 1), "e2": None,
    })
    return src, dst, f


def test_cellular_map_validates_and_pushes():
    src, dst, f = collapse_map()
    assert f.validate().ok
    t = src.chain(1, {"e1": 2, "e2": 5})
    out = push_forward(t, f)
    assert dict(out.items()) == {"E": 2}


@given(st.integers(-9, 9), st.integers(-9, 9))
def test_push_forward_commutes_with_boundary(g1, g2):
    src, dst, f = collapse_map()
    t = src.chain(1, {"e1": g1, "e2": g2})
    lhs = push_forward(t.boundary(), f)
    rhs = push_forward(t, f).boundary()
    assert lhs == rhs


def test_push_forward_rejects_non_chain_maps():
    src, dst, _ = collapse_map()
    broken = CellularMap(src, dst, {
        "q0": ("Q0", 1), "q1": ("Q2", 1), "q2": ("Q2", 1),
        "e1": ("E", -1), "e2": None,
    })
    assert not broken.validate().ok
    with pytest.raises(PreconditionError, match="not a chain map"):
        push_forward(src.chain(1, {"e1": 1}), broken)


MAP_REFUSALS = [
    ("sign", ("E", 2), "map sign must be +1 or -1", {}),
    ("missing", ("F", 1), "map target cell does not exist", {"target": "F"}),
    ("dimension", ("Q0", 1), "map does not preserve dimension", {"target": "Q0"}),
]


@pytest.mark.parametrize("image,message,detail", [case[1:] for case in MAP_REFUSALS],
                         ids=[case[0] for case in MAP_REFUSALS])
def test_map_validation_refuses_a_bad_image(image, message, detail):
    src, dst, f = collapse_map()
    bad = CellularMap(src, dst, {**f.assignment, "e1": image})
    report = bad.validate()
    assert (report.ok, report.cell_id, report.message, report.detail) == (
        False, "e1", message, detail)
    with pytest.raises(PreconditionError, match=f"^not a chain map at cell 'e1': {re.escape(message)}$"):
        push_forward(src.chain(1, {"e2": 1}), bad)


def test_push_forward_checks_source_complex():
    src, dst, f = collapse_map()
    other = path_complex([1, 1])
    with pytest.raises(PreconditionError):
        push_forward(other.chain(1, {"e1": 1}), f)


def test_signed_map_commutes():
    src = path_complex([1])
    dst = path_complex([1])
    f = CellularMap(src, dst, {
        "q0": ("q1", 1), "q1": ("q0", 1), "e1": ("e1", -1),
    })
    assert f.validate().ok
    out = push_forward(src.chain(1, {"e1": 3}), f)
    assert dict(out.items()) == {"e1": -3}


# ---------------------------------------------------------------------------
# exact conversion

def test_as_fraction_accepts_exact_forms():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction(7) == 7
    with pytest.raises(PreconditionError):
        as_fraction("x")
    with pytest.raises(PreconditionError):
        as_fraction(object())


# ---------------------------------------------------------------------------
# immutable value classes

EDGE = Complex({0: [("a", 1, []), ("b", 1, [])], 1: [("e", 1, [("b", 1), ("a", -1)])]})


def _value_cases():
    seg = BoxChain(1, 1, [(BoxCell(((0, 1),)), 1)])

    def deformation(original_boundary=seg.boundary(), modulus=None):
        return DeformationResult(seg, seg, BoxChain(1, 0, {}), BoxChain(1, 2, {}), Fraction(1),
                                 (Fraction(1, 2),), original_boundary, modulus)

    def witness(exact):
        return FlatWitness(Fraction(1), IntChain(EDGE, 1, {"e": 1}), IntChain(EDGE, 2, {}),
                           exact, modulus=2)

    def curves(n=1):
        return CurveSystem((CurveItem(1, "a", "b"), CurveItem(2, "b", "a", 2))[:n])

    def twice(make, *args):
        return make(*args), make(*args)

    chains = ("BoxChain(n=1, dim=1, cells=1), rounded=BoxChain(n=1, dim=1, cells=1), "
              "boundary_sweep=BoxChain(n=1, dim=0, cells=0), "
              "chain_sweep=BoxChain(n=1, dim=2, cells=0)")
    item = "CurveItem(index=1, start='a', end='b', mass=Fraction(0, 1))"
    # name: (instance, its twin, a differing instance, repr of the instance,
    # hashable); the reprs are the ones the former dataclasses printed
    return {
        "_Cell": (*twice(_Cell, 2, MappingProxyType({"a": -1, "b": 1})),
                  _Cell(3, MappingProxyType({"a": -1, "b": 1})),
                  "_Cell(volume=2, boundary=mappingproxy({'a': -1, 'b': 1}))", False),
        "ValidationReport": (*twice(ValidationReport, True),
                             ValidationReport(False, "bad", "e", {"target": "x"}),
                             "ValidationReport(ok=True, message='', cell_id=None, detail={})",
                             False),
        "CellularMap": (*twice(lambda: CellularMap(EDGE, EDGE, {"e": ("e", 1), "a": ("a", 1)})),
                        CellularMap(EDGE, EDGE, {"e": ("e", -1)}),
                        f"CellularMap(source={EDGE!r}, target={EDGE!r}, "
                        "assignment={'e': ('e', 1), 'a': ('a', 1)})", False),
        "BoxCell": (*twice(BoxCell, ((0, 1), (2, 2), (0, Fraction(3, 2)))),
                    BoxCell(((0, 1), (2, 2), (0, 2))), "[0,1]x{2}x[0,3/2]", True),
        # the twin differs in original_boundary alone, which equality ignores
        "DeformationResult": (deformation(), deformation(original_boundary=None),
                              deformation(modulus=2),
                              f"DeformationResult(original={chains}, eta=Fraction(1, 1), "
                              "rho=(Fraction(1, 2),), modulus=None)", False),
        "CurveItem": (*twice(CurveItem, 1, "a", "b", Fraction(3, 2)), CurveItem(1, "a", "b"),
                      "CurveItem(index=1, start='a', end='b', mass=Fraction(3, 2))", True),
        "CurveSystem": (*twice(curves, 2), curves(),
                        f"CurveSystem(items=({item}, CurveItem(index=2, start='b', end='a', "
                        "mass=2)))", True),
        "PreprocessTrace": (*twice(PreprocessTrace, ((1, 2),), ((3,),)),
                            PreprocessTrace(((1, 2),), ((3,),), (("loop", (3,)),)),
                            "PreprocessTrace(sources=((1, 2),), loops=((3,),), events=())", True),
        "CurvePath": (*twice(CurvePath, ("a", "b"), (("e", 1),), False, Fraction(1)),
                      CurvePath(("b", "a"), (("e", -1),), False, Fraction(1)),
                      "CurvePath(vertices=('a', 'b'), edges=(('e', 1),), closed=False, "
                      "mass=Fraction(1, 1))", True),
        "Simplex": (*twice(Simplex, ((0, 0), (1, Fraction(1, 2)))), Simplex(((0, 0), (1, 0))),
                    "Simplex[(0,0), (1,1/2)]", True),
        # the twin of a chain file is not equal to it: a chain file equals only itself
        "ChainFile": (*twice(lambda: ChainFile("curves", curves(), 3)),
                      ChainFile("curves", curves()),
                      f"ChainFile(carrier='curves', payload=CurveSystem(items=({item},)), p=3)",
                      True),
        "FlatWitness": (*twice(witness, True), witness(False),
                        "FlatWitness(value=Fraction(1, 1), remainder=IntChain(dim=1, {'e': 1}), "
                        "filling=IntChain(dim=2, {}), exact=True, modulus=2, bound=None)", False),
    }


VALUE_CASES = _value_cases()


def test_modp_chain_repr_report_truth_and_box_ambient_dim():
    cx = Complex({0: [("a", 1, []), ("b", 1, [])], 1: [("e", 1, [("a", -1), ("b", 1)])]})
    assert repr(ModPChain(cx, 3, 0, {"b": -1, "a": 1})) == "ModPChain(p=3, dim=0, {'a': 1, 'b': -1})"
    assert ValidationReport(True) and not ValidationReport(False, "bad")
    assert BoxCell(((0, 1), (2, 2), (0, 0))).ambient_dim == 3


@pytest.mark.parametrize("name", VALUE_CASES)
def test_value_classes_keep_repr_equality_hash_and_frozenness(name):
    a, twin, other, text, hashable = VALUE_CASES[name]
    assert repr(a) == text
    assert a == a and a != other and other != a
    assert a != (text,) and a.__eq__((text,)) is NotImplemented
    if name == "ChainFile":
        assert a != twin and hash(a) != hash(twin)
    else:
        assert a == twin and not a != twin
        if hashable:
            assert hash(a) == hash(twin)
        else:
            with pytest.raises(TypeError):
                hash(a)
    if name == "BoxCell":
        assert a < other and a <= other and other > a and other >= a and not a < twin
        with pytest.raises(TypeError):
            a < (text,)  # noqa: B015
    field = next(iter(vars(a)))
    for change in (lambda: setattr(a, field, None), lambda: setattr(a, "extra", 1),
                   lambda: delattr(a, field)):
        with pytest.raises(AttributeError):
            change()
    assert repr(a) == text
