"""Simplicial chains and the cone construction.

Simplices carry exact rational vertices so that degeneracy (affine
dependence) is decided exactly from the Gram determinant of the edge
vectors; volumes are the usual sqrt(det)/k! as floats.  Chains
canonicalize each simplex by sorting its vertices and folding the
permutation sign into the coefficient, and drop degenerate simplices
outright: a piece supported on a lower-dimensional set contributes
nothing, and this is also why coning twice from the same apex gives
zero.

A chain keeps its vertices as integer numerators over one positive
denominator, `den`, shared by all its simplices: a simplex is keyed by
the tuple of its vertices' numerator tuples, and numerators over a
positive den sort as the Fractions they stand for.  Each canonical
simplex's Gram determinant is computed once, when the chain is built,
by fraction-free (Bareiss) elimination on the integer Gram matrix; the
degeneracy test, mass, mass_p and the cone report all reuse it.
Fractions appear only at the public surface: Simplex and its vertices.

The boundary-of-cone identity holds as formal sums whenever the apex is
generic, meaning no cone cell degenerates.  An apex inside the affine
span of some cell still produces a correct chain, but the dropped
degenerate cell then only cancels against the others geometrically, not
symbol by symbol.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .base import (Frozen, PreconditionError, InternalDefectError, as_fraction,
                   canonical_residue, norm_mod_p, _check_modulus)

Point = tuple[Fraction, ...]
Key = tuple[tuple[int, ...], ...]  # a simplex's vertex numerators over its chain's den
Cell = tuple[Key, int, int]  # canonical key, coefficient, Gram determinant over den


def _as_point(v) -> Point:
    return tuple(as_fraction(c) for c in v)


def _check_vertices(pts: tuple[Point, ...]) -> None:
    if not pts:
        raise PreconditionError("a simplex needs at least one vertex")
    n = len(pts[0])
    if any(len(v) != n for v in pts):
        raise PreconditionError("simplex vertices live in different dimensions")
    if len(pts) - 1 > n:
        raise PreconditionError(f"a {len(pts) - 1}-simplex does not fit in dimension {n}")


def _numerators(pts: Iterable[Point], den: int) -> Key:
    # the points over den, a multiple of every coordinate's denominator
    return tuple(tuple(c.numerator * (den // c.denominator) for c in v) for v in pts)


def _keyed(pairs: list[tuple[tuple[Point, ...], int]]) -> tuple[list[tuple[Key, int]], int]:
    """(key, coefficient) pairs from (points, coefficient) pairs of
    Fractions, over den, the lcm of every coordinate's denominator; and den."""
    den = math.lcm(*{c.denominator for pts, _ in pairs for v in pts for c in v})
    return [(_numerators(pts, den), g) for pts, g in pairs], den


def _coords(keys: Iterable[Key], den: int) -> dict[int, Fraction]:
    # every numerator of the keys, mapped to its Fraction over den
    return {c: Fraction(c, den) for c in {c for key in keys for v in key for c in v}}


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Each division is exact (Sylvester's identity), so every entry stays
    an integer; rows is overwritten.  The empty matrix has determinant 1.
    """
    size = len(rows)
    sign, prev = 1, 1
    for col in range(size - 1):
        if rows[col][col] == 0:
            pivot = next((r for r in range(col + 1, size) if rows[r][col]), None)
            if pivot is None:
                return 0
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        top, piv = rows[col], rows[col][col]
        for row in rows[col + 1:]:
            f = row[col]
            for c in range(col + 1, size):
                row[c] = (row[c] * piv - f * top[c]) // prev
        prev = piv
    return sign * rows[-1][-1] if size else 1


def _gram_det(key: Key) -> int:
    """det of the Gram matrix of the edge vectors from the first vertex.

    Over den the squared volume of a k-simplex is this over
    den^(2k) (k!)^2; it is 0 exactly when the simplex is degenerate.
    """
    v0 = key[0]
    edges = [[a - b for a, b in zip(v, v0)] for v in key[1:]]
    return _det([[sum(a * b for a, b in zip(u, w)) for w in edges] for u in edges])


def _scale(den: int, dim: int) -> int:
    # squared volume = Gram determinant over den / _scale(den, dim)
    return den ** (2 * dim) * math.factorial(dim) ** 2


def _canonical(key: Key) -> tuple[Key, int]:
    """Vertex-sorted key and the sign of the sorting permutation."""
    order = sorted(range(len(key)), key=key.__getitem__)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return tuple(key[i] for i in order), -1 if inversions % 2 else 1


def _cells(pairs: Iterable[tuple[Key, int]]) -> tuple[Cell, ...]:
    """Canonical cells of (key, coefficient) pairs: vertices sorted with
    the sign folded into the coefficient, equal keys merged, and zero
    coefficients and degenerate simplices dropped."""
    merged: dict[Key, int] = {}
    for key, g in pairs:
        key, sign = _canonical(key)
        merged[key] = merged.get(key, 0) + sign * g
    cells = []
    for key in sorted(merged):
        g = merged[key]
        if g and (det := _gram_det(key)):
            cells.append((key, g, det))
    return tuple(cells)


class Simplex(Frozen):
    """An ordered (k+1)-tuple of points in the same ambient space."""

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[Point, ...]):
        pts = tuple(_as_point(v) for v in vertices)
        _check_vertices(pts)
        vars(self).update(vertices=pts)

    @classmethod
    def _from_key(cls, key: Key, coords: Mapping[int, Fraction]) -> "Simplex":
        simplex = object.__new__(cls)
        vars(simplex).update(vertices=tuple(tuple(coords[c] for c in v) for v in key))
        return simplex

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def volume_squared(self) -> Fraction:
        """Exact squared volume: det(Gram)/(k!)^2 with edge vectors from v0."""
        den = math.lcm(*(c.denominator for v in self.vertices for c in v))
        return Fraction(_gram_det(_numerators(self.vertices, den)), _scale(den, self.dim))

    @property
    def volume(self) -> float:
        sq = self.volume_squared
        return math.sqrt(sq.numerator / sq.denominator)

    @property
    def degenerate(self) -> bool:
        return self.dim > 0 and self.volume_squared == 0

    def canonical(self) -> tuple["Simplex", int]:
        """Vertex-sorted copy and the sign of the sorting permutation."""
        vertices, sign = _canonical(self.vertices)
        return Simplex(vertices), sign

    def face(self, drop: int) -> "Simplex":
        return Simplex(self.vertices[:drop] + self.vertices[drop + 1:])

    def id_token(self) -> str:
        return " ; ".join(",".join(map(str, v)) for v in self.vertices)

    def __repr__(self) -> str:
        pts = ", ".join("(" + ",".join(str(c) for c in v) + ")" for v in self.vertices)
        return f"Simplex[{pts}]"


class SimplicialChain:
    """Formal integer combination of same-dimension simplices."""

    carrier = "simplicial"
    __slots__ = ("ambient_dim", "dim", "den", "_cells")

    def __init__(self, ambient_dim: int, dim: int, items: Sequence = (),
                 den: Optional[int] = None):
        # With den given, items are (key, coefficient) pairs: vertex
        # numerators over den, in any vertex order.
        if dim < 0 or dim > ambient_dim:
            raise PreconditionError(f"dimension {dim} invalid in ambient {ambient_dim}")
        if den is None:
            pairs = []
            for simplex, g in items:
                if not isinstance(simplex, Simplex):
                    simplex = Simplex(tuple(simplex))
                _check_item(simplex.vertices, g, ambient_dim, dim, None)
                pairs.append((simplex.vertices, g))
            items, den = _keyed(pairs)
        else:
            items = list(items)
            for key, g in items:
                _check_item(key, g, ambient_dim, dim, den)
        _init(self, ambient_dim, dim, den, _cells(items))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialChain is immutable")

    def items(self) -> tuple[tuple[Simplex, int], ...]:
        coords = _coords((key for key, _, _ in self._cells), self.den)
        return tuple((Simplex._from_key(key, coords), g) for key, g, _ in self._cells)

    def is_zero(self) -> bool:
        return not self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def _terms(self, den: int) -> list[tuple[Key, int]]:
        # (key, coefficient) pairs over den, a multiple of self.den
        f = den // self.den
        if f == 1:
            return [(key, g) for key, g, _ in self._cells]
        return [(tuple(tuple(c * f for c in v) for v in key), g) for key, g, _ in self._cells]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialChain):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        if self.is_zero() and other.is_zero():
            return True
        den = math.lcm(self.den, other.den)
        return self.dim == other.dim and self._terms(den) == other._terms(den)

    __hash__ = None

    def __add__(self, other: "SimplicialChain") -> "SimplicialChain":
        if not isinstance(other, SimplicialChain):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or (
                not self.is_zero() and not other.is_zero() and self.dim != other.dim):
            raise PreconditionError("cannot add chains of different shape")
        dim = other.dim if self.is_zero() else self.dim
        den = math.lcm(self.den, other.den)
        return _chain(self.ambient_dim, dim, den,
                      _cells(self._terms(den) + other._terms(den)))

    def __sub__(self, other: "SimplicialChain") -> "SimplicialChain":
        return self + (-1) * other

    def __neg__(self) -> "SimplicialChain":
        return (-1) * self

    def __rmul__(self, g: int) -> "SimplicialChain":
        if not isinstance(g, int) or isinstance(g, bool):
            return NotImplemented
        # the keys and their determinants stay; g = 0 drops every cell
        return _chain(self.ambient_dim, self.dim, self.den,
                      tuple((key, g * c, det) for key, c, det in self._cells if g))

    def _volumes(self) -> list[float]:
        # sqrt of an int ratio: int true division rounds correctly, so this
        # is the float of the exact squared volume's square root
        scale = _scale(self.den, self.dim)
        return [math.sqrt(det / scale) for _, _, det in self._cells]

    def mass(self) -> float:
        return float(sum(abs(g) * vol for (_, g, _), vol in zip(self._cells, self._volumes())))

    def mass_p(self, p: int) -> float:
        _check_modulus(p)
        return float(sum(norm_mod_p(g, p) * vol
                         for (_, g, _), vol in zip(self._cells, self._volumes())))

    def boundary(self) -> "SimplicialChain":
        """Alternating sum of vertex-dropped faces; squares to zero."""
        if self.dim < 1:
            raise PreconditionError("0-dimensional chains have no boundary")
        faces = [(key[:i] + key[i + 1:], g if i % 2 == 0 else -g)
                 for key, g, _ in self._cells for i in range(len(key))]
        return _chain(self.ambient_dim, self.dim - 1, self.den, _cells(faces))

    def reduce_mod_p(self, p: int) -> "SimplicialChain":
        _check_modulus(p)
        # the keys and their determinants stay; zero residues drop
        residues = ((key, canonical_residue(g, p), det) for key, g, det in self._cells)
        return _chain(self.ambient_dim, self.dim, self.den,
                      tuple(cell for cell in residues if cell[1]))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"SimplicialChain(0; dim {self.dim} in R^{self.ambient_dim})"
        body = " + ".join(f"{g}*{s!r}" for s, g in self.items())
        return f"SimplicialChain({body})"


def _check_item(vertices, g, ambient_dim: int, dim: int, den: Optional[int]) -> None:
    # vertices are Fractions, or numerators over den when den is given
    if not isinstance(g, int) or isinstance(g, bool):
        raise PreconditionError(f"coefficient {g!r} is not an integer")
    if len(vertices) != dim + 1 or len(vertices[0]) != ambient_dim:
        simplex = Simplex(vertices) if den is None else Simplex._from_key(
            vertices, _coords((vertices,), den))
        raise PreconditionError(
            f"simplex {simplex!r} does not match a {dim}-chain in dimension {ambient_dim}")


def _init(chain: SimplicialChain, ambient_dim: int, dim: int, den: int,
          cells: tuple[Cell, ...]) -> None:
    for name, value in (("ambient_dim", ambient_dim), ("dim", dim), ("den", den),
                        ("_cells", cells)):
        object.__setattr__(chain, name, value)


def _chain(ambient_dim: int, dim: int, den: int, cells: tuple[Cell, ...]) -> SimplicialChain:
    # a chain from cells already canonical over den
    chain = SimplicialChain.__new__(SimplicialChain)
    _init(chain, ambient_dim, dim, den, cells)
    return chain


boundary_simplicial = SimplicialChain.boundary


def _apex(x, T: SimplicialChain) -> tuple[tuple[int, ...], int]:
    """The apex's numerators over the lcm of its and T's denominators, and that lcm."""
    apex = _as_point(x)
    if len(apex) != T.ambient_dim:
        raise PreconditionError(
            f"apex lives in dimension {len(apex)}, chain in {T.ambient_dim}")
    den = math.lcm(T.den, *(c.denominator for c in apex))
    return _numerators((apex,), den)[0], den


def cone(x, T: SimplicialChain) -> SimplicialChain:
    """Cone every cell over the apex x by prepending it as a vertex.

    For a generic apex, ∂ cone(x, T) = T − cone(x, ∂T) holds exactly as
    formal sums (for 0-chains the subtrahend is (Σ coefficients)·[x]).
    An apex in the affine span of a cell degenerates that cell away.
    """
    apex, den = _apex(x, T)
    if T.dim + 1 > T.ambient_dim:
        raise PreconditionError(
            f"no room for a {T.dim + 1}-chain in dimension {T.ambient_dim}")
    return _chain(T.ambient_dim, T.dim + 1, den,
                  _cells(((apex,) + key, g) for key, g in T._terms(den)))


class ConeMassReport(NamedTuple):
    cone_mass: float
    cone_mass_p: Optional[float]
    radius: float


def cone_mass_report(x, T: SimplicialChain, p: Optional[int] = None) -> ConeMassReport:
    """Cone masses plus the radius certifying both mass bounds.

    The radius is the largest vertex distance to the apex; every cell
    lies in that ball by convexity, so the cone of each cell has mass at
    most radius times the cell's mass, integrally and mod p alike.
    """
    coned = cone(x, T)
    apex, den = _apex(x, T)
    r_sq = max((sum((a - b) ** 2 for a, b in zip(v, apex))
                for key, _ in T._terms(den) for v in key), default=0)
    r = math.sqrt(r_sq / den ** 2)
    base, cone_mass = T.mass(), coned.mass()
    tol = 1e-9 * (1 + r * base)
    if cone_mass > r * base + tol:
        raise InternalDefectError(
            f"cone mass {cone_mass} exceeds {r} * {base}")
    mass_p = None
    if p is not None:
        _check_modulus(p)
        mass_p, base_p = coned.mass_p(p), T.mass_p(p)
        if mass_p > r * base_p + tol:
            raise InternalDefectError(
                f"cone mod-{p} mass {mass_p} exceeds {r} * {base_p}")
    return ConeMassReport(cone_mass, mass_p, r)


def _read_chainfile(body) -> SimplicialChain:
    """The chain of a simplicial file's body lines (see fileio.CARRIERS)."""
    from .fileio import ParseError, _integer, _number, _parse_shape, _resolve_shape

    shape = {"ambient": None, "dim": None}
    items = []
    numbers: dict[str, Fraction] = {}  # simplices share vertices: parse each text once
    for no, line in body:
        tokens = line.split()
        if tokens[0] in shape:
            _parse_shape(tokens, no, shape)
        elif tokens[0] == "simplex":
            fields = [f.strip() for f in line[len("simplex"):].split(";")]
            if len(fields) < 2 or not all(fields):
                raise ParseError(no, "expected `simplex v0 ; v1 ; ... ; coeff`")
            coeff = _integer(fields[-1], no)
            vertices = tuple(tuple(numbers[t] if t in numbers else numbers.setdefault(
                t, _number(t, no)) for t in map(str.strip, f.split(","))) for f in fields[:-1])
            if len({len(v) for v in vertices}) > 1:
                raise ParseError(no, "vertices have mixed coordinate counts")
            try:
                _check_vertices(vertices)
            except PreconditionError as err:
                raise ParseError(no, str(err)) from None
            items.append((vertices, coeff))
        else:
            raise ParseError(no, f"unexpected {tokens[0]!r} in a simplicial file")
    first = items and (len(items[0][0][0]), len(items[0][0]) - 1)
    return SimplicialChain(*_resolve_shape(shape, first, body, "simplicial"), *_keyed(items))


def _write_chainfile(chain: SimplicialChain) -> list[str]:
    return [f"ambient {chain.ambient_dim}", f"dim {chain.dim}",
            *(f"simplex {simplex.id_token()} ; {g}" for simplex, g in chain.items())]
