"""Simplicial chains and the cone construction.

Simplices carry exact rational vertices so that degeneracy (affine
dependence) is decided exactly from the Gram determinant of the edge
vectors; volumes are the usual sqrt(det)/k! as floats.  Chains
canonicalize each simplex by sorting its vertices and folding the
permutation sign into the coefficient, and drop degenerate simplices
outright: a piece supported on a lower-dimensional set contributes
nothing, and this is also why coning twice from the same apex gives
zero.

The boundary-of-cone identity holds as formal sums whenever the apex is
generic, meaning no cone cell degenerates.  An apex inside the affine
span of some cell still produces a correct chain, but the dropped
degenerate cell then only cancels against the others geometrically, not
symbol by symbol.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .core import (Frozen, PreconditionError, InternalDefectError, as_fraction, norm_mod_p,
                   _check_modulus)

Point = tuple[Fraction, ...]


def _as_point(v) -> Point:
    return tuple(as_fraction(c) for c in v)


def _det(rows: list[list[Fraction]]) -> Fraction:
    # exact Gaussian elimination; matrices here are tiny
    m = [row[:] for row in rows]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] / inv
            for c in range(col, size):
                m[r][c] -= factor * m[col][c]
    return det


class Simplex(Frozen):
    """An ordered (k+1)-tuple of points in the same ambient space."""

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[Point, ...]):
        pts = tuple(_as_point(v) for v in vertices)
        vars(self).update(vertices=pts)
        if not pts:
            raise PreconditionError("a simplex needs at least one vertex")
        n = len(pts[0])
        if any(len(v) != n for v in pts):
            raise PreconditionError("simplex vertices live in different dimensions")
        if self.dim > n:
            raise PreconditionError(
                f"a {self.dim}-simplex does not fit in dimension {n}")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def volume_squared(self) -> Fraction:
        """Exact squared volume: det(Gram)/(k!)^2 with edge vectors from v0."""
        v0 = self.vertices[0]
        edges = [tuple(a - b for a, b in zip(v, v0)) for v in self.vertices[1:]]
        if not edges:
            return Fraction(1)
        gram = [[sum(a * b for a, b in zip(u, w)) for w in edges] for u in edges]
        return _det(gram) / (math.factorial(self.dim) ** 2)

    @property
    def volume(self) -> float:
        sq = self.volume_squared
        return math.sqrt(sq.numerator / sq.denominator)

    @property
    def degenerate(self) -> bool:
        return self.dim > 0 and self.volume_squared == 0

    def canonical(self) -> tuple["Simplex", int]:
        """Vertex-sorted copy and the sign of the sorting permutation."""
        order = sorted(range(len(self.vertices)), key=lambda i: self.vertices[i])
        sign = 1
        perm = list(order)
        for i in range(len(perm)):
            while perm[i] != i:
                j = perm[i]
                perm[i], perm[j] = perm[j], perm[i]
                sign = -sign
        return Simplex(tuple(self.vertices[i] for i in order)), sign

    def face(self, drop: int) -> "Simplex":
        return Simplex(self.vertices[:drop] + self.vertices[drop + 1:])

    def __repr__(self) -> str:
        pts = ", ".join("(" + ",".join(str(c) for c in v) + ")" for v in self.vertices)
        return f"Simplex[{pts}]"


class SimplicialChain:
    """Formal integer combination of same-dimension simplices."""

    __slots__ = ("ambient_dim", "dim", "_items")

    def __init__(self, ambient_dim: int, dim: int, items: Sequence = ()):
        if dim < 0 or dim > ambient_dim:
            raise PreconditionError(f"dimension {dim} invalid in ambient {ambient_dim}")
        merged: dict[tuple, tuple[Simplex, int]] = {}
        for simplex, g in items:
            if not isinstance(simplex, Simplex):
                simplex = Simplex(tuple(simplex))
            if not isinstance(g, int) or isinstance(g, bool):
                raise PreconditionError(f"coefficient {g!r} is not an integer")
            if simplex.dim != dim or simplex.ambient_dim != ambient_dim:
                raise PreconditionError(
                    f"simplex {simplex!r} does not match a {dim}-chain in dimension {ambient_dim}")
            if simplex.degenerate:
                continue
            canon, sign = simplex.canonical()
            key = canon.vertices
            old = merged.get(key)
            merged[key] = (canon, (old[1] if old else 0) + sign * g)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_items", tuple(
            (s, g) for _, (s, g) in sorted(merged.items()) if g != 0))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialChain is immutable")

    def items(self) -> tuple[tuple[Simplex, int], ...]:
        return self._items

    def is_zero(self) -> bool:
        return not self._items

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialChain):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.dim == other.dim and self._items == other._items

    __hash__ = None

    def __add__(self, other: "SimplicialChain") -> "SimplicialChain":
        if not isinstance(other, SimplicialChain):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or (
                not self.is_zero() and not other.is_zero() and self.dim != other.dim):
            raise PreconditionError("cannot add chains of different shape")
        dim = other.dim if self.is_zero() else self.dim
        return SimplicialChain(self.ambient_dim, dim, self._items + other._items)

    def __sub__(self, other: "SimplicialChain") -> "SimplicialChain":
        return self + (-1) * other

    def __neg__(self) -> "SimplicialChain":
        return (-1) * self

    def __rmul__(self, g: int) -> "SimplicialChain":
        if not isinstance(g, int) or isinstance(g, bool):
            return NotImplemented
        return SimplicialChain(self.ambient_dim, self.dim,
                               [(s, g * c) for s, c in self._items])

    def mass(self) -> float:
        return float(sum(abs(g) * s.volume for s, g in self._items))

    def mass_p(self, p: int) -> float:
        _check_modulus(p)
        return float(sum(norm_mod_p(g, p) * s.volume for s, g in self._items))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"SimplicialChain(0; dim {self.dim} in R^{self.ambient_dim})"
        body = " + ".join(f"{g}*{s!r}" for s, g in self._items)
        return f"SimplicialChain({body})"


def boundary_simplicial(T: SimplicialChain) -> SimplicialChain:
    """Alternating sum of vertex-dropped faces; squares to zero."""
    if T.dim < 1:
        raise PreconditionError("0-dimensional chains have no boundary")
    items = []
    for simplex, g in T.items():
        for i in range(len(simplex.vertices)):
            items.append((simplex.face(i), g if i % 2 == 0 else -g))
    return SimplicialChain(T.ambient_dim, T.dim - 1, items)


def cone(x, T: SimplicialChain) -> SimplicialChain:
    """Cone every cell over the apex x by prepending it as a vertex.

    For a generic apex, ∂ cone(x, T) = T − cone(x, ∂T) holds exactly as
    formal sums (for 0-chains the subtrahend is (Σ coefficients)·[x]).
    An apex in the affine span of a cell degenerates that cell away.
    """
    apex = _as_point(x)
    if len(apex) != T.ambient_dim:
        raise PreconditionError(
            f"apex lives in dimension {len(apex)}, chain in {T.ambient_dim}")
    if T.dim + 1 > T.ambient_dim:
        raise PreconditionError(
            f"no room for a {T.dim + 1}-chain in dimension {T.ambient_dim}")
    return SimplicialChain(T.ambient_dim, T.dim + 1,
                           [(Simplex((apex,) + s.vertices), g) for s, g in T.items()])


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
    apex = _as_point(x)
    coned = cone(x, T)
    r_sq = max((sum((a - b) ** 2 for a, b in zip(v, apex))
                for s, _ in T.items() for v in s.vertices), default=Fraction(0))
    r = math.sqrt(r_sq.numerator / r_sq.denominator)
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
