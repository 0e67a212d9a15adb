"""Finite cell complexes, integer chains, and mod-p reductions.

A complex is a graded family of cells.  Every cell has an id (a string,
unique across the whole complex), a positive volume, and an integer
boundary vector over the cells one dimension down.  Chains are sparse
integer coefficient vectors over the cells of a single dimension; mod-p
chains store canonical residues in the half-open window (-p/2, p/2],
with ties at +p/2 for even p.

All coefficient arithmetic is exact (Python ints).  Volumes may be
ints, Fractions, or floats; the geometric carriers supply exact
rationals, so mass computations stay exact whenever the input does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional


class PreconditionError(ValueError):
    """An input violates a documented precondition of an operation."""


class InternalDefectError(RuntimeError):
    """An internal consistency check failed; this is a bug, not bad input."""


class FillInfeasibleError(ValueError):
    """No chain in the complex fills the requested boundary mod p."""


def norm_mod_p(g: int, p: int) -> int:
    """Distance from the integer g to the nearest multiple of p."""
    _check_modulus(p)
    if not isinstance(g, int):
        raise PreconditionError(f"integer coefficient expected, got {g!r}")
    r = g % p
    return min(r, p - r)


def canonical_residue(g: int, p: int) -> int:
    """Residue of g in (-p/2, p/2], ties at +p/2 for even p."""
    _check_modulus(p)
    r = g % p
    return r - p if 2 * r > p else r


def _check_modulus(p) -> None:
    if not isinstance(p, int) or p < 2:
        raise PreconditionError(f"invalid modulus: {p!r} (an integer >= 2 is required)")


@dataclass(frozen=True)
class _Cell:
    volume: object
    boundary: Mapping[str, int]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = ""
    cell_id: Optional[str] = None
    detail: Mapping = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


class Complex:
    """A finite cell complex with explicit integer boundary operators.

    `cells` maps each dimension to an iterable of (cell_id, volume,
    boundary) triples, where boundary is an iterable of (face_id, coeff)
    pairs referring to cells one dimension lower.  Construction only
    normalizes; call validate() (or validate_complex) to check the
    closure axioms.
    """

    __slots__ = ("_cells", "_dim_of", "ambient_dim")

    def __init__(self, cells: Mapping[int, Iterable], ambient_dim: Optional[int] = None):
        self._cells: dict[int, dict[str, _Cell]] = {}
        self._dim_of: dict[str, int] = {}
        self.ambient_dim = ambient_dim
        for dim in sorted(cells):
            if not isinstance(dim, int) or dim < 0:
                raise PreconditionError(f"invalid cell dimension {dim!r}")
            layer: dict[str, _Cell] = {}
            for cid, vol, bdry in cells[dim]:
                cid = str(cid)
                if cid in self._dim_of:
                    raise PreconditionError(f"duplicate cell id {cid!r}")
                bmap = {}
                for fid, c in bdry:
                    fid = str(fid)
                    if not isinstance(c, int):
                        raise PreconditionError(
                            f"boundary coefficient of {cid!r} on {fid!r} must be an integer")
                    if c != 0:
                        bmap[fid] = bmap.get(fid, 0) + c
                bmap = {f: c for f, c in bmap.items() if c != 0}
                layer[cid] = _Cell(vol, MappingProxyType(bmap))
                self._dim_of[cid] = dim
            self._cells[dim] = layer

    @property
    def top_dim(self) -> int:
        dims = [d for d, layer in self._cells.items() if layer]
        return max(dims) if dims else 0

    def dims(self) -> tuple[int, ...]:
        return tuple(sorted(self._cells))

    def cells(self, dim: int) -> tuple[str, ...]:
        return tuple(sorted(self._cells.get(dim, ())))

    def num_cells(self, dim: int) -> int:
        return len(self._cells.get(dim, ()))

    def has_cell(self, cid: str) -> bool:
        return cid in self._dim_of

    def dim_of(self, cid: str) -> int:
        try:
            return self._dim_of[cid]
        except KeyError:
            raise PreconditionError(f"unknown cell id {cid!r}") from None

    def volume(self, cid: str):
        return self._cells[self.dim_of(cid)][cid].volume

    def boundary_of(self, cid: str) -> Mapping[str, int]:
        return self._cells[self.dim_of(cid)][cid].boundary

    def zero_chain(self, dim: int) -> "IntChain":
        return IntChain(self, dim, {})

    def chain(self, dim: int, coeffs: Mapping[str, int]) -> "IntChain":
        return IntChain(self, dim, coeffs)

    def validate(self) -> ValidationReport:
        # dangling boundary references and dimension mismatches
        for dim in self.dims():
            for cid, cell in self._cells[dim].items():
                if dim == 0:
                    if cell.boundary:
                        return ValidationReport(
                            False, "dimension-0 cell has a nonempty boundary", cid)
                    if cell.volume != 1:
                        return ValidationReport(
                            False, "dimension-0 cell must have volume 1", cid,
                            {"volume": cell.volume})
                    continue
                try:
                    if not cell.volume > 0:
                        return ValidationReport(
                            False, "cell volume must be positive", cid,
                            {"volume": cell.volume})
                except TypeError:
                    return ValidationReport(
                        False, "cell volume is not comparable to 0", cid,
                        {"volume": cell.volume})
                for fid in cell.boundary:
                    fdim = self._dim_of.get(fid)
                    if fdim is None:
                        return ValidationReport(
                            False, "boundary refers to a missing cell", cid,
                            {"missing_face": fid})
                    if fdim != dim - 1:
                        return ValidationReport(
                            False, "boundary face has the wrong dimension", cid,
                            {"face": fid, "face_dim": fdim})
        # boundary-of-boundary vanishes
        for dim in self.dims():
            if dim < 2:
                continue
            for cid, cell in self._cells[dim].items():
                acc: dict[str, int] = {}
                for fid, c1 in cell.boundary.items():
                    for ffid, c2 in self._cells[dim - 1][fid].boundary.items():
                        acc[ffid] = acc.get(ffid, 0) + c1 * c2
                acc = {k: v for k, v in acc.items() if v != 0}
                if acc:
                    return ValidationReport(
                        False, "boundary of boundary is nonzero", cid,
                        {"composite": dict(sorted(acc.items()))})
        return ValidationReport(True)


def validate_complex(cx: Complex) -> ValidationReport:
    return cx.validate()


class IntChain:
    """A sparse integer chain over the cells of one dimension."""

    __slots__ = ("complex", "dim", "_coeffs")

    def __init__(self, cx: Complex, dim: int, coeffs: Mapping[str, int]):
        if not isinstance(dim, int) or dim < 0:
            raise PreconditionError(f"invalid chain dimension {dim!r}")
        clean: dict[str, int] = {}
        for cid, g in coeffs.items():
            if not isinstance(g, int):
                raise PreconditionError(
                    f"integer coefficient expected on cell {cid!r}, got {g!r}")
            if g == 0:
                continue
            if cx.dim_of(cid) != dim:
                raise PreconditionError(
                    f"cell {cid!r} has dimension {cx.dim_of(cid)}, chain has dimension {dim}")
            clean[cid] = g
        self.complex = cx
        self.dim = dim
        self._coeffs = clean

    @property
    def coeffs(self) -> Mapping[str, int]:
        return MappingProxyType(self._coeffs)

    def items(self):
        return sorted(self._coeffs.items())

    def __getitem__(self, cid: str) -> int:
        return self._coeffs.get(cid, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntChain) and other.complex is self.complex
                and other.dim == self.dim and other._coeffs == self._coeffs)

    __hash__ = None

    def _same_space(self, other: "IntChain") -> None:
        if other.complex is not self.complex or other.dim != self.dim:
            raise PreconditionError("chains live on different complexes or dimensions")

    def __add__(self, other: "IntChain") -> "IntChain":
        self._same_space(other)
        out = dict(self._coeffs)
        for cid, g in other._coeffs.items():
            out[cid] = out.get(cid, 0) + g
        return IntChain(self.complex, self.dim, out)

    def __sub__(self, other: "IntChain") -> "IntChain":
        return self + (-other)

    def __neg__(self) -> "IntChain":
        return IntChain(self.complex, self.dim, {c: -g for c, g in self._coeffs.items()})

    def __rmul__(self, n: int) -> "IntChain":
        if not isinstance(n, int):
            raise PreconditionError("chains only scale by integers")
        return IntChain(self.complex, self.dim, {c: n * g for c, g in self._coeffs.items()})

    def boundary(self) -> "IntChain":
        if self.dim == 0:
            raise PreconditionError("0-dimensional chains have no boundary")
        out: dict[str, int] = {}
        for cid, g in self._coeffs.items():
            for fid, c in self.complex.boundary_of(cid).items():
                out[fid] = out.get(fid, 0) + g * c
        return IntChain(self.complex, self.dim - 1, out)

    def mass(self):
        return sum((abs(g) * self.complex.volume(c) for c, g in self.items()), 0)

    def mass_p(self, p: int):
        _check_modulus(p)
        return sum((norm_mod_p(g, p) * self.complex.volume(c) for c, g in self.items()), 0)

    def reduce_mod_p(self, p: int) -> "ModPChain":
        _check_modulus(p)
        return ModPChain(self.complex, p, self.dim,
                         {c: canonical_residue(g, p) for c, g in self._coeffs.items()})

    def __repr__(self) -> str:
        return f"IntChain(dim={self.dim}, {dict(self.items())!r})"


class ModPChain:
    """A chain with canonical mod-p residues in (-p/2, p/2] as coefficients."""

    __slots__ = ("complex", "p", "dim", "_coeffs")

    def __init__(self, cx: Complex, p: int, dim: int, coeffs: Mapping[str, int]):
        _check_modulus(p)
        clean: dict[str, int] = {}
        for cid, g in coeffs.items():
            if not isinstance(g, int):
                raise PreconditionError(
                    f"integer residue expected on cell {cid!r}, got {g!r}")
            if g == 0:
                continue
            if canonical_residue(g, p) != g:
                raise PreconditionError(
                    f"residue {g} on cell {cid!r} is not canonical for p={p}")
            if cx.dim_of(cid) != dim:
                raise PreconditionError(
                    f"cell {cid!r} has dimension {cx.dim_of(cid)}, chain has dimension {dim}")
            clean[cid] = g
        self.complex = cx
        self.p = p
        self.dim = dim
        self._coeffs = clean

    @property
    def coeffs(self) -> Mapping[str, int]:
        return MappingProxyType(self._coeffs)

    def items(self):
        return sorted(self._coeffs.items())

    def __getitem__(self, cid: str) -> int:
        return self._coeffs.get(cid, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModPChain) and other.complex is self.complex
                and other.p == self.p and other.dim == self.dim
                and other._coeffs == self._coeffs)

    __hash__ = None

    def lift(self) -> IntChain:
        """The canonical integer representative, one cell at a time."""
        return IntChain(self.complex, self.dim, dict(self._coeffs))

    def mass_p(self):
        return sum((abs(g) * self.complex.volume(c) for c, g in self.items()), 0)

    def __repr__(self) -> str:
        return f"ModPChain(p={self.p}, dim={self.dim}, {dict(self.items())!r})"


def mass_p(t, p: int):
    """Relaxed mass: cellwise norm_mod_p times volume.

    Accepts an IntChain, or a ModPChain whose modulus matches p.
    """
    if isinstance(t, ModPChain):
        if t.p != p:
            raise PreconditionError(f"chain has modulus {t.p}, requested {p}")
        return t.mass_p()
    return t.mass_p(p)


@dataclass(frozen=True)
class CellularMap:
    """A cellular map between complexes of equal top dimension.

    `assignment` sends each source cell id either to None (collapse) or
    to a (target_cell_id, sign) pair with sign +1 or -1 and matching
    dimension.  The map must commute with the boundary operators; see
    validate().
    """

    source: Complex
    target: Complex
    assignment: Mapping[str, object]

    def image(self, cid: str):
        val = self.assignment.get(cid)
        if val is None:
            return None
        tid, sign = val
        return str(tid), sign

    def validate(self) -> ValidationReport:
        for dim in self.source.dims():
            for cid in self.source.cells(dim):
                img = self.image(cid)
                if img is not None:
                    tid, sign = img
                    if sign not in (1, -1):
                        return ValidationReport(False, "map sign must be +1 or -1", cid)
                    if not self.target.has_cell(tid):
                        return ValidationReport(
                            False, "map target cell does not exist", cid, {"target": tid})
                    if self.target.dim_of(tid) != dim:
                        return ValidationReport(
                            False, "map does not preserve dimension", cid, {"target": tid})
        # commutation with the boundary operator, cell by cell
        for dim in self.source.dims():
            if dim == 0:
                continue
            for cid in self.source.cells(dim):
                img = self.image(cid)
                lhs: dict[str, int] = {}
                if img is not None:
                    tid, sign = img
                    for fid, c in self.target.boundary_of(tid).items():
                        lhs[fid] = lhs.get(fid, 0) + sign * c
                rhs: dict[str, int] = {}
                for fid, c in self.source.boundary_of(cid).items():
                    fimg = self.image(fid)
                    if fimg is not None:
                        tfid, fsign = fimg
                        rhs[tfid] = rhs.get(tfid, 0) + c * fsign
                lhs = {k: v for k, v in lhs.items() if v != 0}
                rhs = {k: v for k, v in rhs.items() if v != 0}
                if lhs != rhs:
                    return ValidationReport(
                        False, "map does not commute with the boundary", cid,
                        {"boundary_of_image": dict(sorted(lhs.items())),
                         "image_of_boundary": dict(sorted(rhs.items()))})
        return ValidationReport(True)


def push_forward(t: IntChain, f: CellularMap) -> IntChain:
    """Push a chain through a cellular map (linear extension)."""
    if t.complex is not f.source:
        raise PreconditionError("chain does not live on the map's source complex")
    report = f.validate()
    if not report:
        raise PreconditionError(
            f"not a chain map at cell {report.cell_id!r}: {report.message}")
    out: dict[str, int] = {}
    for cid, g in t._coeffs.items():
        img = f.image(cid)
        if img is None:
            continue
        tid, sign = img
        out[tid] = out.get(tid, 0) + g * sign
    return IntChain(f.target, t.dim, out)


def as_fraction(x) -> Fraction:
    """Exact conversion to Fraction; floats convert by their binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"cannot parse {x!r} as an exact number") from exc
    raise PreconditionError(f"cannot convert {x!r} to an exact number")
