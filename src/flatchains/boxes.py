"""Axis-aligned box chains in R^n with exact rational geometry.

A box cell is a product of closed intervals, one per ambient axis; the
axes where the interval has positive length are the cell's directions
and their count is its dimension.  Orientation is fixed as the wedge of
the directions in increasing axis order, so every sign below follows
from that single convention.

Chains canonicalize on construction: every cell is split at all
interval endpoints occurring in the chain on each axis, coefficients of
identical pieces are merged, and zeros are dropped.  Two chains are
equal when their difference canonicalizes to nothing, which makes
equality a statement about the underlying current rather than about one
particular list of boxes.

All endpoints are Fractions, so restriction levels, slice integrals,
and the deformation identity are computed without rounding error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .core import (
    Complex,
    IntChain,
    InternalDefectError,
    PreconditionError,
    _check_modulus,
    as_fraction,
    canonical_residue,
    norm_mod_p,
)

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True, order=True)
class BoxCell:
    """A closed axis-aligned box, possibly degenerate in some axes.

    directions and the hash are computed once from the intervals; they
    take no part in equality, ordering or repr.
    """

    intervals: tuple[Interval, ...]
    directions: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fixed = []
        for pair in self.intervals:
            lo, hi = pair
            lo, hi = as_fraction(lo), as_fraction(hi)
            if lo > hi:
                raise PreconditionError(f"interval [{lo}, {hi}] is reversed")
            fixed.append((lo, hi))
        fixed = tuple(fixed)
        object.__setattr__(self, "intervals", fixed)
        object.__setattr__(self, "directions",
                           tuple(j for j, (lo, hi) in enumerate(fixed) if lo < hi))
        object.__setattr__(self, "_hash", hash(fixed))

    def __hash__(self) -> int:
        return self._hash

    @property
    def ambient_dim(self) -> int:
        return len(self.intervals)

    @property
    def dim(self) -> int:
        return len(self.directions)

    @property
    def volume(self) -> Fraction:
        v = Fraction(1)
        for j in self.directions:
            lo, hi = self.intervals[j]
            v *= hi - lo
        return v

    def replace(self, axis: int, lo, hi) -> "BoxCell":
        ivs = list(self.intervals)
        ivs[axis] = (lo, hi)
        return BoxCell(tuple(ivs))

    def face(self, axis: int, side: str) -> "BoxCell":
        lo, hi = self.intervals[axis]
        v = lo if side == "lo" else hi
        return self.replace(axis, v, v)

    def id_token(self) -> str:
        parts = []
        for lo, hi in self.intervals:
            parts.append(str(lo) if lo == hi else f"{lo}..{hi}")
        return f"b{self.dim}[" + ";".join(parts) + "]"

    def __repr__(self) -> str:
        parts = []
        for lo, hi in self.intervals:
            parts.append(f"{{{lo}}}" if lo == hi else f"[{lo},{hi}]")
        return "x".join(parts)


def _split_intervals(lo: Fraction, hi: Fraction, cuts: Sequence[Fraction],
                     index: Mapping[Fraction, int]):
    """The pieces of [lo, hi] between consecutive cuts.

    cuts is sorted and contains lo and hi; index maps each cut to its
    position in cuts.
    """
    if lo == hi:
        return [(lo, hi)]
    return list(itertools.pairwise(cuts[index[lo]:index[hi] + 1]))


class BoxChain:
    """An integer-coefficient chain of k-dimensional box cells in R^n."""

    __slots__ = ("ambient_dim", "dim", "_items")

    def __init__(self, ambient_dim: int, dim: int,
                 items: Union[Mapping[BoxCell, int], Iterable[tuple[BoxCell, int]]]):
        # dim may formally exceed the ambient dimension by one: the sweep of a
        # top-dimensional chain lives there and is necessarily empty, since no
        # cell can extend in more axes than the space has.
        if dim < 0 or dim > ambient_dim + 1:
            raise PreconditionError(f"chain dimension {dim} not in [0, {ambient_dim + 1}]")
        if isinstance(items, Mapping):
            items = items.items()
        merged: dict[BoxCell, int] = {}
        for cell, g in items:
            if not isinstance(g, int):
                raise PreconditionError(f"integer coefficient expected, got {g!r}")
            if g == 0:
                continue
            if cell.ambient_dim != ambient_dim:
                raise PreconditionError(
                    f"cell {cell!r} lives in R^{cell.ambient_dim}, chain in R^{ambient_dim}")
            if cell.dim != dim:
                raise PreconditionError(
                    f"cell {cell!r} has dimension {cell.dim}, chain has dimension {dim}")
            merged[cell] = merged.get(cell, 0) + g
        merged = {c: g for c, g in merged.items() if g != 0}
        self.ambient_dim = ambient_dim
        self.dim = dim
        self._items = self._canonicalize(merged) if merged else {}

    def _canonicalize(self, merged: dict[BoxCell, int]) -> dict[BoxCell, int]:
        cuts = [sorted({v for cell in merged for v in cell.intervals[j]})
                for j in range(self.ambient_dim)]
        index = [{v: i for i, v in enumerate(c)} for c in cuts]
        out: dict[BoxCell, int] = {}
        for cell, g in merged.items():
            per_axis = [_split_intervals(lo, hi, cuts[j], index[j])
                        for j, (lo, hi) in enumerate(cell.intervals)]
            if all(len(pieces) == 1 for pieces in per_axis):
                out[cell] = out.get(cell, 0) + g
                continue
            for combo in itertools.product(*per_axis):
                piece = BoxCell(combo)
                out[piece] = out.get(piece, 0) + g
        return {c: g for c, g in out.items() if g != 0}

    def items(self) -> list[tuple[BoxCell, int]]:
        return sorted(self._items.items())

    def coefficient(self, cell: BoxCell) -> int:
        return self._items.get(cell, 0)

    def is_zero(self) -> bool:
        return not self._items

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoxChain) or other.ambient_dim != self.ambient_dim:
            return NotImplemented if not isinstance(other, BoxChain) else False
        if self.is_zero() and other.is_zero():
            return True
        if self.dim != other.dim:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def _same_space(self, other: "BoxChain") -> None:
        if other.ambient_dim != self.ambient_dim or other.dim != self.dim:
            raise PreconditionError("box chains live in different spaces or dimensions")

    def __add__(self, other: "BoxChain") -> "BoxChain":
        self._same_space(other)
        items = list(self._items.items()) + list(other._items.items())
        return BoxChain(self.ambient_dim, self.dim, items)

    def __sub__(self, other: "BoxChain") -> "BoxChain":
        return self + (-other)

    def _scaled(self, n: int) -> "BoxChain":
        # n * self for a nonzero integer n: the cells, and so the cut sets,
        # are unchanged and no coefficient becomes 0, so the item map is
        # already canonical.
        chain = BoxChain.__new__(BoxChain)
        chain.ambient_dim = self.ambient_dim
        chain.dim = self.dim
        chain._items = {c: n * g for c, g in self._items.items()}
        return chain

    def __neg__(self) -> "BoxChain":
        return self._scaled(-1)

    def __rmul__(self, n: int) -> "BoxChain":
        if not isinstance(n, int):
            raise PreconditionError("box chains only scale by integers")
        return self._scaled(n) if n else BoxChain(self.ambient_dim, self.dim, ())

    def boundary(self) -> "BoxChain":
        if self.dim == 0:
            raise PreconditionError("0-dimensional chains have no boundary")
        items = [(face, sign * g) for cell, g in self._items.items()
                 for face, sign in _boundary_items(cell)]
        return BoxChain(self.ambient_dim, self.dim - 1, items)

    def mass(self) -> Fraction:
        return sum((abs(g) * cell.volume for cell, g in self._items.items()), Fraction(0))

    def mass_p(self, p: int) -> Fraction:
        return sum((norm_mod_p(g, p) * cell.volume for cell, g in self._items.items()),
                   Fraction(0))

    def reduce_mod_p(self, p: int) -> "BoxChain":
        return BoxChain(self.ambient_dim, self.dim,
                        {c: canonical_residue(g, p) for c, g in self._items.items()})

    def axis_values(self, axis: int) -> tuple[Fraction, ...]:
        """All interval endpoints of the chain's cells on one axis, sorted."""
        if not 0 <= axis < self.ambient_dim:
            raise PreconditionError(f"axis {axis} out of range for R^{self.ambient_dim}")
        return tuple(sorted({v for cell in self._items for v in cell.intervals[axis]}))

    def restrict(self, axis: int, r, side: str = "below") -> "BoxChain":
        """Restriction to the half-space x_axis < r (or > r with side="above").

        r must be generic: it may not equal any interval endpoint of the
        chain on that axis.
        """
        if side not in ("below", "above"):
            raise PreconditionError(f"side must be 'below' or 'above', got {side!r}")
        r = as_fraction(r)
        vals = self.axis_values(axis)
        if r in vals:
            raise PreconditionError(
                f"level {r} hits a face on axis {axis}; perturb r"
                f" (e.g. to {_suggest_level(vals, r)})")
        items = []
        for cell, g in self._items.items():
            lo, hi = cell.intervals[axis]
            if side == "below":
                if hi < r:
                    items.append((cell, g))
                elif lo < r < hi:
                    items.append((cell.replace(axis, lo, r), g))
            else:
                if lo > r:
                    items.append((cell, g))
                elif lo < r < hi:
                    items.append((cell.replace(axis, r, hi), g))
        return BoxChain(self.ambient_dim, self.dim, items)

    def slice(self, axis: int, r) -> "BoxChain":
        """The codimension-1 slice at level r on one axis.

        Computed literally as boundary(restriction) minus
        restriction(boundary); the result is supported on {x_axis = r}.
        """
        if self.dim < 1:
            raise PreconditionError("0-dimensional chains cannot be sliced")
        below = self.restrict(axis, r)
        return below.boundary() - self.boundary().restrict(axis, r)

    def iterated_slice(self, axes: Sequence[int], point: Sequence) -> "BoxChain":
        axes = tuple(axes)
        point = tuple(point)
        if len(axes) != len(point):
            raise PreconditionError("axes and point have different lengths")
        if len(set(axes)) != len(axes):
            raise PreconditionError("iterated slice axes must be distinct")
        if len(axes) > self.dim:
            raise PreconditionError(
                f"cannot take {len(axes)} slices of a {self.dim}-chain")
        out = self
        for axis, r in zip(axes, point):
            out = out.slice(axis, r)
        return out

    def __repr__(self) -> str:
        return f"BoxChain(n={self.ambient_dim}, dim={self.dim}, cells={len(self._items)})"


def _suggest_level(vals: Sequence[Fraction], r: Fraction) -> Fraction:
    below = [v for v in vals if v < r]
    above = [v for v in vals if v > r]
    if below:
        return (max(below) + r) / 2
    if above:
        return (r + min(above)) / 2
    return r - Fraction(1, 2)


def grid_chain(n: int, k: int, region: Sequence, scale,
               coefficient: Union[int, Callable[[BoxCell], int]] = 1) -> BoxChain:
    """All k-cells of the scale-grid inside a box region.

    region is a sequence of n (lo, hi) pairs whose corners must sit at
    integer multiples of the scale; coefficient is a constant or a
    per-cell callable.
    """
    scale = as_fraction(scale)
    if scale <= 0:
        raise PreconditionError("grid scale must be positive")
    if len(region) != n:
        raise PreconditionError(f"region needs {n} intervals, got {len(region)}")
    if not 0 <= k <= n:
        raise PreconditionError(f"cell dimension {k} not in [0, {n}]")
    steps = []
    for lo, hi in region:
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi or (lo / scale).denominator != 1 or (hi / scale).denominator != 1:
            raise PreconditionError(
                f"misaligned region interval [{lo}, {hi}] for scale {scale}")
        steps.append((lo, int((hi - lo) / scale)))
    items = []
    for dirs in itertools.combinations(range(n), k):
        per_axis = []
        for j, (lo, count) in enumerate(steps):
            if j in dirs:
                if count == 0:
                    per_axis.append([])
                else:
                    per_axis.append([(lo + t * scale, lo + (t + 1) * scale)
                                     for t in range(count)])
            else:
                per_axis.append([(lo + t * scale, lo + t * scale)
                                 for t in range(count + 1)])
        for combo in itertools.product(*per_axis):
            cell = BoxCell(tuple(combo))
            g = coefficient(cell) if callable(coefficient) else coefficient
            if g:
                items.append((cell, g))
    return BoxChain(n, k, items)


def slice_mass_integral(chain: BoxChain, axes: Sequence[int], p: int) -> Fraction:
    """Exact integral over the slicing parameters of the iterated slice mass.

    Closed form: the sum of norm_mod_p(g, p) * volume over the cells whose
    directions include every axis in axes.  This is exact because chains
    are canonical: on each axis every extended interval of a cell is one
    gap of the chain's sorted endpoints.  At a generic point x of the
    slicing axes, the iterated slice therefore sends each cell extended
    in all of them and containing x to its own cross-section, with
    coefficient +-g and volume the cell's volume over the lengths of its
    sliced intervals, and sends every other cell to nothing.  No two
    cross-sections coincide, so nothing merges, and integrating over x
    restores the sliced lengths.
    """
    _check_modulus(p)
    axes = tuple(axes)
    if len(set(axes)) != len(axes):
        raise PreconditionError("slice integral axes must be distinct")
    if len(axes) > chain.dim:
        raise PreconditionError(
            f"cannot integrate {len(axes)} slices of a {chain.dim}-chain")
    for axis in axes:
        if not 0 <= axis < chain.ambient_dim:
            raise PreconditionError(f"axis {axis} out of range for R^{chain.ambient_dim}")
    wanted = set(axes)
    return sum((norm_mod_p(g, p) * cell.volume for cell, g in chain._items.items()
                if wanted.issubset(cell.directions)), Fraction(0))


def slice_mass_star(chain: BoxChain, p: int) -> Fraction:
    """Maximum of the full iterated slice-mass integral over axis subsets.

    The maximum ranges over all subsets of the coordinate axes of size
    equal to the chain dimension; for 0-chains this is the plain mass_p.
    """
    if chain.is_zero():
        return Fraction(0)
    if chain.dim == 0:
        return chain.mass_p(p)
    return max(slice_mass_integral(chain, axes, p)
               for axes in itertools.combinations(range(chain.ambient_dim), chain.dim))


# -- compilation to abstract complexes ------------------------------------

def _boundary_items(cell: BoxCell) -> list[tuple[BoxCell, int]]:
    items = []
    for i, axis in enumerate(cell.directions, start=1):
        sign = 1 if i % 2 == 1 else -1
        items.append((cell.face(axis, "hi"), sign))
        items.append((cell.face(axis, "lo"), -sign))
    return items


def _build_complex(cells: Iterable[BoxCell], ambient_dim: int) -> Complex:
    by_dim: dict[int, dict[str, tuple]] = {}
    for cell in cells:
        token = cell.id_token()
        layer = by_dim.setdefault(cell.dim, {})
        if token in layer:
            continue
        bdry = [(f.id_token(), s) for f, s in _boundary_items(cell)] if cell.dim else []
        vol = cell.volume if cell.dim else 1
        layer[token] = (token, vol, bdry)
    data = {d: sorted(layer.values()) for d, layer in by_dim.items()}
    return Complex(data, ambient_dim=ambient_dim)


def compile_chain(chain: BoxChain) -> tuple[Complex, IntChain]:
    """The chain's cells plus all iterated faces, as an abstract complex."""
    seen: set[BoxCell] = set()
    frontier = [cell for cell, _ in chain.items()]
    while frontier:
        cell = frontier.pop()
        if cell in seen:
            continue
        seen.add(cell)
        if cell.dim:
            frontier.extend(f for f, _ in _boundary_items(cell))
    cx = _build_complex(seen, chain.ambient_dim)
    coeffs = {cell.id_token(): g for cell, g in chain.items()}
    return cx, IntChain(cx, chain.dim, coeffs)


def arrangement_complex(chain: BoxChain, subdivide: int = 1) -> tuple[Complex, IntChain]:
    """The full box complex over the chain's coordinate lattice.

    Unlike compile_chain, this includes every lattice cell of every
    dimension (in particular the top-dimensional ones), so flat-norm
    fillings have somewhere to live.  subdivide = m splits each lattice
    gap into m equal parts first.
    """
    if not isinstance(subdivide, int) or subdivide < 1:
        raise PreconditionError(f"subdivision factor must be an integer >= 1, got {subdivide!r}")
    if chain.is_zero():
        return compile_chain(chain)
    n = chain.ambient_dim
    lattices = []
    for j in range(n):
        vals = list(chain.axis_values(j))
        fine = []
        for lo, hi in itertools.pairwise(vals):
            fine.extend(lo + t * (hi - lo) / subdivide for t in range(subdivide))
        fine.append(vals[-1])
        lattices.append(fine)
    per_axis_cells = []
    for vals in lattices:
        cells = [(v, v) for v in vals]
        cells += [(lo, hi) for lo, hi in itertools.pairwise(vals)]
        per_axis_cells.append(sorted(cells))
    all_cells = [BoxCell(combo) for combo in itertools.product(*per_axis_cells)]
    cx = _build_complex(all_cells, n)
    coeffs: dict[str, int] = {}
    index = [{v: i for i, v in enumerate(c)} for c in lattices]
    for cell, g in chain.items():
        per_axis = [_split_intervals(lo, hi, lattices[j], index[j])
                    for j, (lo, hi) in enumerate(cell.intervals)]
        for combo in itertools.product(*per_axis):
            token = BoxCell(combo).id_token()
            coeffs[token] = coeffs.get(token, 0) + g
    out = IntChain(cx, chain.dim, coeffs)
    return cx, out


# -- coordinate-rounding deformation ---------------------------------------

@dataclass(frozen=True)
class DeformationResult:
    """Outcome of the coordinate-rounding deformation T = P + U + dQ.

    rounded is the chain pushed fully onto the coarse grid, chain_sweep
    is the accumulated (k+1)-dimensional sweep, and boundary_sweep is
    the accumulated sweep of the boundary; the identity
    original = rounded + boundary_sweep + boundary(chain_sweep)
    holds exactly and is checked at construction time.  original_boundary
    is boundary(original), built once (None for a 0-chain).
    """

    original: BoxChain
    rounded: BoxChain
    boundary_sweep: BoxChain
    chain_sweep: BoxChain
    eta: Fraction
    rho: tuple[Fraction, ...]
    original_boundary: Optional[BoxChain] = field(repr=False, compare=False)
    modulus: Optional[int] = None

    def _relaxed_mass(self, chain: BoxChain) -> Fraction:
        return chain.mass_p(self.modulus) if self.modulus is not None else chain.mass()

    def _boundary_mass(self) -> Fraction:
        bd = self.original_boundary
        return self._relaxed_mass(bd) if bd is not None else Fraction(0)

    @staticmethod
    def _ratio(num: Fraction, den: Fraction) -> Fraction:
        if den != 0:
            return num / den
        if num == 0:
            return Fraction(0)
        raise InternalDefectError("nonzero sweep over a vanishing reference mass")

    @property
    def ratio_rounded(self) -> Fraction:
        return self._ratio(self._relaxed_mass(self.rounded),
                           self._relaxed_mass(self.original) + self.eta * self._boundary_mass())

    @property
    def ratio_boundary_sweep(self) -> Fraction:
        return self._ratio(self.boundary_sweep.mass(), self.eta * self._boundary_mass())

    @property
    def ratio_chain_sweep(self) -> Fraction:
        return self._ratio(self._relaxed_mass(self.chain_sweep),
                           self.eta * self._relaxed_mass(self.original))


def _round_value(v: Fraction, eta: Fraction, rho: Fraction) -> Fraction:
    q = v / eta
    fl = math.floor(q)
    frac = q - fl
    if frac == rho:
        raise InternalDefectError(f"threshold collision at {v} escaped the precheck")
    return eta * (fl if frac < rho else fl + 1)


def _push_round(chain: BoxChain, axis: int, eta: Fraction, rho: Fraction) -> BoxChain:
    items = []
    for cell, g in chain._items.items():
        lo, hi = cell.intervals[axis]
        rlo, rhi = _round_value(lo, eta, rho), _round_value(hi, eta, rho)
        if lo < hi and rlo == rhi:
            continue
        items.append((cell.replace(axis, rlo, rhi), g))
    return BoxChain(chain.ambient_dim, chain.dim, items)


def _sweep(chain: BoxChain, axis: int, eta: Fraction, rho: Fraction) -> BoxChain:
    """The chain-homotopy prisms of the rounding map on one axis.

    Only cells degenerate in the axis sweep out anything; a cell already
    extended there traces a region of its own dimension, a zero chain.
    """
    items = []
    for cell, g in chain._items.items():
        lo, hi = cell.intervals[axis]
        if lo < hi:
            continue
        target = _round_value(lo, eta, rho)
        if target == lo:
            continue
        pos = sorted(set(cell.directions) | {axis}).index(axis) + 1
        if target > lo:
            sign = 1 if pos % 2 == 1 else -1
            swept = cell.replace(axis, lo, target)
        else:
            sign = -1 if pos % 2 == 1 else 1
            swept = cell.replace(axis, target, lo)
        items.append((swept, sign * g))
    return BoxChain(chain.ambient_dim, chain.dim + 1, items)


def _axis_denominators(chain: BoxChain, eta: Fraction) -> list[int]:
    denoms = []
    for j in range(chain.ambient_dim):
        vals = chain.axis_values(j)
        denoms.append(math.lcm(*((v / eta).denominator for v in vals)) if vals else 1)
    return denoms


def deform(chain: BoxChain, eta, rho: Union[None, Sequence, object] = None,
           p: Optional[int] = None, optimize_thresholds: bool = False) -> DeformationResult:
    """Round a box chain onto the eta-grid through per-axis chain homotopies.

    Every coordinate of the chain must be a rational multiple of eta.
    Thresholds rho (one per axis, each strictly between 0 and 1) decide
    which side of a coarse interval a fine coordinate rounds to; the
    default picks, per axis, a value that collides with no coordinate of
    the chain.  With optimize_thresholds the per-axis threshold is chosen
    among the fine-gap midpoints to minimize the mass of the rounded
    chain at that step.  p only affects the reported mass ratios.
    """
    eta = as_fraction(eta)
    if eta <= 0:
        raise PreconditionError("coarse scale must be positive")
    if p is not None:
        _check_modulus(p)
    n = chain.ambient_dim
    denoms = _axis_denominators(chain, eta)
    if rho is not None and optimize_thresholds:
        raise PreconditionError("give thresholds or ask for the threshold search, not both")
    if rho is None:
        thresholds = [Fraction(2 * (m // 2) + 1, 2 * m) for m in denoms]
    else:
        if not isinstance(rho, (list, tuple)):
            rho = [rho] * n
        if len(rho) != n:
            raise PreconditionError(f"expected {n} thresholds, got {len(rho)}")
        thresholds = [as_fraction(r) for r in rho]
        for j, r in enumerate(thresholds):
            if not 0 < r < 1:
                raise PreconditionError(f"threshold {r} on axis {j} not in (0, 1)")
            for v in chain.axis_values(j):
                if (v / eta) % 1 == r:
                    raise PreconditionError(
                        f"threshold {r} on axis {j} collides with coordinate {v}")

    current = chain
    original_bd = chain.boundary() if chain.dim >= 1 else None
    sweep_total = BoxChain(n, chain.dim + 1, {})
    boundary_sweep_total = BoxChain(n, chain.dim, {})
    chosen = []
    for j in range(n):
        if optimize_thresholds:
            candidates = [Fraction(2 * t + 1, 2 * denoms[j]) for t in range(denoms[j])]
            r_j = min(candidates, key=lambda r: (_push_round(current, j, eta, r).mass(), r))
        else:
            r_j = thresholds[j]
        chosen.append(r_j)
        prism = _sweep(current, j, eta, r_j)
        rounded = _push_round(current, j, eta, r_j)
        if original_bd is None:
            edge = BoxChain(n, chain.dim, {})
        else:
            edge = _sweep(original_bd if j == 0 else current.boundary(), j, eta, r_j)
        if rounded - current != prism.boundary() + edge:
            raise InternalDefectError(f"homotopy identity failed on axis {j}")
        sweep_total = sweep_total + prism
        boundary_sweep_total = boundary_sweep_total + edge
        current = rounded

    result = DeformationResult(
        original=chain,
        rounded=current,
        boundary_sweep=-boundary_sweep_total,
        chain_sweep=-sweep_total,
        eta=eta,
        rho=tuple(chosen),
        original_boundary=original_bd,
        modulus=p,
    )
    _check_deformation(result)
    return result


def _check_deformation(res: DeformationResult) -> None:
    t, p_chain = res.original, res.rounded
    recomposed = p_chain + res.boundary_sweep + res.chain_sweep.boundary()
    if recomposed != t:
        raise InternalDefectError("deformation identity T = P + U + dQ failed")
    for cell, _ in p_chain.items():
        for lo, hi in cell.intervals:
            if (lo / res.eta).denominator != 1 or (hi / res.eta).denominator != 1:
                raise InternalDefectError("rounded chain left the coarse grid")
    if t.dim >= 1:
        t_bd, p_bd = res.original_boundary, p_chain.boundary()
        rounded_boundary = t_bd
        for j, r_j in enumerate(res.rho):
            rounded_boundary = _push_round(rounded_boundary, j, res.eta, r_j)
        if p_bd != rounded_boundary:
            raise InternalDefectError("boundary of the rounded chain is not the rounded boundary")
        if res.boundary_sweep.boundary() != t_bd - p_bd:
            raise InternalDefectError("boundary sweep does not account for the boundary defect")
        if t_bd.is_zero() and not res.boundary_sweep.is_zero():
            raise InternalDefectError("cycle input produced a nonzero boundary sweep")
