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

A chain keeps its coordinates as integer numerators over one positive
denominator, `den`, shared by all its cells: a cell is keyed by the
tuple of its (lo, hi) numerator pairs, one per axis.  Splitting, faces,
restriction, slicing and rounding then compare and copy plain ints.
Chains of different denominators, or a level or coarse grid off the
lattice, are first rescaled once to the least common multiple, so every
result stays exact.  Fractions appear only at the public surface:
BoxCell and its intervals, axis_values, volumes and masses.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import total_ordering
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence, Union

from .base import (
    Frozen,
    InternalDefectError,
    PreconditionError,
    _check_modulus,
    as_fraction,
    canonical_residue,
    norm_mod_p,
)

if TYPE_CHECKING:  # only the complex builders below import it, when they run
    from .core import Complex, IntChain

Interval = tuple[Fraction, Fraction]
Key = tuple[tuple[int, int], ...]  # a cell's (lo, hi) numerators over its chain's den


def _directions(intervals) -> tuple[int, ...]:
    # no interval is reversed, and == is cheaper than < on Fractions
    return tuple(j for j, (lo, hi) in enumerate(intervals) if lo != hi)


def _token(intervals, text: Callable) -> str:
    parts = [text(lo) if lo == hi else f"{text(lo)}..{text(hi)}" for lo, hi in intervals]
    return f"b{len(_directions(intervals))}[" + ";".join(parts) + "]"


def _show(intervals) -> str:
    return "x".join(f"{{{lo}}}" if lo == hi else f"[{lo},{hi}]" for lo, hi in intervals)


def _ordered(intervals: tuple[Interval, ...]) -> tuple[Interval, ...]:
    for lo, hi in intervals:
        if lo > hi:
            raise PreconditionError(f"interval [{lo}, {hi}] is reversed")
    return intervals


def _values(keys: Iterable[Key]) -> set[int]:
    return {v for key in keys for iv in key for v in iv}


@total_ordering
class BoxCell(Frozen):
    """A closed axis-aligned box, possibly degenerate in some axes.

    directions is computed once from the intervals; it takes no part in
    equality, ordering, hash or repr.
    """

    def __init__(self, intervals: tuple[Interval, ...]):
        fixed = _ordered(tuple((as_fraction(lo), as_fraction(hi)) for lo, hi in intervals))
        vars(self).update(intervals=fixed, directions=_directions(fixed))

    @classmethod
    def _from_key(cls, key: Key, coords: Mapping[int, Fraction]) -> "BoxCell":
        cell = object.__new__(cls)
        vars(cell).update(intervals=tuple((coords[lo], coords[hi]) for lo, hi in key),
                          directions=_directions(key))
        return cell

    def __hash__(self) -> int:
        return hash(self.intervals)

    # written out, not inherited: sorts of cells run these; total_ordering
    # derives <=, > and >= from them
    def __eq__(self, other):
        return self.intervals == other.intervals if other.__class__ is BoxCell else NotImplemented

    def __lt__(self, other):
        return self.intervals < other.intervals if other.__class__ is BoxCell else NotImplemented

    @property
    def ambient_dim(self) -> int:
        return len(self.intervals)

    @property
    def dim(self) -> int:
        return len(self.directions)

    @property
    def volume(self) -> Fraction:
        return math.prod((hi - lo for lo, hi in self.intervals if lo < hi), start=Fraction(1))

    def replace(self, axis: int, lo, hi) -> "BoxCell":
        return BoxCell(_replaced(self.intervals, axis, lo, hi))

    def face(self, axis: int, side: str) -> "BoxCell":
        lo, hi = self.intervals[axis]
        v = lo if side == "lo" else hi
        return self.replace(axis, v, v)

    def id_token(self) -> str:
        return _token(self.intervals, str)

    def __repr__(self) -> str:
        return _show(self.intervals)


def _numerators(intervals: tuple[Interval, ...], den: int) -> Key:
    # the key over den, a multiple of every endpoint's denominator
    return tuple((lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator))
                 for lo, hi in intervals)


def _check_dim(ambient_dim: int, dim: int) -> None:
    # dim may formally exceed the ambient dimension by one: the sweep of a
    # top-dimensional chain lives there and is necessarily empty, since no
    # cell can extend in more axes than the space has
    if dim < 0 or dim > ambient_dim + 1:
        raise PreconditionError(f"chain dimension {dim} not in [0, {ambient_dim + 1}]")


def _keyed(ambient_dim: int, dim: int,
           items: Iterable[tuple[tuple[Interval, ...], int]]) -> tuple[list[tuple[Key, int]], int]:
    """(key, coefficient) pairs of the nonzero items and their den, the
    lcm of the endpoints' denominators, from (intervals, coefficient)
    pairs of Fraction endpoints; checks the chain and every cell."""
    _check_dim(ambient_dim, dim)
    kept = []
    for intervals, g in items:
        if not isinstance(g, int):
            raise PreconditionError(f"integer coefficient expected, got {g!r}")
        if not g:
            continue
        if len(intervals) != ambient_dim:
            raise PreconditionError(
                f"cell {_show(intervals)} lives in R^{len(intervals)}, chain in R^{ambient_dim}")
        if (k := len(_directions(intervals))) != dim:
            raise PreconditionError(
                f"cell {_show(intervals)} has dimension {k}, chain has dimension {dim}")
        kept.append((intervals, g))
    den = math.lcm(*{v.denominator for intervals, _ in kept for iv in intervals for v in iv})
    return [(_numerators(intervals, den), g) for intervals, g in kept], den


def _replaced(key: Key, axis: int, lo: int, hi: int) -> Key:
    return key[:axis] + ((lo, hi),) + key[axis + 1:]


def _split_intervals(lo, hi, cuts: Sequence, index: Mapping):
    """The pieces of [lo, hi] between consecutive cuts.

    cuts is sorted and contains lo and hi; index maps each cut to its
    position in cuts.
    """
    if lo == hi:
        return [(lo, hi)]
    return list(itertools.pairwise(cuts[index[lo]:index[hi] + 1]))


class BoxChain:
    """An integer-coefficient chain of k-dimensional box cells in R^n."""

    carrier = "box"
    __slots__ = ("ambient_dim", "dim", "den", "_items")

    def __init__(self, ambient_dim: int, dim: int,
                 items: Union[Mapping[BoxCell, int], Iterable[tuple[BoxCell, int]]],
                 den: Optional[int] = None):
        # With den given, items are (key, coefficient) pairs over den built
        # by this module or by the box file parser from _keyed.
        if isinstance(items, Mapping):
            items = items.items()
        if den is None:
            items, den = _keyed(ambient_dim, dim, ((cell.intervals, g) for cell, g in items))
        else:
            _check_dim(ambient_dim, dim)
        merged: dict[Key, int] = {}
        for key, g in items:
            merged[key] = merged.get(key, 0) + g
        merged = {key: g for key, g in merged.items() if g}
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.den = den
        self._items = self._canonicalize(merged) if merged else {}

    def _canonicalize(self, merged: dict[Key, int]) -> dict[Key, int]:
        cuts = [sorted({v for key in merged for v in key[j]}) for j in range(self.ambient_dim)]
        index = [{v: i for i, v in enumerate(c)} for c in cuts]
        out: dict[Key, int] = {}
        for key, g in merged.items():
            if all(lo == hi or at[hi] - at[lo] == 1 for (lo, hi), at in zip(key, index)):
                out[key] = out.get(key, 0) + g
                continue
            per_axis = [_split_intervals(lo, hi, cuts[j], index[j])
                        for j, (lo, hi) in enumerate(key)]
            for piece in itertools.product(*per_axis):
                out[piece] = out.get(piece, 0) + g
        return {key: g for key, g in out.items() if g}

    def items(self) -> list[tuple[BoxCell, int]]:
        # numerators over one positive den sort as the Fractions they stand for
        coords = {v: Fraction(v, self.den) for v in _values(self._items)}
        return [(BoxCell._from_key(key, coords), g) for key, g in sorted(self._items.items())]

    def coefficient(self, cell: BoxCell) -> int:
        if any((v * self.den).denominator != 1 for iv in cell.intervals for v in iv):
            return 0
        return self._items.get(_numerators(cell.intervals, self.den), 0)

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
        return _combine((1, self), (1, other))

    def __sub__(self, other: "BoxChain") -> "BoxChain":
        return _combine((1, self), (-1, other))

    def _with_items(self, items: dict[Key, int], den: Optional[int] = None) -> "BoxChain":
        # a chain in this chain's space from an item map already canonical
        chain = BoxChain.__new__(BoxChain)
        chain.ambient_dim = self.ambient_dim
        chain.dim = self.dim
        chain.den = self.den if den is None else den
        chain._items = items
        return chain

    def _rescaled(self, den: int) -> "BoxChain":
        # the same chain over den, a multiple of self.den; scaling every
        # coordinate alike keeps the item map canonical
        if den == self.den:
            return self
        f = den // self.den
        return self._with_items({tuple((lo * f, hi * f) for lo, hi in key): g
                                 for key, g in self._items.items()}, den)

    def _scaled(self, n: int) -> "BoxChain":
        # n * self for a nonzero integer n: the cells, and so the cut sets,
        # are unchanged and no coefficient becomes 0, so the item map is
        # already canonical.
        return self._with_items({c: n * g for c, g in self._items.items()})

    def __neg__(self) -> "BoxChain":
        return self._scaled(-1)

    def __rmul__(self, n: int) -> "BoxChain":
        if not isinstance(n, int):
            raise PreconditionError("box chains only scale by integers")
        return self._scaled(n) if n else BoxChain(self.ambient_dim, self.dim, ())

    def boundary(self) -> "BoxChain":
        if self.dim == 0:
            raise PreconditionError("0-dimensional chains have no boundary")
        items = [(face, sign * g) for key, g in self._items.items()
                 for face, sign in _faces(key)]
        return BoxChain(self.ambient_dim, self.dim - 1, items, self.den)

    def mass(self) -> Fraction:
        return _measure(self, abs)

    def mass_p(self, p: int) -> Fraction:
        _check_modulus(p)
        return _measure(self, lambda g: norm_mod_p(g, p))

    def reduce_mod_p(self, p: int) -> "BoxChain":
        _check_modulus(p)
        # dropping the cells whose residue is 0 only removes cuts, so the
        # remaining cells need no split and the item map stays canonical
        residues = ((c, canonical_residue(g, p)) for c, g in self._items.items())
        return self._with_items({c: r for c, r in residues if r})

    def axis_values(self, axis: int) -> tuple[Fraction, ...]:
        """All interval endpoints of the chain's cells on one axis, sorted."""
        if not 0 <= axis < self.ambient_dim:
            raise PreconditionError(f"axis {axis} out of range for R^{self.ambient_dim}")
        return tuple(Fraction(v, self.den)
                     for v in sorted({v for key in self._items for v in key[axis]}))

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
        chain = self._rescaled(math.lcm(self.den, r.denominator))
        level = r.numerator * (chain.den // r.denominator)
        below, items = side == "below", []
        for key, g in chain._items.items():
            lo, hi = key[axis]
            if hi < level if below else lo > level:
                items.append((key, g))
            elif lo < level < hi:
                items.append((_replaced(key, axis, *((lo, level) if below else (level, hi))), g))
        return BoxChain(self.ambient_dim, self.dim, items, chain.den)

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


def _combine(*terms: tuple[int, BoxChain]) -> BoxChain:
    """The sum of n * chain over the terms, canonicalized once over the LCM."""
    first = terms[0][1]
    for _, chain in terms:
        first._same_space(chain)
    den = math.lcm(*(chain.den for _, chain in terms))
    items = [(key, n * g) for n, chain in terms for key, g in chain._rescaled(den)._items.items()]
    return BoxChain(first.ambient_dim, first.dim, items, den)


def _measure(chain: BoxChain, weight: Callable[[int], int], axes: Sequence[int] = ()) -> Fraction:
    """The sum of weight(g) * volume over the cells extended in every axis of axes."""
    total = 0
    for key, g in chain._items.items():
        if all(key[a][0] < key[a][1] for a in axes):
            total += weight(g) * math.prod(hi - lo for lo, hi in key if lo < hi)
    return Fraction(total, chain.den ** chain.dim)


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
        per_axis = [[(lo + t * scale, lo + (t + 1) * scale) for t in range(count)] if j in dirs
                    else [(lo + t * scale, lo + t * scale) for t in range(count + 1)]
                    for j, (lo, count) in enumerate(steps)]
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
    return _measure(chain, lambda g: norm_mod_p(g, p), axes)


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

def _faces(key: Key) -> list[tuple[Key, int]]:
    items = []
    sign = 1
    for axis, (lo, hi) in enumerate(key):
        if lo < hi:
            items.append((_replaced(key, axis, hi, hi), sign))
            items.append((_replaced(key, axis, lo, lo), -sign))
            sign = -sign
    return items


def _build_complex(keys: Iterable[Key], den: int, text: Callable[[int], str]) -> Complex:
    from .core import Complex

    by_dim: dict[int, dict[str, tuple]] = {}
    for key in keys:
        token = _token(key, text)
        dim = len(_directions(key))
        layer = by_dim.setdefault(dim, {})
        if token in layer:
            continue
        bdry = [(_token(f, text), s) for f, s in _faces(key)]
        vol = Fraction(math.prod(hi - lo for lo, hi in key if lo < hi), den ** dim) if dim else 1
        layer[token] = (token, vol, bdry)
    data = {d: sorted(layer.values()) for d, layer in by_dim.items()}
    return Complex(data)


def compile_chain(chain: BoxChain) -> tuple[Complex, IntChain]:
    """The chain's cells plus all iterated faces, as an abstract complex."""
    from .core import IntChain

    seen: set[Key] = set()
    frontier = list(chain._items)
    while frontier:
        key = frontier.pop()
        if key in seen:
            continue
        seen.add(key)
        frontier.extend(f for f, _ in _faces(key))
    text = {v: str(Fraction(v, chain.den)) for v in _values(chain._items)}.__getitem__
    cx = _build_complex(seen, chain.den, text)
    coeffs = {_token(key, text): g for key, g in sorted(chain._items.items())}
    return cx, IntChain(cx, chain.dim, coeffs)


def arrangement_complex(chain: BoxChain, subdivide: int = 1) -> tuple[Complex, IntChain]:
    """The full box complex over the chain's coordinate lattice.

    Unlike compile_chain, this includes every lattice cell of every
    dimension (in particular the top-dimensional ones), so flat-norm
    fillings have somewhere to live.  subdivide = m splits each lattice
    gap into m equal parts first.
    """
    from .core import IntChain

    if not isinstance(subdivide, int) or subdivide < 1:
        raise PreconditionError(f"subdivision factor must be an integer >= 1, got {subdivide!r}")
    if chain.is_zero():
        return compile_chain(chain)
    chain = chain._rescaled(chain.den * subdivide)
    lattices = []
    for j in range(chain.ambient_dim):
        vals = sorted({v for key in chain._items for v in key[j]})
        fine = []
        for lo, hi in itertools.pairwise(vals):
            fine.extend(range(lo, hi, (hi - lo) // subdivide))
        fine.append(vals[-1])
        lattices.append(fine)
    per_axis_cells = [[(v, v) for v in vals] + list(itertools.pairwise(vals)) for vals in lattices]
    text = {v: str(Fraction(v, chain.den)) for fine in lattices for v in fine}.__getitem__
    cx = _build_complex(itertools.product(*per_axis_cells), chain.den, text)
    coeffs: dict[str, int] = {}
    index = [{v: i for i, v in enumerate(c)} for c in lattices]
    for key, g in sorted(chain._items.items()):
        per_axis = [_split_intervals(lo, hi, lattices[j], index[j])
                    for j, (lo, hi) in enumerate(key)]
        for combo in itertools.product(*per_axis):
            token = _token(combo, text)
            coeffs[token] = coeffs.get(token, 0) + g
    out = IntChain(cx, chain.dim, coeffs)
    return cx, out


# -- coordinate-rounding deformation ---------------------------------------

class DeformationResult(Frozen):
    """Outcome of the coordinate-rounding deformation T = P + U + dQ.

    rounded is the chain pushed fully onto the coarse grid, chain_sweep
    is the accumulated (k+1)-dimensional sweep, and boundary_sweep is
    the accumulated sweep of the boundary; the identity
    original = rounded + boundary_sweep + boundary(chain_sweep)
    holds exactly and is checked at construction time.  original_boundary
    is boundary(original), built once (None for a 0-chain).
    """

    _fields = ("original", "rounded", "boundary_sweep", "chain_sweep", "eta", "rho", "modulus")

    def __init__(self, original: BoxChain, rounded: BoxChain, boundary_sweep: BoxChain,
                 chain_sweep: BoxChain, eta: Fraction, rho: tuple[Fraction, ...],
                 original_boundary: Optional[BoxChain], modulus: Optional[int] = None):
        vars(self).update(original=original, rounded=rounded, boundary_sweep=boundary_sweep,
                          chain_sweep=chain_sweep, eta=eta, rho=rho,
                          original_boundary=original_boundary, modulus=modulus)

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
        return self._ratio(self._relaxed_mass(self.boundary_sweep),
                           self.eta * self._boundary_mass())

    @property
    def ratio_chain_sweep(self) -> Fraction:
        return self._ratio(self._relaxed_mass(self.chain_sweep),
                           self.eta * self._relaxed_mass(self.original))


def _round_value(v: int, grid: int, cut: int) -> int:
    # the grid point v rounds to: up when its offset in its grid cell passes cut
    q, offset = divmod(v, grid)
    if offset == cut:
        raise InternalDefectError(f"threshold collision at numerator {v} escaped the precheck")
    return grid * (q if offset < cut else q + 1)


def _on_grid(chain: BoxChain, eta: Fraction, rhos: Sequence[Fraction]) -> tuple[BoxChain, int]:
    # chain over the coarsest lattice where eta and each rho * eta are integers, and eta there
    den = math.lcm(chain.den, eta.denominator, *((r * eta).denominator for r in rhos))
    return chain._rescaled(den), eta.numerator * (den // eta.denominator)


def _push_round(chain: BoxChain, axis: int, grid: int, cut: int) -> BoxChain:
    items = []
    for key, g in chain._items.items():
        lo, hi = key[axis]
        rlo, rhi = _round_value(lo, grid, cut), _round_value(hi, grid, cut)
        if lo < hi and rlo == rhi:
            continue
        items.append((_replaced(key, axis, rlo, rhi), g))
    return BoxChain(chain.ambient_dim, chain.dim, items, chain.den)


def _sweep(chain: BoxChain, axis: int, grid: int, cut: int) -> BoxChain:
    """The chain-homotopy prisms of the rounding map on one axis.

    Only cells degenerate in the axis sweep out anything; a cell already
    extended there traces a region of its own dimension, a zero chain.
    """
    items = []
    for key, g in chain._items.items():
        lo, hi = key[axis]
        if lo < hi:
            continue
        target = _round_value(lo, grid, cut)
        if target == lo:
            continue
        # the swept axis comes after the directions below it in the wedge
        sign = -1 if sum(a < b for a, b in key[:axis]) % 2 else 1
        items.append((_replaced(key, axis, min(lo, target), max(lo, target)),
                      sign * g if target > lo else -sign * g))
    return BoxChain(chain.ambient_dim, chain.dim + 1, items, chain.den)


def _axis_denominators(chain: BoxChain, eta: Fraction) -> list[int]:
    # per axis, the lcm of the denominators of v / eta over its coordinates v
    top = (eta * chain.den).numerator
    return [top // math.gcd(top, *{v for key in chain._items for v in key[j]})
            for j in range(chain.ambient_dim)]


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
    # every candidate (2t + 1) / (2m) of the search has the lattice of t = 0
    current, grid = _on_grid(chain, eta, [Fraction(1, 2 * m) for m in denoms]
                             if optimize_thresholds else thresholds)
    original_bd = chain.boundary() if chain.dim >= 1 else None
    sweep_total = BoxChain(n, chain.dim + 1, {})
    boundary_sweep_total = BoxChain(n, chain.dim, {})
    chosen = []
    for j in range(n):
        if optimize_thresholds:
            # thresholds between the same two fractional parts round alike,
            # so the least midpoint above each part (and t = 0) stand for all
            m = denoms[j]
            starts = {0} | {v % grid * m // grid for key in current._items for v in key[j]}
            r_j = min((Fraction(2 * t + 1, 2 * m) for t in starts),
                      key=lambda r: (_push_round(current, j, grid, int(r * grid)).mass(), r))
        else:
            r_j = thresholds[j]
        chosen.append(r_j)
        cut = int(r_j * grid)
        prism = _sweep(current, j, grid, cut)
        rounded = _push_round(current, j, grid, cut)
        if original_bd is None:
            edge = BoxChain(n, chain.dim, {})
        else:
            bd = original_bd._rescaled(current.den) if j == 0 else current.boundary()
            edge = _sweep(bd, j, grid, cut)
        if not _combine((1, rounded), (-1, current), (-1, prism.boundary()), (-1, edge)).is_zero():
            raise InternalDefectError(f"homotopy identity failed on axis {j}")
        # summed step by step: canonical item maps depend on the order
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
    if not _combine((1, p_chain), (1, res.boundary_sweep), (1, res.chain_sweep.boundary()),
                    (-1, t)).is_zero():
        raise InternalDefectError("deformation identity T = P + U + dQ failed")
    step = res.eta * p_chain.den  # the coarse grid's step in p_chain's numerators
    if any(v * step.denominator % step.numerator for key in p_chain._items for iv in key
           for v in iv):
        raise InternalDefectError("rounded chain left the coarse grid")
    if t.dim >= 1:
        t_bd, p_bd = res.original_boundary, p_chain.boundary()
        rounded_boundary, grid = _on_grid(t_bd, res.eta, res.rho)
        for j, r_j in enumerate(res.rho):
            rounded_boundary = _push_round(rounded_boundary, j, grid, int(r_j * grid))
        if p_bd != rounded_boundary:
            raise InternalDefectError("boundary of the rounded chain is not the rounded boundary")
        if not _combine((1, res.boundary_sweep.boundary()), (-1, t_bd), (1, p_bd)).is_zero():
            raise InternalDefectError("boundary sweep does not account for the boundary defect")
        if t_bd.is_zero() and not res.boundary_sweep.is_zero():
            raise InternalDefectError("cycle input produced a nonzero boundary sweep")
