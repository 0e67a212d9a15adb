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
Canonicalizing tests each axis's distinct spans against that axis's
cuts once: a chain already canonical is kept as it is, and otherwise
only the cells that hold a span crossing a cut are split.  Chains of
different denominators, or a level or coarse grid off the lattice, are
first rescaled once to the least common multiple, so every result stays
exact.

Fractions appear only at the public surface: BoxCell and its intervals,
axis_values (and so the check of a level given to restrict or slice),
volumes and masses.  A box file's reader parses each distinct number
text into a Fraction once, tests an interval's ends by cross-multiplying
numerator and denominator, and checks each cell's axis count and
dimension on its integer key; only the first cell's ends, which give
the dimension of a file with no `dim` line, are compared as Fractions.
Reports, written files and compiled complexes spell coordinates from
the keys through one map from numerator to text (BoxChain._text), so
none of them builds a BoxCell.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import total_ordering
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

# the deformation, the complex builders, grid chains and slice masses have
# modules of their own; the package's resolver keeps every public name
# readable here, for `from .boxes import ...` and for code that patches them
from . import __getattr__  # noqa: F401
from .base import (
    Frozen,
    PreconditionError,
    _check_modulus,
    as_fraction,
    canonical_residue,
    norm_mod_p,
)

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
    # lo > hi on Fractions, cross-multiplied: denominators are positive
    for lo, hi in intervals:
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
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

    _fields = ("intervals",)

    def __init__(self, intervals: tuple[Interval, ...]):
        fixed = _ordered(tuple((as_fraction(lo), as_fraction(hi)) for lo, hi in intervals))
        vars(self).update(intervals=fixed, directions=_directions(fixed))

    @classmethod
    def _from_key(cls, key: Key, coords: Mapping[int, Fraction]) -> "BoxCell":
        cell = object.__new__(cls)
        vars(cell).update(intervals=tuple((coords[lo], coords[hi]) for lo, hi in key),
                          directions=_directions(key))
        return cell

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
           items: Sequence[tuple[tuple[Interval, ...], int]]) -> tuple[list[tuple[Key, int]], int]:
    """(key, coefficient) pairs of the nonzero items and their den, the
    lcm of those items' endpoint denominators, from (intervals,
    coefficient) pairs of Fraction endpoints; checks the chain and every
    cell, in item order, the cell's shape on its key."""
    _check_dim(ambient_dim, dim)
    den = math.lcm(*{v.denominator for intervals, g in items if isinstance(g, int) and g
                     for iv in intervals for v in iv})
    kept = []
    for intervals, g in items:
        if not isinstance(g, int):
            raise PreconditionError(f"integer coefficient expected, got {g!r}")
        if not g:
            continue
        key = _numerators(intervals, den)
        if len(key) != ambient_dim:
            raise PreconditionError(
                f"cell {_show(intervals)} lives in R^{len(key)}, chain in R^{ambient_dim}")
        if (k := len(_directions(key))) != dim:
            raise PreconditionError(
                f"cell {_show(intervals)} has dimension {k}, chain has dimension {dim}")
        kept.append((key, g))
    return kept, den


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
        # by this module, its file reader included, from _keyed.
        if isinstance(items, Mapping):
            items = items.items()
        if den is None:
            items, den = _keyed(ambient_dim, dim, [(cell.intervals, g) for cell, g in items])
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
        # per axis, the distinct (lo, hi) spans with a cut strictly inside:
        # only a cell holding such a span splits, and with none the merged
        # map is already canonical
        spans = [{key[j] for key in merged} for j in range(self.ambient_dim)]
        cuts = [sorted({v for span in axis for v in span}) for axis in spans]
        index = [{v: i for i, v in enumerate(c)} for c in cuts]
        crossing = [{s for s in axis if at[s[1]] - at[s[0]] > 1} for axis, at in zip(spans, index)]
        if not any(crossing):
            return merged
        out: dict[Key, int] = {}
        for key, g in merged.items():
            pieces = [key]
            if any(span in axis for span, axis in zip(key, crossing)):
                pieces = itertools.product(*map(_split_intervals, *zip(*key), cuts, index))
            for piece in pieces:
                out[piece] = out.get(piece, 0) + g
        return {key: g for key, g in out.items() if g}

    def items(self) -> list[tuple[BoxCell, int]]:
        # numerators over one positive den sort as the Fractions they stand for
        coords = {v: Fraction(v, self.den) for v in _values(self._items)}
        return [(BoxCell._from_key(key, coords), g) for key, g in sorted(self._items.items())]

    def _text(self) -> Callable[[int], str]:
        """The text of the coordinate each numerator stands for, in the
        number format of box files and id tokens (fileio.format_number)."""
        return {v: str(Fraction(v, self.den)) for v in _values(self._items)}.__getitem__

    def _tokens(self, text: Callable[[int], str]) -> list[list]:
        """[id token, coefficient] of each item, in the order of items(),
        through text, the chain's _text()."""
        return [[_token(key, text), g] for key, g in sorted(self._items.items())]

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


def _volume(key: Key) -> int:
    """The cell's volume in units of 1 / den ** dim."""
    return math.prod(hi - lo for lo, hi in key if lo < hi)


def _measure(chain: BoxChain, weight: Callable[[int], int], axes: Sequence[int] = ()) -> Fraction:
    """The sum of weight(g) * volume over the cells extended in every axis of axes."""
    total = 0
    for key, g in chain._items.items():
        if all(key[a][0] < key[a][1] for a in axes):
            total += weight(g) * _volume(key)
    return Fraction(total, chain.den ** chain.dim)


def _suggest_level(vals: Sequence[Fraction], r: Fraction) -> Fraction:
    below = [v for v in vals if v < r]
    above = [v for v in vals if v > r]
    if below:
        return (max(below) + r) / 2
    if above:
        return (r + min(above)) / 2
    return r - Fraction(1, 2)


def _faces(key: Key) -> list[tuple[Key, int]]:
    items = []
    sign = 1
    for axis, (lo, hi) in enumerate(key):
        if lo < hi:
            items.append((_replaced(key, axis, hi, hi), sign))
            items.append((_replaced(key, axis, lo, lo), -sign))
            sign = -sign
    return items


def _read_chainfile(body) -> BoxChain:
    """The chain of a box file's body lines (see fileio.CARRIERS)."""
    from .fileio import ParseError, _integer, _number, _parse_shape, _resolve_shape

    shape = {"ambient": None, "dim": None}
    items = []
    numbers: dict[str, Fraction] = {}  # cells share coordinates: parse each text once
    for no, line in body:
        tokens = line.split()
        if tokens[0] in shape:
            _parse_shape(tokens, no, shape)
        elif tokens[0] == "cell":
            if len(tokens) < 4 or len(tokens) % 2 != 0:
                raise ParseError(no, "expected `cell lo1 hi1 ... coeff`")
            coeff = _integer(tokens[-1], no)
            bounds = [numbers[t] if t in numbers else numbers.setdefault(t, _number(t, no))
                      for t in tokens[1:-1]]
            try:
                intervals = _ordered(tuple(zip(bounds[::2], bounds[1::2])))
            except PreconditionError as err:
                raise ParseError(no, str(err)) from None
            if shape["ambient"] is not None and len(intervals) != shape["ambient"]:
                raise ParseError(no, f"cell has {len(intervals)} axes, ambient is {shape['ambient']}")
            items.append((intervals, coeff))
        else:
            raise ParseError(no, f"unexpected {tokens[0]!r} in a box file")
    first = items and (len(items[0][0]), sum(lo != hi for lo, hi in items[0][0]))
    ambient, dim = _resolve_shape(shape, first, body, "box")
    return BoxChain(ambient, dim, *_keyed(ambient, dim, items))


def _write_chainfile(chain: BoxChain) -> list[str]:
    text = chain._text()
    return [f"ambient {chain.ambient_dim}", f"dim {chain.dim}"] + [
        f"cell {' '.join(f'{text(lo)} {text(hi)}' for lo, hi in key)} {g}"
        for key, g in sorted(chain._items.items())]
