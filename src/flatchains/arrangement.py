"""Box chains compiled to abstract complexes.

compile_chain takes a chain's cells and all their iterated faces;
arrangement_complex takes every cell of the lattice spanned by the
chain's coordinates, so fillings of any dimension have somewhere to
live.  Cells are named by their id tokens.

Only calls that build a complex need this module, so box calculus never
compiles it; `flatchains.boxes` still resolves its public names.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable

from .base import PreconditionError
from .boxes import BoxChain, Key, _directions, _faces, _split_intervals, _token, _values, _volume
from .core import Complex, IntChain


def _build_complex(keys: Iterable[Key], den: int, text: Callable[[int], str]) -> Complex:
    # the keys are distinct, and so are their tokens
    by_dim: dict[int, list[tuple]] = {}
    for key in keys:
        token = _token(key, text)
        dim = len(_directions(key))
        bdry = [(_token(f, text), s) for f, s in _faces(key)]
        vol = Fraction(_volume(key), den ** dim) if dim else 1
        by_dim.setdefault(dim, []).append((token, vol, bdry))
    data = {d: sorted(cells) for d, cells in by_dim.items()}
    return Complex(data)


def compile_chain(chain: BoxChain) -> tuple[Complex, IntChain]:
    """The chain's cells plus all iterated faces, as an abstract complex."""
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
