"""Grid chains of box regions; no CLI call loads it, `flatchains.boxes` resolves it."""

from __future__ import annotations

import itertools
from typing import Callable, Sequence, Union

from .base import PreconditionError, as_fraction
from .boxes import BoxCell, BoxChain


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
