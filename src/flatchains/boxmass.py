"""Slice masses of box chains.  Of the CLI's calls only `slicemass` and
`slicestar` load it; `flatchains.boxes` resolves its names."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .base import PreconditionError, _check_modulus, norm_mod_p
from .boxes import BoxChain, _directions, _measure, _volume


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
    A cell counts only toward its own direction set, so one pass sums
    mass_p per direction set present and takes the largest (0 if none).
    """
    _check_modulus(p)
    per_dirs: dict[tuple[int, ...], int] = {}
    for key, g in chain._items.items():
        dirs = _directions(key)
        per_dirs[dirs] = per_dirs.get(dirs, 0) + norm_mod_p(g, p) * _volume(key)
    return Fraction(max(per_dirs.values(), default=0), chain.den ** chain.dim)
