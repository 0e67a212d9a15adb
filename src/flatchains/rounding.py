"""Coordinate-rounding deformation of box chains.

deform pushes a box chain onto a coarse eta-grid one axis at a time.
Each axis contributes a rounding map and the chain homotopy between it
and the identity, so T = P + U + dQ holds exactly: P the rounded chain,
U the sweep of the boundary and Q the sweep of the chain.  Every step
and the final identity are checked in exact arithmetic.

Only `deform` needs this module, so box calculus never compiles it;
`flatchains.boxes` still resolves its public names.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .base import Frozen, InternalDefectError, PreconditionError, _check_modulus, as_fraction
from .boxes import BoxChain, _combine, _replaced


class DeformationResult(Frozen):
    """Outcome of the coordinate-rounding deformation T = P + U + dQ.

    rounded is the chain pushed fully onto the coarse grid, chain_sweep
    is the accumulated (k+1)-dimensional sweep, and boundary_sweep is
    the accumulated sweep of the boundary; the identity
    original = rounded + boundary_sweep + boundary(chain_sweep)
    holds exactly; `deform` checks it before it returns a result, and a
    result built directly is not checked.  original_boundary is
    boundary(original), built once (None for a 0-chain).
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

    @cached_property
    def _reference_masses(self) -> tuple[Fraction, Fraction]:
        # the relaxed masses of the original chain and of its boundary, each
        # read by two of the ratios
        bd = self.original_boundary
        return (self._relaxed_mass(self.original),
                self._relaxed_mass(bd) if bd is not None else Fraction(0))

    @staticmethod
    def _ratio(num: Fraction, den: Fraction) -> Fraction:
        if den != 0:
            return num / den
        if num == 0:
            return Fraction(0)
        raise InternalDefectError("nonzero sweep over a vanishing reference mass")

    @property
    def ratio_rounded(self) -> Fraction:
        mass, boundary_mass = self._reference_masses
        return self._ratio(self._relaxed_mass(self.rounded), mass + self.eta * boundary_mass)

    @property
    def ratio_boundary_sweep(self) -> Fraction:
        return self._ratio(self._relaxed_mass(self.boundary_sweep),
                           self.eta * self._reference_masses[1])

    @property
    def ratio_chain_sweep(self) -> Fraction:
        return self._ratio(self._relaxed_mass(self.chain_sweep),
                           self.eta * self._reference_masses[0])


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
