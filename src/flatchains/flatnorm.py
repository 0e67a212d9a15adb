"""Exact flat-norm optimization on finite complexes.

The flat norm of a k-chain T minimizes mass(T - dS) + mass(S) over
(k+1)-chains S; the mod-p variant minimizes the relaxed masses over
mod-p assignments, a finite search space.  Both are solved by the same
depth-first branch-and-bound: variables are the (k+1)-cells in
decreasing-volume order, the lower bound at a partial assignment counts
the cells of the remainder whose cofaces are all assigned plus the mass
of the assigned filling, and the incumbent is replaced only by a
strictly better value or an equal value with a lexicographically
smaller witness.  Results are therefore deterministic.

When every volume the search touches is an int or a Fraction, the
volumes are multiplied by the LCM of their denominators and the search
runs on plain integers; the cost is divided back at the end.  Scaling
by a positive constant keeps every comparison, so the witness is the
one exact rational arithmetic would pick.  Float volumes keep float
arithmetic, summed in the same order.  The depth-first walk keeps its
state on an explicit stack, one level per (k+1)-cell, so the depth of a
search is not bounded by the interpreter's recursion limit.

All infima are relative to the chain's own complex: competitors range
over the cells the complex actually has, not over an ambient space.
Every inequality asserted in the tests is valid verbatim in this
relative setting; absolute values can differ from a richer ambient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .core import (
    Complex,
    FillInfeasibleError,
    IntChain,
    InternalDefectError,
    ModPChain,
    PreconditionError,
    _check_modulus,
)


@dataclass(frozen=True)
class FlatWitness:
    """An optimal decomposition T = remainder + boundary(filling).

    value is mass(remainder) + mass(filling) in the relevant (plain or
    mod-p) mass; exact is True when optimality is proved, and
    bound_saturated flags an integral solve whose optimum touched the
    coefficient box.
    """

    value: object
    remainder: IntChain
    filling: IntChain
    exact: bool
    bound_saturated: bool
    modulus: Optional[int] = None
    bound: Optional[int] = None


def _residue_order(p: int) -> list[int]:
    vals = [0]
    for t in range(1, (p - 1) // 2 + 1):
        vals.extend((t, -t))
    if p % 2 == 0:
        vals.append(p // 2)
    return vals


def _int_order(bound: int) -> list[int]:
    vals = [0]
    for t in range(1, bound + 1):
        vals.extend((t, -t))
    return vals


def _rank(v: int) -> tuple[int, int]:
    return (abs(v), 0 if v >= 0 else 1)


def _common_denominator(vols) -> Optional[int]:
    """LCM of the denominators when every volume is an int or a Fraction;
    None when some volume is inexact."""
    if not all(isinstance(v, (int, Fraction)) for v in vols):
        return None
    return lcm(*(v.denominator for v in vols))


def _exact_search(cx: Complex, k: int, target: dict[str, int], *,
                  p: Optional[int] = None, bound: Optional[int] = None,
                  fill: bool = False):
    """Minimize the flat objective (or the filling mass under congruence
    constraints when fill=True) over coefficient assignments to the
    (k+1)-cells.  Returns (cost, assignment) or None when infeasible."""
    sigmas = sorted(cx.cells(k + 1), key=lambda cid: (-cx.volume(cid), cid))
    m = len(sigmas)
    vals = _residue_order(p) if p is not None else _int_order(bound)

    taus = set(target)
    last_touch: dict[str, int] = {}
    for i, sid in enumerate(sigmas):
        for tid in cx.boundary_of(sid):
            taus.add(tid)
            last_touch[tid] = i
    taus = sorted(taus)
    row = {tid: t for t, tid in enumerate(taus)}
    cob = [[(row[tid], coeff) for tid, coeff in cx.boundary_of(sid).items()]
           for sid in sigmas]
    det_at: list[list[int]] = [[] for _ in range(m)]
    loose = []
    for t, tid in enumerate(taus):
        if tid in last_touch:
            det_at[last_touch[tid]].append(t)
        else:
            loose.append(t)

    vol_s = [cx.volume(sid) for sid in sigmas]
    vol_t = [cx.volume(tid) for tid in taus]
    scale = _common_denominator(vol_s + vol_t)
    if scale is not None:
        vol_s = [v.numerator * (scale // v.denominator) for v in vol_s]
        vol_t = [v.numerator * (scale // v.denominator) for v in vol_t]
    acc = [target.get(tid, 0) for tid in taus]

    base = 0
    for t in loose:
        g = acc[t]
        if fill:
            if g % p:
                return None
        elif p is not None:
            r = g % p
            base += min(r, p - r) * vol_t[t]
        else:
            base += abs(g) * vol_t[t]

    # Depth-first over levels 0..m on an explicit stack: nxt[i] indexes
    # the next value of vals to try at level i, and cost_at[i] is the cost
    # of the assignment to the levels before i.  Coming back to level i
    # first undoes the value last tried there.
    assign = [0] * m
    nxt = [0] * (m + 1)
    cost_at = [base] * (m + 1)
    id_order = sorted(range(m), key=lambda i: sigmas[i])
    best_cost = None
    best_key = None
    best_assign = None
    i = 0
    while i >= 0:
        if i == m:
            cost = cost_at[m]
            key = tuple(_rank(assign[j]) for j in id_order)
            if best_cost is None or cost < best_cost or (cost == best_cost
                                                         and key < best_key):
                best_cost, best_key, best_assign = cost, key, assign.copy()
            i -= 1
            continue
        j = nxt[i]
        faces = cob[i]
        if j:
            v = vals[j - 1]
            if v:
                for t, coeff in faces:
                    acc[t] += coeff * v
            if j == len(vals):
                i -= 1
                continue
        v = vals[j]
        stepped = cost_at[i] + abs(v) * vol_s[i] if v else cost_at[i]
        if best_cost is not None and stepped > best_cost:
            i -= 1  # candidate magnitudes only grow from here
            continue
        nxt[i] = j + 1
        assign[i] = v
        if v:
            for t, coeff in faces:
                acc[t] -= coeff * v
        feasible = True
        if fill:
            for t in det_at[i]:
                if acc[t] % p:
                    feasible = False
                    break
        elif p is not None:
            for t in det_at[i]:
                r = acc[t] % p
                stepped += min(r, p - r) * vol_t[t]
                if best_cost is not None and stepped > best_cost:
                    feasible = False
                    break
        else:
            for t in det_at[i]:
                stepped += abs(acc[t]) * vol_t[t]
                if best_cost is not None and stepped > best_cost:
                    feasible = False
                    break
        if feasible:
            cost_at[i + 1] = stepped
            nxt[i + 1] = 0
            i += 1
    if best_cost is None:
        return None
    if scale is not None:
        best_cost = Fraction(best_cost, scale)
    return best_cost, {sigmas[i]: best_assign[i] for i in range(m) if best_assign[i]}


def _is_float_mass(*values) -> bool:
    return any(isinstance(v, float) for v in values)


def _check_engine_value(reported, searched) -> None:
    if _is_float_mass(reported, searched):
        if abs(reported - searched) > 1e-9 * (1 + abs(reported)):
            raise InternalDefectError("solver cost drifted from the witness mass")
    elif reported != searched:
        raise InternalDefectError("solver cost disagrees with the witness mass")


def flat_norm_mod_p(T: Union[IntChain, ModPChain], p: int) -> FlatWitness:
    """The flat norm mod p of a chain, relative to its complex.

    Minimizes mass_p(T - dS) + mass_p(S) over all mod-p coefficient
    assignments S to the (k+1)-cells; always exact since the search
    space is finite.
    """
    if isinstance(T, ModPChain):
        if T.p != p:
            raise PreconditionError(f"chain has modulus {T.p}, requested {p}")
        base = T.lift()
    else:
        base = T
        _check_modulus(p)
    cx, k = base.complex, base.dim
    cost, s_coeffs = _exact_search(cx, k, dict(base.coeffs), p=p)
    filling = IntChain(cx, k + 1, s_coeffs)
    remainder = base - filling.boundary()
    value = remainder.mass_p(p) + filling.mass_p(p)
    _check_engine_value(value, cost)
    return FlatWitness(value, remainder, filling, exact=True,
                       bound_saturated=False, modulus=p)


def flat_norm_int(T: IntChain, bound: Optional[int] = None) -> FlatWitness:
    """The integral flat norm of a chain, relative to its complex.

    The filling search runs over integer coefficients in [-B, B].  With
    an explicit bound the solve is a single pass; otherwise B starts at
    twice (max coefficient + 1) and escalates by one, at most eight
    times, while the optimum sits on the box and optimality is still
    unproved.  Optimality is proved whenever every cell outside the box
    would on its own already cost more than the value found.
    """
    cx, k = T.complex, T.dim
    user_bound = bound is not None
    if user_bound:
        if not isinstance(bound, int) or bound < 1:
            raise PreconditionError(f"coefficient bound must be an integer >= 1, got {bound!r}")
        b = bound
    else:
        top = max((abs(g) for _, g in T.items()), default=0)
        b = 2 * (top + 1)
    sigmas = cx.cells(k + 1)
    escalations = 0
    while True:
        cost, s_coeffs = _exact_search(cx, k, dict(T.coeffs), bound=b)
        filling = IntChain(cx, k + 1, s_coeffs)
        remainder = T - filling.boundary()
        value = remainder.mass() + filling.mass()
        _check_engine_value(value, cost)
        saturated = any(abs(g) == b for g in s_coeffs.values())
        proved = all((b + 1) * cx.volume(sid) > value for sid in sigmas)
        if user_bound or proved or not saturated or escalations >= 8:
            break
        b += 1
        escalations += 1
    return FlatWitness(value, remainder, filling, exact=proved,
                       bound_saturated=saturated, bound=b)


def _component_sums_vanish(L: IntChain, p: int) -> bool:
    """False when the 0-chain L provably bounds nothing mod p.

    If every edge's boundary sums to zero mod p, so does the boundary of
    any 1-chain on each connected component of the 1-skeleton; L then
    needs a zero sum mod p on every component.  Edges of the usual form
    v - u make that condition exact.  An edge whose boundary does not sum
    to zero mod p voids the test, and the answer is True.
    """
    cx = L.complex
    parent = {v: v for v in cx.cells(0)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for eid in cx.cells(1):
        faces = cx.boundary_of(eid)
        if sum(faces.values()) % p:
            return True
        roots = [find(v) for v in faces]
        for root in roots[1:]:
            parent[root] = roots[0]
    sums: dict[str, int] = {}
    for v, g in L.items():
        root = find(v)
        sums[root] = sums.get(root, 0) + g
    return all(s % p == 0 for s in sums.values())


def fill_mod_p(L: IntChain, p: int) -> IntChain:
    """A minimal-mass_p chain S with dS congruent to L mod p.

    L must be a cycle mod p; raises FillInfeasibleError when no chain of
    the complex has boundary L mod p.
    """
    _check_modulus(p)
    cx, k = L.complex, L.dim
    if k >= 1:
        rim = L.boundary().reduce_mod_p(p)
        if not rim.is_zero():
            cid = rim.items()[0][0]
            raise PreconditionError(f"not a cycle mod p: boundary residue at cell {cid!r}")
    elif not _component_sums_vanish(L, p):
        raise FillInfeasibleError("infeasible in this complex")
    found = _exact_search(cx, k, dict(L.coeffs), p=p, fill=True)
    if found is None:
        raise FillInfeasibleError("infeasible in this complex")
    _, s_coeffs = found
    filling = IntChain(cx, k + 1, s_coeffs)
    if not (filling.boundary() - L).reduce_mod_p(p).is_zero():
        raise InternalDefectError("filling does not bound the requested chain mod p")
    return filling


def isoperimetric_ratio(L: IntChain, p: int):
    """Filling mass over boundary mass to the power (k+1)/k.

    Exact (a Fraction) when the exponent is an integer and the volumes
    are exact, float otherwise.
    """
    return isoperimetric_filling(L, p)[0]


def isoperimetric_filling(L: IntChain, p: int) -> tuple:
    """The isoperimetric ratio of L together with the minimal filling
    (as from fill_mod_p) whose mass_p is its numerator."""
    k = L.dim
    if k < 1:
        raise PreconditionError("isoperimetric ratio needs a chain of dimension >= 1")
    denom_mass = L.mass_p(p)
    if denom_mass == 0:
        raise PreconditionError("zero cycle")
    filling = fill_mod_p(L, p)
    num = filling.mass_p(p)
    if (k + 1) % k == 0:
        return num / denom_mass ** ((k + 1) // k), filling
    return float(num) / float(denom_mass) ** ((k + 1) / k), filling


def flat_norm_under_refinement(chain, p: int, subdivide: int) -> tuple:
    """Flat norm mod p of a box chain before and after grid refinement.

    Returns (coarse value, refined value); refinement can only enlarge
    the competitor space, so the refined value never exceeds the coarse
    one.
    """
    from .boxes import BoxChain, arrangement_complex

    if not isinstance(chain, BoxChain):
        raise PreconditionError("refinement comparison needs a box-backed chain")
    if not isinstance(subdivide, int) or subdivide < 2:
        raise PreconditionError(f"subdivision factor must be an integer >= 2, got {subdivide!r}")
    _, coarse_chain = arrangement_complex(chain, 1)
    _, fine_chain = arrangement_complex(chain, subdivide)
    coarse = flat_norm_mod_p(coarse_chain, p).value
    refined = flat_norm_mod_p(fine_chain, p).value
    if refined > coarse:
        raise InternalDefectError("refinement increased the flat norm")
    return coarse, refined
