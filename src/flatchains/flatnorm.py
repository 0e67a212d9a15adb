"""Exact flat-norm optimization on finite complexes.

The flat norm of a k-chain T minimizes mass(T - dS) + mass(S) over
(k+1)-chains S; the mod-p variant minimizes the relaxed masses over
mod-p assignments, a finite search space.

The integral flat norm is a network problem whenever the complex is one
in the right place, and is then solved exactly as a min-cost flow
(`_min_cost_flow`, successive shortest paths with potentials):

- dual circulation: every k-cell has at most two cofaces, with
  coefficients +-1 of opposite sign once each (k+1)-cell's orientation
  is possibly flipped (a 2-colouring; the smallest cell id of each
  connected piece keeps its orientation).  This holds for every
  codimension-1 box complex.  The LP dual, max <T, y> subject to
  |y| <= vol on k-cells and |d^T y| <= vol on (k+1)-cells, is then a
  max-profit circulation on the dual graph: the (k+1)-cells plus a
  ground node, one arc per k-cell and a ground arc per (k+1)-cell.  The
  filling is read from the optimal node potentials, relative to ground.
- primal flow: every (k+1)-cell has at most two faces, with
  coefficients +-1 of opposite sign, as for 0-chains on a graph.  The
  filling is then itself a flow, and the remainder a flow to ground.

Every flow answer is certified in exact arithmetic, a float volume at
its binary value: R = T - dS, the dual y is feasible, and <T, y> equals
mass(R) + mass(S).  Only that check makes an integral result exact; a
failed check is an InternalDefectError.  Among tied optima the
dual-circulation witness is the least one: at every (k+1)-cell, S is the
smallest coefficient that any optimal filling has there (in the possibly
flipped orientation).  The primal-flow witness is the flow the solver
reaches, with nodes, arcs and shortest-path ties taken in cell-id order.
Both depend only on the complex and T.

A fill mod p is the mod-p flat norm in which every k-cell weighs more
than any filling: an optimum below that weight leaves no remainder, and
without one the fill is infeasible.  So the mod-p solvers take a strict
upper bound on the cost, the limit, and drop whatever reaches it; for a
flat norm it is mass_p(T) + 1, the cost of S = 0 plus one.

The mod-p flat norm runs a frontier dynamic program (`_frontier`) when
the frontier is narrow.  The (k+1)-cells are placed in a greedy sweep
order: the next cell has the most open faces, then the fewest faces it
would newly open, then the smallest id.  A state is the residues mod p
of the open k-cells, those touched by a placed cell with a coface still
to come; a k-cell's cost is charged when its last coface is placed.  A
state at the limit is dropped, and only two layers of states are kept.
Each state carries the least pair (cost, key), where key lists the
positions of the assigned values in (0, 1, -1, 2, -2, ...) over the
cells in id order as the digits of one integer.  That pair is the
search's own tie-break, so both routes return the same witness, which
is decoded from the final key without backtracking.  The width w, the
most k-cells a state carries, is known from the order before solving,
and the program runs only when p ** w <= `_FRONTIER_STATES`; at that cap
its two layers stay under ~100 MB.

Everything else runs a depth-first branch-and-bound over coefficient
assignments (`_exact_search`), each for a reason:
- wide frontiers, whose states would not fit the cap.  On 25 sparse 0-
  and 1-chains of 3-D box grids at p = 5 with widths 13 to 27, the
  search took 21 s in all and a program without the cap 69 s; at widths
  9 and 10 the program was faster (1.0 s against 4.5 s on 13 instances);
- integral flat norms on non-network complexes, or under an explicit
  bound below the flow's filling.  A program over coefficients in
  [-B, B] took 2.4 s on 120 random 3-D 1-chains, the search 1.3 s.
Its variables are the (k+1)-cells in decreasing-volume order, the
lower bound at a partial assignment counts the cells of the remainder
whose cofaces are all assigned plus the mass of the assigned filling,
and the incumbent, which starts just below the limit, is replaced only
by a strictly better value or an equal value with a lexicographically
smaller witness: least cost, then the least tuple of (|v|, v < 0) over
the cells in id order.  Results are therefore deterministic.  The
general mod-2 problem is NP-hard (Chen & Freedman, 2011), so no method
is fast on every input; the program is the bounded-width route of
Blaser & Vagset (2020).

Every solver reads one table (`_Problem`), built once per public call:
the cells in id order, the faces of each (k+1)-cell as rows of the
k-cells, and the volumes as integers over the LCM of their denominators.
A float volume counts at its exact binary value, and a non-finite one is
refused.  Scaling by a positive constant keeps every comparison, so the
witness is the one exact rational arithmetic on those values would pick;
costs are divided back at the end, while a reported value is the mass of
the witness, computed from the complex's own volumes.  The search, the
program and the flow keep their state on explicit stacks, heaps and
tables, so their depth is not bounded by the interpreter's recursion
limit.

All infima are relative to the chain's own complex: competitors range
over the cells the complex actually has, not over an ambient space.
Every inequality asserted in the tests is valid verbatim in this
relative setting; absolute values can differ from a richer ambient.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Optional

from .core import (
    FillInfeasibleError,
    Frozen,
    IntChain,
    InternalDefectError,
    ModPChain,
    PreconditionError,
    _check_modulus,
    as_fraction,
)


class FlatWitness(Frozen):
    """An optimal decomposition T = remainder + boundary(filling).

    value is mass(remainder) + mass(filling) in the relevant (plain or
    mod-p) mass, and exact is True when optimality is proved.  bound is
    the coefficient box |S| <= bound an integral search ran in; it is
    None for mod-p results and for integral results the flow proved.
    """

    _fields = ("value", "remainder", "filling", "exact", "modulus", "bound")

    def __init__(self, value, remainder: IntChain, filling: IntChain, exact: bool,
                 modulus: Optional[int] = None, bound: Optional[int] = None):
        vars(self).update(value=value, remainder=remainder, filling=filling, exact=exact,
                          modulus=modulus, bound=bound)


class _Problem:
    """One solve's input as tables, indexed by row.

    sigmas are the (k+1)-cells in id order; taus are the k-cells of T and
    of every boundary, sorted, and target holds T on them.  faces[i]
    lists (row in taus, coefficient) for sigmas[i].  vol_s and vol_t are
    the volumes of sigmas and taus times scale, the LCM of their
    denominators.
    """

    __slots__ = ("sigmas", "taus", "faces", "target", "vol_s", "vol_t", "scale")

    def __init__(self, T: IntChain):
        cx, k = T.complex, T.dim
        self.sigmas = cx.cells(k + 1)
        bounds = [cx.boundary_of(sid) for sid in self.sigmas]
        self.taus = sorted(set(T.coeffs).union(*bounds))
        row = {tid: t for t, tid in enumerate(self.taus)}
        self.faces = [[(row[tid], c) for tid, c in b.items()] for b in bounds]
        self.target = [T.coeffs.get(tid, 0) for tid in self.taus]
        vols = [cx.volume(cid) for cid in self.sigmas] + [cx.volume(cid) for cid in self.taus]
        try:
            ratios = [v.as_integer_ratio() for v in vols]
        except (OverflowError, ValueError):
            raise PreconditionError("cell volumes must be finite") from None
        self.scale = lcm(*(d for _, d in ratios))
        scaled = [n * (self.scale // d) for n, d in ratios]
        self.vol_s, self.vol_t = scaled[:len(self.sigmas)], scaled[len(self.sigmas):]

    def answer(self, cost: int, assign) -> tuple:
        """(cost / scale, {cell id: value}) from a scaled cost and the
        values of the (k+1)-cells in id order."""
        return Fraction(cost, self.scale), {sid: v for sid, v in zip(self.sigmas, assign) if v}

    def zero_cost(self, p: Optional[int] = None) -> int:
        """The scaled cost of S = 0: mass(T), or mass_p(T) for a modulus p."""
        return sum((abs(g) if p is None else min(g % p, -g % p)) * v
                   for g, v in zip(self.target, self.vol_t))


def _residue_order(p: int) -> list[int]:
    vals = [0]
    for t in range(1, (p - 1) // 2 + 1):
        vals.extend((t, -t))
    if p % 2 == 0:
        vals.append(p // 2)
    return vals


def _exact_search(prob: _Problem, *, p: Optional[int] = None, bound: Optional[int] = None,
                  limit: Optional[int] = None):
    """Minimize the flat objective over coefficient assignments to the
    (k+1)-cells, below the scaled cost `limit` (by default the cost of
    S = 0 plus one).  Returns (cost, assignment) as `_Problem.answer`
    does, or None when nothing costs less than the limit."""
    level = sorted(range(len(prob.sigmas)), key=lambda i: (-prob.vol_s[i], i))
    m = len(level)
    # [-B, B] in the order (0, 1, -1, ...) is the residues mod 2B + 1
    vals = _residue_order(p if p is not None else 2 * bound + 1)

    last_touch: dict[int, int] = {}
    for i, sigma in enumerate(level):
        for t, _ in prob.faces[sigma]:
            last_touch[t] = i
    cob = [prob.faces[sigma] for sigma in level]
    det_at: list[list[int]] = [[] for _ in range(m)]
    loose = []
    for t in range(len(prob.taus)):
        if t in last_touch:
            det_at[last_touch[t]].append(t)
        else:
            loose.append(t)

    vol_s = [prob.vol_s[sigma] for sigma in level]
    vol_t = prob.vol_t
    acc = list(prob.target)
    if limit is None:
        limit = prob.zero_cost(p) + 1
    base = sum((abs(acc[t]) if p is None else min(acc[t] % p, -acc[t] % p)) * vol_t[t]
               for t in loose)

    # Depth-first over levels 0..m on an explicit stack: nxt[i] indexes
    # the next value of vals to try at level i, and cost_at[i] is the cost
    # of the assignment to the levels before i.  Coming back to level i
    # first undoes the value last tried there.  At a leaf, nxt[i] - 1 is
    # the position in vals, ordered by (|v|, v < 0), of level i's value.
    nxt = [0] * (m + 1)
    cost_at = [base] * (m + 1)
    id_order = sorted(range(m), key=level.__getitem__)
    top = (len(vals) + 1,)  # a key above every key
    best_cost, best_key = limit - 1, top
    i = 0
    while i >= 0:
        if i == m:
            cost = cost_at[m]
            key = tuple(nxt[j] for j in id_order)
            if cost < best_cost or (cost == best_cost and key < best_key):
                best_cost, best_key = cost, key
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
        if stepped > best_cost:
            i -= 1  # candidate magnitudes only grow from here
            continue
        nxt[i] = j + 1
        if v:
            for t, coeff in faces:
                acc[t] -= coeff * v
        feasible = True
        if p is not None:
            for t in det_at[i]:
                r = acc[t] % p
                stepped += min(r, p - r) * vol_t[t]
                if stepped > best_cost:
                    feasible = False
                    break
        else:
            for t in det_at[i]:
                stepped += abs(acc[t]) * vol_t[t]
                if stepped > best_cost:
                    feasible = False
                    break
        if feasible:
            cost_at[i + 1] = stepped
            nxt[i + 1] = 0
            i += 1
    if best_key == top:
        return None
    return prob.answer(best_cost, [vals[r - 1] for r in best_key])


# The frontier program runs when p ** width is at most this, so a layer
# holds at most this many states.  Two layers of 2 ** 17 states (a 17x17
# grid at p = 2, 289 cells) took ~85 MB over the interpreter's own ~30 MB.
_FRONTIER_STATES = 2 ** 17


def _solve_mod_p(prob: _Problem, p: int, limit: int):
    """(cost, assignment) as `_Problem.answer` gives it for the optimum
    below the scaled cost `limit`, or None when nothing costs less: from
    the frontier program when the frontier is narrow, else from the
    search."""
    order, width = _sweep_order(prob.faces, len(prob.taus))
    if p ** width <= _FRONTIER_STATES:
        return _frontier(prob, order, p, limit)
    return _exact_search(prob, p=p, limit=limit)


def _sweep_order(faces: list, n_taus: int) -> tuple[list[int], int]:
    """A greedy sweep order of the (k+1)-cells and its width, the largest
    number of k-cells left open after a step (touched, with a coface
    still to come).

    The next cell has the most open faces, then the fewest faces it
    would leave newly open, then the smallest id."""
    from heapq import heapify, heappop, heappush

    cofaces: list[list[int]] = [[] for _ in range(n_taus)]
    for i, fs in enumerate(faces):
        for t, _ in fs:
            cofaces[t].append(i)
    n_open = [0] * len(faces)
    n_new = [sum(len(cofaces[t]) > 1 for t, _ in fs) for fs in faces]
    heap = [(0, n_new[i], i) for i in range(len(faces))]
    heapify(heap)
    placed = [False] * len(faces)
    left = [len(c) for c in cofaces]
    order, width, size = [], 0, 0
    while heap:
        neg_open, new, i = heappop(heap)
        if placed[i] or -neg_open != n_open[i] or new != n_new[i]:
            continue  # superseded by a later entry
        placed[i] = True
        order.append(i)
        for t, _ in faces[i]:
            if left[t] == len(cofaces[t]):
                size += 1
                for j in cofaces[t]:
                    if not placed[j]:
                        n_open[j] += 1
                        n_new[j] -= 1
                        heappush(heap, (-n_open[j], n_new[j], j))
            left[t] -= 1
            if not left[t]:
                size -= 1
        width = max(width, size)
    return order, width


def _frontier(prob: _Problem, order: list[int], p: int, limit: int):
    """The search's optimum below the scaled cost `limit`, as
    `_Problem.answer` gives it, or None when nothing costs less: dynamic
    programming over the sweep `order`.

    A state is the residues mod p of the open k-cells, in the order of
    `layout`; a k-cell's cost is charged when its last coface is placed.
    Each state keeps the least (cost, key) pair that reaches it, where
    key = sum of rank(v_i) * p**(m-1-i) over the cells i in id order, with
    rank the position of v_i in `_residue_order(p)`.  Both are packed into
    one integer cost * p**m + key, so one comparison orders them, and the
    final key decodes to the witness."""
    faces, target, vol_s, vol_t = prob.faces, prob.target, prob.vol_s, prob.vol_t
    m = len(faces)
    vals = _residue_order(p)
    W = p ** m
    last = {}
    for i in order:
        for t, _ in faces[i]:
            last[t] = i
    base = sum(min(g % p, -g % p) * vol_t[t] for t, g in enumerate(target) if t not in last)
    if base >= limit:
        return None
    limit *= W  # a state or a move at the limit is dropped
    weight = [p ** (m - 1 - i) for i in range(m)]  # of cell i's key digit
    layout: list[int] = []
    states = {(): base * W}
    for i in order:
        here = faces[i]
        at = {t: j for j, (t, _) in enumerate(here)}
        old, old_pos, rest = [], [], []
        for j, t in enumerate(layout):
            if t in at:
                old.append(at[t])
                old_pos.append(j)
            else:
                rest.append(j)
        fresh = [target[t] % p for t, _ in here]
        stay = [j for j, (t, _) in enumerate(here) if last[t] != i]
        shut = [(j, vol_t[t] * W) for j, (t, _) in enumerate(here) if last[t] == i]
        steps = [(v, abs(v) * vol_s[i] * W + rank * weight[i]) for rank, v in enumerate(vals)]

        def moves(residues):
            # (residues of the faces in `stay`, added cost) for each value
            # of cell i, from the residues of its faces in `old`
            start = fresh.copy()
            for j, r in zip(old, residues):
                start[j] = r
            out = []
            for v, add in steps:
                res = [(r - c * v) % p for r, (_, c) in zip(start, here)]
                for j, vw in shut:
                    r = res[j]
                    add += min(r, p - r) * vw
                if add < limit:
                    out.append((tuple(res[j] for j in stay), add))
            return out

        # a step reads and writes only the residues of cell i's faces: its
        # moves are tabulated on those, and the rest of a state is carried
        table: dict = {}
        get_old = _picker(old_pos)
        get_rest = _picker(rest)
        nxt: dict = {}
        for state, val in states.items():
            kept = get_rest(state)
            residues = get_old(state)
            tab = table.get(residues)
            if tab is None:
                tab = table[residues] = moves(residues)
            for tail, add in tab:
                cost = val + add
                if cost < limit:
                    s = kept + tail
                    if cost < nxt.get(s, limit):
                        nxt[s] = cost
        if not nxt:
            return None
        states = nxt
        layout = [layout[j] for j in rest] + [here[j][0] for j in stay]
    (val,) = states.values()
    cost, key = divmod(val, W)
    assign = [0] * m
    for i in range(m - 1, -1, -1):
        key, rank = divmod(key, p)
        assign[i] = vals[rank]
    return prob.answer(cost, assign)


def _picker(positions: list[int]):
    """A function taking those positions of a tuple, as a tuple."""
    if not positions:
        return lambda s: ()
    if len(positions) == 1:
        j = positions[0]
        return lambda s: (s[j],)
    return itemgetter(*positions)


def _check_engine_value(reported, searched) -> None:
    if isinstance(reported, float):
        if abs(reported - searched) > 1e-9 * (1 + abs(reported)):
            raise InternalDefectError("solver cost drifted from the witness mass")
    elif reported != searched:
        raise InternalDefectError("solver cost disagrees with the witness mass")


def _decompose(T: IntChain, s_coeffs: dict, p: Optional[int] = None) -> tuple:
    """(filling, remainder, value) for the filling S = s_coeffs: the
    remainder is T - dS and the value mass(R) + mass(S), or their mass_p."""
    filling = IntChain(T.complex, T.dim + 1, s_coeffs)
    remainder = T - filling.boundary()
    if p is None:
        return filling, remainder, remainder.mass() + filling.mass()
    return filling, remainder, remainder.mass_p(p) + filling.mass_p(p)


def flat_norm_mod_p(T: IntChain, p: int) -> FlatWitness:
    """The flat norm mod p of a chain, relative to its complex.

    Minimizes mass_p(T - dS) + mass_p(S) over all mod-p coefficient
    assignments S to the (k+1)-cells; always exact since the search
    space is finite.  A ModPChain must carry the modulus p.
    """
    _check_modulus(p)
    if isinstance(T, ModPChain) and T.p != p:
        raise PreconditionError(f"chain has modulus {T.p}, requested {p}")
    prob = _Problem(T)
    cost, s_coeffs = _solve_mod_p(prob, p, prob.zero_cost(p) + 1)
    filling, remainder, value = _decompose(T, s_coeffs, p)
    _check_engine_value(value, cost)
    return FlatWitness(value, remainder, filling, exact=True, modulus=p)


def flat_norm_int(T: IntChain, bound: Optional[int] = None) -> FlatWitness:
    """The integral flat norm of a chain, relative to its complex.

    With positive volumes on a network complex (see the module
    docstring) the flat norm is a min-cost flow, proved by a matching
    dual: the result has exact=True and bound=None.  Otherwise one search runs over
    fillings with coefficients in [-B, B], where B is the given bound or
    twice (max coefficient + 1), and reports bound=B.  Its value is
    proved when every cell outside the box would on its own already cost
    more than the value found, or when it equals the flow's certified
    optimum.

    An explicit bound asks for the optimum over |S| <= bound: the flow's
    answer stands when its filling fits in that box, and the search runs
    when it does not.
    """
    if bound is not None and (not isinstance(bound, int) or bound < 1):
        raise PreconditionError(f"coefficient bound must be an integer >= 1, got {bound!r}")
    prob = _Problem(T)
    flow = _flow_flat_norm(T, prob)
    if flow is not None and (bound is None
                             or all(abs(g) <= bound for _, g in flow.filling.items())):
        return flow
    b = bound if bound is not None else 2 * (max((abs(g) for _, g in T.items()), default=0) + 1)
    cost, s_coeffs = _exact_search(prob, bound=b)
    filling, remainder, value = _decompose(T, s_coeffs)
    _check_engine_value(value, cost)
    proved = ((flow is not None and cost == _exact_mass(flow.remainder, flow.filling))
              or all((b + 1) * T.complex.volume(sid) > value for sid in prob.sigmas))
    return FlatWitness(value, remainder, filling, exact=proved, bound=b)


# -- the integral flat norm as a min-cost flow ------------------------------

def _flow_flat_norm(T: IntChain, prob: _Problem) -> Optional[FlatWitness]:
    """The certified min-cost-flow solution, or None when a volume is not
    positive or the complex is no network in dimensions k and k+1."""
    if not all(v > 0 for v in prob.vol_s + prob.vol_t):
        return None
    solved = _dual_circulation(prob) or _primal_flow(prob)
    if solved is None:
        return None
    s_coeffs, y = solved
    filling, remainder, value = _decompose(T, s_coeffs)
    optimum = _dual_value(T, prob.sigmas, y, prob.scale)
    if optimum != _exact_mass(remainder, filling):
        raise InternalDefectError("flow optimum differs from its dual value")
    _check_engine_value(value, optimum)
    return FlatWitness(value, remainder, filling, exact=True)


def _exact_mass(*chains) -> Fraction:
    """The total mass of the chains, a float volume at its binary value."""
    return sum((abs(g) * as_fraction(c.complex.volume(cid)) for c in chains
                for cid, g in c.items()), Fraction(0))


def _dual_value(T: IntChain, sigmas, y: dict, scale: int) -> Fraction:
    """<T, y / scale>, after checking in exact arithmetic that y / scale is
    feasible for the dual: |y| <= vol on the k-cells, |d^T y| <= vol on
    the (k+1)-cells."""
    cx = T.complex
    for tid, v in y.items():
        if abs(v) > as_fraction(cx.volume(tid)) * scale:
            raise InternalDefectError(f"flow dual exceeds the volume of cell {tid!r}")
    for sid in sigmas:
        if abs(sum(b * y.get(tid, 0) for tid, b in cx.boundary_of(sid).items())) \
                > as_fraction(cx.volume(sid)) * scale:
            raise InternalDefectError(f"flow dual exceeds the volume of cell {sid!r}")
    return Fraction(sum(g * y.get(tid, 0) for tid, g in T.coeffs.items()), scale)


def _dual_circulation(prob: _Problem):
    """(S, y) when every k-cell has at most two cofaces with coefficients
    +-1 of opposite sign, after flipping some (k+1)-cells; else None.

    Nodes are the (k+1)-cells and a ground node.  A k-cell is an arc
    from its -1 coface to its +1 coface (ground standing in for a
    missing one), carrying y in [-vol, vol] at profit T per unit; each
    (k+1)-cell has a ground arc of capacity vol.  The potentials of the
    optimal circulation, the greatest ones with ground at 0, give the
    least optimal filling S = -potential.
    """
    ground = len(prob.sigmas)
    cofaces: list[list] = [[] for _ in prob.taus]
    for i, faces in enumerate(prob.faces):
        for t, b in faces:
            if b not in (1, -1) or len(cofaces[t]) == 2:
                return None
            cofaces[t].append((i, b))
    # sign[i] = -1 flips cell i; cells sharing a face must then disagree on it
    sign = [0] * ground
    for start in range(ground):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for t, a in prob.faces[i]:
                for j, b in cofaces[t]:
                    if j == i:
                        continue
                    if not sign[j]:
                        sign[j] = -a * b * sign[i]
                        stack.append(j)
                    elif sign[j] != -a * b * sign[i]:
                        return None
    y: dict[str, int] = {}
    arcs, carried = [], []
    for tid, g, vol, cof in zip(prob.taus, prob.target, prob.vol_t, cofaces):
        if not cof:
            y[tid] = vol if g > 0 else -vol if g < 0 else 0
            continue
        head = tail = ground
        for i, b in cof:
            if sign[i] * b > 0:
                head = i
            else:
                tail = i
        arcs.append((tail, head, -vol, vol, -g))
        carried.append(tid)
    arcs.extend((ground, i, -vol, vol, 0) for i, vol in enumerate(prob.vol_s))
    flow, pot = _min_cost_flow(ground + 1, arcs, [0] * (ground + 1), ground)
    y.update(zip(carried, flow))
    return {sid: -sign[i] * pot[i] for i, sid in enumerate(prob.sigmas) if pot[i]}, y


def _primal_flow(prob: _Problem):
    """(S, y) when every (k+1)-cell has at most two faces with
    coefficients +-1 of opposite sign; else None.

    Nodes are the k-cells and a ground node; T_tau units must arrive at
    each k-cell.  A (k+1)-cell is a pair of opposite arcs from its -1 face
    to its +1 face (ground standing in for a missing one) at cost vol per
    unit, and so is the remainder on each k-cell, to and from ground.
    The dual y is the potential, with ground at 0.
    """
    ground = len(prob.taus)
    # more than any flow carries, so every arc keeps residual capacity
    cap = sum(abs(g) for g in prob.target) + 1
    arcs, carried = [], []
    for sid, faces, vol in zip(prob.sigmas, prob.faces, prob.vol_s):
        if (len(faces) > 2 or any(b not in (1, -1) for _, b in faces)
                or (len(faces) == 2 and faces[0][1] + faces[1][1])):
            return None
        if not faces:
            continue
        head = tail = ground
        for t, b in faces:
            if b > 0:
                head = t
            else:
                tail = t
        arcs.append((tail, head, 0, cap, vol))
        arcs.append((head, tail, 0, cap, vol))
        carried.append(sid)
    for t, vol in enumerate(prob.vol_t):
        arcs.append((ground, t, 0, cap, vol))
        arcs.append((t, ground, 0, cap, vol))
    supply = [-g for g in prob.target] + [sum(prob.target)]
    flow, pot = _min_cost_flow(ground + 1, arcs, supply, ground)
    s = {sid: flow[2 * j] - flow[2 * j + 1] for j, sid in enumerate(carried)}
    return {sid: g for sid, g in s.items() if g}, dict(zip(prob.taus, pot))


def _min_cost_flow(n: int, arcs: list, supply: list, root: int) -> tuple[list, list]:
    """A min-cost flow by successive shortest paths with potentials.

    arcs are (u, v, lo, hi, cost) over nodes 0..n-1 with integer bounds
    and costs, the flow x on each within [lo, hi] at cost * x; supply[v]
    is the net outflow v must have (summing to 0).  Each arc starts at
    its cheaper bound, so every residual arc has nonnegative cost.  Each
    round finds shortest distances from all nodes with excess to the
    nearest node with a deficit (Dijkstra on reduced costs), raises the
    potentials by them, and saturates the zero-reduced-cost paths by
    blocking flows.  Nodes are taken in index order and ties in the heap
    go to the lower index, so the answer is a function of the input.

    Returns the flow on each arc and potentials pot with
    cost + pot[u] - pot[v] >= 0 on every residual arc, the greatest such
    with pot[root] = 0: pot[v] is the residual distance from root to v.
    """
    m2 = 2 * len(arcs)
    head, cap, cost = [0] * m2, [0] * m2, [0] * m2
    adj: list[list[int]] = [[] for _ in range(n)]
    excess = list(supply)
    for i, (u, v, lo, hi, c) in enumerate(arcs):
        x = lo if c > 0 else hi if c < 0 else min(max(0, lo), hi)
        a = 2 * i
        head[a], cap[a], cost[a] = v, hi - x, c
        head[a + 1], cap[a + 1], cost[a + 1] = u, x - lo, -c
        adj[u].append(a)
        adj[v].append(a + 1)
        excess[u] -= x
        excess[v] += x
    pot = [0] * n
    while True:
        sources = [v for v in range(n) if excess[v] > 0]
        if not sources:
            break
        dist, reach = _distances(n, adj, head, cap, cost, pot, sources, excess)
        if reach is None:
            raise InternalDefectError("no feasible flow: a supply reaches no demand")
        for v in range(n):
            d = dist[v]
            pot[v] += reach if d is None or d > reach else d
        while _blocking_flow(n, adj, head, cap, cost, pot, excess):
            pass
    dist, _ = _distances(n, adj, head, cap, cost, pot, [root], None)
    if None in dist:
        raise InternalDefectError("flow potentials are unbounded")
    top = pot[root]
    pot = [pot[v] + dist[v] - top for v in range(n)]
    return [cap[2 * i + 1] + lo for i, (_, _, lo, _, _) in enumerate(arcs)], pot


def _distances(n, adj, head, cap, cost, pot, sources, excess) -> tuple[list, object]:
    """Dijkstra on reduced costs from sources over residual arcs: the
    distances (None where unreached) and the distance of the nearest
    node with a deficit.

    With excess given, it stops at that node (reach is None when no
    deficit is reachable), and unsettled nodes keep tentative distances,
    none below reach.  Without, it runs to the end and reach is None.
    """
    from heapq import heappop, heappush  # only flow solves load it

    dist: list = [None] * n
    done = [False] * n
    heap = []
    for s in sources:
        dist[s] = 0
        heap.append((0, s))
    reach = None
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if excess is not None and excess[u] < 0:
            reach = d
            break
        base = d + pot[u]
        for a in adj[u]:
            if cap[a]:
                v = head[a]
                if not done[v]:
                    nd = base + cost[a] - pot[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        heappush(heap, (nd, v))
    return dist, reach


def _blocking_flow(n, adj, head, cap, cost, pot, excess) -> bool:
    """Push flow from nodes with excess to nodes with a deficit along
    zero-reduced-cost residual arcs, in breadth-first levels, until no
    such path is left in the level graph; False when none existed."""
    level = [-1] * n
    queue = [v for v in range(n) if excess[v] > 0]
    for v in queue:
        level[v] = 0
    found = False
    for u in queue:
        if excess[u] < 0:
            found = True
            continue
        pu = pot[u]
        for a in adj[u]:
            if cap[a]:
                v = head[a]
                if level[v] < 0 and cost[a] + pu == pot[v]:
                    level[v] = level[u] + 1
                    queue.append(v)
    if not found:
        return False
    nxt = [0] * n
    for s in range(n):
        while excess[s] > 0:
            path: list[int] = []
            u = s
            while excess[u] >= 0 or u == s:
                arcs_u = adj[u]
                i = nxt[u]
                while i < len(arcs_u):
                    a = arcs_u[i]
                    v = head[a]
                    if cap[a] and level[v] == level[u] + 1 and cost[a] + pot[u] == pot[v]:
                        break
                    i += 1
                nxt[u] = i
                if i < len(arcs_u):
                    path.append(a)
                    u = v
                    continue
                level[u] = -1  # dead end
                if not path:
                    break
                u = head[path.pop() ^ 1]
                nxt[u] += 1
            if not path:
                break
            amount = min(excess[s], -excess[u], min(cap[a] for a in path))
            for a in path:
                cap[a] -= amount
                cap[a ^ 1] += amount
            excess[s] -= amount
            excess[u] += amount
    return True


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
    # the flat norm mod p where a k-cell outweighs every filling: an
    # optimum below that weight leaves no remainder
    prob = _Problem(L)
    heavy = sum(prob.vol_s) * (p // 2) + 1
    prob.vol_t = [heavy] * len(prob.taus)
    found = _solve_mod_p(prob, p, heavy)
    if found is None:
        raise FillInfeasibleError("infeasible in this complex")
    cost, s_coeffs = found
    filling = IntChain(cx, k + 1, s_coeffs)
    if not (filling.boundary() - L).reduce_mod_p(p).is_zero():
        raise InternalDefectError("filling does not bound the requested chain mod p")
    _check_engine_value(filling.mass_p(p), cost)
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
