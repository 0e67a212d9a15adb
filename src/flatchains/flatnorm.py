"""Exact flat-norm optimization on finite complexes.

The flat norm of a k-chain T minimizes mass(T - dS) + mass(S) over
(k+1)-chains S; the mod-p variant minimizes the relaxed masses over
mod-p assignments, a finite search space.

The integral flat norm is a network problem whenever the complex is one
in the right place, and is then solved exactly as a min-cost flow
(`flow.py`, successive shortest paths with potentials):

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

The mod-p solvers take a strict upper bound on the cost, the limit, and
drop whatever reaches it: the cost of a known answer plus one.  That
answer is S = 0 for a flat norm (so the limit is mass_p(T) + 1), the
elimination's S0 for a fill and the coarse optimum for a refinement.  So
every mod-p solve returns its optimum or raises: finding nothing below
the limit is an InternalDefectError.  A fill first solves dS = T over
Z/p, one equation per k-cell, by Howell-form elimination (Howell, "Spans
in the module (Z_m)^s", 1986): column by column, Euclid's unimodular row
steps fold the rows that start there into one pivot, from the zero row
with entry p, so the pivot's entry is a divisor g of p and the row folded
out last is the annihilator (p / g) * pivot, left for later columns; a
composite p needs no factoring.  A row left with only T's residue proves
the fill infeasible.  Otherwise back-substitution gives a filling S0,
checked.  When every column got a pivot of entry 1, S0 is the only
filling mod p and so the answer, found without a solver (dc = 2v fills v
with (p + 1) / 2 on c this way, at any odd p).  Else the fill is the flat
norm mod p below mass_p(S0) + 1 where every k-cell weighs that limit, so
an optimum leaves no remainder.  No value is tried past one that alone
costs the limit on the lightest (k+1)-cell, so the work grows with p only
for a fill with more than one filling whose S0 needs residues near p/2.

The mod-p flat norm runs a frontier dynamic program (`_frontier`) when
the frontier is narrow.  The (k+1)-cells are placed in a greedy sweep
order: the next cell has the most open faces, then the fewest faces it
would newly open, then the smallest id.  A state is the residues mod p
of the open k-cells, those touched by a placed cell with a coface still
to come; a k-cell's cost is charged when its last coface is placed.  A
state at the limit is dropped, and only two layers of states are kept.
Each state carries the least pair (cost, key), where key lists the
positions of the assigned values in (0, 1, -1, 2, -2, ...) over the
cells in id order as the digits of one integer in base n, the length of
that list.  The pair is the search's own tie-break, so both routes give
one witness, decoded from the final key without backtracking.  The
width w, the most k-cells a state carries, is known from the order
before solving, and the program runs only when p ** w <=
`_FRONTIER_STATES`; at that cap its two layers stay under ~100 MB.

Everything else runs a depth-first branch-and-bound over coefficient
assignments (`_exact_search` in `search.py`, imported only by a solve
that takes it), each for a reason:
- wide frontiers, whose states would not fit the cap.  On 25 sparse 0-
  and 1-chains of 3-D box grids at p = 5 with widths 13 to 27, the
  search took 21 s in all and a program without the cap 69 s; at widths
  9 and 10 the program was faster (1.0 s against 4.5 s on 13 instances);
- integral flat norms on non-network complexes, or under an explicit
  bound below the flow's filling.  A program over coefficients in
  [-B, B] took 2.4 s on 120 random 3-D 1-chains, the search 1.3 s.
The general mod-2 problem is NP-hard (Chen & Freedman, 2011), so no
method is fast on every input; the program is the bounded-width route of
Blaser & Vagset (2020).

Every solver takes its structure from one table (`_Problem`), built
once per public call: the cells, faces and cofaces as rows, the volumes
as integers over the LCM of their denominators, the cost of T where S is
0, and the k-cells each step of an order closes.  It is the one gate on
volumes: a float counts at its exact binary value, and a volume that is
not a positive finite number is refused.  Scaling keeps every
comparison, so the witness is the one exact rational arithmetic would
pick.  Every witness is assembled in `_decompose`, whose value, the
witness's mass in the complex's own volumes, must match the solver's
cost.  The search, the program and the flow keep their state on explicit
stacks, heaps and tables, so their depth is not bounded by the
interpreter's recursion limit.

All infima are relative to the chain's own complex: competitors range
over the cells the complex actually has, not over an ambient space.
Every inequality asserted in the tests is valid verbatim in this
relative setting; absolute values can differ from a richer ambient.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Callable, Optional

from .base import (FillInfeasibleError, Frozen, InternalDefectError, PreconditionError,
                   _check_modulus, canonical_residue, norm_mod_p)
from .core import IntChain, ModPChain


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
    lists (row in taus, coefficient) for sigmas[i], and cofaces[t] lists
    (row in sigmas, coefficient) for taus[t].  vol_s and vol_t are the
    volumes of sigmas and taus times scale, the LCM of their
    denominators.  A volume that is not a positive finite int, Fraction
    or float is refused.
    """

    __slots__ = ("sigmas", "taus", "faces", "cofaces", "target", "vol_s", "vol_t", "scale")

    def __init__(self, T: IntChain):
        cx, k = T.complex, T.dim
        self.sigmas = cx.cells(k + 1)
        bounds = [cx.boundary_of(sid) for sid in self.sigmas]
        self.taus = sorted(set(T.coeffs).union(*bounds))
        row = {tid: t for t, tid in enumerate(self.taus)}
        self.faces = [[(row[tid], c) for tid, c in b.items()] for b in bounds]
        self.cofaces: list[list[tuple]] = [[] for _ in self.taus]
        for i, faces in enumerate(self.faces):
            for t, c in faces:
                self.cofaces[t].append((i, c))
        self.target = [T.coeffs.get(tid, 0) for tid in self.taus]
        vols = [cx.volume(cid) for cid in self.sigmas] + [cx.volume(cid) for cid in self.taus]
        try:
            ratios = [v.as_integer_ratio() for v in vols if isinstance(v, (int, Fraction, float))]
        except (OverflowError, ValueError):
            raise PreconditionError("cell volumes must be finite") from None
        if len(ratios) < len(vols) or any(n <= 0 for n, _ in ratios):
            raise PreconditionError("cell volumes must be positive numbers")
        self.scale = lcm(*(d for _, d in ratios))
        scaled = [n * (self.scale // d) for n, d in ratios]
        self.vol_s, self.vol_t = scaled[:len(self.sigmas)], scaled[len(self.sigmas):]

    def answer(self, cost: int, assign) -> tuple:
        """(cost / scale, {cell id: value}) from a scaled cost and the
        values of the (k+1)-cells in id order."""
        return Fraction(cost, self.scale), {sid: v for sid, v in zip(self.sigmas, assign) if v}

    def charge(self, rows, p: Optional[int] = None) -> int:
        """The scaled cost of T on these rows of taus, as S = 0 leaves it:
        its mass there, or its mass_p for a modulus p."""
        target, vol_t = self.target, self.vol_t
        return sum((abs(target[t]) if p is None else norm_mod_p(target[t], p))
                   * vol_t[t] for t in rows)

    def closing(self, order: list[int]) -> tuple[list[list[int]], list[int]]:
        """For the (k+1)-cells placed in `order`: the rows of the k-cells
        whose last coface each step places, and the rows no cell touches."""
        step = {i: s for s, i in enumerate(order)}
        shut: list[list[int]] = [[] for _ in order]
        loose: list[int] = []
        for t, cof in enumerate(self.cofaces):
            (shut[max(step[i] for i, _ in cof)] if cof else loose).append(t)
        return shut, loose

    def mass(self, s_coeffs: dict) -> Fraction:
        """mass(T - dS) + mass(S) in exact arithmetic, for S by cell id."""
        rest, cost = list(self.target), 0
        for sid, faces, vol in zip(self.sigmas, self.faces, self.vol_s):
            g = s_coeffs.get(sid, 0)
            cost += abs(g) * vol
            for t, c in faces:
                rest[t] -= c * g
        return Fraction(cost + sum(abs(r) * v for r, v in zip(rest, self.vol_t)), self.scale)


def _residue_order(p: Optional[int], top: int) -> list[int]:
    """0, 1, -1, 2, -2, ... up to |v| <= top; for a modulus p, the residues in (-p/2, p/2]."""
    if p is not None:
        top = min(top, p // 2)
    vals = [0] + [s * t for t in range(1, top + 1) for s in (1, -1)]
    return vals if p is None else vals[:p]  # -p/2 is p/2


# The frontier program runs when p ** width is at most this, so a layer
# holds at most this many states.  Two layers of 2 ** 17 states (a 17x17
# grid at p = 2, 289 cells) took ~85 MB over the interpreter's own ~30 MB.
_FRONTIER_STATES = 2 ** 17


def _solve_mod_p(prob: _Problem, p: int, limit: int) -> tuple:
    """(cost, assignment) as `_Problem.answer` gives it for the optimum
    below the scaled cost `limit`: from the frontier program when the
    frontier is narrow, else from the search.  The limit is a known
    answer's cost + 1, so InternalDefectError when nothing costs less."""
    order, width = _sweep_order(prob)
    if p ** width <= _FRONTIER_STATES:
        return _frontier(prob, order, p, limit)
    from .search import _exact_search
    return _exact_search(prob, p=p, limit=limit)


def _sweep_order(prob: _Problem) -> tuple[list[int], int]:
    """A greedy sweep order of the (k+1)-cells and its width, the largest
    number of k-cells left open after a step (touched, with a coface
    still to come).

    The next cell has the most open faces, then the fewest faces it
    would leave newly open, then the smallest id."""
    from heapq import heapify, heappop, heappush

    faces, cofaces = prob.faces, prob.cofaces
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
                for j, _ in cofaces[t]:
                    if not placed[j]:
                        n_open[j] += 1
                        n_new[j] -= 1
                        heappush(heap, (-n_open[j], n_new[j], j))
            left[t] -= 1
            if not left[t]:
                size -= 1
        width = max(width, size)
    return order, width


def _frontier(prob: _Problem, order: list[int], p: int, limit: int) -> tuple:
    """The search's optimum below the scaled cost `limit`, as
    `_Problem.answer` gives it (InternalDefectError when nothing costs
    less): dynamic programming over the sweep `order`.

    A state is the residues mod p of the open k-cells, in the order of
    `layout`; a k-cell's cost is charged when its last coface is placed.
    Each state keeps the least (cost, key) pair that reaches it, where
    key = sum of rank(v_i) * n**(m-1-i) over the cells i in id order, with
    rank the position of v_i in the n values `_residue_order` lists below
    the limit.  Both are packed into one integer cost * n**m + key, so one
    comparison orders them, and the final key decodes to the witness."""
    faces, target, vol_s, vol_t = prob.faces, prob.target, prob.vol_s, prob.vol_t
    m = len(faces)
    vals = _residue_order(p, (limit - 1) // min(vol_s, default=limit))
    n = len(vals)
    W = n ** m
    shut_at, loose = prob.closing(order)
    base = prob.charge(loose, p)
    if base >= limit:
        raise InternalDefectError("the solver found nothing below its limit")
    limit *= W  # a state or a move at the limit is dropped
    weight = [n ** (m - 1 - i) for i in range(m)]  # of cell i's key digit
    layout: list[int] = []
    states = {(): base * W}
    for i, closes in zip(order, shut_at):
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
        stay = [j for j, (t, _) in enumerate(here) if t not in closes]
        shut = [(j, vol_t[t] * W) for j, (t, _) in enumerate(here) if t in closes]
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
            raise InternalDefectError("the solver found nothing below its limit")
        states = nxt
        layout = [layout[j] for j in rest] + [here[j][0] for j in stay]
    (val,) = states.values()
    cost, key = divmod(val, W)
    assign = [0] * m
    for i in range(m - 1, -1, -1):
        key, rank = divmod(key, n)
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


def _decompose(T: IntChain, s_coeffs: dict, cost, p: Optional[int] = None) -> tuple:
    """(filling, remainder, value) for the filling S = s_coeffs: the
    remainder is T - dS and the value mass(R) + mass(S), or their mass_p,
    checked against the cost the solver reported."""
    filling = IntChain(T.complex, T.dim + 1, s_coeffs)
    remainder = T - filling.boundary()
    if p is None:
        value = remainder.mass() + filling.mass()
    else:
        value = remainder.mass_p(p) + filling.mass_p(p)
    _check_engine_value(value, cost)
    return filling, remainder, value


def flat_norm_mod_p(T: IntChain, p: int) -> FlatWitness:
    """The flat norm mod p of a chain, relative to its complex.

    Minimizes mass_p(T - dS) + mass_p(S) over all mod-p coefficient
    assignments S to the (k+1)-cells; always exact since the search
    space is finite.  A ModPChain must carry the modulus p.
    """
    _check_modulus(p)
    if isinstance(T, ModPChain) and T.p != p:
        raise PreconditionError(f"chain has modulus {T.p}, requested {p}")
    # below mass_p(T) + 1 the empty filling is always found
    filling, remainder, value = _solve_value(
        T, p, lambda prob: prob.charge(range(len(prob.taus)), p) + 1)
    return FlatWitness(value, remainder, filling, exact=True, modulus=p)


def _solve_value(T: IntChain, p: int, limit: Callable[[_Problem], int]) -> tuple:
    """(filling, remainder, value), as `_decompose` gives them, of T's
    optimum mod p below the scaled cost limit(prob) of T's problem."""
    prob = _Problem(T)
    cost, s_coeffs = _solve_mod_p(prob, p, limit(prob))
    return _decompose(T, s_coeffs, cost, p)


def flat_norm_int(T: IntChain, bound: Optional[int] = None) -> FlatWitness:
    """The integral flat norm of a chain, relative to its complex.

    With positive volumes on a network complex (see the module
    docstring) the flat norm is a min-cost flow, proved by a matching
    dual; `flow` returns that certified optimum and its filling.  When
    the filling fits in the box |S| <= bound (always, with no bound), it
    is the witness, with exact=True and bound=None.  Otherwise one search
    runs over fillings with coefficients in [-B, B], where B is the given
    bound or twice (max coefficient + 1), and reports bound=B.  Its value
    is proved when every cell outside the box would on its own already
    cost more than the value found, or when it equals the flow's
    certified optimum.  Either way the witness is assembled once, here.
    """
    if bound is not None and (not isinstance(bound, int) or bound < 1):
        raise PreconditionError(f"coefficient bound must be an integer >= 1, got {bound!r}")
    from .flow import _flow_flat_norm

    prob = _Problem(T)
    flow = _flow_flat_norm(T, prob)
    if flow is not None and (bound is None or all(abs(g) <= bound for g in flow[1].values())):
        cost, s_coeffs = flow
        proved, b = True, None
    else:
        from .search import _exact_search
        b = bound if bound is not None else 2 * (max((abs(g) for _, g in T.items()), default=0) + 1)
        cost, s_coeffs = _exact_search(prob, bound=b)
        proved = ((flow is not None and cost == flow[0])
                  or all((b + 1) * v > cost * prob.scale for v in prob.vol_s))
    filling, remainder, value = _decompose(T, s_coeffs, cost)
    return FlatWitness(value, remainder, filling, exact=proved, bound=b)


def _boundary_solution(prob: _Problem, p: int) -> tuple[list[int], bool]:
    """Residues mod p, for the (k+1)-cells in id order, of a filling S0 with
    dS0 = T mod p (see the module docstring), and whether S0 is the only
    one: every column got a pivot of entry 1.  FillInfeasibleError if none."""
    m = len(prob.sigmas)
    # rows by first column; column m holds T's residues, and m + 1 empty rows
    starts: list[list[dict]] = [[] for _ in range(m + 2)]

    def add(row, other, q):  # row + q * other mod p, zeros dropped
        out = dict(row)
        for i, c in other.items():
            c = (out.get(i, 0) + q * c) % p
            if c:
                out[i] = c
            else:
                out.pop(i, None)
        return out

    for cof, g in zip(prob.cofaces, prob.target):
        row = add({}, dict([*cof, (m, g)]), 1)
        starts[min(row, default=m + 1)].append(row)
    pivots = []
    for j in range(m):
        piv, e = {}, p  # the zero row, with entry p in column j
        for row in starts[j]:
            a = row.pop(j)
            while a:  # Euclid's step on the two rows' entries e and a
                piv, row, e, a = row, add(piv, row, -(e // a)), a, e % a
            starts[min(row, default=m + 1)].append(row)
        if e < p:
            pivots.append((j, e, piv))
    if starts[m]:
        raise FillInfeasibleError("infeasible in this complex")
    x = [0] * m + [-1]
    for j, e, piv in reversed(pivots):
        x[j] = -sum(c * x[i] for i, c in piv.items()) % p // e
    if any((g - sum(c * x[i] for i, c in cof)) % p
           for cof, g in zip(prob.cofaces, prob.target)):
        raise InternalDefectError("elimination's filling does not bound the chain mod p")
    return x[:m], len(pivots) == m and all(e == 1 for _, e, _ in pivots)


def fill_mod_p(L: IntChain, p: int) -> IntChain:
    """A minimal-mass_p chain S with dS congruent to L mod p.

    L must be a cycle mod p.  Elimination over Z/p raises
    FillInfeasibleError when no chain of the complex has boundary L mod p,
    and otherwise finds a filling: the answer when it is the only one,
    else a cost that bounds the least one's.
    """
    _check_modulus(p)
    if L.dim >= 1:
        rim = L.boundary().reduce_mod_p(p)
        if not rim.is_zero():
            cid = rim.items()[0][0]
            raise PreconditionError(f"not a cycle mod p: boundary residue at cell {cid!r}")
    prob = _Problem(L)
    s0, single = _boundary_solution(prob, p)
    cost0 = sum(norm_mod_p(v, p) * vol for v, vol in zip(s0, prob.vol_s))
    if single:
        cost, s_coeffs = prob.answer(cost0, [canonical_residue(v, p) for v in s0])
    else:
        limit = cost0 + 1
        prob.vol_t = [limit] * len(prob.taus)
        cost, s_coeffs = _solve_mod_p(prob, p, limit)
    filling, remainder, _ = _decompose(L, s_coeffs, cost, p)
    if not remainder.reduce_mod_p(p).is_zero():
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
    one.  The fine complex is therefore solved below the coarse value + 1
    in its own scaled units (coarse cells are unions of fine ones), and
    a fine solve that finds nothing there raises InternalDefectError.
    """
    from .boxes import BoxChain, arrangement_complex

    if not isinstance(chain, BoxChain):
        raise PreconditionError("refinement comparison needs a box-backed chain")
    if not isinstance(subdivide, int) or subdivide < 2:
        raise PreconditionError(f"subdivision factor must be an integer >= 2, got {subdivide!r}")
    _, coarse_chain = arrangement_complex(chain, 1)
    _, fine_chain = arrangement_complex(chain, subdivide)
    coarse = flat_norm_mod_p(coarse_chain, p).value
    refined = _solve_value(fine_chain, p, lambda prob: coarse * prob.scale // 1 + 1)[2]
    if refined > coarse:
        raise InternalDefectError("refinement increased the flat norm")
    return coarse, refined
