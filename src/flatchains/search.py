"""The depth-first branch-and-bound of the flat-norm solvers, which
`flatnorm` imports only for a solve that takes it (see its docstring).

Its variables are the (k+1)-cells in decreasing-volume order.  The lower
bound at a partial assignment counts the cells of the remainder whose
cofaces are all assigned, each weighed by one table (|a| or the distance
to pZ), plus the mass of the assigned filling.  The incumbent starts just
below the limit and is replaced only by a strictly better value or an
equal value with a lexicographically smaller witness: least cost, then
the least tuple of (|v|, v < 0) over the cells in id order.  Results are
therefore deterministic.
"""

from __future__ import annotations

from itertools import cycle, islice
from typing import Optional

from .base import InternalDefectError, canonical_residue, norm_mod_p
from .flatnorm import _Problem, _residue_order


def _exact_search(prob: _Problem, *, p: Optional[int] = None, bound: Optional[int] = None,
                  limit: Optional[int] = None) -> tuple:
    """Minimize the flat objective over coefficient assignments to the
    (k+1)-cells, below the scaled cost `limit` (by default the cost of
    S = 0 plus one).  Returns (cost, assignment) as `_Problem.answer`
    does; the limit is a known answer's cost + 1, so finding nothing
    below it raises InternalDefectError."""
    level = sorted(range(len(prob.sigmas)), key=lambda i: (-prob.vol_s[i], i))
    m = len(level)
    if limit is None:
        limit = prob.charge(range(len(prob.taus)), p) + 1
    # a value that costs the limit on the lightest cell is in no answer
    top = (limit - 1) // min(prob.vol_s, default=limit)
    vals = _residue_order(p, top if bound is None else min(top, bound))
    det_at, loose = prob.closing(level)
    cob = [prob.faces[sigma] for sigma in level]
    vol_s = [prob.vol_s[sigma] for sigma in level]
    vol_t = prob.vol_t
    # acc is T - dS offset by A, the most |T - dS| reaches (T taken mod p in
    # (-p/2, p/2]), and norm[a + A] weighs coefficient a; weights mod p
    # have period p, so one period is cycled
    target = [g if p is None else canonical_residue(g, p) for g in prob.target]
    A = max((abs(g) + abs(vals[-1]) * sum(abs(c) for _, c in cof)
             for g, cof in zip(target, prob.cofaces)), default=0)
    norm = [abs(a) if p is None else norm_mod_p(a, p) for a in range(-A, A + 1)[:p]]
    norm = list(islice(cycle(norm), 2 * A + 1))
    acc = [g + A for g in target]
    base = prob.charge(loose, p)

    # Depth-first over levels 0..m on an explicit stack: nxt[i] indexes
    # the next value of vals to try at level i, and cost_at[i] is the cost
    # of the assignment to the levels before i.  Coming back to level i
    # first undoes the value last tried there.  At a leaf, nxt[i] - 1 is
    # the position in vals, ordered by (|v|, v < 0), of level i's value.
    nxt = [0] * (m + 1)
    cost_at = [base] * (m + 1)
    id_order = sorted(range(m), key=level.__getitem__)
    above = (len(vals) + 1,)  # a key above every key
    best_cost, best_key = limit - 1, above
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
        for t in det_at[i]:
            stepped += norm[acc[t]] * vol_t[t]
            if stepped > best_cost:
                break
        else:
            cost_at[i + 1] = stepped
            nxt[i + 1] = 0
            i += 1
    if best_key == above:
        raise InternalDefectError("the solver found nothing below its limit")
    return prob.answer(best_cost, [vals[r - 1] for r in best_key])
