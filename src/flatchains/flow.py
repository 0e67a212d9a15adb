"""The integral flat norm as a min-cost flow, on network complexes.

`flatnorm.flat_norm_int` imports this module when it runs, so mod-p
solves never compile it, and builds the witness from the certified
optimum and filling returned here.  The `flatnorm` module docstring says
when a complex is a network (the dual circulation and the primal flow)
and how every flow answer is certified; `_min_cost_flow` below solves both.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Optional

from .base import InternalDefectError, as_fraction

if TYPE_CHECKING:
    from .core import IntChain
    from .flatnorm import _Problem


def _flow_flat_norm(T: IntChain, prob: _Problem) -> Optional[tuple[Fraction, dict]]:
    """(optimum, filling by cell id) of the min-cost flow, once its dual
    certificate holds, or None when the complex is no network in
    dimensions k and k+1."""
    solved = _dual_circulation(prob) or _primal_flow(prob)
    if solved is None:
        return None
    s_coeffs, y = solved
    optimum = _dual_value(T, prob.sigmas, y, prob.scale)
    if optimum != prob.mass(s_coeffs):
        raise InternalDefectError("flow optimum differs from its dual value")
    return optimum, s_coeffs


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
    cofaces = prob.cofaces
    if any(len(cof) > 2 or any(b not in (1, -1) for _, b in cof) for cof in cofaces):
        return None
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
