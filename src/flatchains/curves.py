"""One-dimensional chains as systems of directed curves.

A curve system is a list of items, each a directed curve from one
point id to another with a nonnegative mass.  The central operation
rewrites such a system, when its total boundary is divisible by p, as a
cycle plus p times a sub-collection of items: it returns the sorted
index set of that sub-collection.

The algorithm maintains a decomposition of the system into pieces, each
an alternating signed tuple of item indices (entry m carries sign
(-1)^m) in which consecutive entries at (even, odd) positions share end
points and entries at (odd, even) positions share start points.  A
piece telescopes: its boundary is [end of last] - [start of first] for
an even tuple length k, and vanishes for odd k exactly when the last
and first starts agree.  Across the decomposition every item index
occurs either exactly once at an even position or exactly p-1 times at
odd positions; the sum of the pieces then differs from the system by p
times the odd-class items, which is the identity the output rests on.

Each reduction step removes at least one open piece or shortens the
shortest one, and every step re-checks the full invariant set, so a
defect in the bookkeeping surfaces immediately rather than as a wrong
answer.  No piece's boundary is re-summed: once neighbouring entries
share their points the sum telescopes, so its two end points decide it.

Unlike the usual textbook setting, pieces here may repeat an item
index: merging steps can place two odd occurrences of the same index
into one piece.  All invariants are therefore tracked per occurrence,
which is strictly more general and reduces to the repeat-free situation
whenever no merge doubles an index.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .base import Frozen, InternalDefectError, PreconditionError, _check_modulus, as_fraction

if TYPE_CHECKING:  # a curve system needs no complex; CurvePath.chain imports it
    from .core import IntChain


class CurveItem(Frozen):
    """A directed curve: 1-based index, start/end point ids, mass."""

    _fields = ("index", "start", "end", "mass")

    def __init__(self, index: int, start: str, end: str, mass=Fraction(0)):
        if not isinstance(index, int) or index < 1:
            raise PreconditionError(f"item index must be a positive integer, got {index!r}")
        if not mass >= 0:
            raise PreconditionError(f"item {index} has negative mass {mass!r}")
        vars(self).update(index=index, start=start, end=end, mass=mass)


class CurveSystem(Frozen):
    """An ordered collection of curve items with consecutive 1-based ids."""

    _fields = ("items",)

    def __init__(self, items: tuple[CurveItem, ...]):
        for pos, item in enumerate(items, start=1):
            if item.index != pos:
                raise PreconditionError(
                    f"item ids must be consecutive from 1; position {pos} holds id {item.index}")
        vars(self).update(items=items)

    @staticmethod
    def from_triples(triples: Sequence) -> "CurveSystem":
        items = tuple(
            CurveItem(i, str(s), str(e), as_fraction(m))
            for i, (s, e, m) in enumerate(triples, start=1))
        return CurveSystem(items)

    def __len__(self) -> int:
        return len(self.items)


def system_boundary(system: CurveSystem) -> dict[str, int]:
    """The integer 0-chain sum of [end] - [start] over all items."""
    out: dict[str, int] = {}
    for item in system.items:
        out[item.end] = out.get(item.end, 0) + 1
        out[item.start] = out.get(item.start, 0) - 1
    return {pt: g for pt, g in sorted(out.items()) if g != 0}


def _read_chainfile(body) -> CurveSystem:
    """The system of a curves file's body lines (see fileio.CARRIERS)."""
    from .fileio import ParseError, _integer, _number

    items = []
    numbers: dict[str, Fraction] = {}  # curves share masses: parse each text once
    for no, line in body:
        tokens = line.split()
        if tokens[0] != "curve":
            raise ParseError(no, f"unexpected {tokens[0]!r} in a curves file")
        if len(tokens) != 5:
            raise ParseError(no, "expected `curve id start end mass`")
        idx = _integer(tokens[1], no)
        if idx != len(items) + 1:
            raise ParseError(no, f"curve ids must be consecutive from 1, got {idx}")
        mass = numbers[tokens[4]] if tokens[4] in numbers else numbers.setdefault(
            tokens[4], _number(tokens[4], no))
        if mass < 0:
            raise ParseError(no, f"negative mass {tokens[4]}")
        items.append(CurveItem(idx, tokens[2], tokens[3], mass))
    return CurveSystem(tuple(items))


def _write_chainfile(system: CurveSystem) -> list[str]:
    from .fileio import format_number

    return [f"curve {item.index} {item.start} {item.end} {format_number(item.mass)}"
            for item in system.items]


class PreprocessTrace(Frozen):
    """How the reduced items map back to the original ones.

    sources[i] lists, in traversal order, the original ids concatenated
    into reduced item i+1; loops holds the id lists of removed closed
    items; events records each move in execution order.
    """

    _fields = ("sources", "loops", "events")

    def __init__(self, sources: tuple[tuple[int, ...], ...], loops: tuple[tuple[int, ...], ...],
                 events: tuple[tuple, ...] = ()):
        vars(self).update(sources=sources, loops=loops, events=events)


def preprocess(system: CurveSystem) -> tuple[CurveSystem, PreprocessTrace]:
    """Concatenate end-to-start item pairs and drop closed loops.

    Pairs are merged lowest current position first, repeatedly, until no
    item's end equals any item's start; the trace lifts every result on
    the reduced system back to the original items.

    A merge keeps the first item's start, replaces its end by the
    second's and removes the second, so no start value is ever added and
    an item with no partner never gains one.  The scan therefore moves
    forward once over the positions, finding partners through a map from
    start point to the live items that start there, in position order.
    """
    loops: list[tuple[int, ...]] = []
    events: list[tuple] = []
    work = []  # [start, end, mass, sources]; None once merged away or looped
    for it in system.items:
        if it.start == it.end:
            loops.append((it.index,))
            events.append(("loop", (it.index,)))
        else:
            work.append([it.start, it.end, it.mass, (it.index,)])
    starting: dict[str, deque[int]] = {}
    for pos, (start, _, _, _) in enumerate(work):
        starting.setdefault(start, deque()).append(pos)
    for i, item in enumerate(work):
        while item is not None:
            queue = starting.get(item[1])
            while queue and work[queue[0]] is None:
                queue.popleft()
            if not queue:
                break
            j = queue.popleft()  # never i: a live item's start differs from its end
            _, end, mass, src = work[j]
            work[j] = None
            events.append(("concat", item[3], src))
            item[1:] = end, item[2] + mass, item[3] + src
            if item[0] == item[1]:
                loops.append(item[3])
                events.append(("loop", item[3]))
                work[i] = item = None
    work = [item for item in work if item is not None]
    items = tuple(CurveItem(pos, s, e, m)
                  for pos, (s, e, m, _) in enumerate(work, start=1))
    trace = PreprocessTrace(tuple(src for _, _, _, src in work),
                            tuple(loops), tuple(events))
    reduced = CurveSystem(items)
    starts = {item.start for item in items}
    if any(item.end in starts for item in items):
        raise InternalDefectError("preprocessing left an end equal to a start")
    return reduced, trace


# -- the admissible-decomposition reduction --------------------------------

def _is_open(piece: tuple[int, ...]) -> bool:
    return len(piece) % 2 == 1  # odd entry count = even tuple length k


def _check_decomposition(pieces, n: int, p: int, starts, ends) -> None:
    """Every invariant of the decomposition, checked from scratch.  Once a
    piece's neighbours pass, its boundary telescopes to [end of last] -
    [start of first] (open) or [start of last] - [start of first] (closed),
    so comparing those two points checks it without re-summing."""
    even_count = [0] * (n + 1)
    odd_count = [0] * (n + 1)
    for piece in pieces:
        if not piece:
            raise InternalDefectError(f"empty piece in decomposition {pieces!r}")
        for m, idx in enumerate(piece):
            if m % 2 == 0:
                even_count[idx] += 1
            else:
                odd_count[idx] += 1
        for m in range(len(piece) - 1):
            a, b = piece[m], piece[m + 1]
            if m % 2 == 0:
                if ends[a] != ends[b]:
                    raise InternalDefectError(
                        f"even-odd entries {a},{b} do not share an end in {pieces!r}")
            elif starts[a] != starts[b]:
                raise InternalDefectError(
                    f"odd-even entries {a},{b} do not share a start in {pieces!r}")
        if _is_open(piece):
            if ends[piece[-1]] == starts[piece[0]]:
                raise InternalDefectError(f"open piece has the wrong boundary in {pieces!r}")
        elif starts[piece[-1]] != starts[piece[0]]:
            raise InternalDefectError(f"odd-length piece fails to close in {pieces!r}")
    for idx in range(1, n + 1):
        ec, oc = even_count[idx], odd_count[idx]
        if not ((ec == 1 and oc == 0) or (ec == 0 and oc == p - 1)):
            raise InternalDefectError(
                f"index {idx} occurs {ec} times even, {oc} times odd in {pieces!r}")


def _select_partners(pieces, open_ids, first: int, z: str, p: int, ends) -> list[int]:
    partners = []
    for i in open_ids:
        if i != first and ends[pieces[i][-1]] == z:
            partners.append(i)
            if len(partners) == p - 1:
                return partners
    raise InternalDefectError(
        f"fewer than {p - 1} open pieces share the right boundary {z!r}")


def _merge_step_single(pieces, open_ids, first: int, partners, starts):
    """The k = 0 reduction: absorb a one-entry piece into its partners.

    Like _merge_step_long, returns the step's edit: the pieces that each
    replaced position becomes, every other position staying as it is.
    """
    sigma = pieces[first][0]
    w = starts[sigma]
    closing = [i for i in partners if starts[pieces[i][0]] == w]
    through = [i for i in partners if i not in closing]
    outside_needed = len(through)
    outside = []
    taken = {first, *partners}
    for i in open_ids:
        if len(outside) == outside_needed:
            break
        if i not in taken and starts[pieces[i][0]] == w:
            outside.append(i)
    if len(outside) < outside_needed:
        raise InternalDefectError(
            f"fewer than {outside_needed} open pieces start at {w!r}: {pieces!r}")
    replacement: dict[int, list[tuple[int, ...]]] = {first: []}
    for i in closing:
        replacement[i] = [pieces[i] + (sigma,)]
    for i, j in zip(through, outside):
        replacement[i] = [pieces[i] + (sigma,) + pieces[j]]
        replacement[j] = []
    return replacement


def _fragment_at(piece: tuple[int, ...], beta: int):
    """Split a tuple at every odd-position occurrence of one index.

    Returns (lead, inner) where lead is the part before the first
    occurrence and inner lists the parts between/after occurrences; all
    parts keep their alternating structure because occurrence positions
    are odd.
    """
    spots = [m for m, idx in enumerate(piece) if idx == beta]
    if any(m % 2 == 0 for m in spots):
        raise InternalDefectError(f"index {beta} occurs at an even position in {piece!r}")
    if not spots:
        return piece, []
    lead = piece[:spots[0]]
    inner = [piece[spots[t] + 1:spots[t + 1]] for t in range(len(spots) - 1)]
    inner.append(piece[spots[-1] + 1:])
    return lead, inner


def _rotate_cycle_to_last(piece: tuple[int, ...], beta: int) -> tuple[int, ...]:
    spots = [m for m, idx in enumerate(piece) if idx == beta]
    shift = spots[-1] + 1
    if shift % 2 == 1:
        raise InternalDefectError(f"cycle rotation by an odd shift for {piece!r}")
    return piece[shift:] + piece[:shift]


def _merge_step_long(pieces, first: int, partners):
    """The k >= 2 reduction: trade the final odd-class entry of the
    shortest open piece against the preceding even-class one."""
    head = pieces[first]
    beta, gamma = head[-2], head[-1]
    stump = head[:-2]

    # fragment every piece holding an odd occurrence of beta
    queue: list[tuple[int, ...]] = []
    replacement: dict[int, list[tuple[int, ...]]] = {}
    hosts: list[int] = []

    lead, inner = _fragment_at(stump, beta)
    replacement[first] = [lead] if lead else []
    queue.extend(inner)

    for i in partners:
        body = pieces[i]
        if beta in body:
            lead, inner = _fragment_at(body, beta)
            # the last inner part ends where the whole piece did, at the
            # shared right boundary: closing it with gamma makes a cycle
            tail = inner.pop()
            replacement[i] = ([lead] if lead else []) + [tail + (gamma,)]
            queue.extend(inner)
        else:
            hosts.append(i)

    others = [k for k, piece in enumerate(pieces)
              if beta in piece and k != first and k not in partners]
    for k in others:
        piece = pieces[k]
        if _is_open(piece):
            lead, inner = _fragment_at(piece, beta)
            replacement[k] = [lead] if lead else []
            queue.extend(inner)
        else:
            opened = _rotate_cycle_to_last(piece, beta)[:-1]
            lead, inner = _fragment_at(opened, beta)
            replacement[k] = []
            queue.extend(([lead] if lead else []) + inner)

    queue.append((beta,))
    if len(queue) != len(hosts):
        raise InternalDefectError(
            f"{len(queue)} fragments for {len(hosts)} hosts in {pieces!r}")
    for i, fragment in zip(hosts, queue):
        replacement[i] = [pieces[i] + (gamma,) + fragment]
    return replacement


def _run_reduction(items: Sequence[CurveItem], p: int) -> list[int]:
    """Run the reduction on a preprocessed system; returns the odd class."""
    n = len(items)
    starts = {it.index: it.start for it in items}
    ends = {it.index: it.end for it in items}
    pieces: list[tuple[int, ...]] = [(it.index,) for it in items]
    _check_decomposition(pieces, n, p, starts, ends)

    def measure():
        """The open positions, the shortest open piece's position (least
        (length, position)) and the measure every step must decrease."""
        open_ids = [k for k, piece in enumerate(pieces) if _is_open(piece)]
        shortest, first = min(((len(pieces[k]), k) for k in open_ids), default=(0, None))
        return open_ids, first, (len(open_ids), shortest)

    open_ids, first, before = measure()
    while len(open_ids) >= p:
        z = ends[pieces[first][-1]]
        partners = _select_partners(pieces, open_ids, first, z, p, ends)
        if len(pieces[first]) == 1:
            replacement = _merge_step_single(pieces, open_ids, first, partners, starts)
        else:
            replacement = _merge_step_long(pieces, first, partners)
        pieces = [piece for k, old in enumerate(pieces)
                  for piece in replacement.get(k, [old])]
        _check_decomposition(pieces, n, p, starts, ends)
        open_ids, first, after = measure()
        if not after < before:
            raise InternalDefectError(
                f"reduction measure did not decrease: {before} -> {after} in {pieces!r}")
        before = after
    if open_ids:
        raise InternalDefectError(
            f"stuck with 0 < {len(open_ids)} < {p} open pieces: {pieces!r}")

    odd_class = sorted({idx for piece in pieces for m, idx in enumerate(piece) if m % 2 == 1})
    return odd_class


def extract_cycle_indices(system: CurveSystem, p: int) -> list[int]:
    """Indices (1-based, original ids) whose p-fold removal leaves a cycle.

    The system boundary must be divisible by p everywhere.  The output
    set G satisfies: counting items in G with multiplicity 1-p and all
    others with multiplicity 1, the total boundary is exactly zero, and
    the mass of that combination is at most (p-1) times the total mass.
    """
    _check_modulus(p)
    for pt, g in system_boundary(system).items():
        if g % p != 0:
            raise PreconditionError(f"boundary not divisible by {p} at point {pt!r}")
    reduced, trace = preprocess(system)
    odd_reduced = _run_reduction(reduced.items, p)
    lifted = sorted({orig for i in odd_reduced for orig in trace.sources[i - 1]})

    check: dict[str, int] = {}
    chosen = set(lifted)
    for item in system.items:
        weight = 1 - p if item.index in chosen else 1
        check[item.end] = check.get(item.end, 0) + weight
        check[item.start] = check.get(item.start, 0) - weight
    if any(check.values()):
        raise InternalDefectError(f"output boundary is nonzero: {check!r}")
    return lifted


# -- path and loop decomposition of 1-chains --------------------------------

class CurvePath(Frozen):
    """A simple directed edge walk: open path or closed loop."""

    _fields = ("vertices", "edges", "closed", "mass")

    def __init__(self, vertices: tuple[str, ...],
                 edges: tuple[tuple[str, int], ...],  # (edge cell id, +1 forward / -1 reverse)
                 closed: bool, mass):
        vars(self).update(vertices=vertices, edges=edges, closed=closed, mass=mass)

    def chain(self, cx) -> IntChain:
        from .core import IntChain

        coeffs: dict[str, int] = {}
        for cid, sign in self.edges:
            coeffs[cid] = coeffs.get(cid, 0) + sign
        return IntChain(cx, 1, coeffs)


def _edge_endpoints(cx, cid: str) -> tuple[str, str]:
    faces = sorted(cx.boundary_of(cid).items())
    if len(faces) != 2 or sorted(c for _, c in faces) != [-1, 1]:
        raise PreconditionError(f"cell {cid!r} is not a directed edge between two points")
    head = next(f for f, c in faces if c == 1)
    tail = next(f for f, c in faces if c == -1)
    return tail, head


def decompose_paths_loops(T: IntChain) -> list[CurvePath]:
    """Write a 1-chain as simple directed paths and loops, exactly.

    Greedy walk extraction: walks start at the smallest remaining net
    source (with no source left, at the least vertex with an arc left),
    always follow the least available arc, and excise a loop whenever a
    vertex repeats.  The signed sum of the returned walks reconstructs
    the chain, masses add up to its mass, and the number of open paths
    is half the boundary mass.
    """
    if T.dim != 1:
        raise PreconditionError("path decomposition applies to 1-chains")
    cx = T.complex
    arcs: dict[str, list] = {}
    net: dict[str, int] = {}
    remaining = 0
    # T.items() is sorted by cell id, so each list ends at its least arc
    for cid, g in reversed(T.items()):
        tail, head = _edge_endpoints(cx, cid)
        a, b, sign = (tail, head, 1) if g > 0 else (head, tail, -1)
        arcs.setdefault(a, []).append([cid, sign, b, abs(g)])
        net[a] = net.get(a, 0) + abs(g)
        net[b] = net.get(b, 0) - abs(g)
        remaining += abs(g)

    def least_arc(v):
        """v's least arc with uses left, or None; drops used-up arcs."""
        lst = arcs.get(v)
        while lst and not lst[-1][3]:
            lst.pop()
        return lst[-1] if lst else None

    out: list[CurvePath] = []
    boundary_mass = sum(map(abs, T.boundary().coeffs.values()))

    # net[v] is v's uses left out minus in, so a source has an arc left.  A
    # walk ends where no arc is left, so no vertex becomes a source, and no
    # vertex regains an arc: both pointers below only move forward
    sources = sorted(v for v, d in net.items() if d > 0)
    vertices = sorted(arcs)
    at_source = at_vertex = 0
    while remaining > 0:
        at_entry = remaining
        while at_source < len(sources) and net[sources[at_source]] <= 0:
            at_source += 1
        if at_source < len(sources):
            start = sources[at_source]
        else:
            while not least_arc(vertices[at_vertex]):
                at_vertex += 1
            start = vertices[at_vertex]
        walk_v = [start]
        walk_e: list[tuple[str, int]] = []
        seen = {start: 0}
        while arc := least_arc(walk_v[-1]):
            cid, sign, nxt, _ = arc
            arc[3] -= 1
            remaining -= 1
            walk_e.append((cid, sign))
            if nxt in seen:
                at = seen[nxt]
                loop_v = walk_v[at:] + [nxt]
                loop_e = walk_e[at:]
                out.append(CurvePath(tuple(loop_v), tuple(loop_e), True,
                                     _walk_mass(cx, loop_e)))
                for v in walk_v[at + 1:]:
                    del seen[v]
                del walk_v[at + 1:]
                del walk_e[at:]
            else:
                walk_v.append(nxt)
                seen[nxt] = len(walk_v) - 1
        if walk_e:
            net[walk_v[0]] -= 1
            net[walk_v[-1]] += 1
            out.append(CurvePath(tuple(walk_v), tuple(walk_e), False,
                                 _walk_mass(cx, walk_e)))
        elif remaining == at_entry:
            raise InternalDefectError("no progress while arcs remain")

    opens = sum(1 for path in out if not path.closed)
    if 2 * opens != boundary_mass:
        raise InternalDefectError(
            f"{opens} open paths against boundary mass {boundary_mass}")
    return out


def _walk_mass(cx, edges) -> object:
    return sum((cx.volume(cid) for cid, _ in edges), Fraction(0))


def cycle_representative(T: IntChain, p: int) -> IntChain:
    """An exact cycle congruent to T mod p, with mass at most (p-1) mass_p(T).

    Pipeline: take the minimal-mass lift of T mod p, decompose it into
    paths and loops, and remove p copies of the item set produced by
    extract_cycle_indices.
    """
    if T.dim != 1:
        raise PreconditionError("cycle representatives apply to 1-chains")
    _check_modulus(p)
    rim = T.boundary().reduce_mod_p(p)
    if not rim.is_zero():
        pt = rim.items()[0][0]
        raise PreconditionError(f"boundary not divisible by {p} at point {pt!r}")
    cx = T.complex
    lifted = T.reduce_mod_p(p).lift()
    paths = decompose_paths_loops(lifted)
    system = CurveSystem(tuple(
        CurveItem(i, path.vertices[0], path.vertices[-1], path.mass)
        for i, path in enumerate(paths, start=1)))
    removed: dict[str, int] = {}
    for i in extract_cycle_indices(system, p):
        for cid, sign in paths[i - 1].edges:
            removed[cid] = removed.get(cid, 0) + p * sign
    result = lifted - cx.chain(1, removed)
    if not result.boundary().is_zero():
        raise InternalDefectError("cycle representative has nonzero boundary")
    if not (result - T).reduce_mod_p(p).is_zero():
        raise InternalDefectError("cycle representative changed the mod-p class")
    if result.mass() > (p - 1) * T.mass_p(p):
        raise InternalDefectError("cycle representative exceeds the mass bound")
    return result
