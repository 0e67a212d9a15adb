"""Shared random generators and independent oracles for the test suite.

Everything takes an explicit random.Random so each test controls its own
seed; nothing here touches the global RNG state.
"""

import itertools
import math
from fractions import Fraction
from math import lcm, prod

import numpy as np

from flatchains import (
    BoxCell,
    BoxChain,
    Complex,
    CurveItem,
    CurveSystem,
    ModPChain,
    PreconditionError,
    PreprocessTrace,
    Simplex,
    SimplicialChain,
    arrangement_complex,
    grid_chain,
)

# ---------------------------------------------------------------------------
# box chains


def fraction_coord(rng, denom=4, lo=0, hi=2):
    return Fraction(rng.randint(lo * denom, hi * denom), denom)


def random_box_cell(rng, n, k, denom=4, lo=0, hi=2):
    dirs = set(rng.sample(range(n), k))
    intervals = []
    for j in range(n):
        if j in dirs:
            a = fraction_coord(rng, denom, lo, hi)
            b = fraction_coord(rng, denom, lo, hi)
            while b == a:
                b = fraction_coord(rng, denom, lo, hi)
            intervals.append((min(a, b), max(a, b)))
        else:
            v = fraction_coord(rng, denom, lo, hi)
            intervals.append((v, v))
    return BoxCell(tuple(intervals))


def random_box_chain(rng, n, k, max_cells=3, denom=4, lo=0, hi=2,
                     coeff=3, nonzero=False):
    while True:
        items = [(random_box_cell(rng, n, k, denom, lo, hi),
                  rng.choice([g for g in range(-coeff, coeff + 1) if g]))
                 for _ in range(rng.randint(1, max_cells))]
        chain = BoxChain(n, k, items)
        if not (nonzero and chain.is_zero()):
            return chain


def generic_level(rng, chain, axis, extra=()):
    """A level strictly between two consecutive coordinate values.

    extra lists further values the level must avoid (e.g. a previously
    drawn level on the same axis).
    """
    vals = sorted(set(chain.axis_values(axis)) | {Fraction(v) for v in extra})
    if not vals:
        return Fraction(rng.randint(1, 7), 8)
    if len(vals) == 1:
        lo, hi = vals[0] - 1, vals[0] + 1
    else:
        i = rng.randrange(len(vals) - 1)
        lo, hi = vals[i], vals[i + 1]
    return lo + (hi - lo) * Fraction(rng.choice([1, 3, 5, 7]), 8)


def slice_mass_integral_oracle(chain, axes, p):
    """Literal slice-mass integral, for cross-checking the closed form.

    The iterated slice mass is piecewise constant between consecutive
    coordinate values on each axis, so the integral is the sum over gaps
    of gap length times the slice mass at the gap midpoint, with each
    slice taken by BoxChain.slice, axis after axis.
    """
    def go(part, rest):
        if not rest:
            return part.mass_p(p)
        axis, tail = rest[0], rest[1:]
        total = Fraction(0)
        for lo, hi in itertools.pairwise(part.axis_values(axis)):
            total += (hi - lo) * go(part.slice(axis, (lo + hi) / 2), tail)
        return total

    return go(chain, tuple(axes))


def cross_section(chain, axis, r):
    """Geometric slice oracle: cut each box crossing the hyperplane.

    Sign rule: the section of a cell inherits the cell's coefficient
    times (-1)**(number of cell directions below the slicing axis).
    """
    r = Fraction(r)
    items = []
    for cell, g in chain.items():
        lo, hi = cell.intervals[axis]
        if not lo < r < hi:
            continue
        below = sum(1 for d in cell.directions if d < axis)
        sign = 1 if below % 2 == 0 else -1
        items.append((cell.replace(axis, r, r), sign * g))
    return BoxChain(chain.ambient_dim, chain.dim - 1, items)


# ---------------------------------------------------------------------------
# literal Fraction reference of the box calculus
#
# A reference chain is a dict from interval tuples of Fractions to nonzero
# coefficients, built by the definitions alone: split every cell at every
# endpoint of the chain on each axis, merge, drop zeros.  BoxChain keeps
# integer numerators over one denominator instead; these functions pin it
# to the Fraction arithmetic it stands for.


def ref_chain(items):
    """Canonical reference chain of (intervals, coefficient) pairs."""
    merged = {}
    for ivs, g in items:
        ivs = tuple((Fraction(lo), Fraction(hi)) for lo, hi in ivs)
        merged[ivs] = merged.get(ivs, 0) + g
    merged = {c: g for c, g in merged.items() if g}
    if not merged:
        return {}
    n = len(next(iter(merged)))
    cuts = [sorted({v for c in merged for v in c[j]}) for j in range(n)]
    out = {}
    for c, g in merged.items():
        per_axis = [[(lo, hi)] if lo == hi
                    else list(itertools.pairwise([v for v in cuts[j] if lo <= v <= hi]))
                    for j, (lo, hi) in enumerate(c)]
        for piece in itertools.product(*per_axis):
            out[piece] = out.get(piece, 0) + g
    return {c: g for c, g in out.items() if g}


def mixed_coord(rng):
    """A coordinate of denominator 1, 2, 3 or 7, a decimal text or a float."""
    kind = rng.random()
    if kind < 0.1:
        return rng.choice([0.1, 0.3, 1.7])  # counted at its binary value
    if kind < 0.2:
        return rng.choice(["0.1", "1.25", "0.7"])
    d = rng.choice([1, 2, 3, 7])
    return Fraction(rng.randint(0, 2 * d), d)


def mixed_box_items(rng, n, k, max_cells=4, coord=mixed_coord):
    """(intervals, coefficient) pairs of k-cells whose coordinates mix types."""
    items = []
    for _ in range(rng.randint(1, max_cells)):
        dirs = set(rng.sample(range(n), k))
        intervals = []
        for j in range(n):
            a = coord(rng)
            if j not in dirs:
                intervals.append((a, a))
                continue
            b = coord(rng)
            while Fraction(b) == Fraction(a):
                b = coord(rng)
            intervals.append((a, b) if Fraction(a) < Fraction(b) else (b, a))
        items.append((tuple(intervals), rng.choice([-2, -1, 1, 2, 3])))
    return items


def ref_of(chain):
    return ref_chain((c.intervals, g) for c, g in chain.items())


def ref_sum(*chains):
    """Reference sum, canonicalized once over all the summands' cuts."""
    return ref_chain(item for ref in chains for item in ref.items())


def ref_neg(ref):
    return {c: -g for c, g in ref.items()}


def ref_boundary(ref):
    items = []
    for c, g in ref.items():
        sign = 1
        for j, (lo, hi) in enumerate(c):
            if lo < hi:
                items.append((c[:j] + ((hi, hi),) + c[j + 1:], sign * g))
                items.append((c[:j] + ((lo, lo),) + c[j + 1:], -sign * g))
                sign = -sign
    return ref_chain(items)


def ref_restrict(ref, axis, r, side="below"):
    r = Fraction(r)
    items = []
    for c, g in ref.items():
        lo, hi = c[axis]
        if (hi < r) if side == "below" else (lo > r):
            items.append((c, g))
        elif lo < r < hi:
            piece = (lo, r) if side == "below" else (r, hi)
            items.append((c[:axis] + (piece,) + c[axis + 1:], g))
    return ref_chain(items)


def ref_slice(ref, axis, r):
    return ref_sum(ref_boundary(ref_restrict(ref, axis, r)),
                   ref_neg(ref_restrict(ref_boundary(ref), axis, r)))


def ref_round(v, eta, rho):
    q = v / eta
    fl = q.numerator // q.denominator
    return eta * (fl if q - fl < rho else fl + 1)


def ref_push_round(ref, axis, eta, rho):
    items = []
    for c, g in ref.items():
        lo, hi = c[axis]
        rlo, rhi = ref_round(lo, eta, rho), ref_round(hi, eta, rho)
        if not (lo < hi and rlo == rhi):
            items.append((c[:axis] + ((rlo, rhi),) + c[axis + 1:], g))
    return ref_chain(items)


def ref_volume(c):
    return prod((hi - lo for lo, hi in c if lo < hi), start=Fraction(1))


def ref_mass(ref):
    return sum((abs(g) * ref_volume(c) for c, g in ref.items()), Fraction(0))


def ref_mass_p(ref, p):
    return sum((min(g % p, -g % p) * ref_volume(c) for c, g in ref.items()), Fraction(0))


def ref_token(c):
    parts = [str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in c]
    return f"b{sum(lo < hi for lo, hi in c)}[" + ";".join(parts) + "]"


def ref_optimized_thresholds(ref, n, eta):
    """The --optimize thresholds by brute force: per axis, every midpoint
    (2t + 1) / (2m) of the fine lattice, m the lcm of the denominators of
    v / eta, is tried on the chain rounded so far; least (mass, rho) wins."""
    eta = Fraction(eta)
    denoms = [lcm(*((v / eta).denominator for c in ref for v in c[j])) for j in range(n)]
    chosen = []
    for j, m in enumerate(denoms):
        rho = min((Fraction(2 * t + 1, 2 * m) for t in range(m)),
                  key=lambda r: (ref_mass(ref_push_round(ref, j, eta, r)), r))
        chosen.append(rho)
        ref = ref_push_round(ref, j, eta, rho)
    return tuple(chosen), ref


# ---------------------------------------------------------------------------
# abstract complexes


def path_complex(volumes):
    """Points q0..qm joined by edges e1..em with the given lengths."""
    vols = list(volumes)
    return Complex({
        0: [(f"q{i}", 1, []) for i in range(len(vols) + 1)],
        1: [(f"e{i}", v, [(f"q{i - 1}", -1), (f"q{i}", 1)])
            for i, v in enumerate(vols, start=1)],
    })


def unit_grid_complex(n):
    """The abstract n-by-n unit grid: vertices v{i}_{j}, horizontal edges
    h{i}_{j}, vertical edges u{i}_{j} and squares f{i}_{j}, all volume 1."""
    verts = [(f"v{i}_{j}", 1, []) for i in range(n + 1) for j in range(n + 1)]
    edges = [(f"h{i}_{j}", 1, [(f"v{i}_{j}", -1), (f"v{i + 1}_{j}", 1)])
             for i in range(n) for j in range(n + 1)]
    edges += [(f"u{i}_{j}", 1, [(f"v{i}_{j}", -1), (f"v{i}_{j + 1}", 1)])
              for i in range(n + 1) for j in range(n)]
    squares = [(f"f{i}_{j}", 1, [(f"h{i}_{j}", 1), (f"u{i + 1}_{j}", 1),
                                 (f"h{i}_{j + 1}", -1), (f"u{i}_{j}", -1)])
               for i in range(n) for j in range(n)]
    return Complex({0: verts, 1: edges, 2: squares})


GRID_SHAPES_2D = [(2, 2), (3, 2), (2, 3), (4, 2), (1, 4), (1, 6), (3, 1)]
GRID_SHAPES_3D = [(2, 2, 2), (1, 2, 2), (2, 1, 2), (1, 1, 3)]


def random_grid_complex(rng, float_volumes=False, small=False):
    """A full box-lattice complex with at most 8 top-dimensional cells."""
    if small:
        shape = rng.choice([(2, 2), (1, 4), (2, 1), (1, 3)])
    elif rng.random() < 0.75:
        shape = rng.choice(GRID_SHAPES_2D)
    else:
        shape = rng.choice(GRID_SHAPES_3D)
    n = len(shape)
    full = grid_chain(n, n, [(0, s) for s in shape], 1)
    cx, _ = arrangement_complex(full)
    if float_volumes:
        cx = rescale_volumes(cx, rng)
    return cx


def rescale_volumes(cx, rng):
    """Copy a complex with random real volumes on the positive-dim cells."""
    layout = {}
    for d in cx.dims():
        rows = []
        for cid in cx.cells(d):
            vol = cx.volume(cid) if d == 0 else float(cx.volume(cid)) * rng.uniform(0.5, 2.5)
            rows.append((cid, vol, sorted(cx.boundary_of(cid).items())))
        layout[d] = rows
    return Complex(layout)


def random_chain_on(rng, cx, dim, max_cells=5, coeff=6, nonzero=False):
    cells = cx.cells(dim)
    while True:
        picked = rng.sample(cells, min(len(cells), rng.randint(1, max_cells)))
        coeffs = {cid: rng.choice([g for g in range(-coeff, coeff + 1) if g])
                  for cid in picked}
        chain = cx.chain(dim, coeffs)
        if not (nonzero and chain.is_zero()):
            return chain


# ---------------------------------------------------------------------------
# flat norm mod p by enumeration

ORACLE_LIMIT = 10 ** 7
_CHUNK = 32768


def flat_norm_mod_p_oracle(T, p):
    """Exhaustive-enumeration flat norm mod p, for cross-checking.

    Guarded: refuses when the assignment space exceeds ORACLE_LIMIT.
    Complexes with int or Fraction volumes are enumerated in exact
    integer arithmetic, the volumes scaled by the LCM of their
    denominators; anything else falls back to float64.
    """
    if isinstance(T, ModPChain):
        if T.p != p:
            raise PreconditionError(f"chain has modulus {T.p}, requested {p}")
        base = T.lift()
    else:
        base = T
        if not isinstance(p, int) or p < 2:
            raise PreconditionError(f"invalid modulus: {p!r}")
    cx, k = base.complex, base.dim
    sigmas = sorted(cx.cells(k + 1))
    m = len(sigmas)
    if p ** m > ORACLE_LIMIT:
        raise PreconditionError("oracle too large")

    taus = set(base.coeffs)
    for sid in sigmas:
        taus.update(cx.boundary_of(sid))
    taus = sorted(taus)
    if m == 0:
        return base.mass_p(p)

    vols = [cx.volume(c) for c in sigmas] + [cx.volume(c) for c in taus]
    exact = all(isinstance(v, (int, Fraction)) for v in vols)
    scale = lcm(*(v.denominator for v in vols)) if exact else 1
    dtype = np.int64 if exact else np.float64
    cast = (lambda v: int(v * scale)) if exact else float
    vol_s = np.array([cast(cx.volume(c)) for c in sigmas], dtype=dtype)
    vol_t = np.array([cast(cx.volume(c)) for c in taus], dtype=dtype)
    t_vec = np.array([base[cid] for cid in taus], dtype=np.int64)
    incidence = np.zeros((m, len(taus)), dtype=np.int64)
    tau_index = {tid: j for j, tid in enumerate(taus)}
    for i, sid in enumerate(sigmas):
        for tid, coeff in cx.boundary_of(sid).items():
            incidence[i, tau_index[tid]] = coeff

    residue = np.array([g - p if 2 * (g % p) > p else g % p for g in range(p)],
                       dtype=np.int64)
    radix = p ** np.arange(m, dtype=np.int64)
    total = p ** m
    best = None
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = (idx[:, None] // radix) % p
        s_res = residue[digits]
        raw = t_vec[None, :] - s_res @ incidence
        mod = raw % p
        cost = (np.minimum(mod, p - mod).astype(dtype) @ vol_t
                + np.abs(s_res).astype(dtype) @ vol_s)
        chunk_best = cost.min()
        if best is None or chunk_best < best:
            best = chunk_best
    if not exact:
        return float(best)
    return int(best) if scale == 1 else Fraction(int(best), scale)


WITNESS_ORACLE_LIMIT = 10 ** 5


def lexmin_witness_oracle(T, p, fill=False):
    """Exhaustive mod-p optimum with its tie-break, for cross-checking
    the solvers' witnesses.

    Enumerates every assignment of canonical residues in (-p/2, p/2] to
    the (k+1)-cells.  The cost is mass_p(T - dS) + mass_p(S), or with
    fill=True mass_p(S) over the assignments with dS = T mod p.  Returns
    (cost, S) for the least cost and, among those, the least tuple of
    (|v|, v < 0) over the cells in id order; None when no fill exists.
    Exact volumes only; refuses more than WITNESS_ORACLE_LIMIT
    assignments.
    """
    cx, k = T.complex, T.dim
    sigmas = sorted(cx.cells(k + 1))
    m = len(sigmas)
    if p ** m > WITNESS_ORACLE_LIMIT:
        raise PreconditionError("oracle too large")
    taus = sorted(set(T.coeffs).union(*(cx.boundary_of(sid) for sid in sigmas)))
    vols = [Fraction(cx.volume(c)) for c in sigmas + taus]
    scale = lcm(*(v.denominator for v in vols))
    vols = np.array([int(v * scale) for v in vols], dtype=np.int64)
    vol_s, vol_t = vols[:m], vols[m:]
    incidence = np.array([[cx.boundary_of(sid).get(tid, 0) for tid in taus]
                          for sid in sigmas], dtype=np.int64).reshape(m, len(taus))
    t_vec = np.array([T[tid] for tid in taus], dtype=np.int64)

    residue = np.array([g - p if 2 * g > p else g for g in range(p)], dtype=np.int64)
    digits = (np.arange(p ** m, dtype=np.int64)[:, None]
              // p ** np.arange(m, dtype=np.int64)) % p
    s_res = residue[digits]
    left = (t_vec[None, :] - s_res @ incidence) % p
    cost = np.abs(s_res) @ vol_s
    if fill:
        feasible = np.flatnonzero((left == 0).all(axis=1))
        if not len(feasible):
            return None
        s_res, cost = s_res[feasible], cost[feasible]
    else:
        cost = cost + np.minimum(left, p - left) @ vol_t
    tied = s_res[cost == cost.min()]
    ranks = 2 * np.abs(tied) + (tied < 0)
    best = tied[np.lexsort(ranks.T[::-1])[0]]
    filling = cx.chain(k + 1, {sid: int(v) for sid, v in zip(sigmas, best) if v})
    return Fraction(int(cost.min()), scale), filling


# ---------------------------------------------------------------------------
# curve systems


def _mass(rng):
    return Fraction(rng.randint(1, 12), 4)


def random_curve_system(rng, p, max_groups=4, point_pool=6):
    """A curve system whose boundary is divisible by p, by construction.

    Groups: parallel bundles with congruent forward/reverse counts, sink
    fans (p copies per source), closed polygons, concatenation chains
    duplicated p times, and plain loops.
    """
    pts = [f"v{i}" for i in range(point_pool)]
    triples = []
    for _ in range(rng.randint(0, max_groups)):
        style = rng.random()
        if style < 0.12:
            v = rng.choice(pts)
            triples.append((v, v, _mass(rng)))
        elif style < 0.32:
            a, b = rng.sample(pts, 2)
            qf = rng.randint(0, 2)
            qr = qf + p * rng.randint(0, 1)
            if rng.random() < 0.5:
                qf, qr = qr, qf
            if qf == 0 and qr == 0:
                qf = qr = 1
            triples += [(a, b, _mass(rng)) for _ in range(qf)]
            triples += [(b, a, _mass(rng)) for _ in range(qr)]
        elif style < 0.62:
            sink = rng.choice(pts)
            sources = [v for v in pts if v != sink]
            for src in rng.sample(sources, rng.randint(1, 3)):
                triples += [(src, sink, _mass(rng)) for _ in range(p)]
        elif style < 0.82:
            cycle = rng.sample(pts, rng.randint(3, min(4, point_pool)))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                triples.append((a, b, _mass(rng)))
        else:
            walk = rng.sample(pts, rng.randint(3, 4))
            for _ in range(p):
                for a, b in itertools.pairwise(walk):
                    triples.append((a, b, _mass(rng)))
    rng.shuffle(triples)
    return CurveSystem.from_triples(triples)


def random_bipartite_system(rng, p, max_groups=6, point_pool=4):
    """A curve system that preprocessing leaves as it is: every item runs
    from a start point s* to an end point e*, and each point is used a
    multiple of p times, so the boundary is divisible by p and no end is
    a start."""
    groups = rng.randint(1, max_groups)
    starts = [f"s{rng.randrange(point_pool)}" for _ in range(groups)] * p
    ends = [f"e{rng.randrange(point_pool)}" for _ in range(groups)] * p
    rng.shuffle(starts)
    rng.shuffle(ends)
    return CurveSystem.from_triples([(a, b, _mass(rng)) for a, b in zip(starts, ends)])


def ref_preprocess(system):
    """Curve preprocessing by the definition: after dropping the loops,
    rescan every ordered pair for the lowest position i whose end is the
    start of some other item, then the lowest such j; merge, repeat."""
    work = [(it.start, it.end, it.mass, (it.index,)) for it in system.items]
    loops, events = [], []
    while True:
        kept = []
        for start, end, mass, src in work:
            if start == end:
                loops.append(src)
                events.append(("loop", src))
            else:
                kept.append((start, end, mass, src))
        work = kept
        pair = next(((i, j) for i in range(len(work)) for j in range(len(work))
                     if i != j and work[i][1] == work[j][0]), None)
        if pair is None:
            break
        i, j = pair
        si, ei, mi, srci = work[i]
        sj, ej, mj, srcj = work[j]
        events.append(("concat", srci, srcj))
        work[i] = (si, ej, mi + mj, srci + srcj)
        del work[j]
    items = tuple(CurveItem(pos, s, e, m) for pos, (s, e, m, _) in enumerate(work, start=1))
    trace = PreprocessTrace(tuple(src for _, _, _, src in work), tuple(loops), tuple(events))
    return CurveSystem(items), trace


# ---------------------------------------------------------------------------
# simplicial chains


def random_point(rng, n, denom=2, lo=-3, hi=3):
    return tuple(Fraction(rng.randint(lo * denom, hi * denom), denom)
                 for _ in range(n))


def random_simplex(rng, n, k, denom=2):
    while True:
        s = Simplex(tuple(random_point(rng, n, denom) for _ in range(k + 1)))
        if k == 0 or not s.degenerate:
            return s


def random_simplicial_chain(rng, n, k, max_cells=3, coeff=3):
    items = [(random_simplex(rng, n, k),
              rng.choice([g for g in range(-coeff, coeff + 1) if g]))
             for _ in range(rng.randint(1, max_cells))]
    return SimplicialChain(n, k, items)


def generic_apex(rng, T):
    """An apex whose join with every cell of T is nondegenerate."""
    for _ in range(64):
        x = random_point(rng, T.ambient_dim, denom=7, lo=-4, hi=4)
        if all(Simplex((x,) + s.vertices).degenerate is False
               for s, _ in T.items()):
            return x
    raise AssertionError("no generic apex found in 64 draws")


# ---------------------------------------------------------------------------
# literal Fraction reference of simplicial chains
#
# Vertices as Fraction tuples, squared volumes as Fraction Gram
# determinants by plain Gaussian elimination, canonical order by sorting
# the Fraction tuples.  SimplicialChain keeps integer numerators over one
# denominator and Bareiss determinants instead; these pin it to the
# arithmetic it stands for.  A reference chain is a list of
# (vertices, coefficient) pairs in canonical order.


def ref_det(rows):
    """Exact determinant of a square Fraction matrix by Gaussian elimination."""
    m = [row[:] for row in rows]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            for c in range(col, size):
                m[r][c] -= factor * m[col][c]
    return det


def ref_volume_squared(vertices):
    """det(Gram)/(k!)^2 with edge vectors from the first vertex."""
    v0 = vertices[0]
    edges = [tuple(a - b for a, b in zip(v, v0)) for v in vertices[1:]]
    if not edges:
        return Fraction(1)
    gram = [[sum(a * b for a, b in zip(u, w)) for w in edges] for u in edges]
    return ref_det(gram) / (math.factorial(len(edges)) ** 2)


def ref_simplex_volume(vertices):
    sq = ref_volume_squared(vertices)
    return math.sqrt(sq.numerator / sq.denominator)


def ref_simplicial(items):
    """Canonical reference chain of (vertices, coefficient) pairs: drop
    degenerate simplices, sort vertices folding the permutation sign into
    the coefficient, merge, drop zeros, sort."""
    merged = {}
    for vertices, g in items:
        vertices = tuple(tuple(Fraction(c) for c in v) for v in vertices)
        if len(vertices) > 1 and ref_volume_squared(vertices) == 0:
            continue
        order = sorted(range(len(vertices)), key=lambda i: vertices[i])
        sign, perm = 1, list(order)
        for i in range(len(perm)):
            while perm[i] != i:
                j = perm[i]
                perm[i], perm[j] = perm[j], perm[i]
                sign = -sign
        key = tuple(vertices[i] for i in order)
        merged[key] = merged.get(key, 0) + sign * g
    return [(key, g) for key, g in sorted(merged.items()) if g]


def ref_simplicial_mass(ref, weight=abs):
    return float(sum(weight(g) * ref_simplex_volume(v) for v, g in ref))


def ref_simplicial_boundary(ref):
    return ref_simplicial((v[:i] + v[i + 1:], g if i % 2 == 0 else -g)
                          for v, g in ref for i in range(len(v)))


def ref_cone(x, ref):
    apex = tuple(Fraction(c) for c in x)
    return ref_simplicial(((apex,) + v, g) for v, g in ref)


def ref_cone_report(x, ref, p):
    """(cone mass, cone mass mod p, radius) as cone_mass_report computes them."""
    apex = tuple(Fraction(c) for c in x)
    coned = ref_cone(x, ref)
    r_sq = max((sum((a - b) ** 2 for a, b in zip(v, apex)) for s, _ in ref for v in s),
               default=Fraction(0))
    radius = math.sqrt(r_sq.numerator / r_sq.denominator)
    return (ref_simplicial_mass(coned),
            ref_simplicial_mass(coned, lambda g: min(g % p, -g % p)), radius)


def mixed_point(rng, n):
    """A point whose coordinates have denominator 1, 2, 3 or 7, or are floats."""
    coords = []
    for _ in range(n):
        if rng.random() < 0.08:
            coords.append(rng.choice([0.1, 0.3, 1.7, -0.5]))  # counted at its binary value
        else:
            d = rng.choice([1, 2, 3, 7])
            coords.append(Fraction(rng.randint(-3 * d, 3 * d), d))
    return tuple(coords)


def mixed_simplicial_items(rng, n, k, max_cells=5):
    """(vertices, coefficient) pairs of k-simplices in R^n: mixed
    coordinates, some degenerate cells (a repeated vertex or a vertex on
    the span of the others), some cells repeated with permuted vertices."""
    items = []
    for _ in range(rng.randint(1, max_cells)):
        vertices = [mixed_point(rng, n) for _ in range(k + 1)]
        if k >= 1 and rng.random() < 0.15:
            a, b = rng.sample(vertices[:-1], 2) if k >= 2 else (vertices[0], vertices[0])
            t = Fraction(rng.randint(-2, 3), 2)
            vertices[-1] = tuple(Fraction(x) + t * (Fraction(y) - Fraction(x))
                                 for x, y in zip(a, b))
        g = rng.choice([-2, -1, 1, 2, 3])
        items.append((tuple(vertices), g))
        if rng.random() < 0.2:
            rng.shuffle(vertices)
            items.append((tuple(vertices), rng.choice([-g, g, 1])))
    return items


def span_point(rng, vertices):
    """A point in the affine span of the given vertices."""
    weights = [Fraction(rng.randint(-2, 4), 3) for _ in vertices[1:]]
    v0 = [Fraction(c) for c in vertices[0]]
    return tuple(c + sum(w * (Fraction(v[j]) - c) for w, v in zip(weights, vertices[1:]))
                 for j, c in enumerate(v0))
