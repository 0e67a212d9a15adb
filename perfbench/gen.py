"""Seeded inputs and call lists for the flatchains CLI benchmark.

Every chain file is written by the small writer below, straight from the
documented chain file format, so a change to the program's own serializer
cannot change what the benchmark feeds it.

Shapes (which cells, which coefficients) are drawn once from fixed pool
seeds, so the work in a call does not depend on the run's seed and the
pinned references stay valid.  The run's seed places each shape: it
shifts box and simplicial coordinates by whole numbers, prefixes point
and cell names, and orders the calls.  Those moves leave every answer
unchanged up to the same shift or prefix, which the checker undoes.
Shifts keep every integer coordinate at three digits, so the program's
string order of cell ids, and with it the flat-norm search order, is the
same under every seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

WORKLOADS = ("solve", "calculus", "cli-mixed")
DEFAULT_SEED = 1
_POOL_SEED = {"solve": 11, "calculus": 22, "cli-mixed": 33}

# A box cell is a tuple of (lo, hi) Fractions, one per axis.
BoxItems = list  # [(box cell, coeff)]


@dataclass(frozen=True)
class Frame:
    """How one run places a canonical shape: coordinate shift and name prefix."""

    offsets: tuple = ()
    prefix: str = ""


@dataclass
class Call:
    """One CLI invocation: `flatchains <cmd> <file> <flags> --json`."""

    name: str
    cmd: str
    text: str
    flags: list = field(default_factory=list)
    cells: int = 0
    expect: int = 0
    frame: Frame = Frame()
    carrier: str = "box"
    shape: tuple = ()  # canonical box items of a box call, for witness checks

    @property
    def file(self) -> str:
        return self.name.replace("/", "_") + ".chain"

    @property
    def modulus(self) -> Optional[int]:
        return int(self.flags[self.flags.index("--p") + 1]) if "--p" in self.flags else None

    def argv(self, path: str) -> list:
        return [self.cmd, path, *self.flags, "--json"]


# -- the writer -----------------------------------------------------------

def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def write_box(items: BoxItems, ambient: int, dim: int) -> str:
    out = ["chainfile 1 box", f"ambient {ambient}", f"dim {dim}"]
    for box, g in items:
        out.append("cell " + " ".join(f"{fmt(lo)} {fmt(hi)}" for lo, hi in box) + f" {g}")
    return "\n".join(out) + "\n"


def write_curves(curves: list, p: Optional[int] = None) -> str:
    out = ["chainfile 1 curves"]
    if p is not None:
        out.append(f"p {p}")
    out += [f"curve {i} {s} {e} {fmt(m)}" for i, (s, e, m) in enumerate(curves, 1)]
    return "\n".join(out) + "\n"


def write_simplicial(items: list, ambient: int, dim: int) -> str:
    out = ["chainfile 1 simplicial", f"ambient {ambient}", f"dim {dim}"]
    for verts, g in items:
        out.append("simplex " + " ; ".join(",".join(fmt(c) for c in v) for v in verts)
                   + f" ; {g}")
    return "\n".join(out) + "\n"


def write_abstract(cells: dict, faces: list, chain_dim: int, coeffs: list) -> str:
    """cells: {dim: [(id, vol)]}; faces: [(cell, child, sign)]; coeffs: [(id, g)]."""
    out = ["chainfile 1 abstract"]
    for d in sorted(cells):
        out.append(f"dim {d}")
        out += [f"cell {cid} {fmt(vol)}" for cid, vol in cells[d]]
    out += [f"face {c} {f} {s}" for c, f, s in faces]
    out.append(f"chain {chain_dim}")
    out += [f"coeff {cid} {g}" for cid, g in coeffs]
    return "\n".join(out) + "\n"


# -- canonical shapes -----------------------------------------------------

def _iv(lo, hi) -> tuple:
    return (Fraction(lo), Fraction(hi))


def grid_edges(n: int, scale=1) -> list:
    """Every edge of an n x n grid of cells of side `scale` with a corner at 0."""
    s = Fraction(scale)
    edges = []
    for i in range(n):
        for j in range(n + 1):
            edges.append((_iv(i * s, (i + 1) * s), _iv(j * s, j * s)))
            edges.append((_iv(j * s, j * s), _iv(i * s, (i + 1) * s)))
    return edges


def rim(n: int) -> BoxItems:
    """The boundary of the square [0, n]^2 in unit edges, counterclockwise."""
    items = []
    for t in range(n):
        items.append(((_iv(t, t + 1), _iv(0, 0)), 1))
        items.append(((_iv(t, t + 1), _iv(n, n)), -1))
        items.append(((_iv(n, n), _iv(t, t + 1)), 1))
        items.append(((_iv(0, 0), _iv(t, t + 1)), -1))
    return items


def square_boundary(x, y) -> BoxItems:
    """The boundary of the unit square with lower corner (x, y), counterclockwise."""
    return [((_iv(x, x + 1), _iv(y, y)), 1), ((_iv(x + 1, x + 1), _iv(y, y + 1)), 1),
            ((_iv(x, x + 1), _iv(y + 1, y + 1)), -1), ((_iv(x, x), _iv(y, y + 1)), -1)]


def merge(items: BoxItems) -> BoxItems:
    """Sum coefficients of equal boxes and drop zeros, in sorted box order."""
    acc: dict = {}
    for box, g in items:
        acc[box] = acc.get(box, 0) + g
    return sorted((b, g) for b, g in acc.items() if g)


def axis_values(items: BoxItems, axis: int) -> list:
    return sorted({v for box, _ in items for v in box[axis]})


def random_grid_chain(rng: random.Random, n: int, density: float,
                      coeffs=(1, -1, 2, -2)) -> BoxItems:
    """Random coefficients on the edges of the n x n unit grid, spanning it."""
    while True:
        items = [(e, rng.choice(coeffs)) for e in grid_edges(n) if rng.random() < density]
        if all(axis_values(items, a) == list(range(n + 1)) for a in (0, 1)):
            return items


def random_fine_chain(rng: random.Random, n: int, scale, density: float) -> BoxItems:
    """Random +-1/+-2 coefficients on the edges of a fine grid over [0, n]^2."""
    m = int(n / Fraction(scale))
    return [(e, rng.choice((1, -1, 2, -2))) for e in grid_edges(m, scale)
            if rng.random() < density]


def random_faces_3d(rng: random.Random, n: int, scale, density: float) -> BoxItems:
    """Random +-1/+-2 coefficients on the 2-faces of a fine grid over [0, n]^3."""
    s = Fraction(scale)
    m = int(n / s)
    items = []
    for normal in range(3):
        for idx in itertools.product(range(m + 1), range(m), range(m)):
            if rng.random() >= density:
                continue
            box = []
            k = 1
            for axis in range(3):
                if axis == normal:
                    box.append(_iv(idx[0] * s, idx[0] * s))
                else:
                    box.append(_iv(idx[k] * s, (idx[k] + 1) * s))
                    k += 1
            items.append((tuple(box), rng.choice((1, -1, 2, -2))))
    return items


def random_mod_p_cycle(rng: random.Random, n: int, squares: int, p: int,
                       extra: int) -> BoxItems:
    """Boundaries of random unit squares plus p times random edges: a cycle mod p."""
    items = []
    for _ in range(squares):
        c = rng.choice((1, -1, 2))
        items += [(b, g * c) for b, g in square_boundary(rng.randrange(n), rng.randrange(n))]
    edges = grid_edges(n)
    items += [(rng.choice(edges), p * rng.choice((1, -1))) for _ in range(extra)]
    return merge(items)


def random_curves(rng: random.Random, points: int, loops: int, p: int, multis: int) -> list:
    """Closed walks plus p-fold repeated curves: a system whose boundary p divides."""
    names = [f"v{i:03d}" for i in range(points)]
    curves = []
    for _ in range(loops):
        walk = rng.sample(names, rng.randint(2, 6))
        for a, b in zip(walk, walk[1:] + walk[:1]):
            curves.append((a, b, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
    for _ in range(multis):
        a, b = rng.sample(names, 2)
        curves += [(a, b, Fraction(rng.randint(1, 9), rng.randint(1, 4)))] * p
    rng.shuffle(curves)
    return curves


def random_triangles(rng: random.Random, count: int, span: int) -> list:
    """Random non-degenerate triangles in R^3 with small integer vertices."""
    tris = []
    while len(tris) < count:
        verts = [tuple(rng.randint(0, span) for _ in range(3)) for _ in range(3)]
        u = [b - a for a, b in zip(verts[0], verts[1])]
        v = [b - a for a, b in zip(verts[0], verts[2])]
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if any(cross):
            tris.append((tuple(verts), rng.choice((1, -1, 2))))
    return tris


def grid_complex(n: int, prefix: str, chain: list) -> str:
    """An abstract n x n grid complex with unit volumes and a given 1-chain."""
    def v(i, j):
        return f"{prefix}p{i:02d}{j:02d}"
    cells = {0: [], 1: [], 2: []}
    faces = []
    for i in range(n + 1):
        for j in range(n + 1):
            cells[0].append((v(i, j), 1))
            if i < n:
                cid = f"{prefix}h{i:02d}{j:02d}"
                cells[1].append((cid, 1))
                faces += [(cid, v(i, j), -1), (cid, v(i + 1, j), 1)]
            if j < n:
                cid = f"{prefix}w{i:02d}{j:02d}"
                cells[1].append((cid, 1))
                faces += [(cid, v(i, j), -1), (cid, v(i, j + 1), 1)]
            if i < n and j < n:
                cid = f"{prefix}f{i:02d}{j:02d}"
                cells[2].append((cid, 1))
                faces += [(cid, f"{prefix}h{i:02d}{j:02d}", 1),
                          (cid, f"{prefix}w{i + 1:02d}{j:02d}", 1),
                          (cid, f"{prefix}h{i:02d}{j + 1:02d}", -1),
                          (cid, f"{prefix}w{i:02d}{j:02d}", -1)]
    return write_abstract(cells, faces, 1, [(f"{prefix}{cid}", g) for cid, g in chain])


# -- placing shapes under a run's seed ------------------------------------

def shift_box(items: BoxItems, offsets) -> BoxItems:
    return [(tuple((lo + o, hi + o) for (lo, hi), o in zip(box, offsets)), g)
            for box, g in items]


def shift_point(pt, offsets) -> tuple:
    return tuple(Fraction(c) + o for c, o in zip(pt, offsets))


def _offsets(rng: random.Random, ambient: int) -> tuple:
    # Three-digit integer coordinates for any shape within [0, 40]; the
    # upper end also keeps 2x (refined lattices) at three digits.
    return tuple(rng.randrange(100, 360) for _ in range(ambient))


def _prefix(rng: random.Random) -> str:
    # No key or fixed string of a report starts with "q", so only names carry it.
    return "q" + "".join(rng.choice("klmn") for _ in range(2))


class _CallList:
    """Collects the calls of one workload, placing each shape as it goes."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.place = random.Random(f"{workload}:{seed}")
        self.calls: list[Call] = []

    def _add(self, call: Call) -> None:
        call.name = f"{self.workload}/{call.name}"
        self.calls.append(call)

    def box(self, name, cmd, items, ambient, dim, flags=(), levels=None):
        """A box-file call; `levels` maps an axis to a canonical --r value."""
        offsets = _offsets(self.place, ambient)
        flags = list(flags)
        if levels is not None:
            axes, values = levels
            flags += ["--axis", ",".join(map(str, axes)),
                      "--r", ",".join(fmt(Fraction(v) + offsets[a])
                                      for a, v in zip(axes, values))]
        self._add(Call(name, cmd, write_box(shift_box(items, offsets), ambient, dim), flags,
                       len(items), 0, Frame(offsets=offsets), "box", tuple(items)))

    def curves(self, name, cmd, curves, p=None):
        prefix = _prefix(self.place)
        placed = [(prefix + a, prefix + b, m) for a, b, m in curves]
        self._add(Call(name, cmd, write_curves(placed, p), [], len(curves),
                       frame=Frame(prefix=prefix), carrier="curves"))

    def simplicial(self, name, cmd, tris, flags=(), apex=None):
        offsets = _offsets(self.place, 3)
        placed = [(tuple(shift_point(v, offsets) for v in verts), g) for verts, g in tris]
        flags = list(flags)
        if apex is not None:
            flags += ["--apex", ",".join(fmt(c) for c in shift_point(apex, offsets))]
        dim = len(tris[0][0]) - 1
        self._add(Call(name, cmd, write_simplicial(placed, 3, dim), flags,
                       len(tris), frame=Frame(offsets=offsets), carrier="simplicial"))

    def abstract(self, name, cmd, n, chain, flags=()):
        prefix = _prefix(self.place)
        self._add(Call(name, cmd, grid_complex(n, prefix, chain), list(flags),
                       len(chain), 0, Frame(prefix=prefix), "abstract"))

    def raw(self, name, cmd, text, flags=(), expect=0):
        """A call whose file does not move with the seed (bad inputs)."""
        self._add(Call(name, cmd, text, list(flags), 0, expect, Frame(), "raw"))


# -- workloads ------------------------------------------------------------

def _solve(b: _CallList, pool: random.Random) -> None:
    for n, p in ((4, 3), (5, 2)):
        b.box(f"rim{n}-p{p}-flatnormp", "flatnormp", rim(n), 2, 1, ["--p", str(p)])
    for n, p in ((6, 2), (7, 3), (5, 5)):
        b.box(f"rim{n}-p{p}-fill", "fill", rim(n), 2, 1, ["--p", str(p)])
    b.box("rim4-p3-isoratio", "isoratio", rim(4), 2, 1, ["--p", "3"])
    for i in range(3):
        shape = random_grid_chain(pool, 3, 0.7)
        b.box(f"grid3-{i}-p5-flatnormp", "flatnormp", shape, 2, 1, ["--p", "5"])
        b.box(f"grid3-{i}-flatnorm", "flatnorm", shape, 2, 1)
    # 4 x 4 integral searches grow fast with the cell count: take a draw of at most 20.
    shape = random_grid_chain(pool, 4, 0.5, coeffs=(1, -1))
    while len(shape) > 20:
        shape = random_grid_chain(pool, 4, 0.5, coeffs=(1, -1))
    b.box("grid4-p2-flatnormp", "flatnormp", shape, 2, 1, ["--p", "2"])
    b.box("grid4-flatnorm", "flatnorm", shape, 2, 1)
    shape = random_grid_chain(pool, 2, 0.6)
    b.box("refine2", "refinecompare", shape, 2, 1, ["--p", "2", "--subdiv", "2"])


def _calculus(b: _CallList, pool: random.Random) -> None:
    third = Fraction(1, 3)
    # Slices, restrictions, boundaries and reductions are near the CLI floor
    # and make up most calls, so the median call is one of them and the heavy
    # slice-mass and deformation calls set wall_s and the tail.
    for n, density, full in ((5, 0.35, False), (6, 0.3, True)):
        shape = merge(random_fine_chain(pool, n, third, density))
        tag = f"fine{len(shape)}"
        mid = Fraction(n, 2) + Fraction(1, 12)  # off the 1/3 lattice
        b.box(f"{tag}-slicestar", "slicestar", shape, 2, 1, ["--p", "3"])
        b.box(f"{tag}-deform", "deform", shape, 2, 1, ["--eta", "1"])
        b.box(f"{tag}-slice", "slice", shape, 2, 1, levels=((1 if full else 0,), (mid,)))
        b.box(f"{tag}-restrict", "restrict", shape, 2, 1, ["--side", "above"],
              levels=((0,), (mid,)))
        b.box(f"{tag}-boundary", "boundary", shape, 2, 1)
        b.box(f"{tag}-reduce", "reduce", shape, 2, 1, ["--p", "3"])
        if full:
            b.box(f"{tag}-deform-opt", "deform", shape, 2, 1, ["--eta", "1", "--optimize"])
        else:
            b.box(f"{tag}-slicemass", "slicemass", shape, 2, 1, ["--p", "2", "--axis", "1"])
            b.box(f"{tag}-islice", "islice", shape, 2, 1, levels=((1,), (mid,)))
    shape = merge(random_faces_3d(pool, 2, Fraction(1, 2), 0.4))
    tag = f"faces{len(shape)}"
    b.box(f"{tag}-slicestar", "slicestar", shape, 3, 2, ["--p", "2"])
    b.box(f"{tag}-deform", "deform", shape, 3, 2, ["--eta", "1"])
    b.box(f"{tag}-islice", "islice", shape, 3, 2, levels=((0, 2), (Fraction(3, 4), Fraction(5, 4))))
    b.box(f"{tag}-slice", "slice", shape, 3, 2, levels=((1,), (Fraction(3, 4),)))


def _cli_mixed(b: _CallList, pool: random.Random) -> None:
    small = random_grid_chain(pool, 2, 0.7)
    rim2, rim3 = rim(2), rim(3)
    plate = [((_iv(0, 1), _iv(0, 1)), 1), ((_iv(1, 2), _iv(0, 1)), -1),
             ((_iv(0, 2), _iv(1, 2)), 2)]
    fine = merge(random_fine_chain(pool, 2, Fraction(1, 2), 0.5))
    b.box("validate-box", "validate", fine, 2, 1)
    b.box("mass-box", "mass", fine, 2, 1)
    b.box("massp-box", "massp", fine, 2, 1, ["--p", "3"])
    b.box("reduce-box", "reduce", fine, 2, 1, ["--p", "2"])
    b.box("boundary-box", "boundary", fine, 2, 1)
    b.box("flatnorm-small", "flatnorm", small, 2, 1)
    b.box("flatnormp-rim3", "flatnormp", rim3, 2, 1, ["--p", "2"])
    b.box("fill-rim2", "fill", rim2, 2, 1, ["--p", "3"])
    b.box("isoratio-rim2", "isoratio", rim2, 2, 1, ["--p", "2"])
    b.box("restrict-plate", "restrict", plate, 2, 2, levels=((0,), (Fraction(1, 2),)))
    b.box("slice-plate", "slice", plate, 2, 2, levels=((1,), (Fraction(3, 2),)))
    b.box("islice-plate", "islice", plate, 2, 2,
          levels=((0, 1), (Fraction(1, 2), Fraction(3, 2))))
    b.box("slicemass-fine", "slicemass", fine, 2, 1, ["--p", "2", "--axis", "0"])
    b.box("slicestar-fine", "slicestar", fine, 2, 1, ["--p", "2"])
    b.box("deform-fine", "deform", fine, 2, 1, ["--eta", "1"])
    b.box("refinecompare-rim2", "refinecompare", rim2, 2, 1, ["--p", "2", "--subdiv", "2"])
    for name, size, loops, multis, bdry in (("curves200", 40, 40, 12, "sysboundary"),
                                            ("curves500", 90, 100, 30, "boundary")):
        system = random_curves(pool, size, loops, 3, multis)
        tag = f"{name}-{len(system)}"
        b.curves(f"{tag}-{bdry}", bdry, system)
        b.curves(f"{tag}-preprocess", "preprocess", system)
        b.curves(f"{tag}-cyclecut", "cyclecut", system, p=3)
    for n, squares, extra in ((8, 30, 10), (14, 90, 30)):
        cycle = random_mod_p_cycle(pool, n, squares, 3, extra)
        tag = f"cycle{len(cycle)}"
        b.box(f"{tag}-decompose", "decompose", cycle, 2, 1)
        b.box(f"{tag}-cyclerep", "cyclerep", cycle, 2, 1, ["--p", "3"])
    apex = (Fraction(1, 3), Fraction(2, 7), Fraction(31, 5))
    for count in (50, 200):
        tris = random_triangles(pool, count, 6)
        b.simplicial(f"tri{count}-cone", "cone", tris, apex=apex)
        b.simplicial(f"tri{count}-conereport", "conereport", tris, ["--p", "3"], apex=apex)
    chain = [(f"h{i:02d}{j:02d}", pool.choice((1, -1, 2))) for i in range(5) for j in range(6)
             if pool.random() < 0.5]
    b.abstract("abstract-validate", "validate", 5, chain)
    b.abstract("abstract-massp", "massp", 5, chain, ["--p", "2"])
    b.abstract("abstract-boundary", "boundary", 5, chain)
    b.raw("bad-header", "mass", "chainfile 2 box\ncell 0 1 0 0 1\n", expect=2)
    b.raw("bad-level", "slice", write_box(rim2, 2, 1), ["--axis", "0", "--r", "1"],
          expect=2)


def known_defects(seed: int) -> list[Call]:
    """Inputs the program is known to fail on; run apart from the timed passes."""
    b = _CallList("defect", seed)
    b.abstract("grid32-single-edge", "flatnormp", 32, [("h1616", 1)], ["--p", "2"])
    pool = random.Random(44)
    segments = merge([((_iv(x, x + 1), _iv(y, y)), 1) for x, y in
                      ((pool.randrange(12), pool.randrange(12)) for _ in range(41))])
    b.box(f"segments{len(segments)}", "flatnormp", segments, 2, 1, ["--p", "2"])
    return b.calls


_WORKLOADS = {"solve": _solve, "calculus": _calculus, "cli-mixed": _cli_mixed}


def build(workload: str, seed: int) -> list[Call]:
    """The workload's calls for one seed, in the order the passes run them.

    Every workload has an odd number of calls, so the median call of a pass
    is one call rather than the midpoint between two calls of unlike cost.
    """
    b = _CallList(workload, seed)
    _WORKLOADS[workload](b, random.Random(_POOL_SEED[workload]))
    b.place.shuffle(b.calls)
    return b.calls
