"""Curve systems: preprocessing, cycle extraction, path decomposition."""

import itertools
import time
from fractions import Fraction
from pathlib import Path

import pytest

import flatchains.curves as curves
from flatchains import (
    Complex,
    CurveItem,
    CurveSystem,
    InternalDefectError,
    PreconditionError,
    arrangement_complex,
    cycle_representative,
    decompose_paths_loops,
    extract_cycle_indices,
    grid_chain,
    load_chainfile,
    preprocess,
    system_boundary,
)
from genutil import (random_bipartite_system, random_chain_on, random_curve_system,
                     random_grid_complex, ref_decompose_paths_loops, ref_preprocess,
                     unit_grid_complex)


def triples(*rows):
    return CurveSystem.from_triples([(s, e, m) for s, e, m in rows])


# ---------------------------------------------------------------------------
# construction and boundary

def test_system_boundary_pinned():
    assert system_boundary(triples(("a", "b", 1))) == {"a": -1, "b": 1}
    assert system_boundary(triples(("a", "b", 1), ("b", "a", 2))) == {}
    three = triples(("a", "b", 1), ("a", "b", 1), ("a", "b", 1))
    assert system_boundary(three) == {"a": -3, "b": 3}


def test_item_and_system_validation():
    with pytest.raises(PreconditionError, match="consecutive"):
        CurveSystem((CurveItem(2, "a", "b", 1),))
    with pytest.raises(PreconditionError, match="negative mass"):
        CurveItem(1, "a", "b", -1)
    with pytest.raises(PreconditionError, match="positive integer"):
        CurveItem(0, "a", "b", 1)


# ---------------------------------------------------------------------------
# preprocessing

def test_preprocess_concatenates_chains():
    reduced, trace = preprocess(triples(("a", "b", Fraction(1, 2)),
                                        ("b", "c", Fraction(3, 2))))
    assert len(reduced) == 1
    item = reduced.items[0]
    assert (item.start, item.end, item.mass) == ("a", "c", 2)
    assert trace.sources == ((1, 2),)
    assert trace.loops == ()


def test_preprocess_drops_loops():
    reduced, trace = preprocess(triples(("a", "a", 1)))
    assert len(reduced) == 0
    assert trace.loops == ((1,),)
    assert trace.events == (("loop", (1,)),)


def test_preprocess_drops_loops_formed_by_concatenation():
    reduced, trace = preprocess(triples(("a", "b", 1), ("b", "a", 1)))
    assert len(reduced) == 0
    assert trace.loops == ((1, 2),)


def test_preprocess_keeps_disconnected_items():
    reduced, trace = preprocess(triples(("a", "b", 1), ("c", "d", 1)))
    assert len(reduced) == 2
    assert trace.sources == ((1,), (2,))
    ends = {it.end for it in reduced.items}
    starts = {it.start for it in reduced.items}
    assert not ends & starts


def random_walks(rng, items, points):
    """Shuffled items of random walks over a point pool: long concatenation
    chains that close into loops or stay open."""
    pts = [f"q{i}" for i in range(points)]
    triples = []
    while len(triples) < items:
        walk = [rng.choice(pts) for _ in range(rng.randint(2, 12))]
        triples += [(a, b, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                    for a, b in itertools.pairwise(walk)]
    rng.shuffle(triples)
    return CurveSystem.from_triples(triples[:items])


def test_preprocess_matches_the_rescan_reference(rng):
    concat_loops = 0
    for draw in range(240):
        if draw % 3:
            system = random_curve_system(rng, rng.choice([2, 3, 5]), max_groups=8)
        else:
            system = random_walks(rng, rng.randint(1, 40), rng.randint(2, 12))
        reduced, trace = preprocess(system)
        ref_reduced, ref_trace = ref_preprocess(system)
        assert reduced == ref_reduced
        assert (trace.sources, trace.loops, trace.events) == (
            ref_trace.sources, ref_trace.loops, ref_trace.events)
        concat_loops += sum(len(src) > 1 for src in trace.loops)
    assert concat_loops >= 50


def test_preprocess_scales_to_thousands_of_items(rng):
    # over 2,000 merges: one forward scan takes milliseconds, a rescan of
    # every pair after each merge tens of seconds
    system = random_walks(rng, 4000, 1500)
    start = time.perf_counter()
    reduced, trace = preprocess(system)
    assert time.perf_counter() - start < 2
    assert len(trace.events) > 2000
    assert sorted(i for src in trace.sources + trace.loops for i in src) == list(range(1, 4001))


# ---------------------------------------------------------------------------
# cycle extraction

def weighted_boundary(system, chosen, p):
    out = {}
    for item in system.items:
        w = 1 - p if item.index in chosen else 1
        out[item.end] = out.get(item.end, 0) + w
        out[item.start] = out.get(item.start, 0) - w
    return {pt: g for pt, g in out.items() if g}


def test_extract_pinned_examples():
    pair = triples(("a", "b", 1), ("a", "b", 1))
    assert extract_cycle_indices(pair, 2) == [1]
    assert weighted_boundary(pair, {1}, 2) == {}

    triple = triples(("a", "b", 1), ("a", "b", 1), ("a", "b", 1))
    assert extract_cycle_indices(triple, 3) == [1]
    assert weighted_boundary(triple, {1}, 3) == {}

    assert extract_cycle_indices(triples(), 2) == []


def test_extract_rejects_indivisible_boundary():
    with pytest.raises(PreconditionError, match="boundary not divisible by 2 at point 'a'"):
        extract_cycle_indices(triples(("a", "b", 1)), 2)
    with pytest.raises(PreconditionError, match="invalid modulus"):
        extract_cycle_indices(triples(), 1)


def test_long_merge_branch_fires(monkeypatch):
    # both reduction branches must run: these systems leave only
    # multi-entry open pieces after the single-entry merges
    calls = []
    orig = curves._merge_step_long
    monkeypatch.setattr(curves, "_merge_step_long",
                        lambda *a: calls.append(1) or orig(*a))
    hexagon = triples(("a", "x", 1), ("a", "z", 1), ("b", "y", 1),
                      ("b", "z", 1), ("c", "x", 1), ("c", "y", 1))
    assert extract_cycle_indices(hexagon, 2) == [2, 3, 5]
    assert calls

    calls.clear()
    nine = triples(("a", "x", 1), ("a", "x", 1), ("a", "z", 1),
                   ("b", "y", 1), ("b", "z", 1), ("b", "z", 1),
                   ("c", "x", 1), ("c", "y", 1), ("c", "y", 1))
    assert extract_cycle_indices(nine, 3) == [3, 4, 7]
    assert calls


def test_an_open_piece_outside_the_partners_can_hold_beta(monkeypatch):
    # a long step fragments every piece holding beta; in this system one
    # such piece is open and neither the shortest piece nor a partner
    hosted = []
    orig = curves._merge_step_long

    def spy(pieces, first, partners):
        beta = pieces[first][-2]
        hosted.append(any(curves._is_open(piece) and beta in piece
                          for k, piece in enumerate(pieces)
                          if k != first and k not in partners))
        return orig(pieces, first, partners)

    monkeypatch.setattr(curves, "_merge_step_long", spy)
    system = load_chainfile(Path(__file__).parent / "fixtures" / "curves_open_host.chain").payload
    assert preprocess(system)[0] == system  # no end is a start: nothing merges
    chosen = extract_cycle_indices(system, 3)
    assert chosen == [2, 3, 7, 12, 14]
    assert weighted_boundary(system, set(chosen), 3) == {}
    assert any(hosted)


def test_extract_on_bipartite_systems(rng):
    # preprocessing leaves these as drawn, so every item enters the
    # reduction; its own checks are the oracle
    for _ in range(320):
        p = rng.randint(2, 7)
        system = random_bipartite_system(rng, p, max_groups=rng.randint(1, 10),
                                         point_pool=rng.randint(1, 5))
        chosen = extract_cycle_indices(system, p)
        assert weighted_boundary(system, set(chosen), p) == {}


def test_extract_on_random_systems(rng):
    for _ in range(24):
        p = rng.choice([2, 3, 5])
        system = random_curve_system(rng, p)
        chosen = extract_cycle_indices(system, p)
        assert weighted_boundary(system, set(chosen), p) == {}
        total = sum(it.mass for it in system.items)
        combo = sum(((p - 1) if it.index in set(chosen) else 1) * it.mass
                    for it in system.items)
        assert combo <= (p - 1) * total
        assert extract_cycle_indices(system, p) == chosen


# ---------------------------------------------------------------------------
# the reduction's invariant checker

def ends_of(*pairs):
    """starts and ends by 1-based index for items given as (start, end)."""
    return ({i: s for i, (s, _) in enumerate(pairs, start=1)},
            {i: e for i, (_, e) in enumerate(pairs, start=1)})


CHECKER_REFUSALS = [
    ("empty", [()], [], 2, "empty piece in decomposition"),
    ("even-odd", [(1, 2)], [("a", "x"), ("b", "y")], 2,
     "even-odd entries 1,2 do not share an end"),
    ("odd-even", [(1, 2, 3)], [("a", "x"), ("b", "x"), ("c", "y")], 3,
     "odd-even entries 2,3 do not share a start"),
    ("unclosed", [(1, 2)], [("a", "x"), ("b", "x")], 2, "odd-length piece fails to close"),
    # the three entries telescope to [a] - [a]: an open piece with no boundary
    ("open-closing", [(1, 2, 3)], [("a", "x"), ("b", "x"), ("b", "a")], 3,
     "open piece has the wrong boundary"),
    ("count", [(1,), (1,), (2,)], [("a", "x"), ("c", "y")], 2,
     "index 1 occurs 2 times even, 0 times odd"),
]


@pytest.mark.parametrize("pieces,pairs,p,message",
                         [case[1:] for case in CHECKER_REFUSALS],
                         ids=[case[0] for case in CHECKER_REFUSALS])
def test_the_checker_refuses_a_broken_decomposition(pieces, pairs, p, message):
    starts, ends = ends_of(*pairs)
    with pytest.raises(InternalDefectError, match=message):
        curves._check_decomposition(pieces, len(pairs), p, starts, ends)


def piece_boundary(piece, starts, ends):
    """A piece's boundary, summed entry by entry with signs (-1)^m."""
    out = {}
    for m, idx in enumerate(piece):
        sign = 1 if m % 2 == 0 else -1
        out[ends[idx]] = out.get(ends[idx], 0) + sign
        out[starts[idx]] = out.get(starts[idx], 0) - sign
    return {pt: g for pt, g in out.items() if g}


def test_every_checked_piece_has_its_telescoped_boundary(rng, monkeypatch):
    # the checker compares two points per piece; re-summed, every open
    # piece it passes bounds [end of last] - [start of first] and every
    # closed piece bounds nothing
    check = curves._check_decomposition
    seen = []

    def spy(pieces, n, p, starts, ends):
        check(pieces, n, p, starts, ends)
        for piece in pieces:
            want = ({ends[piece[-1]]: 1, starts[piece[0]]: -1} if curves._is_open(piece)
                    else {})
            assert piece_boundary(piece, starts, ends) == want, piece
            seen.append(len(piece))

    monkeypatch.setattr(curves, "_check_decomposition", spy)
    for _ in range(240):
        p = rng.choice([2, 3, 5])
        extract_cycle_indices(random_curve_system(rng, p), p)
    assert any(size > 1 and size % 2 for size in seen)  # long open pieces were seen


# ---------------------------------------------------------------------------
# path/loop decomposition of 1-chains

def figure_eight():
    cx = Complex({
        0: [("A", 1, []), ("B", 1, []), ("C", 1, [])],
        1: [("e1", 1, [("B", -1), ("A", 1)]),
            ("e2", 1, [("A", -1), ("B", 1)]),
            ("e3", 1, [("B", -1), ("C", 1)]),
            ("e4", 1, [("C", -1), ("B", 1)])],
    })
    return cx, cx.chain(1, {"e1": 1, "e2": 1, "e3": 1, "e4": 1})


def test_decompose_square_boundary():
    sq = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    cx, t2 = arrangement_complex(sq)
    paths = decompose_paths_loops(t2.boundary())
    assert len(paths) == 1
    (loop,) = paths
    assert loop.closed and len(loop.edges) == 4 and loop.mass == 4
    assert loop.chain(cx) == t2.boundary()


def test_decompose_doubled_edge():
    sq = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    cx, _ = arrangement_complex(sq)
    t = cx.chain(1, {"b1[0..1;0]": 2})
    paths = decompose_paths_loops(t)
    assert len(paths) == 2
    assert all(not path.closed and path.mass == 1 for path in paths)
    assert paths[0].vertices == paths[1].vertices == ("b0[0;0]", "b0[1;0]")


def test_decompose_figure_eight():
    cx, t = figure_eight()
    paths = decompose_paths_loops(t)
    assert [path.closed for path in paths] == [True, True]
    assert {path.vertices for path in paths} == {("A", "B", "A"), ("B", "C", "B")}
    assert sum((path.chain(cx) for path in paths), cx.zero_chain(1)) == t


def test_decompose_preconditions():
    cx, t = figure_eight()
    with pytest.raises(PreconditionError, match="1-chains"):
        decompose_paths_loops(cx.chain(0, {"A": 1}))


def test_decompose_random_properties(rng):
    for _ in range(25):
        cx = random_grid_complex(rng, small=True)
        t = random_chain_on(rng, cx, 1, coeff=3)
        paths = decompose_paths_loops(t)
        assert sum((path.chain(cx) for path in paths),
                   cx.zero_chain(1)) == t
        assert sum(path.mass for path in paths) == t.mass()
        opens = sum(1 for path in paths if not path.closed)
        assert 2 * opens == t.boundary().mass()
        for path in paths:
            inner = path.vertices[:-1] if path.closed else path.vertices
            assert len(set(inner)) == len(inner)


# ---------------------------------------------------------------------------
# mod-p cycle representatives

def reference_representative(t, p):
    """The lift of t mod p less p times the paths extract_cycle_indices
    chooses, one path at a time, from the reference decomposition."""
    cx = t.complex
    lifted = t.reduce_mod_p(p).lift()
    paths = ref_decompose_paths_loops(lifted)
    system = CurveSystem(tuple(
        CurveItem(i, path.vertices[0], path.vertices[-1], path.mass)
        for i, path in enumerate(paths, start=1)))
    for i in extract_cycle_indices(system, p):
        lifted = lifted - p * paths[i - 1].chain(cx)
    return lifted


def test_decompose_and_representative_match_the_reference(rng):
    # 1-chains on unit grids up to 6x6 and on random box grids, and every
    # other draw a cycle mod p, p r + ds, whose representative is checked too
    grids = [unit_grid_complex(n) for n in range(1, 7)]
    for k in range(330):
        cx = rng.choice(grids) if k % 3 == 0 else random_grid_complex(rng, small=k % 3 == 1)
        t = random_chain_on(rng, cx, 1, max_cells=rng.randint(1, 40), coeff=4)
        assert decompose_paths_loops(t) == ref_decompose_paths_loops(t)
        if k % 2:
            p = rng.choice([2, 3, 5])
            r = random_chain_on(rng, cx, 1, max_cells=rng.randint(1, 20), coeff=3)
            s = random_chain_on(rng, cx, 2, max_cells=rng.randint(1, 12), coeff=3)
            cycle = p * r + s.boundary()
            assert decompose_paths_loops(cycle) == ref_decompose_paths_loops(cycle)
            assert cycle_representative(cycle, p) == reference_representative(cycle, p)


def test_cycle_representative_of_a_grid_cycle_matches_the_reference(rng):
    n = 30
    cx = unit_grid_complex(n)
    squares = {f"f{i}_{j}": rng.randint(-3, 3) for i in range(n) for j in range(n)}
    t = cx.chain(2, squares).boundary()
    assert decompose_paths_loops(t) == ref_decompose_paths_loops(t)
    for p in (2, 3):
        assert cycle_representative(t, p) == reference_representative(t, p)


def test_cycle_representative_pinned():
    sq = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    cx, t2 = arrangement_complex(sq)
    # two corner-to-corner unit paths: congruent to a cycle mod 2
    t = cx.chain(1, {"b1[0..1;0]": 1, "b1[1;0..1]": 1,
                     "b1[0;0..1]": 1, "b1[0..1;1]": 1})
    rep = cycle_representative(t, 2)
    assert rep == -t2.boundary()
    assert rep.boundary().is_zero()
    assert (rep - t).reduce_mod_p(2).is_zero()
    assert rep.mass() <= (2 - 1) * t.mass_p(2)


def test_cycle_representative_of_multiples_is_zero():
    sq = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    cx, _ = arrangement_complex(sq)
    t = cx.chain(1, {"b1[0..1;0]": 2})
    assert cycle_representative(t, 2).is_zero()


def test_cycle_representative_preconditions():
    sq = grid_chain(2, 2, [(0, 1), (0, 1)], 1)
    cx, t2 = arrangement_complex(sq)
    lone = cx.chain(1, {"b1[0..1;0]": 1})
    with pytest.raises(PreconditionError, match="boundary not divisible by 2"):
        cycle_representative(lone, 2)
    with pytest.raises(PreconditionError, match="1-chains"):
        cycle_representative(t2, 2)
    with pytest.raises(PreconditionError, match="invalid modulus"):
        cycle_representative(t2.boundary(), 0)


def test_cycle_representative_random(rng):
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        cx = random_grid_complex(rng, small=True)
        r = random_chain_on(rng, cx, 1, coeff=2)
        s = random_chain_on(rng, cx, 2, coeff=2)
        t = p * r + s.boundary()
        rep = cycle_representative(t, p)
        assert rep.boundary().is_zero()
        assert (rep - t).reduce_mod_p(p).is_zero()
        assert rep.mass() <= (p - 1) * t.mass_p(p)
        assert cycle_representative(t, p) == rep
