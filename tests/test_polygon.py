"""Dissections: validation, faces, the p-angulation test, quiddity, rotation, enumeration.

Face extraction and enumeration are cross-checked against the independent
planar-walk / brute-force implementations in oracle.py.
"""

import gc
import json
import random
import sys
import time
import tracemalloc

import pytest

from friezes import (
    CrossingDiagonalError,
    DegenerateDiagonalError,
    Dissection,
    InvalidDissectionError,
    VertexRangeError,
    crosses,
    enumerate_p_angulations,
    faces,
    fuss_catalan,
    is_p_angulation,
    quiddity_counts,
    rotate,
)

from friezes.polygon import _canonical_parent, _crossing, _ear_counts, _listing, _p_angulation_walk
from friezes.polygon import _glued as glued_counts  # `_glued` below glues seeded p-angulations
from oracle import brute_force_p_angulations, face_walk_faces, noncrossing_subsets


# ---------------------------------------------------------------------------
# construction


def test_crosses():
    assert crosses((1, 4), (2, 6))
    assert crosses((2, 6), (1, 4))
    assert not crosses((1, 4), (4, 9))  # shared endpoint
    assert not crosses((1, 4), (5, 8))  # disjoint
    assert not crosses((1, 8), (2, 5))  # nested


def test_valid_construction(quad10):
    assert quad10.n == 10
    assert quad10.diagonals_sorted == ((1, 4), (4, 9), (5, 8))


def test_pairs_normalize_and_dedupe():
    d = Dissection(10, [(4, 1), (1, 4), (9, 4)])
    assert d.diagonals_sorted == ((1, 4), (4, 9))
    assert d == Dissection(10, [(1, 4), (4, 9)])
    assert hash(d) == hash(Dissection(10, [(4, 9), (1, 4)]))
    # a foreign operand gets NotImplemented, so equality with it is False
    assert d.__eq__(d.to_json()) is NotImplemented
    assert (d == d.to_json()) is False and (d != "a") is True


def test_empty_dissection_is_fine():
    assert Dissection(4).diagonals == frozenset()


def test_rejections():
    with pytest.raises(CrossingDiagonalError):
        Dissection(10, [(1, 4), (2, 6)])
    with pytest.raises(VertexRangeError):
        Dissection(10, [(1, 10)])
    with pytest.raises(VertexRangeError):
        Dissection(10, [(True, 3)])  # bools are not vertex labels
    with pytest.raises(DegenerateDiagonalError):
        Dissection(10, [(3, 3)])
    with pytest.raises(DegenerateDiagonalError):
        Dissection(10, [(3, 4)])
    with pytest.raises(DegenerateDiagonalError):
        Dissection(10, [(0, 9)])  # wraps around: adjacent
    with pytest.raises(InvalidDissectionError):
        Dissection(2)
    # a polygon size is an int: neither a float nor a bool
    with pytest.raises(InvalidDissectionError, match="must be an integer, got 4.0"):
        Dissection(4.0)
    with pytest.raises(InvalidDissectionError, match="must be an integer, got True"):
        Dissection.from_json({"n": True, "diagonals": []})
    # every rejection is a ValueError under one family
    assert issubclass(CrossingDiagonalError, InvalidDissectionError)
    assert issubclass(VertexRangeError, ValueError)


def test_stack_crossing_test_matches_the_pairwise_scan():
    # the constructor decides crossing by one sort-and-stack pass: it must give
    # the pairwise scan's verdict, and on a crossing name two input diagonals
    # d < e that cross, the same pair whatever order they are given in
    rng = random.Random(11)
    for trial in range(4000):
        n = rng.randint(4, 16)
        chords = set()
        for _ in range(rng.randint(0, 2 + trial % 9)):
            a, b = sorted(rng.sample(range(n), 2))
            if b - a > 1 and not (a == 0 and b == n - 1):
                chords.add((a, b))
        ordered = sorted(chords)
        first = next(
            ((d, e) for i, d in enumerate(ordered) for e in ordered[i + 1 :] if crosses(d, e)),
            None,
        )
        found = _crossing(chords)
        assert (found is None) == (first is None), ordered
        if found is None:
            assert Dissection(n, chords).diagonals == chords
            continue
        d, e = found
        assert d in chords and e in chords and d < e and crosses(d, e), (ordered, found)
        shuffler = random.Random(trial)
        for given in [rng.sample(ordered, len(ordered))] + [
            shuffler.sample(ordered, len(ordered)) for _ in range(3)
        ]:
            with pytest.raises(CrossingDiagonalError) as info:
                Dissection(n, given)
            assert str(info.value) == f"diagonals {d} and {e} cross"


def test_a_late_crossing_among_many_diagonals_is_rejected_at_once():
    # a fan of n - 3 diagonals plus one crossing pair at its far end: the
    # crossing is named by the one stack pass, with no pairwise rescan
    # (which took about 24 s on this input)
    n = 20_000
    diagonals = [(0, b) for b in range(2, n - 1)] + [(n - 5, n - 2), (n - 4, n - 1)]
    start = time.perf_counter()
    with pytest.raises(CrossingDiagonalError) as info:
        Dissection(n, diagonals)
    assert str(info.value) == f"diagonals (0, {n - 4}) and ({n - 5}, {n - 2}) cross"
    assert time.perf_counter() - start < 2.0


def test_json_round_trip(quad10):
    blob = quad10.to_json()
    assert blob == {"n": 10, "diagonals": [[1, 4], [4, 9], [5, 8]]}
    assert Dissection.from_json(blob) == quad10
    with pytest.raises(InvalidDissectionError):
        Dissection.from_json({"n": 10})


# ---------------------------------------------------------------------------
# faces


def test_faces_examples(quad10):
    assert faces(quad10) == [(0, 1, 4, 9), (1, 2, 3, 4), (4, 5, 8, 9), (5, 6, 7, 8)]
    assert faces(Dissection(4)) == [(0, 1, 2, 3)]
    assert faces(Dissection(5, [(0, 2)])) == [(0, 1, 2), (0, 2, 3, 4)]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_faces_match_planar_walk(n):
    for size in range(n - 2):
        for subset in noncrossing_subsets(n, size):
            d = Dissection(n, subset)
            got = faces(d)
            walked = face_walk_faces(n, subset)
            assert set(got) == walked
            assert len(got) == size + 1
            assert sum(len(f) for f in got) == n + 2 * size
            for p in (3, 4, 5, 6):  # the counting test agrees with the walk
                assert is_p_angulation(d, p) == all(len(f) == p for f in walked)


def _glued(rng, p, s):
    """A random p-angulation with s faces: p-gons glued one at a time onto
    random boundary edges, then the boundary relabeled 0..n-1."""
    boundary, diagonals = list(range(p)), []
    for _ in range(s - 1):
        i = rng.randrange(len(boundary))
        diagonals.append((boundary[i], boundary[(i + 1) % len(boundary)]))
        fresh = len(boundary)
        boundary[i + 1 : i + 1] = range(fresh, fresh + p - 2)
    position = {v: k for k, v in enumerate(boundary)}
    return Dissection(len(boundary), [(position[a], position[b]) for a, b in diagonals])


def test_faces_match_planar_walk_on_large_polygons():
    rngs = [random.Random(seed) for seed in (1, 2, 3)]
    # seeded 4- and 6-angulations of the 42-gon, then a fan and a ladder
    large = [_glued(rng, p, s) for rng in rngs for _ in range(10) for p, s in ((4, 20), (6, 10))]
    for n in (202, 302):
        large.append(Dissection(n, [(0, b) for b in range(2, n - 1)]))
        large.append(Dissection(n, [(a, n - 1 - a) for a in range(1, n // 2 - 1)]))
    for d in large:
        assert faces(d) == sorted(face_walk_faces(d.n, d.diagonals))


def test_is_p_angulation(quad10):
    assert is_p_angulation(quad10, 4)
    assert not is_p_angulation(quad10, 3)
    assert is_p_angulation(Dissection(6, [(0, 2), (2, 4), (0, 4)]), 3)
    with pytest.raises(ValueError):
        is_p_angulation(quad10, 2)
    with pytest.raises(ValueError, match="^face count and face size must be integers"):
        is_p_angulation(quad10, 4.0)


def test_quiddity_counts(quad10, hex18):
    assert quiddity_counts(quad10) == (1, 2, 1, 1, 3, 2, 1, 1, 2, 2)
    assert quiddity_counts(Dissection(4)) == (1, 1, 1, 1)
    assert quiddity_counts(hex18) == (1, 2, 1, 1, 1, 1, 3, 1, 2, 1, 1, 1, 1, 2, 1, 2, 1, 1)


# ---------------------------------------------------------------------------
# rotation


def test_rotate(quad10):
    assert rotate(quad10, 1) == Dissection(10, [(2, 5), (0, 5), (6, 9)])
    assert rotate(quad10, 10) == quad10
    assert rotate(rotate(quad10, 3), 7) == quad10


# ---------------------------------------------------------------------------
# enumeration


def test_fuss_catalan_values():
    assert [fuss_catalan(s, 4) for s in range(1, 6)] == [1, 3, 12, 55, 273]
    assert [fuss_catalan(s, 6) for s in range(1, 4)] == [1, 5, 35]
    # p = 3 gives the triangulation counts of the (s+2)-gon
    assert [fuss_catalan(s, 3) for s in range(1, 8)] == [1, 2, 5, 14, 42, 132, 429]
    with pytest.raises(ValueError):
        fuss_catalan(0, 4)
    with pytest.raises(ValueError, match="^face count and face size must be integers"):
        fuss_catalan(True, 4)  # True == 1, but no count: not 1


@pytest.mark.parametrize("s,p", [(1, 2), (2, 1), (2, 0), (0, 2), (3, -1)])
def test_fuss_catalan_refuses_a_face_size_below_3(s, p):
    # the walk's own refusal, not a count of 1 or 0 or math.comb's error
    with pytest.raises(ValueError) as raised:
        fuss_catalan(s, p)
    assert str(raised.value) == f"face size must be at least 3, got {p}"
    with pytest.raises(ValueError) as walked:
        _p_angulation_walk(s, p)
    assert str(walked.value) == str(raised.value)


def test_enumeration_refuses_bad_arguments_at_the_call():
    # checked when called, not at the first next(): a face count below 1, a
    # face size below 3, and a polygon too large to walk, nothing allocated
    for s, p, message in (
        (0, 4, "face count must be positive"),
        (3, 2, "face size must be at least 3, got 2"),
        (2.0, 4, "face count and face size must be integers, got s=2.0, p=4"),
        (10**7, 4, f"the {2 * 10**7 + 2}-gon is too large to walk"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as raised:
                enumerate_p_angulations(s, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == message
        assert peak < 100_000


def test_enumerate_small_cases():
    assert sorted(d.diagonals_sorted for d in enumerate_p_angulations(2, 4)) == [
        ((0, 3),),
        ((1, 4),),
        ((2, 5),),
    ]
    assert list(enumerate_p_angulations(1, 6)) == [Dissection(6)]


@pytest.mark.parametrize("s,p", [(1, 4), (2, 4), (3, 4), (4, 4), (1, 6), (2, 6), (3, 3), (4, 3)])
def test_enumeration_matches_brute_force(s, p):
    ours = [d.diagonals_sorted for d in enumerate_p_angulations(s, p)]
    assert len(set(ours)) == len(ours), "no dissection may appear twice"
    assert sorted(ours) == sorted(brute_force_p_angulations(s, p))
    assert len(ours) == fuss_catalan(s, p)


@pytest.mark.parametrize("s,p", [(5, 4), (3, 6)])
def test_enumeration_counts_and_shape(s, p):
    n = (p - 2) * s + 2
    count = 0
    for d in enumerate_p_angulations(s, p):
        count += 1
        assert d.n == n
        assert is_p_angulation(d, p)
        assert sum(quiddity_counts(d)) == p * s
    assert count == fuss_catalan(s, p)


@pytest.mark.parametrize("s,p", [(8, 4), (16, 4), (16, 3)])
def test_enumeration_yields_before_building_every_dissection(s, p):
    # the first p-angulation comes out with nothing built but the walk's
    # O(n) stack: neither a list of diagonal sets nor a table of every
    # subset of a task's fan ends, which grows about 4x per two faces
    tracemalloc.start()
    try:
        first = next(enumerate_p_angulations(s, p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_p_angulation(first, p)
    assert peak < 100_000


@pytest.mark.parametrize(
    "s,p", [(s, 3) for s in range(1, 9)] + [(s, 4) for s in range(1, 5)]
    + [(1, 5), (2, 5), (3, 5)] + [(1, 6), (2, 6), (3, 6)]
)
def test_walk_matches_brute_force_and_counts_faces(s, p):
    # the walk shares one diagonal list between leaves; at each leaf it holds
    # a p-angulation, sorted, and the leaves come in lexicographic order
    n, walk = _p_angulation_walk(s, p)
    seen = []
    for diags in walk:
        assert diags == sorted(diags)
        d = Dissection(n, diags)
        seen.append(d.diagonals_sorted)
    assert len(set(seen)) == len(seen), "no dissection may appear twice"
    assert seen == sorted(brute_force_p_angulations(s, p))


def test_abandoned_walk_leaves_no_reference_cycles():
    # the open tasks and frames are tuples that point only at older tuples,
    # so reference counting alone frees a walk dropped halfway, and a
    # listing's memo of pair texts forms no cycle either, dropped or drained
    gc.disable()
    try:
        gc.collect()
        lines = _listing(8, 4)
        next(lines)
        del lines
        assert gc.collect() == 0
        assert sum(1 for _ in _listing(6, 4)) == fuss_catalan(6, 4)
        assert gc.collect() == 0
        _, walk = _p_angulation_walk(8, 4)  # the 18-gon
        for _ in zip(range(1000), walk):
            pass
        del walk
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "s,p", [(s, 3) for s in range(1, 8)] + [(s, 4) for s in range(1, 6)]
    + [(s, 5) for s in range(1, 5)] + [(s, 6) for s in range(1, 5)]
)
def test_enumeration_is_strictly_increasing(s, p):
    # lexicographic in diagonals_sorted, so a listing needs no sort
    listed = [d.diagonals_sorted for d in enumerate_p_angulations(s, p)]
    assert len(listed) == fuss_catalan(s, p)
    assert all(a < b for a, b in zip(listed, listed[1:]))


@pytest.mark.parametrize(
    "s,p", [(s, 3) for s in range(1, 7)] + [(s, 4) for s in range(1, 5)]
    + [(s, 5) for s in range(1, 4)] + [(s, 6) for s in range(1, 4)]
)
def test_walked_leaves_equal_validated_dissections(s, p):
    # leaves skip the constructor's checks: each must be the dissection the
    # validating constructor builds from the same diagonals
    for leaf in enumerate_p_angulations(s, p):
        checked = Dissection(leaf.n, leaf.diagonals)
        assert type(leaf) is Dissection
        assert leaf == checked and hash(leaf) == hash(checked)
        assert leaf.diagonals_sorted == checked.diagonals_sorted


@pytest.mark.parametrize("s,p", [(s, p) for p in (3, 4, 5, 6) for s in range(1, 6)] + [(6, 3), (7, 3)])
def test_listing_lines_are_the_bytes_of_json_dumps(s, p):
    # `friezes enumerate` writes these lines; each must be json.dumps of the
    # matching enumerate_p_angulations leaf, ended in a newline
    lines = list(_listing(s, p))
    assert len(lines) == fuss_catalan(s, p)
    for line, d in zip(lines, enumerate_p_angulations(s, p)):
        assert line == json.dumps(d.to_json()) + "\n"


def test_listing_first_line_of_a_listing_too_long_to_finish():
    line = next(_listing(40, 4))
    assert line == json.dumps({"n": 82, "diagonals": [[0, b] for b in range(3, 80, 2)]}) + "\n"
    assert line == json.dumps(next(enumerate_p_angulations(40, 4)).to_json()) + "\n"


@pytest.mark.parametrize("s", [600, 10_000])
def test_listing_first_line_with_long_labels(s):
    # 4- and 5-digit labels come from the same pair texts
    line = next(_listing(s, 4))
    assert line == json.dumps(next(enumerate_p_angulations(s, 4)).to_json()) + "\n"
    assert f"[0, {2 * s - 1}]" in line


def test_enumeration_count_holds_no_sub_polygon_lists():
    # counting all 43,263 4-angulations with s = 8 holds the walk's stack and
    # one dissection at a time (2.14 MB peak when `itertools.product` held
    # every sub-polygon's diagonal sets)
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_p_angulations(8, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == fuss_catalan(8, 4)
    assert peak < 500_000


# ---------------------------------------------------------------------------
# the ear tree of face counts


@pytest.mark.parametrize(
    "s,p", [(s, 3) for s in range(1, 11)] + [(s, 4) for s in range(1, 7)]
    + [(s, 5) for s in range(1, 5)] + [(s, 6) for s in range(1, 5)]
)
def test_ear_counts_are_the_walks_counts(s, p):
    # the tree glues every p-angulation once, so its leaves are the face
    # counts of the walk's leaves, each once (a p-angulation is fixed by its
    # counts), and each leaf is a list of its own
    leaves = list(_ear_counts(s, p))
    assert len({id(leaf) for leaf in leaves}) == len(leaves)
    glued = sorted(map(tuple, leaves))
    assert len(set(glued)) == len(glued) == fuss_catalan(s, p)
    n, walk = _p_angulation_walk(s, p)
    assert glued == sorted(quiddity_counts(Dissection(n, diags)) for diags in walk)


@pytest.mark.parametrize("p,s_max", [(3, 8), (5, 4)])
def test_canonical_parent_cuts_each_level_onto_the_tree_edges_below(p, s_max):
    # for the face sizes the sweep's tree does not glue: cutting the
    # canonical ear of every p-angulation with s faces gives a node one
    # level down and an edge a ≤ last of that node (its own cut's a + p − 2),
    # and gluing it back gives the counts: so the cuts are exactly the
    # tree's edges, each met once
    ear = [1] * p
    below = {(0, 0): 0}  # the 2-gon and its last
    for s in range(1, s_max + 1):
        level, edges = {}, set()
        for counts in _ear_counts(s, p):
            parent, a = _canonical_parent(counts, p)
            assert a <= below[tuple(parent)]
            assert glued_counts(parent, a, ear) == counts
            edges.add((tuple(parent), a))
            level[tuple(counts)] = a + p - 2
        assert len(edges) == len(level) == sum(last + 1 for last in below.values())
        below = level


@pytest.mark.parametrize("p,s_max", [(4, 6), (6, 4)])
def test_canonical_parent_inverts_the_glue_on_every_ear_tree_edge(p, s_max):
    # the sweep's tree (`ears._ear_batches`) glues child a of a node on
    # a ≤ last; cutting the child's canonical ear gives back the node and a
    from friezes.ears import _ear_batches

    edges = 0
    for s, last, counts, _, _ in _ear_batches(p, s_max):
        for a in range(last + 1):
            assert _canonical_parent(glued_counts(counts[0], a, [1] * p), p) == (counts[0], a)
            edges += 1
    assert edges == sum(fuss_catalan(s, p) for s in range(1, s_max + 1))


def test_canonical_parent_refuses_counts_with_no_ear():
    # a run of p − 2 ones that wraps past vertex 0 is no canonical ear
    with pytest.raises(ValueError, match="no ear of 2 vertices of count 1"):
        _canonical_parent([2, 2, 2, 2, 2, 2], 4)
    with pytest.raises(ValueError, match="no ear of 1 vertices of count 1"):
        _canonical_parent([1, 3, 3, 3, 3], 3)
    assert _canonical_parent([1, 1, 1], 3) == ([0, 0], 0)


def test_ear_counts_refuse_bad_arguments_at_the_call():
    # as the walk: checked when called, with the walk's messages
    for s, p in ((0, 4), (3, 2), (2.0, 4), (10**7, 4)):
        with pytest.raises(ValueError) as walked:
            _p_angulation_walk(s, p)
        with pytest.raises(ValueError) as raised:
            _ear_counts(s, p)
        assert str(raised.value) == str(walked.value)


def test_ear_counts_reach_the_1000_gon_without_recursion():
    # an explicit stack of one node per depth: the first triangulation of the
    # 1,000-gon comes under a recursion limit 50 frames above the test's own
    # depth, far below its 998 levels, and a tree dropped halfway leaves no
    # reference cycle
    limit, depth, frame = sys.getrecursionlimit(), 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    gc.disable()
    try:
        gc.collect()
        sys.setrecursionlimit(depth + 50)
        leaves = _ear_counts(998, 3)
        first = next(leaves)
        sys.setrecursionlimit(limit)
        del leaves
        assert gc.collect() == 0
    finally:
        sys.setrecursionlimit(limit)
        gc.enable()
    assert len(first) == 1000 and sum(first) == 3 * 998
