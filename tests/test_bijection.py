"""Coloring, the quadrangulation/noncrossing-tree maps, associated triangulations."""

import re
from itertools import combinations

import pytest

from friezes import (
    Dissection,
    InternalAssertionError,
    InvalidTreeError,
    NoncrossingTree,
    NotPAngulationError,
    NotTriangulationError,
    Triangulation,
    associated_triangulation,
    associated_triangulation_p4,
    associated_triangulation_p6,
    color,
    cc_frieze,
    crosses,
    deep_uniqueness,
    enumerate_p_angulations,
    faces,
    is_p_angulation,
    lambda_frieze,
    quad_to_tree,
    tree_to_quad,
    triangle_counts,
    verify_dissection,
)
from friezes.bijection import _refine, is_black


def test_color():
    assert color(1, 10) == "black"
    assert color(0, 10) == "white"
    assert color(9, 10) == "black"
    assert is_black(7) and not is_black(4)
    with pytest.raises(ValueError):
        color(0, 9)
    with pytest.raises(ValueError):
        color(10, 10)


# ---------------------------------------------------------------------------
# NoncrossingTree validation


def tree_error(message):
    """Expect an InvalidTreeError with exactly this message."""
    return pytest.raises(InvalidTreeError, match=f"^{re.escape(message)}$")


def test_tree_accepts_the_running_example():
    tree = NoncrossingTree(10, [(1, 3), (1, 9), (5, 9), (5, 7)])
    assert tree.edges_sorted == ((1, 3), (1, 9), (5, 7), (5, 9))
    assert tree.host_n == 10
    assert repr(tree) == "NoncrossingTree(host_n=10, edges=[(1, 3), (1, 9), (5, 7), (5, 9)])"
    # like Triangulation, a validated Dissection: the edges are its diagonals,
    # and it compares and hashes as the plain Dissection with those diagonals
    plain = Dissection(10, [(1, 3), (1, 9), (5, 7), (5, 9)])
    assert isinstance(tree, Dissection)
    assert (tree.n, tree.diagonals) == (tree.host_n, tree.edges)
    assert tree.diagonals_sorted == tree.edges_sorted
    assert tree == plain and plain == tree and hash(tree) == hash(plain)
    assert len({tree, plain, NoncrossingTree(10, plain.diagonals)}) == 1
    assert tree != Dissection(10, [(1, 3), (1, 9), (5, 7)])
    assert tree != NoncrossingTree(10, [(1, 3), (3, 5), (5, 7), (7, 9)])


def test_tree_rejects_white_endpoints():
    with tree_error("edge (3, 6) must join two black (odd) vertices"):
        NoncrossingTree(8, [(1, 3), (3, 5), (3, 6)])
    with tree_error("invalid tree edges: diagonals (1, 3) and (2, 5) cross"):
        NoncrossingTree(6, [(1, 3), (2, 5)])  # the crossing is found first


def test_tree_rejects_crossings():
    with tree_error("invalid tree edges: diagonals (1, 5) and (3, 7) cross"):
        NoncrossingTree(8, [(1, 5), (3, 7), (5, 7)])


def test_tree_rejects_wrong_edge_count():
    with tree_error("4 black vertices need 3 edges, got 2"):
        NoncrossingTree(8, [(1, 3), (3, 5)])


def test_tree_rejects_cycles():
    # right edge count, no crossings, but a 3-cycle leaving vertex 7 isolated
    with tree_error("edges do not connect all black vertices"):
        NoncrossingTree(8, [(1, 3), (1, 5), (3, 5)])


def test_tree_rejects_bad_hosts():
    with tree_error("host polygon must be even with ≥ 4 vertices, got 7"):
        NoncrossingTree(7, [(1, 3), (3, 5)])
    with tree_error("host polygon must be even with ≥ 4 vertices, got 2"):
        NoncrossingTree(2, [])
    with tree_error("host polygon must be even with ≥ 4 vertices, got '8'"):
        NoncrossingTree("8", [])
    with tree_error("invalid tree edges: diagonal (1, 1) is a loop"):
        NoncrossingTree(6, [(1, 1), (3, 5)])
    # malformed edges reach the Dissection check and come back as InvalidTreeError
    for bad, reason in [
        ((True, 3), "diagonal endpoints must be integers, got (True, 3)"),
        ((1, 3, 5), "diagonal must be a vertex pair, got (1, 3, 5)"),
        ((1, 11), "diagonal (1, 11) leaves the vertex range 0..9"),
        ((0, 1), "(0, 1) joins adjacent vertices, not a diagonal"),
    ]:
        with tree_error(f"invalid tree edges: {reason}"):
            NoncrossingTree(10, [bad, (3, 5), (5, 7), (7, 9)])


def _connected(k, edges):
    """Reference check by depth-first search: do the edges join all k black vertices?"""
    adjacent = {v: [] for v in range(1, 2 * k, 2)}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, stack = {1}, [1]
    while stack:
        for v in adjacent[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == k


def test_tree_validation_matches_a_search_on_every_small_edge_set():
    # every noncrossing set of k - 1 black-black diagonals with host n ≤ 12
    total = rejected = 0
    for n in range(4, 13, 2):
        k = n // 2
        for edges in combinations(combinations(range(1, n, 2), 2), k - 1):
            if any(crosses(d, e) for d, e in combinations(edges, 2)):
                continue
            total += 1
            if _connected(k, edges):
                tree = NoncrossingTree(n, edges)
                assert all(sum(not is_black(v) for v in face) == 1 for face in faces(tree))
            else:
                rejected += 1
                with tree_error("edges do not connect all black vertices"):
                    NoncrossingTree(n, edges)
    assert (total, rejected) == (896, 552)


def test_tree_json_round_trip():
    tree = NoncrossingTree(10, [(1, 3), (1, 9), (5, 9), (5, 7)])
    blob = tree.to_json()
    assert blob == {"host_n": 10, "edges": [[1, 3], [1, 9], [5, 7], [5, 9]]}
    back = NoncrossingTree.from_json(blob)
    assert back == tree and type(back) is NoncrossingTree
    with tree_error("malformed tree object: {'host_n': 6, 'edges': 5}"):
        NoncrossingTree.from_json({"host_n": 6, "edges": 5})
    with tree_error("invalid tree edges: diagonal endpoints must be integers, got ('1', '3')"):
        NoncrossingTree.from_json({"host_n": 6, "edges": [["1", "3"], [1, 5]]})


# ---------------------------------------------------------------------------
# the two directions of the correspondence


def test_quad_to_tree(quad10):
    assert quad_to_tree(quad10).edges == {(1, 3), (1, 9), (5, 9), (5, 7)}
    assert quad_to_tree(Dissection(6, [(1, 4)])).edges == {(1, 3), (1, 5)}
    assert quad_to_tree(Dissection(4)).edges == {(1, 3)}
    with pytest.raises(NotPAngulationError):
        quad_to_tree(Dissection(6))  # one hexagonal face


def test_tree_to_quad(quad10):
    assert tree_to_quad(NoncrossingTree(10, [(1, 3), (1, 9), (5, 9), (5, 7)])) == quad10
    assert tree_to_quad(NoncrossingTree(4, [(1, 3)])) == Dissection(4)
    assert tree_to_quad(NoncrossingTree(6, [(1, 3), (1, 5)])) == Dissection(6, [(1, 4)])


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_round_trip_both_ways(s):
    for d in enumerate_p_angulations(s, 4):
        tree = quad_to_tree(d)
        assert tree_to_quad(tree) == d
        assert quad_to_tree(tree_to_quad(tree)) == tree


def test_tree_to_quad_checks_its_result(monkeypatch):
    # the face count is guaranteed by the math; a failure is a defect, even under python -O
    tree = NoncrossingTree(10, [(1, 3), (1, 9), (5, 9), (5, 7)])
    monkeypatch.setattr("friezes.bijection.is_p_angulation", lambda dissection, p: False)
    with pytest.raises(InternalAssertionError, match="did not yield a 4-angulation"):
        tree_to_quad(tree)


def test_every_dissection_diagonal_is_black_white():
    for s in (2, 3):
        for p in (4, 6):
            for d in enumerate_p_angulations(s, p):
                for a, b in d.diagonals:
                    assert is_black(a) != is_black(b)


# ---------------------------------------------------------------------------
# associated triangulations


def test_associated_p4(quad10):
    t = associated_triangulation_p4(quad10)
    assert t.diagonals == {(1, 4), (4, 9), (5, 8), (1, 3), (1, 9), (5, 9), (5, 7)}
    assert len(t.diagonals) == quad10.n - 3
    assert associated_triangulation_p4(Dissection(4)).diagonals == {(1, 3)}
    assert associated_triangulation_p4(Dissection(6, [(1, 4)])).diagonals == {
        (1, 4),
        (1, 3),
        (1, 5),
    }


def test_associated_p6(hex18):
    single = associated_triangulation_p6(Dissection(6))
    assert single.diagonals == {(1, 3), (3, 5), (1, 5)}
    two_faces = associated_triangulation_p6(Dissection(10, [(1, 6)]))
    assert two_faces.diagonals == {
        (1, 6),
        (1, 3),
        (3, 5),
        (1, 5),
        (1, 7),
        (7, 9),
        (1, 9),
    }
    assert len(two_faces.diagonals) == 7
    t18 = associated_triangulation_p6(hex18)
    assert triangle_counts(t18) == (1, 6, 1, 3, 1, 3, 3, 3, 2, 3, 1, 3, 1, 6, 1, 6, 1, 3)
    with pytest.raises(NotPAngulationError):
        associated_triangulation_p6(Dissection(10, [(1, 4), (4, 9), (5, 8)]))


def test_associated_dispatcher(quad10):
    assert associated_triangulation(quad10, 4) == associated_triangulation_p4(quad10)
    with pytest.raises(ValueError):
        associated_triangulation(quad10, 5)


def test_triangle_counts(quad10):
    assert triangle_counts(associated_triangulation_p4(quad10)) == (
        1, 4, 1, 2, 3, 4, 1, 2, 2, 4,
    )
    assert triangle_counts(Triangulation(4, [(1, 3)])) == (1, 2, 1, 2)
    with pytest.raises(NotTriangulationError):
        triangle_counts(Dissection(5))


def test_triangulation_type_validates():
    with pytest.raises(NotTriangulationError):
        Triangulation(10, [(1, 4)])
    # a Triangulation is still a Dissection
    assert isinstance(Triangulation(4, [(1, 3)]), Dissection)


def test_face_sizes_decided_without_walking_faces(monkeypatch, quad10):
    def no_walk(dissection):
        raise AssertionError("faces() walked to check face sizes")

    monkeypatch.setattr("friezes.polygon.faces", no_walk)
    monkeypatch.setattr("friezes.bijection.faces", no_walk)
    assert is_p_angulation(quad10, 4) and not is_p_angulation(quad10, 6)
    t = Triangulation(10, [(1, 3), (1, 4), (1, 9), (4, 9), (5, 7), (5, 8), (5, 9)])
    counts = (1, 4, 1, 2, 3, 4, 1, 2, 2, 4)
    assert triangle_counts(t) == counts
    assert tuple(e.as_integer() for e in cc_frieze(t).row(2)) == counts
    with pytest.raises(NotTriangulationError):
        Triangulation(10, [(1, 4)])
    with pytest.raises(NotTriangulationError):
        triangle_counts(quad10)
    with pytest.raises(NotTriangulationError):
        cc_frieze(quad10)
    with pytest.raises(NotPAngulationError):
        associated_triangulation(Dissection(8, [(0, 4)]), 4)
    with pytest.raises(NotPAngulationError):
        quad_to_tree(Dissection(1_000_000))
    with pytest.raises(NotPAngulationError):
        lambda_frieze(Dissection(1_000_000), 4)


@pytest.mark.parametrize("s,p", [(2, 4), (3, 4), (2, 6)])
def test_associated_triangulation_shape(s, p):
    for d in enumerate_p_angulations(s, p):
        t = associated_triangulation(d, p)
        assert len(t.diagonals) == d.n - 3
        assert d.diagonals <= t.diagonals
        if p == 4:  # the refinement adds exactly the noncrossing tree's edges
            assert t.diagonals == d.diagonals | quad_to_tree(d).edges


# ---------------------------------------------------------------------------
# derived dissections skip the validating constructors


def validated_refinement(d, black):
    """The refinement as the validating constructor builds it, its chords
    found here independently: the corner pairs of one color in each face."""
    chords = [
        (a, b)
        for face in faces(d)
        for a, b in combinations(face, 2)
        if a % 2 == b % 2 == black
    ]
    return Triangulation(d.n, [*d.diagonals, *chords])


def assert_same(derived, checked):
    assert type(derived) is type(checked)
    assert derived == checked and hash(derived) == hash(checked)
    assert derived.diagonals_sorted == checked.diagonals_sorted
    assert repr(derived) == repr(checked)
    assert derived.to_json() == checked.to_json()


@pytest.mark.parametrize("s,p", [(s, 4) for s in range(1, 7)] + [(s, 6) for s in range(1, 5)])
def test_derived_dissections_equal_validated_ones(s, p):
    # refinements, trees and deep-scan matches are built unchecked: each must
    # be what the validating constructor builds; the deep scan, Catalan-sized,
    # runs up to the 10-gon
    for d in enumerate_p_angulations(s, p):
        black, white = validated_refinement(d, True), validated_refinement(d, False)
        assert_same(_refine(d, p), black)
        if p == 4:
            assert_same(quad_to_tree(d), NoncrossingTree(d.n, black.diagonals - d.diagonals))
        if d.n <= 10:
            twins = (Dissection(d.n, black.diagonals), Dissection(d.n, white.diagonals))
            matches = deep_uniqueness(d, p).matches
            assert len(matches) == len(twins)
            for match, twin in zip(matches, twins):
                assert_same(match, twin)


def test_derived_dissections_skip_the_constructors(monkeypatch):
    # with every validating constructor refusing, walked dissections still
    # get their refinement, tree, checks and deep scan: nothing the library
    # derives goes through a constructor again
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.__init__ ran on derived data")

    for cls in (Dissection, Triangulation, NoncrossingTree):
        monkeypatch.setattr(cls, "__init__", refuse)
    for s, p in [(3, 4), (2, 6)]:
        for d in enumerate_p_angulations(s, p):
            assert associated_triangulation(d, p).diagonals > d.diagonals
            if p == 4:
                assert len(quad_to_tree(d).edges) == s
            assert verify_dissection(d, p).ok
            assert deep_uniqueness(d, p).match_kinds == ("associated", "mirror")
