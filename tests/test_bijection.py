"""Coloring, the quadrangulation/noncrossing-tree maps, associated triangulations."""

import pytest

from friezes import (
    Dissection,
    InvalidTreeError,
    NoncrossingTree,
    NotPAngulationError,
    NotTriangulationError,
    Triangulation,
    associated_triangulation,
    associated_triangulation_p4,
    associated_triangulation_p6,
    color,
    enumerate_p_angulations,
    quad_to_tree,
    tree_to_quad,
    triangle_counts,
)
from friezes.bijection import is_black


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


def test_tree_accepts_the_running_example():
    tree = NoncrossingTree(10, [(1, 3), (1, 9), (5, 9), (5, 7)])
    assert tree.edges_sorted == ((1, 3), (1, 9), (5, 7), (5, 9))
    assert tree.host_n == 10


def test_tree_rejects_white_endpoints():
    with pytest.raises(InvalidTreeError):
        NoncrossingTree(6, [(1, 3), (2, 5)])


def test_tree_rejects_crossings():
    with pytest.raises(InvalidTreeError):
        NoncrossingTree(8, [(1, 5), (3, 7), (5, 7)])


def test_tree_rejects_wrong_edge_count():
    with pytest.raises(InvalidTreeError):
        NoncrossingTree(8, [(1, 3), (3, 5)])  # 4 black vertices need 3 edges


def test_tree_rejects_cycles():
    # right edge count, no crossings, but a 3-cycle leaving vertex 7 isolated
    with pytest.raises(InvalidTreeError):
        NoncrossingTree(8, [(1, 3), (1, 5), (3, 5)])


def test_tree_rejects_bad_hosts():
    with pytest.raises(InvalidTreeError):
        NoncrossingTree(7, [(1, 3), (3, 5)])
    with pytest.raises(InvalidTreeError):
        NoncrossingTree(2, [])
    with pytest.raises(InvalidTreeError):
        NoncrossingTree(6, [(1, 1), (3, 5)])


def test_tree_json_round_trip():
    tree = NoncrossingTree(10, [(1, 3), (1, 9), (5, 9), (5, 7)])
    blob = tree.to_json()
    assert blob == {"host_n": 10, "edges": [[1, 3], [1, 9], [5, 7], [5, 9]]}
    assert NoncrossingTree.from_json(blob) == tree
    with pytest.raises(InvalidTreeError):
        NoncrossingTree.from_json({"host_n": 6, "edges": 5})
    with pytest.raises(InvalidTreeError):
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


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_round_trip_both_ways(s):
    for d in enumerate_p_angulations(s, 4):
        tree = quad_to_tree(d)
        assert tree_to_quad(tree) == d
        assert quad_to_tree(tree_to_quad(tree)) == tree


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


@pytest.mark.parametrize("s,p", [(2, 4), (3, 4), (2, 6)])
def test_associated_triangulation_shape(s, p):
    for d in enumerate_p_angulations(s, p):
        t = associated_triangulation(d, p)
        assert len(t.diagonals) == d.n - 3
        assert d.diagonals <= t.diagonals
        if p == 4:  # the refinement adds exactly the noncrossing tree's edges
            assert t.diagonals == d.diagonals | quad_to_tree(d).edges
