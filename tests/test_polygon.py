"""Dissections: validation, faces, quiddity, ears, dual trees, enumeration.

Face extraction and enumeration are cross-checked against the independent
planar-walk / brute-force implementations in oracle.py.
"""

import pytest

from friezes import (
    CrossingDiagonalError,
    DegenerateDiagonalError,
    Dissection,
    InvalidDissectionError,
    NotAnEarError,
    VertexRangeError,
    crosses,
    cut_ear,
    dual_tree,
    ears,
    enumerate_p_angulations,
    faces,
    fuss_catalan,
    is_p_angulation,
    quiddity_counts,
    rotate,
)

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
    # every rejection is a ValueError under one family
    assert issubclass(CrossingDiagonalError, InvalidDissectionError)
    assert issubclass(VertexRangeError, ValueError)


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
            got = faces(Dissection(n, subset))
            assert set(got) == face_walk_faces(n, subset)
            assert len(got) == size + 1
            assert sum(len(f) for f in got) == n + 2 * size


def test_is_p_angulation(quad10):
    assert is_p_angulation(quad10, 4)
    assert not is_p_angulation(quad10, 3)
    assert is_p_angulation(Dissection(6, [(0, 2), (2, 4), (0, 4)]), 3)
    with pytest.raises(ValueError):
        is_p_angulation(quad10, 2)


def test_quiddity_counts(quad10, hex18):
    assert quiddity_counts(quad10) == (1, 2, 1, 1, 3, 2, 1, 1, 2, 2)
    assert quiddity_counts(Dissection(4)) == (1, 1, 1, 1)
    assert quiddity_counts(hex18) == (1, 2, 1, 1, 1, 1, 3, 1, 2, 1, 1, 1, 1, 2, 1, 2, 1, 1)


# ---------------------------------------------------------------------------
# ears and ear cutting


def test_ears(quad10):
    assert ears(quad10) == [(1, 2, 3, 4), (5, 6, 7, 8)]
    pentagon = Dissection(5, [(0, 2)])
    assert ears(pentagon) == faces(pentagon)
    assert ears(Dissection(4)) == []


def test_cut_ear(quad10):
    smaller = cut_ear(quad10, (1, 2, 3, 4))
    assert smaller == Dissection(8, [(2, 7), (3, 6)])
    assert cut_ear(Dissection(5, [(0, 2)]), (0, 1, 2)) == Dissection(4)
    with pytest.raises(NotAnEarError):
        cut_ear(quad10, (0, 1, 4, 9))


def test_cut_both_ears_commutes(quad10):
    one_way = cut_ear(cut_ear(quad10, (1, 2, 3, 4)), (3, 4, 5, 6))
    other_way = cut_ear(cut_ear(quad10, (5, 6, 7, 8)), (1, 2, 3, 4))
    assert one_way == other_way == Dissection(6, [(2, 5)])


def test_cut_ear_keeps_p_angulation():
    for d in enumerate_p_angulations(3, 4):
        for ear in ears(d):
            smaller = cut_ear(d, ear)
            assert is_p_angulation(smaller, 4)
            assert len(smaller.diagonals) == len(d.diagonals) - 1


# ---------------------------------------------------------------------------
# dual tree


def test_dual_tree_path(quad10):
    tree = dual_tree(quad10)
    assert tree.faces == tuple(faces(quad10))
    assert tree.edges == frozenset({(0, 1), (0, 2), (2, 3)})
    assert len(tree.edges) == len(tree.faces) - 1
    assert sorted(tree.leaves()) == ears(quad10)


def test_dual_tree_star():
    center = Dissection(6, [(0, 2), (2, 4), (0, 4)])
    tree = dual_tree(center)
    degrees = [tree.degree(i) for i in range(len(tree.faces))]
    assert sorted(degrees) == [1, 1, 1, 3]
    assert tree.faces[degrees.index(3)] == (0, 2, 4)


def test_dual_tree_single_node():
    tree = dual_tree(Dissection(4))
    assert len(tree.faces) == 1 and not tree.edges


def test_leaves_are_ears_everywhere():
    for s in (2, 3):
        for d in enumerate_p_angulations(s, 4):
            assert sorted(dual_tree(d).leaves()) == ears(d)


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
