"""Frieze entries derived by gluing unit regular p-gons (`geometry.py`) against
the kernel's friezes, and the facts behind the ear sweep's (E1) and (E2)."""

import random

import pytest

from friezes import (
    associated_triangulation,
    cc_frieze,
    enumerate_p_angulations,
    faces,
    lambda_frieze,
)
from geometry import SURD, det, entries, glued_vectors, over, plus, times, unit_vectors
from test_polygon import _glued as seeded_p_angulation

LEVELS = {4: 5, 6: 3}  # p: s_max, 385 dissections in all


@pytest.fixture(scope="module")
def glued():
    """(p, dissection, its glued entries) for every p-angulation of LEVELS."""
    return [
        (p, d, entries(d.n, d.diagonals, p))
        for p, s_max in LEVELS.items()
        for s in range(1, s_max + 1)
        for d in enumerate_p_angulations(s, p)
    ]


def kernel_pairs(frieze):
    """The kernel's entry between vertices i and j, e(j − i, i + 1), as an int pair."""
    n = frieze.period
    rows = frieze.rows
    return [[(rows[(j - i) % n][(i + 1) % n].rat, rows[(j - i) % n][(i + 1) % n].rad)
             for j in range(n)] for i in range(n)]


def ell(p):
    """ℓ_t, t = 0..p − 1: the unit p-gon's entries from its corner 0."""
    return entries(p, (), p)[0]


def test_unit_vectors_are_the_half_turn():
    # 2·(cos, sin) of tπ/p: on the unit circle, every det of two of them
    # 4·sin of their angle, so ℓ_t = sin(tπ/p)/sin(π/p): 1, √2, 1 and
    # 1, √3, 2, √3, 1
    for p in (3, 4, 6):
        m = SURD[p]
        for x, y in unit_vectors(p):
            assert plus(times(x, x, m), times(y, y, m)) == (4, 0)
    assert ell(4) == [(0, 0), (1, 0), (0, 1), (1, 0)]
    assert ell(6) == [(0, 0), (1, 0), (0, 1), (2, 0), (0, 1), (1, 0)]
    assert ell(3) == [(0, 0), (1, 0), (1, 0)]
    assert det(unit_vectors(4)[0], unit_vectors(4)[1], 2) == (0, 2)  # 4·sin(π/4) = 2√2
    with pytest.raises(ArithmeticError):
        over((1, 0), (2, 0), 2)


def test_glued_entries_are_the_kernels(glued):
    # every entry of the radical frieze of D, and of the Conway–Coxeter
    # frieze of its associated triangulation glued from unit triangles
    for p, d, e in glued:
        assert e == kernel_pairs(lambda_frieze(d, p)), d
        t = associated_triangulation(d, p)
        assert entries(t.n, t.diagonals, 3) == kernel_pairs(cc_frieze(t)), d


def test_glued_entries_of_seeded_42_gons():
    rng = random.Random(42)
    for p, s in ((4, 20), (6, 10)) * 2:
        d = seeded_p_angulation(rng, p, s)
        assert d.n == 42
        assert entries(d.n, d.diagonals, p) == kernel_pairs(lambda_frieze(d, p))
        t = associated_triangulation(d, p)
        assert entries(t.n, t.diagonals, 3) == kernel_pairs(cc_frieze(t))


def test_ones_are_the_diagonals_and_faces_are_unit_p_gons(glued):
    # an entry between two vertices that are not neighbours is 1 exactly on
    # a diagonal of D; two corners of one face, t apart around it, have ℓ_t
    for p, d, e in glued:
        n, ells = d.n, ell(p)
        ones = {(i, j) for i in range(n) for j in range(i + 2, n) if e[i][j] == (1, 0)}
        assert ones - {(0, n - 1)} == set(d.diagonals)
        for face in faces(d):
            for x in range(p):
                for y in range(x + 1, p):
                    assert e[face[x]][face[y]] == ells[y - x]


def ears(d, p):
    """Each face a, a + 1, ..., a + p − 1 of D that does not wrap past 0, with
    its parent: D without it, relabeled 0..n − p + 1."""
    n = d.n
    for face in faces(d):
        a = face[0]
        if list(face) == list(range(a, a + p)) and len(d.diagonals) > 0:
            b = a + p - 1
            label = lambda v: v if v <= a else v - (p - 2)
            kept = [(label(u), label(v)) for u, v in d.diagonals if (u, v) != (a, b)]
            yield a, b, kept, [v for v in range(n) if not a < v < b]


def test_ear_facts_hold_for_the_glued_vectors(glued):
    # (E2): the vector of each inner corner x = a + t of an ear is
    # ℓ_{p−1−t}·w_a + ℓ_t·w_b, so e(x, j) = ℓ_t·e(b, j) + ℓ_{p−1−t}·e(a, j)
    # for every old vertex j; (E1): cutting the ear off keeps every other
    # entry
    seen = 0
    by_dissection = {(p, d.n, d.diagonals): e for p, d, e in glued}
    for p, d, e in glued:
        m, ells = SURD[p], ell(p)
        w = glued_vectors(d.n, d.diagonals, p)
        for a, b, kept, old in ears(d, p):
            seen += 1
            for t in range(1, p - 1):
                x = a + t
                assert w[x] == tuple(
                    plus(times(ells[p - 1 - t], u, m), times(ells[t], v, m))
                    for u, v in zip(w[a], w[b])
                )
                for j in old:
                    assert e[x][j] == plus(times(ells[t], e[b][j], m), times(ells[p - 1 - t], e[a][j], m))
            parent = by_dissection[p, d.n - (p - 2), frozenset(kept)]
            assert [[parent[i][j] for j in range(len(old))] for i in range(len(old))] == [
                [e[u][v] for v in old] for u in old
            ]
    assert seen == 647  # every ear of the 383 p-angulations with s ≥ 2
