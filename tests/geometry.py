"""A second derivation of frieze entries: unit regular p-gons glued in the plane.

The corners of one face, in their cyclic order t = 0, 1, ..., p − 1, get the
plane vectors v_t = (cos(tπ/p), sin(tπ/p)).  The face of a dissection D on
the edge (0, 1) keeps them as they are; every further face is carried across
its diagonal (a, b) to a face already placed by the one linear map that sends
its own v's at a and b to the placed w_a and w_b.  Then

    e(i, j) = det(w_i, w_j) / sin(π/p),   i < j,

is the entry between vertices i and j of D's frieze with quiddity
q_k·2cos(π/p): these are the λ-lengths behind Conway–Coxeter and
Holm–Jørgensen.  Unit triangles (p = 3) glued along a triangulation give its
Conway–Coxeter frieze.  No recurrence is run, and nothing here is shared with
the package or with `oracle.py`: the faces come from the oracle's planar
walk, every number is computed here.

Numbers of Q(√m) are int pairs (a, b) standing for a + b√m.  A vector is held
as 2·w, a pair of such int pairs over the common denominator 2: 2cos(tπ/p)
and 2sin(tπ/p) are integers of Q(√m) for p ∈ {3, 4, 6}, by the Chebyshev
recurrence from 2cos(π/p) and 2sin(π/p).  Every division is by a determinant
of two unit vectors, and is exact (checked): the results stay int pairs.
"""

from __future__ import annotations

from oracle import face_walk_faces

SURD = {3: 3, 4: 2, 6: 3}  # m, with cos(π/p) and sin(π/p) in Q(√m)
HALF = {3: ((1, 0), (0, 1)), 4: ((0, 1), (0, 1)), 6: ((0, 1), (1, 0))}  # 2cos(π/p), 2sin(π/p)

Num = tuple[int, int]
Vector = tuple[Num, Num]


def times(x: Num, y: Num, m: int) -> Num:
    (a, b), (c, d) = x, y
    return a * c + m * b * d, a * d + b * c


def minus(x: Num, y: Num) -> Num:
    return x[0] - y[0], x[1] - y[1]


def plus(x: Num, y: Num) -> Num:
    return x[0] + y[0], x[1] + y[1]


def over(x: Num, z: Num, m: int) -> Num:
    """x / z, exact: x times the conjugate of z, over the norm of z."""
    (a, b), (c, d) = x, z
    norm = c * c - m * d * d
    top = (a * c - m * b * d, b * c - a * d)
    if top[0] % norm or top[1] % norm:
        raise ArithmeticError(f"{x} / {z} is no integer of Q(√{m})")
    return top[0] // norm, top[1] // norm


def det(u: Vector, v: Vector, m: int) -> Num:
    return minus(times(u[0], v[1], m), times(u[1], v[0], m))


def unit_vectors(p: int) -> list[Vector]:
    """2·v_t for t = 0..p − 1: 2cos(tπ/p) and 2sin(tπ/p), each c_t = λ·c_{t−1} − c_{t−2}."""
    m, (lam, sine) = SURD[p], HALF[p]
    cos, sin = [(2, 0), lam], [(0, 0), sine]
    for _ in range(p - 2):
        cos.append(minus(times(lam, cos[-1], m), cos[-2]))
        sin.append(minus(times(lam, sin[-1], m), sin[-2]))
    return list(zip(cos, sin))


def glued_vectors(n: int, diagonals, p: int) -> list[Vector]:
    """2·w_v for every vertex v of the n-gon cut into p-gons by the diagonals."""
    m, unit = SURD[p], unit_vectors(p)
    faces = [tuple(sorted(f)) for f in face_walk_faces(n, diagonals)]
    if any(len(f) != p for f in faces):
        raise ValueError(f"not a dissection into {p}-gons")
    w: dict[int, Vector] = {}
    (first,) = [f for f in faces if 0 in f and 1 in f]
    w.update(zip(first, unit))
    todo, placed = [first], {first}
    while todo:
        face = todo.pop()
        for other in faces:
            shared = set(face) & set(other)
            if other in placed or len(shared) != 2:
                continue
            a, b = sorted(shared)
            i, j = other.index(a), other.index(b)
            base = det(unit[i], unit[j], m)
            for t, v in enumerate(other):
                if v not in shared:  # v_t = α·v_i + β·v_j, by Cramer's rule
                    alpha, beta = det(unit[t], unit[j], m), det(unit[i], unit[t], m)
                    w[v] = tuple(
                        over(plus(times(alpha, x, m), times(beta, y, m)), base, m)
                        for x, y in zip(w[a], w[b])
                    )
            placed.add(other)
            todo.append(other)
    return [w[v] for v in range(n)]


def entries(n: int, diagonals, p: int) -> list[list[Num]]:
    """e(i, j) for every pair of vertices, as int pairs: det(w_i, w_j) / sin(π/p)
    above the diagonal, mirrored below it, 0 on it."""
    m, unit = SURD[p], unit_vectors(p)
    w = glued_vectors(n, diagonals, p)
    sine = det(unit[0], unit[1], m)  # 4·sin(π/p), as det(w_i, w_j) is 4·det of the w's
    e = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e[i][j] = e[j][i] = over(det(w[i], w[j], m), sine, m)
    return e
