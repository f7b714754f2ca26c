"""Convex polygons with noncrossing diagonal sets.

Vertices of an n-gon are labeled 0..n-1 in cyclic order.  A dissection is a
set of pairwise noncrossing diagonals; its faces are the sub-polygons the
diagonals carve out.  Faces are stored as vertex tuples in cyclic order
starting at their smallest label (which, for points in convex position, is
simply ascending order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

Pair = tuple[int, int]
Face = tuple[int, ...]


class InvalidDissectionError(ValueError):
    """A proposed dissection violates a structural rule."""


class VertexRangeError(InvalidDissectionError):
    """A diagonal endpoint is not a vertex of the polygon."""


class DegenerateDiagonalError(InvalidDissectionError):
    """A diagonal is a loop or joins two adjacent vertices."""


class CrossingDiagonalError(InvalidDissectionError):
    """Two diagonals cross in the interior."""


class NotAnEarError(ValueError):
    """The face handed to cut_ear is not an ear of the dissection."""


def crosses(d: Pair, e: Pair) -> bool:
    """Do two normalized diagonals cross in the polygon's interior?

    Sharing an endpoint or being nested does not count as crossing.
    """
    (a, b), (c, f) = d, e
    return a < c < b < f or c < a < f < b


def _normalize_pair(n: int, pair: Sequence[int]) -> Pair:
    try:
        i, j = pair
    except (TypeError, ValueError) as exc:
        raise InvalidDissectionError(f"diagonal must be a vertex pair, got {pair!r}") from exc
    if not (type(i) is int and type(j) is int):  # bools are ints too: reject them
        raise VertexRangeError(f"diagonal endpoints must be integers, got {pair!r}")
    if not (0 <= i < n and 0 <= j < n):
        raise VertexRangeError(f"diagonal {pair!r} leaves the vertex range 0..{n - 1}")
    if i == j:
        raise DegenerateDiagonalError(f"diagonal {pair!r} is a loop")
    a, b = min(i, j), max(i, j)
    if b - a == 1 or (a == 0 and b == n - 1):
        raise DegenerateDiagonalError(f"{pair!r} joins adjacent vertices, not a diagonal")
    return a, b


class Dissection:
    """An n-gon together with a set of pairwise noncrossing diagonals.

    The constructor validates: endpoints in range, no loops or polygon
    edges, no crossing pair.  Diagonals are stored normalized (smaller
    vertex first) so dissections compare and hash by content.
    """

    __slots__ = ("_n", "_diagonals")

    def __init__(self, n: int, diagonals: Iterable[Sequence[int]] = ()):
        if not isinstance(n, int) or n < 3:
            raise InvalidDissectionError(f"a polygon needs at least 3 vertices, got {n!r}")
        normalized = sorted({_normalize_pair(n, p) for p in diagonals})
        for idx, d in enumerate(normalized):
            for e in normalized[idx + 1 :]:
                if crosses(d, e):
                    raise CrossingDiagonalError(f"diagonals {d} and {e} cross")
        self._n = n
        self._diagonals = frozenset(normalized)

    @property
    def n(self) -> int:
        return self._n

    @property
    def diagonals(self) -> frozenset[Pair]:
        return self._diagonals

    @property
    def diagonals_sorted(self) -> tuple[Pair, ...]:
        return tuple(sorted(self._diagonals))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Dissection):
            return self._n == other._n and self._diagonals == other._diagonals
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._n, self._diagonals))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self._n}, diagonals={list(self.diagonals_sorted)!r})"

    def to_json(self) -> dict:
        return {"n": self._n, "diagonals": [list(d) for d in self.diagonals_sorted]}

    @classmethod
    def from_json(cls, data: dict) -> "Dissection":
        try:
            n = data["n"]
            diagonals = [tuple(p) for p in data["diagonals"]]
        except (KeyError, TypeError) as exc:
            raise InvalidDissectionError(f"malformed dissection object: {data!r}") from exc
        return cls(n, diagonals)


def faces(dissection: Dissection) -> list[Face]:
    """All faces, split off recursively along diagonals, in sorted order."""
    out: list[Face] = []

    def split(verts: tuple[int, ...], diags: tuple[Pair, ...]) -> None:
        if not diags:
            out.append(verts)
            return
        a, b = diags[0]
        ia, ib = verts.index(a), verts.index(b)
        inner = verts[ia : ib + 1]
        outer = tuple(sorted(verts[ib:] + verts[: ia + 1]))
        inner_set = set(inner)
        d_in, d_out = [], []
        for d in diags[1:]:
            # noncrossing, so each remaining diagonal sits wholly on one side
            (d_in if d[0] in inner_set and d[1] in inner_set else d_out).append(d)
        split(inner, tuple(d_in))
        split(outer, tuple(d_out))

    split(tuple(range(dissection.n)), dissection.diagonals_sorted)
    return sorted(out)


def _boundary_pairs(face: Face) -> list[Pair]:
    k = len(face)
    return [tuple(sorted((face[i], face[(i + 1) % k]))) for i in range(k)]


def is_p_angulation(dissection: Dissection, p: int) -> bool:
    """True when every face has exactly p vertices."""
    if p < 3:
        raise ValueError(f"face size must be at least 3, got {p}")
    return all(len(f) == p for f in faces(dissection))


def quiddity_counts(dissection: Dissection) -> tuple[int, ...]:
    """Number of faces incident to each vertex: one more than its diagonal degree."""
    degree = [0] * dissection.n
    for a, b in dissection.diagonals:
        degree[a] += 1
        degree[b] += 1
    return tuple(d + 1 for d in degree)


def ears(dissection: Dissection) -> list[Face]:
    """Faces whose boundary contains exactly one diagonal, in face order.

    A dissection without diagonals has no ears (the single face has no
    diagonal on its boundary).
    """
    diags = dissection.diagonals
    found = []
    for face in faces(dissection):
        if sum(p in diags for p in _boundary_pairs(face)) == 1:
            found.append(face)
    return found if dissection.diagonals else []


def cut_ear(dissection: Dissection, ear: Sequence[int]) -> Dissection:
    """Remove an ear and relabel the surviving vertices order-preservingly.

    The ear's boundary-only vertices disappear and its single diagonal
    becomes a boundary edge of the smaller polygon.
    """
    ear_face = tuple(sorted(ear))
    if ear_face not in set(ears(dissection)):
        raise NotAnEarError(f"{ear!r} is not an ear of {dissection!r}")
    diag = next(p for p in _boundary_pairs(ear_face) if p in dissection.diagonals)
    removed = set(ear_face) - set(diag)
    relabel = {}
    fresh = 0
    for v in range(dissection.n):
        if v not in removed:
            relabel[v] = fresh
            fresh += 1
    kept = [
        (relabel[a], relabel[b]) for a, b in dissection.diagonals_sorted if (a, b) != diag
    ]
    return Dissection(dissection.n - len(removed), kept)


@dataclass(frozen=True)
class DualTree:
    """Tree with one node per face and one edge per shared diagonal."""

    faces: tuple[Face, ...]
    edges: frozenset[Pair]  # pairs of indices into `faces`

    def degree(self, i: int) -> int:
        return sum(i in e for e in self.edges)

    def leaves(self) -> list[Face]:
        return [f for i, f in enumerate(self.faces) if self.degree(i) == 1]


def dual_tree(dissection: Dissection) -> DualTree:
    fs = faces(dissection)
    pair_sets = [set(_boundary_pairs(f)) for f in fs]
    edges = set()
    for diag in dissection.diagonals:
        incident = [i for i, ps in enumerate(pair_sets) if diag in ps]
        assert len(incident) == 2, "a diagonal borders exactly two faces"
        edges.add((min(incident), max(incident)))
    assert len(edges) == len(fs) - 1
    return DualTree(tuple(fs), frozenset(edges))


def rotate(dissection: Dissection, c: int) -> Dissection:
    """The image of a dissection under the rotation v ↦ v + c (mod n)."""
    n = dissection.n
    return Dissection(n, [((a + c) % n, (b + c) % n) for a, b in dissection.diagonals])


def fuss_catalan(s: int, p: int) -> int:
    """Number of p-angulations of the ((p-2)s + 2)-gon with s faces."""
    if s < 1:
        raise ValueError("face count must be positive")
    return math.comb((p - 1) * s, s - 1) // s


def enumerate_p_angulations(s: int, p: int) -> Iterator[Dissection]:
    """All dissections of the ((p-2)s + 2)-gon into s faces of size p.

    Enumeration fixes, for the sub-polygon on contiguous vertices lo..hi,
    the unique face containing the base edge {lo, hi}; choosing that face's
    other p-2 vertices and recursing on the gaps visits every p-angulation
    exactly once.  The top-level base edge is {n-1, 0}.
    """
    if p < 3:
        raise ValueError(f"face size must be at least 3, got {p}")
    if s < 1:
        raise ValueError("face count must be positive")
    n = (p - 2) * s + 2
    step = p - 2

    def segment(lo: int, hi: int) -> list[tuple[Pair, ...]]:
        if hi - lo == 1:
            return [()]
        assert (hi - lo) % step == 1 % step
        results = []
        for mids in _pick(lo, p - 2, hi):
            corners = (lo, *mids, hi)
            gaps = list(zip(corners, corners[1:]))
            own = tuple((a, b) for a, b in gaps if b - a >= 2)
            subs = [segment(a, b) for a, b in gaps if b - a >= 2]
            for combo in product(*subs):
                results.append(own + tuple(d for sub in combo for d in sub))
        return results

    def _pick(prev: int, left: int, hi: int) -> Iterator[tuple[int, ...]]:
        # choose `left` more face vertices above `prev`, keeping every gap
        # length ≡ 1 (mod p-2) so the gaps stay p-angulable
        if left == 0:
            yield ()
            return
        for v in range(prev + 1, hi - left + 1, step):
            for rest in _pick(v, left - 1, hi):
                yield (v, *rest)

    for diags in segment(0, n - 1):
        yield Dissection(n, diags)
