"""Vertex 2-coloring, the quadrangulation ↔ noncrossing tree correspondence,
and the triangulations associated with 4- and 6-angulations.

On an even polygon, odd vertices are black and even vertices white.  Every
diagonal of a 4- or 6-angulation joins a black vertex to a white one, so
the corners of each face alternate in color.  One refinement triangulates
every face by joining all its corners of one color: the black-black chords
(one per quadrilateral, three per hexagon) give the associated
triangulation, the white-white chords its opposite-color twin.  For a
4-angulation the black-black chords are also the edges of its noncrossing
tree.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Literal, Sequence

from .polygon import (
    Dissection,
    Pair,
    crosses,
    faces,
    is_p_angulation,
    quiddity_counts,
)


class NotPAngulationError(ValueError):
    """The dissection does not have the face size the operation requires."""


class NotTriangulationError(ValueError):
    """A dissection expected to be a triangulation is not one."""


class InvalidTreeError(ValueError):
    """A proposed noncrossing tree violates a structural rule."""


def is_black(v: int) -> bool:
    return v % 2 == 1


def color(v: int, n: int) -> Literal["black", "white"]:
    """Color of vertex v on the even n-gon: odd labels black, even white."""
    if n % 2:
        raise ValueError(f"two-coloring needs an even vertex count, got {n}")
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} leaves the range 0..{n - 1}")
    return "black" if is_black(v) else "white"


class NoncrossingTree:
    """A noncrossing spanning tree on the black vertices of an even polygon."""

    __slots__ = ("_host_n", "_edges")

    def __init__(self, host_n: int, edges: Iterable[Sequence[int]]):
        if not isinstance(host_n, int) or host_n < 4 or host_n % 2:
            raise InvalidTreeError(f"host polygon must be even with ≥ 4 vertices, got {host_n!r}")
        normalized = set()
        for pair in edges:
            try:
                a, b = pair
            except (TypeError, ValueError) as exc:
                raise InvalidTreeError(f"edge must be a vertex pair, got {pair!r}") from exc
            if not (type(a) is int and type(b) is int and 0 <= a < host_n and 0 <= b < host_n):
                raise InvalidTreeError(f"edge {pair!r} leaves the vertex range")
            if a == b:
                raise InvalidTreeError(f"edge {pair!r} is a loop")
            if not (is_black(a) and is_black(b)):
                raise InvalidTreeError(f"edge {pair!r} must join two black (odd) vertices")
            normalized.add((min(a, b), max(a, b)))
        ordered = sorted(normalized)
        for i, d in enumerate(ordered):
            for e in ordered[i + 1 :]:
                if crosses(d, e):
                    raise InvalidTreeError(f"edges {d} and {e} cross")
        blacks = list(range(1, host_n, 2))
        if len(ordered) != len(blacks) - 1:
            raise InvalidTreeError(
                f"{len(blacks)} black vertices need {len(blacks) - 1} edges, got {len(ordered)}"
            )
        adjacent: dict[int, list[int]] = {b: [] for b in blacks}
        for a, b in ordered:
            adjacent[a].append(b)
            adjacent[b].append(a)
        seen = {blacks[0]}
        stack = [blacks[0]]
        while stack:
            for w in adjacent[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != set(blacks):
            raise InvalidTreeError("edges do not connect all black vertices")
        self._host_n = host_n
        self._edges = frozenset(ordered)

    @property
    def host_n(self) -> int:
        return self._host_n

    @property
    def edges(self) -> frozenset[Pair]:
        return self._edges

    @property
    def edges_sorted(self) -> tuple[Pair, ...]:
        return tuple(sorted(self._edges))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NoncrossingTree):
            return self._host_n == other._host_n and self._edges == other._edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._host_n, self._edges))

    def __repr__(self) -> str:
        return f"NoncrossingTree(host_n={self._host_n}, edges={list(self.edges_sorted)!r})"

    def to_json(self) -> dict:
        return {"host_n": self._host_n, "edges": [list(e) for e in self.edges_sorted]}

    @classmethod
    def from_json(cls, data: dict) -> "NoncrossingTree":
        try:
            host_n = data["host_n"]
            edges = [tuple(e) for e in data["edges"]]
        except (KeyError, TypeError) as exc:
            raise InvalidTreeError(f"malformed tree object: {data!r}") from exc
        return cls(host_n, edges)


class Triangulation(Dissection):
    """A dissection whose faces are all triangles."""

    __slots__ = ()

    def __init__(self, n: int, diagonals: Iterable[Sequence[int]] = ()):
        super().__init__(n, diagonals)
        for f in faces(self):
            if len(f) != 3:
                raise NotTriangulationError(f"face {f} has {len(f)} vertices, expected 3")


def quad_to_tree(dissection: Dissection) -> NoncrossingTree:
    """The noncrossing tree of a 4-angulation: one black-black chord per face."""
    if not is_p_angulation(dissection, 4):
        raise NotPAngulationError(f"{dissection!r} is not a 4-angulation")
    edges = []
    for face in faces(dissection):
        blacks = [v for v in face if is_black(v)]
        assert len(blacks) == 2, "a quadrilateral face has exactly two black corners"
        edges.append(tuple(blacks))
    return NoncrossingTree(dissection.n, edges)


def tree_to_quad(tree: NoncrossingTree) -> Dissection:
    """Invert quad_to_tree: keep every black-white chord crossing no tree edge."""
    n = tree.host_n
    chords = []
    for b in range(1, n, 2):
        for w in range(0, n, 2):
            if (b - w) % n in (1, n - 1):
                continue  # a boundary edge, not a chord
            chord = (min(b, w), max(b, w))
            if not any(crosses(chord, e) for e in tree.edges):
                chords.append(chord)
    quad = Dissection(n, chords)
    assert is_p_angulation(quad, 4), "a valid tree always yields a 4-angulation"
    return quad


def _refine(dissection: Dissection, p: int, black: bool = True) -> Triangulation:
    """Triangulate each face of a p-angulation by joining its corners of one color.

    Corners alternate in color around a face, so its p/2 corners of one
    color are pairwise non-adjacent; for p ∈ {4, 6} the one or three chords
    between them cut the face into triangles.
    """
    fs = faces(dissection)
    if any(len(f) != p for f in fs):
        raise NotPAngulationError(f"{dissection!r} is not a {p}-angulation")
    chords = set(dissection.diagonals)
    for face in fs:
        chords.update(combinations([v for v in face if is_black(v) == black], 2))
    return Triangulation(dissection.n, chords)


def associated_triangulation_p4(dissection: Dissection) -> Triangulation:
    """Refine a 4-angulation by the black-black chord of each face (its tree edges)."""
    return _refine(dissection, 4)


def associated_triangulation_p6(dissection: Dissection) -> Triangulation:
    """Refine a 6-angulation by the three black-black chords of each face."""
    return _refine(dissection, 6)


def associated_triangulation(dissection: Dissection, p: int) -> Triangulation:
    if p not in (4, 6):
        raise ValueError(f"associated triangulation is defined for p ∈ {{4, 6}}, got {p}")
    return _refine(dissection, p)


def triangle_counts(triangulation: Dissection) -> tuple[int, ...]:
    """Triangles incident to each vertex of a triangulation."""
    for f in faces(triangulation):
        if len(f) != 3:
            raise NotTriangulationError(f"face {f} has {len(f)} vertices, expected 3")
    return quiddity_counts(triangulation)
