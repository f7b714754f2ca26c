"""Vertex 2-coloring, the quadrangulation ↔ noncrossing tree correspondence,
and the triangulations associated with 4- and 6-angulations.

On an even polygon, odd vertices are black and even vertices white.  Every
diagonal of a 4- or 6-angulation joins a black vertex to a white one, so
the corners of each face alternate in color.  One refinement triangulates
every face by joining all its corners of one color: the black-black chords
(one per quadrilateral, three per hexagon) give the associated
triangulation, the white-white chords its opposite-color twin.  For a
4-angulation the black-black chords are also the edges of its noncrossing
tree, which like `Triangulation` is a validating `Dissection` subclass.

Face sizes are never checked by walking faces: `polygon.is_p_angulation`
decides them by counting diagonals and their spans.  Only the refinement
`_refine`, which needs each face's corners, calls `faces`; the noncrossing
tree is read off the chords it adds.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Literal, Sequence

from .polygon import (
    Dissection,
    InvalidDissectionError,
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


class NoncrossingTree(Dissection):
    """A noncrossing spanning tree on the black vertices of an even polygon.

    A `Dissection` of the host polygon whose diagonals are the tree edges:
    it compares and hashes like `Dissection(host_n, edges)`.  Only its repr
    and JSON keep the tree's own names.
    """

    __slots__ = ()

    def __init__(self, host_n: int, edges: Iterable[Sequence[int]]):
        if not isinstance(host_n, int) or host_n < 4 or host_n % 2:
            raise InvalidTreeError(f"host polygon must be even with ≥ 4 vertices, got {host_n!r}")
        try:
            super().__init__(host_n, edges)
        except InvalidDissectionError as exc:
            raise InvalidTreeError(f"invalid tree edges: {exc}") from exc
        ordered = self.diagonals_sorted
        for a, b in ordered:
            if not (is_black(a) and is_black(b)):
                raise InvalidTreeError(f"edge {(a, b)!r} must join two black (odd) vertices")
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

    host_n = Dissection.n
    edges = Dissection.diagonals
    edges_sorted = Dissection.diagonals_sorted

    def __repr__(self) -> str:
        return f"NoncrossingTree(host_n={self.n}, edges={list(self.edges_sorted)!r})"

    def to_json(self) -> dict:
        return {"host_n": self.n, "edges": [list(e) for e in self.edges_sorted]}

    @classmethod
    def from_json(cls, data: dict) -> "NoncrossingTree":
        try:
            host_n = data["host_n"]
            edges = [tuple(e) for e in data["edges"]]
        except (KeyError, TypeError) as exc:
            raise InvalidTreeError(f"malformed tree object: {data!r}") from exc
        return cls(host_n, edges)


class Triangulation(Dissection):
    """A dissection whose faces are all triangles: n - 3 noncrossing diagonals.

    The face sizes are decided by counting (`is_p_angulation(·, 3)`), so
    construction walks no faces.
    """

    __slots__ = ()

    def __init__(self, n: int, diagonals: Iterable[Sequence[int]] = ()):
        super().__init__(n, diagonals)
        _require_triangulation(self)


def _require_triangulation(dissection: Dissection) -> None:
    if not is_p_angulation(dissection, 3):
        raise NotTriangulationError(
            f"{dissection!r} is not a triangulation: the {dissection.n}-gon "
            f"needs {dissection.n - 3} diagonals, got {len(dissection.diagonals)}"
        )


def quad_to_tree(dissection: Dissection) -> NoncrossingTree:
    """The noncrossing tree of a 4-angulation: the black-black chords its refinement adds."""
    return NoncrossingTree(dissection.n, _refine(dissection, 4).diagonals - dissection.diagonals)


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
    if not is_p_angulation(dissection, p):
        raise NotPAngulationError(f"{dissection!r} is not a {p}-angulation")
    chords = set(dissection.diagonals)
    for face in faces(dissection):
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
    _require_triangulation(triangulation)
    return quiddity_counts(triangulation)
