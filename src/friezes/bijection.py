"""Vertex 2-coloring, the quadrangulation ↔ noncrossing tree correspondence,
and the triangulations associated with 4- and 6-angulations.

On an even polygon, odd vertices are black and even vertices white.  Every
diagonal of a 4- or 6-angulation joins a black vertex to a white one, so
the corners of each face alternate in color.  One refinement triangulates
every face by joining all its corners of one color: the black-black chords
(one per quadrilateral, three per hexagon) give the associated
triangulation, the white-white chords its opposite-color twin.  For a
4-angulation the black-black chords are also the edges of its noncrossing
tree, which like `Triangulation` is a `Dissection` subclass whose
constructor validates.

Face sizes are never checked by walking faces: `polygon.is_p_angulation`
decides them by counting diagonals and their spans.  `faces` is called
where the corners are needed: by the refinement `_refine`, the one
construction of the associated triangulation (its triangle counts are its
`quiddity_counts`), and on the tree side, which reads the tree's own
faces.  Take k - 1 noncrossing black-black edges on the 2k-gon: as a
dissection they cut it into k faces.  No edge touches a white vertex, so
each of the k whites lies in exactly one face.  A face with no white
corner has only black corners, so its sides are all tree edges (a polygon
side always joins a black and a white vertex): it is a cycle.  Conversely
a cycle's inside is cut only into faces with black corners.  So the edges
form a tree exactly when no face is all black, that is, when every face
holds exactly one white vertex.  A 4-angulation diagonal is a black-white
chord crossing no tree edge, so it lies inside one tree face:
`tree_to_quad` joins each white vertex to the black corners of its face,
except its two neighbours on the polygon.

The refinement and the tree are valid by construction, so `_refine` and
`quad_to_tree` build them with `polygon._walked`, unchecked; only the
p-angulation test of D in `_refine` is run.  `faces` gives each face's
corners ascending, so the corner pairs are ascending: normalized.  A chord
joins two corners of one face, so it crosses no diagonal of D nor a chord
of another face, and the chords of one hexagon pairwise share an end.  Two
corners of one color differ by an even number ≥ 2, and the side (0, n-1)
of the even polygon joins two colors, so no chord is a polygon side; nor
is it a diagonal of D, which joins two colors too.  With s faces on n = (p-2)s + 2 vertices, D's s - 1
diagonals and s·(p-3) chords (one per quadrilateral, three per hexagon)
make n - 3, a triangulation.  For p = 4 the s = k - 1 chords on the k
black vertices are the tree edges; each triangle of the refinement has one
white corner, and every tree face is a union of triangles, so no tree face
is all black.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Literal, Sequence

from .polygon import (
    Dissection,
    InternalAssertionError,
    InvalidDissectionError,
    _walked,
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
    and JSON keep the tree's own names.  With the edge count right, the
    edges connect exactly when no face is all black (module docstring).
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
        k = host_n // 2  # black vertices
        if len(ordered) != k - 1:
            raise InvalidTreeError(f"{k} black vertices need {k - 1} edges, got {len(ordered)}")
        if any(all(is_black(v) for v in face) for face in faces(self)):
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
    chords = _refine(dissection, 4).diagonals - dissection.diagonals
    return _walked(NoncrossingTree, dissection.n, chords)


def tree_to_quad(tree: NoncrossingTree) -> Dissection:
    """Invert quad_to_tree: join each white w to the black corners of its tree face but w ± 1."""
    n = tree.host_n
    quad = Dissection(
        n,
        [
            (w, b)
            for face in faces(tree)
            for w in face
            if not is_black(w)
            for b in face
            if is_black(b) and (b - w) % n not in (1, n - 1)
        ],
    )
    if not is_p_angulation(quad, 4):
        raise InternalAssertionError(f"{tree!r} did not yield a 4-angulation: got {quad!r}")
    return quad


def _refine(dissection: Dissection, p: int) -> Triangulation:
    """Triangulate each face of a p-angulation by joining its black corners.

    Corners alternate in color around a face, so its p/2 black corners are
    pairwise non-adjacent; for p ∈ {4, 6} the one or three chords between
    them cut the face into triangles.  The p-angulation test is the
    one check: the result is a triangulation by construction (module
    docstring), so it is not checked again.
    """
    if not is_p_angulation(dissection, p):
        raise _not_p_angulation(dissection, p)
    chords = set(dissection.diagonals)
    for face in faces(dissection):
        chords.update(combinations([v for v in face if v & 1], 2))
    return _walked(Triangulation, dissection.n, frozenset(chords))


def _not_p_angulation(dissection: Dissection, p: int) -> NotPAngulationError:
    return NotPAngulationError(f"{dissection!r} is not a {p}-angulation")


def _require_p(p: int) -> None:
    if type(p) is not int or p not in (4, 6):  # 4.0 == 4 and True == 1: refuse both
        raise ValueError(f"face size p must be 4 or 6, got {p}")


def associated_triangulation_p4(dissection: Dissection) -> Triangulation:
    """Refine a 4-angulation by the black-black chord of each face (its tree edges)."""
    return _refine(dissection, 4)


def associated_triangulation_p6(dissection: Dissection) -> Triangulation:
    """Refine a 6-angulation by the three black-black chords of each face."""
    return _refine(dissection, 6)


def associated_triangulation(dissection: Dissection, p: int) -> Triangulation:
    _require_p(p)
    return _refine(dissection, p)


def triangle_counts(triangulation: Dissection) -> tuple[int, ...]:
    """Triangles incident to each vertex of a triangulation."""
    _require_triangulation(triangulation)
    return quiddity_counts(triangulation)
