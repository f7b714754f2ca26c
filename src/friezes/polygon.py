"""Convex polygons with noncrossing diagonal sets.

Vertices of an n-gon are labeled 0..n-1 in cyclic order.  A dissection is a
set of pairwise noncrossing diagonals; its faces are the sub-polygons the
diagonals carve out.  Faces are stored as vertex tuples in cyclic order
starting at their smallest label (which, for points in convex position, is
simply ascending order).

`faces` finds them all in one sweep over the vertices 0..n-1, with a stack
of the vertices whose face is still open: each diagonal (a, v), met at v,
closes the face of a, the open vertices after a, and v.  Sorting the
diagonals into per-vertex buckets is the only superlinear step, so the cost
is O(n + d log d) for d diagonals.

Enumeration is one in-place backtracking walk (`_leaves`) that decides each
vertex's fan of diagonals one end at a time, so it yields in lexicographic
order of `diagonals_sorted`.  At every leaf it yields the same diagonal list,
sorted, reused and mutated as the walk goes on: `enumerate_p_angulations`
copies it into a `Dissection` without checking it again (`_walked`, which
also builds every other dissection the library derives).  `friezes
enumerate` writes each line from the diagonal list itself (`_listing`): its
text is the bytes `json.dumps` gives for that `Dissection`'s `to_json()`,
joined from one text per diagonal, made the first time the walk places it,
with no frozenset, `Dissection` or dict built per leaf; the CLI's one writer
joins the lines into writes of up to 64 KiB.  The walk's O(n) frames (at
most one per diagonal on the path, see `_leaves`) and the texts of the
diagonals it has placed are all a listing keeps, so the first leaf comes at
once and a sorted listing holds nothing more.  Every caller enters the walk
by one door, `_p_angulation_walk`, which checks s and p.

The ear tree of face counts is a second enumeration, for any p ≥ 3: every
p-angulation glued once from its canonical parent by one ear ((E) in the
`verify` docstring), on counts alone.  `_glued` glues a child,
`_canonical_parent` cuts it back, and `_ear_counts` yields a level's
counts depth first; the deep scan in `verify` reads its triangulations'
counts there, and `ears` glues the sweep's tree by the same `_glued`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

Pair = tuple[int, int]
Face = tuple[int, ...]
_D = TypeVar("_D", bound="Dissection")

_MAX_WALK_N = 10**6  # the largest polygon a walk takes; see `_walk_size`


class _Memo(dict):
    """f(key), computed on the first lookup of each key and kept, so
    `map(memo.__getitem__, row)` calls f once per distinct entry."""

    __slots__ = ("f",)

    def __init__(self, f: Callable) -> None:
        self.f = f

    def __missing__(self, key: object) -> object:
        value = self[key] = self.f(key)
        return value


class InvalidDissectionError(ValueError):
    """A proposed dissection violates a structural rule."""


class VertexRangeError(InvalidDissectionError):
    """A diagonal endpoint is not a vertex of the polygon."""


class DegenerateDiagonalError(InvalidDissectionError):
    """A diagonal is a loop or joins two adjacent vertices."""


class CrossingDiagonalError(InvalidDissectionError):
    """Two diagonals cross in the interior."""


class InternalAssertionError(RuntimeError):
    """A mathematically guaranteed step failed; indicates a defect, not bad input."""


def crosses(d: Pair, e: Pair) -> bool:
    """Do two normalized diagonals cross in the polygon's interior?

    Sharing an endpoint or being nested does not count as crossing.
    """
    (a, b), (c, f) = d, e
    return a < c < b < f or c < a < f < b


def _crossing(diagonals: Iterable[Pair]) -> tuple[Pair, Pair] | None:
    """A crossing pair (d, e), d < e, of normalized diagonals, or None.  O(d log d).

    Noncrossing chords nest like parentheses.  Taken by left end, longest
    first, each chord must close inside every chord still open around it;
    only the innermost one can be closed by it, so a stack of the open
    chords decides: a chord crosses exactly when it opens inside the top
    chord and closes outside it.  The top opened first, and two chords with
    one left end never cross, so (top, chord) is in sorted order.
    """
    stack: list[Pair] = []  # the open chords, innermost last
    for e in sorted(diagonals, key=_open_order):
        a, b = e
        while stack and stack[-1][1] <= a:  # closed before a (sharing a is fine)
            stack.pop()
        if stack and b > stack[-1][1]:
            return stack[-1], e
        stack.append(e)
    return None


def _open_order(d: Pair) -> tuple[int, int]:
    return d[0], -d[1]


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
    edges, no crossing pair (one sort-and-stack pass, `_crossing`, which
    names the first crossing pair it meets).  Diagonals are stored
    normalized (smaller vertex first) so dissections compare and hash by
    content.
    """

    __slots__ = ("_n", "_diagonals")

    def __init__(self, n: int, diagonals: Iterable[Sequence[int]] = ()):
        if type(n) is not int:  # bools are ints too: reject them
            raise InvalidDissectionError(f"polygon size must be an integer, got {n!r}")
        if n < 3:
            raise InvalidDissectionError(f"a polygon needs at least 3 vertices, got {n!r}")
        normalized = frozenset([_normalize_pair(n, p) for p in diagonals])
        if crossing := _crossing(normalized):
            d, e = crossing
            raise CrossingDiagonalError(f"diagonals {d} and {e} cross")
        self._n = n
        self._diagonals = normalized

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


def _walked(cls: type[_D], n: int, diagonals: frozenset[Pair]) -> _D:
    """A `cls` (`Dissection` or a subclass) of diagonals the library derived
    itself: the enumeration walk's leaves, a refinement and its tree, a deep
    scan's matches.  Each is normalized, in range, noncrossing and of the
    kind `cls` names by construction, so not checked again; the constructors
    and `from_json` check what comes from outside."""
    d = object.__new__(cls)
    d._n = n
    d._diagonals = diagonals
    return d


def faces(dissection: Dissection) -> list[Face]:
    """All faces, in sorted order, by one left-to-right sweep.  O(n + d log d).

    The sweep keeps the vertices whose face is still open, ascending.  At
    vertex v the diagonals (a, v) come innermost (largest a) first, and each
    closes the face of a, the open vertices after a, and v; those between a
    and v are then closed for good.  No diagonal closing earlier can have
    taken a off the stack, for it would cross (a, v), so `bisect` finds a.
    What stays open at the end is the face on the edge (n-1, 0).
    """
    ends: list[list[int]] = [[] for _ in range(dissection.n)]
    for a, b in sorted(dissection.diagonals, reverse=True):
        ends[b].append(a)  # a descending within each bucket
    out: list[Face] = []
    stack: list[int] = []
    for v, starts in enumerate(ends):
        for a in starts:
            i = bisect_left(stack, a)
            out.append((*stack[i:], v))
            del stack[i + 1 :]
        stack.append(v)
    out.append(tuple(stack))
    return sorted(out)


def is_p_angulation(dissection: Dissection, p: int) -> bool:
    """True when every face has exactly p vertices, decided by counting.

    A dissection D of the n-gon is a p-angulation exactly when
    n = (p-2)(|D|+1) + 2 and every diagonal (a, b) has b - a ≡ 1 (mod p-2).
    Then every side of a face spans ≡ 1 (mod p-2) vertices, so every face
    size is ≡ 2 (mod p-2) and at least p; the |D|+1 face sizes sum to
    n + 2|D| = p(|D|+1), so all of them equal p.  For p = 3 the test is
    |D| = n - 3.  No face is walked: the cost is O(|D|).
    """
    diagonals = dissection.diagonals
    if dissection.n != _polygon_size(len(diagonals) + 1, p):
        return False
    step = p - 2
    return all((b - a) % step == 1 % step for a, b in diagonals)


def quiddity_counts(dissection: Dissection) -> tuple[int, ...]:
    """Number of faces incident to each vertex: one more than its diagonal degree."""
    degree = [0] * dissection.n
    for a, b in dissection.diagonals:
        degree[a] += 1
        degree[b] += 1
    return tuple([d + 1 for d in degree])  # a list first: see frieze.Frieze._pairs


def rotate(dissection: Dissection, c: int) -> Dissection:
    """The image of a dissection under the rotation v ↦ v + c (mod n)."""
    n = dissection.n
    return Dissection(n, [((a + c) % n, (b + c) % n) for a, b in dissection.diagonals])


def fuss_catalan(s: int, p: int) -> int:
    """Number of p-angulations of the ((p-2)s + 2)-gon with s faces."""
    _polygon_size(s, p)  # refuses non-ints, p < 3 and s < 1
    return math.comb((p - 1) * s, s - 1) // s


def _polygon_size(s: int, p: int) -> int:
    """n = (p-2)s + 2, the polygon of s faces of size p: the one check of s and p."""
    if type(s) is not int or type(p) is not int:  # no floats, no bools
        raise ValueError(f"face count and face size must be integers, got s={s!r}, p={p!r}")
    if p < 3:
        raise ValueError(f"face size must be at least 3, got {p}")
    if s < 1:
        raise ValueError("face count must be positive")
    return (p - 2) * s + 2


def enumerate_p_angulations(s: int, p: int) -> Iterator[Dissection]:
    """All dissections of the ((p-2)s + 2)-gon into s faces of size p.

    One backtracking walk (`_leaves`) visits every p-angulation exactly once
    and yields each as a `Dissection`, in lexicographic order of
    `diagonals_sorted`, so a listing streams sorted with nothing held.
    The diagonal list the walk shares between leaves is copied into a
    frozenset; the walk builds valid p-angulations only, so the leaves skip
    the constructor's checks.  `_p_angulation_walk` checks s and p at the
    call, not at the first leaf.
    """
    n, walk = _p_angulation_walk(s, p)
    return (_walked(Dissection, n, frozenset(diags)) for diags in walk)


def _listing(s: int, p: int) -> Iterator[str]:
    """The lines of `enumerate_p_angulations(s, p)` as JSON, in its order.

    Each line is the text of `json.dumps(d.to_json())` for the matching
    `Dissection` d, ended in a newline, written straight from the walk's
    sorted diagonal list (the concatenation that builds the line ends it):
    no frozenset, `Dissection` or dict is built per leaf.  A diagonal (a, b)
    is the text "[a, b]" from a `_Memo`, made the first time the walk places
    it, so the memo holds at most one text per distinct diagonal the walk
    has placed: 63 for the whole p = 4, s = 8 listing, and O(n) for a first
    line however large the polygon.
    """
    n, walk = _p_angulation_walk(s, p)  # refuses a polygon too large to walk
    head = f'{{"n": {n}, "diagonals": ['
    text = _Memo("[%d, %d]".__mod__).__getitem__
    for diags in walk:
        yield head + ", ".join(map(text, diags)) + "]}\n"


def _glued(counts: list[int], a: int, ear: Sequence[int]) -> list[int]:
    """The counts of the child glued on edge (a, a + 1): the ear's counts put in
    place of a and a + 1 (which becomes b = a + p − 1), its ends plus their
    old counts."""
    child = counts[:a]
    child += ear
    child[a] += counts[a]
    child[-1] += counts[a + 1]
    child += counts[a + 2 :]
    return child


def _canonical_parent(counts: list[int], p: int) -> tuple[list[int], int]:
    """A p-angulation's face counts cut back to its canonical parent's: (parent
    counts, a), the inverse of `_glued(parent, a, [1] * p)` on the ear tree.

    The canonical ear ((E) in the `verify` docstring) is the non-wrapping run
    of p − 2 vertices of count 1 with the least first vertex e: its corners
    a = e − 1 .. b = e + p − 2 lie in 0..n − 1.  Cutting it drops the run and
    takes 1 from a and from b; the lone p-gon cuts back to the 2-gon [0, 0].
    Counts with no such run are no p-angulation's: ValueError."""
    k, run = p - 2, 0
    for v in range(1, len(counts) - 1):  # the inner corners lie in 1..n − 2
        run = run + 1 if counts[v] == 1 else 0
        if run == k:
            a, b = v - k, v + 1
            return counts[:a] + [counts[a] - 1, counts[b] - 1] + counts[b + 1 :], a
    raise ValueError(f"no ear of {k} vertices of count 1 in {counts!r}")


def _ear_counts(s: int, p: int) -> Iterator[list[int]]:
    """The face counts of every p-angulation with s faces, each once, glued ear
    by ear depth first from the 2-gon: the ear tree of `ears._ear_batches`
    on counts alone, so for any p ≥ 3.

    A node glues its children on the edges (a, a + 1), a ≤ last, and a child
    glued on a has last = a + p − 2, as its canonical ear starts at a + 1
    ((E)); the 2-gon's one edge gives the lone p-gon.  An explicit stack
    holds one node per depth, with the edges it has left, and a child is
    glued only when it is entered; the leaves, with s faces, are each a
    fresh list.  s and p are checked at the call, as by the walk's door
    (`_walk_size`)."""
    _walk_size(s, p)
    return _ear_leaves(s, p)


def _ear_leaves(s: int, p: int) -> Iterator[list[int]]:
    """The generator behind `_ear_counts`, its arguments checked."""
    ear = [1] * p
    stack = [(iter(range(1)), [0, 0])]  # per depth: a node's edges left, and its counts
    while stack:
        edges, counts = stack[-1]
        for a in edges:
            child = _glued(counts, a, ear)
            if len(stack) == s:
                yield child
            else:
                stack.append((iter(range(a + p - 1)), child))
                break
        else:
            stack.pop()


def _p_angulation_walk(s: int, p: int) -> tuple[int, Iterator[list[Pair]]]:
    """The one door to the walk: n for s faces of size p, and `_leaves(n, p - 2)`."""
    n = _walk_size(s, p)
    return n, _leaves(n, p - 2)


def _walk_size(s: int, p: int) -> int:
    """n = (p − 2)s + 2 for a walk of s faces of size p.  An n above
    _MAX_WALK_N = 10**6 raises ValueError naming the polygon before anything
    is allocated: no walk that large could finish."""
    n = _polygon_size(s, p)
    if n > _MAX_WALK_N:
        raise ValueError(f"the {n}-gon is too large to walk")
    return n


def _leaves(n: int, step: int) -> Iterator[list[Pair]]:
    """Every (step+2)-angulation of the n-gon (n ≡ 2 mod step), by backtracking.

    Yields in lexicographic order of `diagonals_sorted`, and the diagonal
    list is sorted at every leaf.  Of two dissections with the same number
    of diagonals, the one holding the smallest diagonal of their symmetric
    difference is the smaller, so the walk decides diagonals in ascending
    order, taking each one before leaving it out.

    A task (lo, a, hi, k, sectors) fills the run of contiguous vertices
    lo..hi, whose face through lo and hi has k vertices outside the run.
    k = step marks a face closed by the chord (lo, hi): the chord is a
    diagonal, placed when lo's fan closes, and the run then holds a whole
    face on it (k = 0 inside).  A task takes lo's fan one end at a time: a
    is the last end so far (lo + 1 at first), and `sectors` are the tasks
    the fan has cut off, newest first, as linked pairs (sector, rest), so an
    end adds O(1).  An end b keeps every sector (step+2)-angulable exactly
    when b ≡ a (mod step).  So the choices, in walk order, are the next ends
    b = a + step, a + 2·step, ... < hi, each placing (lo, b) and cutting off
    the sector a..b with k = 1 (lo is outside it), and last the close
    b = hi, which cuts off a..hi with k + 1 (1 under the chord) and pushes
    the sectors so that the first is filled first; every diagonal of a
    sector is smaller than every one of the next.  A sector whose face is
    already whole is dropped.  The top-level task is 0..n-1 with k = 0.

    At every leaf the walk yields the same diagonal list, reused and
    mutated in place as the walk goes on, so a caller reads or copies it
    before asking for the next leaf.  An explicit stack replaces recursion.
    The open tasks form a linked stack of (task, rest) pairs, and a frame is
    kept only for an end b < hi, which leaves a later end to try: it holds
    the task, b, the open tasks and the diagonal count before b, so
    backtracking restores the tasks by one assignment, cuts the diagonals
    back to that count and tries b + step.  Frames never outnumber the
    diagonals on the path, so the walk keeps O(n) and forms no reference
    cycle (tuples point only at older ones).
    """
    diags: list[Pair] = []
    todo: tuple | None = ((0, 1, n - 1, 0, None), None)  # tasks to fill: (next, rest)
    # per end b < hi taken: its task, b, and `todo` and len(diags) before it
    frames: list[tuple] = []
    while True:
        if todo:  # descend: the next open task takes its first end
            (lo, a, hi, k, sectors), todo = todo
            b = a + step
        else:
            yield diags
            if not frames:
                return
            lo, a, hi, k, sectors, b, todo, size = frames.pop()
            del diags[size:]  # undo (lo, b) and everything after it
            b += step  # and leave it out
        while b < hi:  # take end b of lo's fan, a later end left to try
            frames.append((lo, a, hi, k, sectors, b, todo, len(diags)))
            diags.append((lo, b))
            if b - a != step:  # otherwise the sector's face is whole
                sectors = ((a, a + 1, b, 1, None), sectors)
            a = b
            b += step
        if k == step:  # the close places the chord (lo, hi)
            diags.append((lo, hi))
            k = 0
        if hi - a + k != step:  # likewise for (a, hi, k + 1)
            todo = ((a, a + 1, hi, k + 1, None), todo)
        while sectors:  # the first sector ends on top
            sector, sectors = sectors
            todo = (sector, todo)
