"""The sweep's ear tree: every p-angulation glued from its parent by one ear
(`_ear_batches`, a child at a time by `_child`), the entries of both friezes
the ear adds, computed and checked for a run of a node's children in one
call (`_ears_pass`), and their outcome per level (`_ear_levels`), which is
all `verify.sweep` reads: this module alone decides which runs are checked,
and by which call.  A child's rows are one C-level gather from its node's
rows and news, by an `itemgetter` kept per shape (`_glued_rows`,
`_glue_plan`).  (E) in the `verify` docstring proves why the entries the ear
adds are all there is to compute and check.  Matrices hold C values: the
int C of an entry C, or of C·√m at an even distance in a radical frieze.
"""

from __future__ import annotations

from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Sequence

from .bijection import _require_p, associated_triangulation
from .exact import LAMBDA_RADICAND
from .frieze import _require_grid, _rows
from .polygon import Dissection, _glued, quiddity_counts

# (p, n) -> `_ear_table(p, n, children)` for the longest run yet
_EARS: dict = {}
# (n, a, p − 2) -> `_glue_plan(n, a, p − 2)`
_PLANS: dict = {}
# 0, 1, 2, ...: the one copy of every index the plans hold
_INDICES: list = []


def _faces(p: int) -> list[tuple[tuple[list[list[int]], list[int]], ...]]:
    """Per colour c ∈ {0, 1}: the lone p-gon with corners c, c + 1, ..., c + p − 1,
    per family (radical, then integral) as (matrix, counts): [i][j] of the
    matrix is the C value between corners c + i and c + j (`_matrix`), and the
    counts are the quiddity it is grown from.

    The radical frieze is grown from the face counts, all 1: it is the unit
    regular p-gon's, with ℓ_t between corners t apart.  The integral one is
    grown from the triangle counts of the face cut along its own black
    corners: those of `associated_triangulation` of the lone p-gon for
    c = 0, and their rotation by one for c = 1, whose corners have the other
    colours.
    Built once, at import, as `_FACES[p]`.
    """
    ones = [1] * p
    radical = (_matrix(_rows(tuple(ones), LAMBDA_RADICAND[p], True)), ones)
    counts = list(quiddity_counts(associated_triangulation(Dissection(p), p)))
    return [(radical, (_matrix(_rows(tuple(c), 1, False)), c)) for c in (counts, counts[1:] + counts[:1])]


def _matrix(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """An n-gon's frieze rows as its symmetric n×n matrix by vertex pair: e(r, k)
    is the entry between vertices k − 1 and k − 1 + r."""
    n = len(rows) - 1
    return [[rows[(j - i) % n][(i + 1) % n] for j in range(n)] for i in range(n)]


_FACES = {p: _faces(p) for p in (4, 6)}
# per p and colour of a, per family: the ear's counts, and its entries among its inner corners, flat
_EAR_PIECES = {p: [(tuple(c for _, c in face), tuple([e for r in m[1:-1] for e in r[1:-1]] for m, _ in face))
                   for face in faces] for p, faces in _FACES.items()}


def _faces_pass(p: int) -> bool:
    """Do the two friezes of the lone p-gon agree entrywise by `_ears_pass`'s
    rule (p/2 between two white corners), for both colours of its first
    corner?  These are the entries between two corners of any ear ((E))."""
    h = p // 2
    for c, ((radical, _), (integral, _)) in zip((0, 1), _FACES[p]):
        for i in range(p):
            dressing = [h if (c + i) % 2 == 0 == (i - j) % 2 else 1 for j in range(p)]
            if integral[i] != list(map(mul, radical[i], dressing)):
                return False
    return True


def _ear_table(p: int, n: int, children: int) -> tuple:
    """What the children a = 0..children − 1 of any n-gon node share, built
    once per (p, n) and rebuilt, longer, only for a run past its last child;
    lists indexed by a, or by a·n + j for the old vertex j, which a run
    first..last reads in place from child 0, or by one slice from child
    first:

    * per family and inner corner t = 1..p − 2, the coefficients (α, β) of
      (E2) in C values: ℓ_t and ℓ_{p−1−t} of the face, times m where both
      factors of a radical product are surds; a coefficient that is the same
      for every entry is that int, and keeps no list (`_layout`);
    * per t, the dressing: p/2 where x = a + t is white and x − j even, else 1;
    * the flat indices, in the news of a run from child 0, of the row-2
      entries at the centres a and b = a + p − 1 (between x = a + 1 and
      a − 1, between x = a + p − 2 and the old a + 2);
    * per family, the counts the ear adds at a and at b.
    """
    table = _EARS.get((p, n))
    if table is None or len(table[2]) < children:  # one at-a index per child
        m, h = LAMBDA_RADICAND[p], p // 2
        faces = _FACES[p]
        inner = range(1, p - 1)
        coefs, gains = [], []
        for f, scale in ((0, m), (1, 1)):
            ear = [face[f] for face in faces]  # per colour of a: the ear's (matrix, counts)
            coefs.append([])
            # two surds meet in ℓ_t·e(b, j) at an even t, else in ℓ_{p−1−t}·e(a, j)
            for t in inner:
                at_b, at_a = (scale, 1) if t % 2 == 0 else (1, scale)
                alpha = [[matrix[0][t] * at for at in (1, at_b)] for matrix, _ in ear]
                beta = [[matrix[t][-1] * at for at in (at_a, 1)] for matrix, _ in ear]
                coefs[f].append((_layout(alpha, n, children), _layout(beta, n, children)))
            counts = [ear[a & 1][1] for a in range(children)]
            gains.append(([c[0] for c in counts], [c[-1] for c in counts]))
        table = _EARS[p, n] = (
            coefs,
            [_layout([[h if (a + t) % 2 == 0 == (d + t) % 2 else 1 for d in (0, 1)]
                      for a in (0, 1)], n, children) for t in inner],
            [a * n + (a - 1) % n for a in range(children)],
            [a * n + (a + 2) % n for a in range(children)],
            gains,
        )
    return table


def _layout(by_parity: list[list[int]], n: int, children: int) -> "int | list[int]":
    """A coefficient given per parity of a and of a − j, [a & 1][(a − j) & 1],
    laid out at a·n + j for the children a = 0..children − 1 of an n-gon node:
    the one int where all four parities agree, else the list."""
    (even_even, even_odd), (odd_even, odd_odd) = by_parity
    if even_even == even_odd == odd_even == odd_odd:
        return even_even
    half = n // 2  # every node has an even number of vertices
    two = [even_even, even_odd] * half + [odd_odd, odd_even] * half  # children 0 and 1
    return (two * (children // 2 + 1))[: children * n]


def _ears_pass(p: int, first: int, last: int, counts: tuple, rows: tuple) -> tuple[list, bool]:
    """What the ear adds to the children a = first..last of an n-gon node with
    these counts and rows, and whether all three checks pass on it, every
    ε = 0 ((E)): (news, passed), computed and checked in this one call.

    news holds, per family and inner corner t = 1..p − 2, one list with,
    for every child a at (a − first)·n + j, the entry between its new corner
    x = a + t and the old vertex j by (E2), α·(row a + 1) + β·(row a): one
    slice of the rows a + 1 per family, and at most three C-level maps per
    family and t for the whole run (`_scaled`); a run from child 0 reads the
    rows a and the coefficients in place.  The news are whole whether the
    run passes or not, as a node's children are glued from them.

    The checks: the changed counts, at the centres a and b, must be row 2 of
    their family's new entries, face counts radical and triangle counts
    integral, one list comparison per family, so the comparison there is
    the lemma on them; every radical entry must be positive, one `min` over
    the lists; and each integral list must equal its radical one dressed by
    p/2 where the new corner is white and the distance even, one comparison
    for every child (equal on the odd rows, scaled with ε = 0 on the even
    ones; the integral entries are then positive too).  The checks stop at
    the first that fails; a run of no children passes.
    """
    n, size = len(counts[0]), last + 1
    coefs, dressed, at_a, at_b, gains = _ear_table(p, n, size)
    lo, hi = first * n, size * n
    at_a, at_b = at_a[first:size], at_b[first:size]
    if first:  # the run's news start at child first
        at_a, at_b = [i - lo for i in at_a], [i - lo for i in at_b]
    news, passed = [], True
    for flat, family, count, (gain_a, gain_b) in zip(rows, coefs, counts, gains):
        ahead, behind = flat[lo + n : hi + n], flat[lo:hi] if lo else flat  # rows a + 1, rows a
        new = [list(map(add, _scaled(alpha, ahead, lo, hi), _scaled(beta, behind, lo, hi)))
               for alpha, beta in family]
        news.append(new)
        if passed:
            centres = list(map(new[0].__getitem__, at_a))
            centres += map(new[-1].__getitem__, at_b)
            changed = list(map(add, count[first:size], gain_a[first:]))
            changed += map(add, count[first + 1 : size + 1], gain_b[first:])
            passed = centres == changed
    radical, integral = news
    passed = passed and (first > last or min(map(min, radical)) > 0) and all(
        ints == list(map(mul, rad, dressing[lo:hi] if lo else dressing))
        for rad, ints, dressing in zip(radical, integral, dressed)
    )
    return news, passed


def _scaled(coef: "int | list[int]", entries: list[int], lo: int, hi: int) -> Iterable[int]:
    """The entries times a coefficient of `_ear_table`, its list read over
    lo..hi: a constant 1 leaves them as they are."""
    if type(coef) is int:
        return entries if coef == 1 else map(coef.__mul__, entries)
    return map(mul, coef[lo:hi] if lo else coef, entries)


def _glue_plan(n: int, a: int, k: int) -> itemgetter:
    """The gather that takes child a's rows 0..a + k + 1 of an n-gon node, k =
    p − 2 new corners, from `_glued_rows`' source: the node's rows 0..a + 1
    (entry (u, j) at u·n + j), then the child's news per new corner t (entry
    j at (a + 2 + t)·n + j), then the ear's k×k entries among its inner
    corners.  Built on first use per (n, a, k) and kept in `_PLANS`, its
    indices drawn from the one pool `_INDICES`, so a plan holds a pointer
    per entry and no int of its own.  `operator.itemgetter` gathers 56 to
    588 entries 1.4–2.5× as fast as `map(source.__getitem__, plan)` over an
    `array('I')` plan, which boxes each index as it reads it.  To level 499
    the walk peaks at 170.6 MB of RSS here, 165.8 MB with `array('I')`
    plans and 196.0 MB with lists of ints of their own (CPython 3.11,
    x86-64)."""
    plan = _PLANS.get((n, a, k))
    if plan is None:
        news, inner = (a + 2) * n, (a + 2 + k) * n
        if len(_INDICES) < inner + k * k:
            _INDICES.extend(range(len(_INDICES), inner + k * k))
        at, order = _INDICES, []
        for u in range(a + 2):
            if u == a + 1:  # the new rows come before b's
                for t in range(k):
                    row = news + t * n
                    order += at[row : row + a + 1]
                    order += at[inner + t * k : inner + t * k + k]
                    order += at[row + a + 1 : row + n]
            order += at[u * n : u * n + a + 1]
            order += at[news + u : inner : n]  # its entries with the new corners
            order += at[u * n + a + 1 : u * n + n]
        plan = _PLANS[n, a, k] = itemgetter(*order)
    return plan


def _glued_rows(rows: list[int], n: int, a: int, news: list[list[int]], inner: list[int]) -> list[int]:
    """Rows 0..a + p − 1 of child a's matrix in one family, flat: the node's rows
    0..a with the new corners' entries inserted after column a ((E1)), the
    new rows (the child's entries in the batch's news around the ear's
    entries among its inner corners, inner, flat), then the node's row a + 1,
    now b's.  One C-level gather by `_glue_plan` from the node's rows 0..a + 1,
    the child's slices of the news and inner, laid end to end."""
    lo = a * n
    source = rows[: lo + 2 * n]
    for new in news:
        source += new[lo : lo + n]
    source += inner
    return list(_glue_plan(n, a, len(news))(source))


def _ear_batches(p: int, s_max: int) -> Iterator[tuple]:
    """Every p-angulation with 1 ≤ s ≤ s_max faces, p ∈ {4, 6}, glued ear by
    ear, depth first, as one batch per node with children: (s, last, counts,
    rows, checked).

    The node is the 2-gon (one edge, (0, 1)) or a p-angulation with s − 1
    faces; its children, with s faces, are glued on its edges (a, a + 1) for
    a = 0..last.  counts are the node's face and triangle counts; rows are
    its radical and integral matrices, rows 0..last + 1 flat (entry (u, j) at
    u·n + j), in C values: the int C of an entry C, or of C·√m at an even
    distance in a radical frieze.  checked is `_ears_pass(p, 0, last, counts,
    rows)`, (news, passed): the children are glued from its news.  A node
    whose children are leaves (s = s_max) glues none: its batch is checked
    None, its rows an iterator read once by `tuple(rows)`, so `_ear_levels`
    glues only the rows it reads, and checks them by the same `_ears_pass`.

    A child's canonical ear is its new face, whose first inner vertex is
    a + 1, so its own children glue on a' ≤ a + p − 2; the lone p-gon is the
    2-gon's one child.  `_subtree` yields a node's batch, then recurses into
    each child (`_child`), its counts glued as it is entered, its rows when
    read: the recursion holds one node and its news per depth.  A caller
    reads a batch, or copies it to change it: the children are glued from it.
    A polygon whose friezes the kernel refuses (`_require_grid`) is refused
    before anything is allocated.
    """
    _require_p(p)
    _require_grid((p - 2) * s_max + 2)
    root = (0, 0, ([0, 0], [0, 0]), ([0, 1, 1, 0], [0, 1, 1, 0]))  # the 2-gon
    yield from _subtree(p, s_max, root)


def _subtree(p: int, s_max: int, node: tuple) -> Iterator[tuple]:
    """The batches of `_ear_batches` from node = (s, last, counts, rows) down;
    rows may be an iterator not yet read."""
    s, last, counts, rows = node
    if s + 2 > s_max:  # its children are leaves: nothing is glued from their entries
        yield s + 1, last, counts, rows, None
        return
    rows = tuple(rows)
    checked = _ears_pass(p, 0, last, counts, rows)
    yield s + 1, last, counts, rows, checked
    node, news = (s, last, counts, rows), checked[0]
    for a in range(last + 1):
        yield from _subtree(p, s_max, _child(p, node, news, a))


def _child(p: int, node: tuple, news: list, a: int) -> tuple:
    """Child a of node = (s, last, counts, rows) by its batch's news: (s + 1,
    a + p − 2, counts glued now, rows an iterator glued when read)."""
    s, _, counts, rows = node
    n = len(counts[0])
    ears, inner = _EAR_PIECES[p][a & 1]
    glued = tuple(map(_glued, counts, (a, a), ears))
    return s + 1, a + p - 2, glued, map(_glued_rows, rows, (n, n), (a, a), news, inner)


def _ear_levels(p: int, s_max: int, orbits: bool) -> list[tuple[int, bool, bool, int]]:
    """Per level s = 1..s_max of the ear tree: (p-angulations, failed,
    inherited, orbit representatives), the last 0 without orbits.  A level
    has failed if one of its own checks failed; it has inherited if a level
    below it failed, as every descendant of a failing child holds the
    entries that failed ((E)), unchecked.  Every check is one call of
    `_ears_pass`, which computes the entries it checks: the tree's own call
    for a node with grandchildren, whose children are glued from its
    entries, and one here for a node whose children are leaves.  Every
    batch is checked whole, except on an orbit sweep's top level, where
    each representative (`_least_rotation`) is checked alone.  Its vertex 0
    lies in one face ((C)); a child glued at a = 0 has one face more there
    than its node, one at a ≥ 1 as many, so only the children a ≥ 1 of a
    node whose vertex 0 lies in one face, and the 2-gon's one child, are
    glued, by their face counts alone.
    """
    counted = [0] * (s_max + 1)
    failed = [False] * (s_max + 1)
    representatives = [0] * (s_max + 1)
    failed[1] = not _faces_pass(p)
    ones = [1] * p  # an ear's face counts
    for s, last, counts, rows, checked in _ear_batches(p, s_max):
        counted[s] += last + 1
        q = counts[0]
        if orbits and s > 1:  # the node, of level s − 1
            representatives[s - 1] += _least_rotation(q)
        if not orbits or s < s_max:
            if not failed[s]:
                failed[s] = not (checked or _ears_pass(p, 0, last, counts, tuple(rows)))[1]
        elif s == 1 or q[0] == 1:
            for a in range(0 if s == 1 else 1, last + 1):
                if _least_rotation(_glued(q, a, ones)):
                    representatives[s] += 1
                    if not failed[s]:
                        rows = tuple(rows)
                        failed[s] = not _ears_pass(p, a, a, counts, rows)[1]
    first = failed.index(True) if True in failed else s_max  # the least failed level
    return [(counted[s], failed[s], s > first, representatives[s]) for s in range(1, s_max + 1)]


def _least_rotation(counts: list[int]) -> bool:
    """Are the counts lexicographically least among their even rotations?

    A rotation by an even k starts at counts[k], counts[k + 1], so only the k
    where counts[k] equals counts[0], the least of the even entries, can be
    smaller: it is if counts[k + 1] < counts[1], and only a tie on both asks
    for the rotated copy."""
    first, second = counts[0], counts[1]
    if min(counts[::2]) < first:
        return False
    for k in range(2, len(counts), 2):
        if counts[k] == first and counts[k + 1] <= second:
            if counts[k + 1] < second or counts[k:] + counts[:k] < counts:
                return False
    return True
