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

**Packed lanes.**  `_ears_pass` packs each family's rows first..last + 1
of an n-gon node into bytes, entry (u, j) in lane u·n + j, each lane w
bytes wide (`_lanes_wide`), lane 0 lowest (`_lane_bytes`).  Every child's
row a + 1 is then one slice of those bytes, its row a another, and (E2)'s
news for the whole run, all p − 2 inner corners at once, are α·ahead +
β·behind on two ints that hold the slices once per corner.  A coefficient
that varies with the corner and the parities of a and a − j is its least
value times the int plus, per other value v, (v − least)·(int & mask_v),
one mask-and-multiply per distinct value (`_lane_coef`, `_times`): two
values for p = 4, three for p = 6.  The news leave `_ears_pass` packed, one
int per family, and the tree unpacks them once per node whose children it
glues (`_subtree`); a node whose children are leaves never unpacks them.

**The lane width, from (E2).**  Let M(N) be the largest C value among both
families' entries of any N-gon of the tree, N = (p − 2)s + 2.  The lone
p-gon's entries are at most M(p) = max over both faces (2 for p = 4, 3 for
p = 6).  A child keeps its node's entries ((E1)) and adds, at its new
corner t, α·e(b, j) + β·e(a, j) ≤ (max α + max β)·M(N) in C values, so
M(N + p − 2) ≤ G·M(N), G the largest max α + max β over the corners (3
for p = 4, 5 for p = 6): every ear adds at most log2 G bits to the largest
entry, and M(N) ≤ M(p)·G^(s − 1).  Every lane holds an entry of the
children or a radical one times its dressing, at most p/2 times it, and
every partial sum of `_times` is at most the lane's final value.  So the
lanes of the news of N-gons get (p/2)·M(p)·G^(s − 1) in their low bits and
one bit more, the guard bit, that no entry reaches: 8w bits for the least
w of 1, 2, 4, 8 that has room, or the least w past 8 that does
(`_lanes_wide`; p = 4: 1 byte to the 10-gon, 2 to the 20-gon, 8 to the
80-gon, 100 at the 1,000-gon; p = 6: 73 at the 998-gon).  No lane then
carries into the next or borrows from it, the int arithmetic is exact lane
by lane, and one representation serves every N the grid admits.
`tools/ci.py ear_depth` checks at every depth it reaches, and Tier-1 on
every node of p = 4, s ≤ 7 and p = 6, s ≤ 5, that the largest entry times
p/2 stays below the guard bit.

**The checks on lanes.**
* Row 2 at the centres: one gather reads the lanes of the changed counts
  from the blocks of t = 1 and t = p − 2, compared as a list.  It sees any
  wrong count or centre entry, and nothing else.
* Positivity: with ones the lowest and highs the guard bit of every lane,
  some lane of the radical news x is 0 exactly when
  ((x − ones) & ~x & highs) ≠ 0: the lowest lane whose bit that sets was 0
  (a borrow out of it can set more above).  It sees a 0, not a negative
  entry, which the lanes cannot hold: the rows are packed from
  non-negative ints (`_lane_bytes` refuses others), the coefficients are
  positive, so no lane of the news is negative.
* The dressed comparison: the integral int must equal the radical int
  dressed by p/2 where the new corner is white and the distance even, one
  masked multiply and one int comparison; with no carry between lanes the
  ints are equal exactly when every lane is.
What none of them can see is a fault that keeps (F) of the `verify`
docstring between the two families, such as the same entries moved alike
in both (ROADMAP item 13): every check compares the families with each
other, and row 2 only at the centres.  `tools/ci.py ear_walk` and
`ear_depth` compare glued rows with the kernel's for that.

**Memos.**  `_EARS` (the tables), `_PLANS` (the gathers) and `_INDICES`
(their index pool) keep what they hold for at most `_MEMO_SIZES` polygon
sizes n; past that, the largest n is dropped first (`_kept`), so the sizes
every sweep reads stay and a deep walk's 1,000-gon tables do not pile up.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from operator import add, itemgetter, mul
from typing import Iterator, Sequence

from .bijection import _require_p, associated_triangulation
from .exact import LAMBDA_RADICAND
from .frieze import _require_grid, _rows
from .polygon import Dissection, _glued, quiddity_counts

# the polygon sizes n each memo keeps; the largest n is dropped first
_MEMO_SIZES = 16
# (n, p) -> {(first, last): `_ear_run(p, n, first, last)`}
_EARS: dict = {}
# (n, a, p − 2) -> `_glue_plan(n, a, p − 2)`
_PLANS: dict = {}
# 0, 1, 2, ...: the one copy of every index the plans hold
_INDICES: list = []
# lane width in bytes -> the `array` type code of that item size
_CODES = {array(code).itemsize: code for code in "QLIHB"}
_SWAP = sys.byteorder == "big"  # lanes are little-endian; an array's items are native


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


def _coefficients(p: int) -> tuple[list, list]:
    """The ear's coefficients by parity, [a & 1][(a − j) & 1] for child a and
    old vertex j: per family and inner corner t = 1..p − 2, (α, β) of (E2)
    in C values, ℓ_t and ℓ_{p−1−t} of the face of a's colour, times m where
    both factors of a radical product are surds; and per t the dressing,
    p/2 where x = a + t is white and x − j even, else 1.  Built once, at
    import, as `_COEFFICIENTS[p]`."""
    m, h = LAMBDA_RADICAND[p], p // 2
    coefs = []
    for f, scale in ((0, m), (1, 1)):
        ear = [face[f][0] for face in _FACES[p]]  # per colour of a: the ear's matrix
        coefs.append([])
        # two surds meet in ℓ_t·e(b, j) at an even t, else in ℓ_{p−1−t}·e(a, j)
        for t in range(1, p - 1):
            at_b, at_a = (scale, 1) if t % 2 == 0 else (1, scale)
            alpha = [[matrix[0][t] * at for at in (1, at_b)] for matrix in ear]
            beta = [[matrix[t][-1] * at for at in (at_a, 1)] for matrix in ear]
            coefs[f].append((alpha, beta))
    dressed = [[[h if (a + t) % 2 == 0 == (d + t) % 2 else 1 for d in (0, 1)] for a in (0, 1)]
               for t in range(1, p - 1)]
    return coefs, dressed


def _lanes_wide(p: int, n: int) -> int:
    """The lane width in bytes for the entries of an n-gon of the tree, n ≥ p:
    room for (p/2)·M(p)·G^(s − 1), s = (n − 2)/(p − 2), and a guard bit
    above it (the module docstring proves the bound)."""
    first, growth = _BOUNDS[p]
    bits = (first * growth ** ((n - 2) // (p - 2) - 1)).bit_length() + 1  # + the guard bit
    return next((w for w in sorted(_CODES) if 8 * w >= bits), -(-bits // 8))


_FACES = {p: _faces(p) for p in (4, 6)}
# per p and colour of a, per family: the ear's counts, and its entries among its inner corners, flat
_EAR_PIECES = {p: [(tuple(c for _, c in face), tuple([e for r in m[1:-1] for e in r[1:-1]] for m, _ in face))
                   for face in faces] for p, faces in _FACES.items()}
_COEFFICIENTS = {p: _coefficients(p) for p in _FACES}
# per p: (p/2)·M(p), the lone p-gon's largest entry dressed, and G, the largest growth per ear
_BOUNDS = {p: (p // 2 * max(e for face in faces for matrix, _ in face for row in matrix for e in row),
               max(max(map(max, alpha)) + max(map(max, beta)) for family in _COEFFICIENTS[p][0]
                   for alpha, beta in family))
           for p, faces in _FACES.items()}


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


def _kept(memo: dict, key: tuple, value):
    """value, kept in memo under key, whose first item is a polygon size n: past
    `_MEMO_SIZES` sizes, every entry of the largest n is dropped."""
    memo[key] = value
    sizes = {k[0] for k in memo}
    if len(sizes) > _MEMO_SIZES:
        largest = max(sizes)
        for k in [k for k in memo if k[0] == largest]:
            del memo[k]
    return value


def _ear_run(p: int, n: int, first: int, last: int) -> tuple:
    """What a run of the children a = first..last of any n-gon node reads,
    laid out over the lanes of its news, built on first use and kept in
    `_EARS` per (n, p), by (first, last).  The news of one family are one
    int of p − 2 blocks, one per inner corner t, each of R = (last + 1 −
    first)·n lanes, child a's entry with the old vertex j in lane
    (t − 1)·R + (a − first)·n + j (`_subtree` unpacks them by this layout,
    as does `tools/ci.py`'s `child_news` for one child):

    * w, the lane width in bytes: that of the entries of (n + p − 2)-gons;
    * per family, the coefficients (α, β) of (E2), and the dressing, each
      laid out by `_lane_coef` (`_coefficients` gives them by parity);
    * ones and highs, the lowest and the guard bit of every lane;
    * the lanes of the row-2 entries at the centres a and b = a + p − 1 of
      each child, in block 1 (between x = a + 1 and a − 1) and then in
      block p − 2 (between x = a + p − 2 and the old a + 2);
    * per family, the counts the ear adds at those centres.
    """
    runs = _EARS.get((n, p))
    if runs is None:
        runs = _kept(_EARS, (n, p), {})
    run = runs.get((first, last))
    if run is None:
        k, children = p - 2, range(first, last + 1)
        width, lanes = _lanes_wide(p, n + k), (last + 1 - first) * n
        coefs, dressed = _COEFFICIENTS[p]
        ears = [face for face, _ in _EAR_PIECES[p]]  # per colour of a, per family: the ear's counts
        highs = int.from_bytes((bytes(width - 1) + b"\x80") * (k * lanes), "little")
        masks: dict = {}  # shared by the coefficients that pick the same lanes
        run = runs[first, last] = (
            width,
            [tuple(_lane_coef([c[i] for c in family], n, first, lanes, width, masks) for i in (0, 1))
             for family in coefs],
            _lane_coef(dressed, n, first, lanes, width, masks),
            highs >> (8 * width - 1),
            highs,
            [(a - first) * n + (a - 1) % n for a in children]
            + [(k - 1) * lanes + (a - first) * n + (a + 2) % n for a in children],
            [[ears[a & 1][f][0] for a in children] + [ears[a & 1][f][-1] for a in children] for f in (0, 1)],
        )
    return run


def _lane_coef(by_corner: list[list[list[int]]], n: int, first: int, lanes: int, width: int, masks: dict) -> tuple:
    """A coefficient given per inner corner t and per parity of a and of
    a − j, [t − 1][a & 1][(a − j) & 1], laid out over the news of a run of
    lanes lanes from child first of an n-gon node (`_ear_run`): (least,
    terms), terms holding, per other value v, (v − least, the int with every
    bit of the lanes where it is v), each such int built once in masks, by
    the lanes it picks.  Its product with packed entries is `_times`."""
    values = sorted({v for corner in by_corner for row in corner for v in row})
    lane = {False: bytes(width), True: b"\xff" * width}
    terms = []
    for v in values[1:]:
        picked = tuple(v == value for by_parity in by_corner for row in by_parity for value in row)
        if picked not in masks:
            blocks = b""
            for by_parity in by_corner:
                # children first and first + 1, each alternating with the parity of j
                two = b"".join((lane[by_parity[a & 1][a & 1] == v] + lane[by_parity[a & 1][~a & 1] == v]) * (n // 2)
                               for a in (first, first + 1))
                blocks += (two * (lanes // (2 * n) + 1))[: lanes * width]
            masks[picked] = int.from_bytes(blocks, "little")
        terms.append((v - values[0], masks[picked]))
    return values[0], terms


def _times(coef: tuple, x: int) -> int:
    """x, packed entries, times a coefficient laid out by `_lane_coef`: lane by
    lane, as no lane carries into the next."""
    least, terms = coef
    product = x if least == 1 else least * x
    for delta, mask in terms:
        product += delta * (x & mask)
    return product


def _lane_bytes(entries: Sequence[int], width: int) -> bytes:
    """The entries, non-negative, as width-byte little-endian lanes end to end;
    OverflowError if one does not fit."""
    code = _CODES.get(width)
    if code is None:
        return b"".join(map(int.to_bytes, entries, repeat(width), repeat("little")))
    lanes = array(code, entries)
    if _SWAP:
        lanes.byteswap()
    return lanes.tobytes()


def _unpacked(x: int, count: int, width: int) -> Sequence[int]:
    """The count lanes of x, width bytes each, lowest first (x has no more): an
    `array`, or past 8 bytes a list."""
    data = x.to_bytes(count * width, "little")
    code = _CODES.get(width)
    if code is None:
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    lanes = array(code, data)
    if _SWAP:
        lanes.byteswap()
    return lanes


def _gathered(x: int, count: int, width: int, indices: list[int]) -> list[int]:
    """The lanes indices of x's first count lanes, width bytes each, read by
    one gather; past 8 bytes, only those lanes are read."""
    if width in _CODES:
        return list(map(_unpacked(x, count, width).__getitem__, indices))
    data = x.to_bytes(count * width, "little")
    return [int.from_bytes(data[i * width : i * width + width], "little") for i in indices]


def _ears_pass(p: int, first: int, last: int, counts: tuple, rows: tuple) -> tuple[list, bool]:
    """What the ear adds to the children a = first..last of an n-gon node with
    these counts and rows, and whether all three checks pass on it, every
    ε = 0 ((E)): (news, passed), computed and checked in this one call on
    packed lanes (the module docstring).

    news holds, per family, one int of lanes (`_ear_run`) with, for every
    inner corner t = 1..p − 2 and child a, the entry between its new corner
    x = a + t and each old vertex j by (E2), α·(row a + 1) + β·(row a):
    the rows first..last + 1 are packed once per family, their rows a + 1
    and rows a are two slices of those bytes, repeated once per t, and each
    coefficient is `_times`.  The news are whole whether the run passes or
    not, as a node's children are glued from them (`_subtree`).

    The checks: the changed counts, at the centres a and b, must be row 2 of
    their family's new entries, face counts radical and triangle counts
    integral, one gather and one list comparison per family, so the
    comparison there is the lemma on them; no radical lane may be 0, one
    zero-lane test; and the integral int must equal the radical one dressed
    by p/2 where the new corner is white and the distance even, one masked
    multiply and one int comparison (equal on the odd rows, scaled with
    ε = 0 on the even ones; the integral entries are then positive too).
    The checks stop at the first that fails; a run of no children passes.
    """
    n, size, k = len(counts[0]), last + 1, p - 2
    width, coefs, dressing, ones, highs, centres, gains = _ear_run(p, n, first, last)
    lanes = (size - first) * n
    news, passed = [], True
    for flat, (alpha, beta), count, gain in zip(rows, coefs, counts, gains):
        packed = _lane_bytes(flat[first * n : (size + 1) * n], width)
        ahead = int.from_bytes(packed[n * width :] * k, "little")  # rows a + 1, once per t
        behind = int.from_bytes(packed[: lanes * width] * k, "little")  # rows a
        new = _times(alpha, ahead) + _times(beta, behind)
        news.append(new)
        if passed:
            changed = list(map(add, count[first:size] + count[first + 1 : size + 1], gain))
            passed = _gathered(new, k * lanes, width, centres) == changed
    radical, integral = news
    return news, passed and ((radical - ones) & ~radical & highs) == 0 and integral == _times(dressing, radical)


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
        plan = _kept(_PLANS, (n, a, k), itemgetter(*order))
        # the pool keeps what the kept plans read: (size, b, j) reads up to (b + 2 + j)·size + j²
        del _INDICES[max(((b + 2 + j) * size + j * j for size, b, j in _PLANS), default=0) :]
    return plan


def _glued_rows(rows: list[int], n: int, a: int, news: list[Sequence[int]], inner: list[int]) -> list[int]:
    """Rows 0..a + p − 1 of child a's matrix in one family, flat: the node's rows
    0..a with the new corners' entries inserted after column a ((E1)), the
    new rows (the child's news, per new corner its n entries with the old
    vertices, around the ear's entries among its inner corners, inner,
    flat), then the node's row a + 1, now b's.  One C-level gather by
    `_glue_plan` from the node's rows 0..a + 1, the child's news and inner,
    laid end to end."""
    source = rows[: (a + 2) * n]
    for new in news:
        source += new
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
    news, passed = _ears_pass(p, 0, last, counts, rows)
    yield s + 1, last, counts, rows, (news, passed)
    n = len(counts[0])
    node, lanes = (s, last, counts, rows), (last + 1) * n
    width = _lanes_wide(p, n + p - 2)  # the width `_ear_run` laid them out in
    news = [_unpacked(new, (p - 2) * lanes, width) for new in news]  # unpacked once; the packed news go
    for lo in range(0, lanes, n):  # child a's news: its n lanes in each corner's block
        yield from _subtree(p, s_max, _child(p, node, [[family[i : i + n] for i in range(lo, len(family), lanes)]
                                                      for family in news], lo // n))


def _child(p: int, node: tuple, news: list, a: int) -> tuple:
    """Child a of node = (s, last, counts, rows) by its own news, per family
    and inner corner t its n entries with the old vertices: (s + 1,
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
