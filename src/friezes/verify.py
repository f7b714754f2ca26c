"""Exhaustive checks tying the two frieze constructions together.

For a p-angulation D (p ∈ {4, 6}), T is its associated triangulation: each
face of D cut along its black (odd) corners.  Both friezes grow from their
quiddity rows by the same plain-int continuant kernel, the radical one from
the face counts of D times 2cos(π/p), the integer one from the triangle
counts of T; a frieze that closes is grown only to its middle row, the rows
above it taken from Coxeter's glide symmetry (see `frieze._grow`).  T is
built once per checked dissection, by the one refinement
(`bijection._refine`: the counting test that D is a p-angulation, the one
check of D, then one face pass adding the chords between the black corners
of each face), unchecked, as it is a triangulation by construction; the
counts of D and T are read once each.  The checks take the kernel's int
rows as they come, with no QuadNum in between: an odd row is compared as
two int lists, and an even row of the radical frieze holds the
coefficients a_k of a_k·√m.  `verify_dissection` grows both friezes once
and walks them by the three checks below, which name the first witness
and the ε_j.  A sweep grows no frieze of a whole dissection: it glues
each p-angulation from its parent by one ear and computes and checks only
the O(p·n) entries the ear adds, for all children of one parent at once
((E) below), or, on the top level of an orbit sweep, for one
representative at a time ((C) below).  A level with a check that
fails is re-run through `verify_dissection`, in the one pass that builds
its `Dissection`s, so a report is always `verify_dissection`'s.  The checks
are:

* check_lemma        — triangle counts of T against face counts of D:
                       t_α = q_α at white (even) vertices and (p/2)·q_α at
                       black (odd) vertices.
* check_odd_rows     — the radical frieze of D and the integer frieze of T
                       agree entrywise on every odd row.
* check_even_scaling — on each even row 2j the radical frieze is a_k·√m and
                       the integer frieze is (p/2)^((k+ε_j) mod 2)·a_k for
                       some ε_j ∈ {0, 1}; the ε_j are recorded as data.

The frieze-level comparisons behind the last two (odd_rows_coincide,
even_rows_scaled) are public so arbitrary frieze pairs — e.g. a radical
frieze against a deliberately corrupted triangulation's frieze — can be
compared directly.  They read each grid's coefficient pairs as ints (an
integer, or for the radical even rows an integer multiple of √m, as
`as_integer` and `as_radical_multiple` would; an entry with no such
reading never matches), hand them to the same int-row comparisons, and
raise ValueError when the widths differ.

Every report here is a `NamedTuple` record: it iterates, indexes and
compares equal to the plain tuple of its fields, and assigning a field
raises AttributeError.

sweep() runs all three over every p-angulation up to a face-count bound,
by gluing ears ((E) below), or with orbits=True over one p-angulation per
even-rotation orbit of the top level, by (C) below;
deep_uniqueness() compares one radical frieze against the integer friezes
of *all* triangulations of the same polygon, and names the matches by the
same refinement: the black-corner one is "associated", the white-corner
one its "mirror", and it lists them in that order, ahead of any other
match (those follow in the order of `diagonals_sorted`).  Its candidates
are the leaves of (E)'s tree for p = 3, glued as triangle counts alone.
With h = p/2 = λ², two facts make that scan a comparison of row 3 alone,
read off the counts:

(A) Row 3 decides every odd row.  Row 3 of the two friezes is
    c_k·c_{k+1} − 1 and h·q_k·q_{k+1} − 1.  If c_k·c_{k+1} = h·q_k·q_{k+1}
    for every k of the even cycle, then c_k = λq_k·ρ^((−1)^k) for one ρ.
    Every odd row is an even-length continuant of the quiddity, and each
    of its monomials keeps as many even- as odd-indexed factors, so ρ
    cancels: row 3 agrees exactly when every odd row agrees.  (Even rows
    are odd-length continuants and scale by λ^(±1), which is why the
    even-row offsets ε_j are all 0 for the associated triangulation and
    all 1 for its mirror.)
(B) Only the twins match.  A match has counts a·q_k at white and (h/a)·q_k
    at black vertices.  The associated triangulation (a = 1) and its
    mirror (a = h) both have 3(n − 2) corners, so q sums to the same over
    white as over black vertices, which forces a + h/a = 1 + h, so
    a ∈ {1, h}.  A quiddity fixes its triangulation, so the twins are the
    only matches, also for a rotation-symmetric D: a rotation of D onto
    itself maps each twin to a twin.

A third fact lets a sweep check one p-angulation per orbit:

(C) The checks commute with even rotations.  Let ρ be v ↦ v + c (mod n)
    with c even.  For p ∈ {4, 6} n = (p − 2)s + 2 is even, so ρ keeps
    every vertex's color.  ρ maps the faces of D onto the faces of ρD, so
    the face counts move with it (q'_{v+c} = q_v), and, colors kept, the
    black corners of each face onto the black corners of its image, so the
    triangle counts of the black-corner refinement move the same way
    (t'_{v+c} = t_v; an odd c swaps the colors and gives the mirror's
    counts instead).  Entry (r, k) of a frieze is a continuant of the
    quiddity entries k, k + 1, …, taken mod n, so shifting both quiddities
    by c shifts every row of both friezes by c columns, and a kernel
    failure moves with them.  Each check compares column k of one row with
    column k of another, with the factor p/2 placed by the parity of k (or
    of k + ε_j); c is even, so column k + c has the parity of k.  Hence
    each check passes on ρD exactly when it passes on D, with the same
    ε_j, and only the witness columns move.  Within an orbit of even
    rotations, the p-angulation whose face counts are least in
    lexicographic order has counts least among their own even rotations,
    so `sweep(orbits=True)` checks it on the top level (the levels below
    are checked whole): every orbit is checked, and every p-angulation it
    skips passes exactly when a checked one does.  The counts fix the
    p-angulation (a run of p − 2 consecutive vertices of count 1 lies in
    one face with its two neighbours, so it is an ear, which the counts
    show; cutting it off leaves the counts of the rest), so exactly one
    p-angulation per orbit is checked.  Its vertex 0 lies in one face: for
    s ≥ 2 the p − 2 inner corners of an ear, each of count 1, hold an even
    vertex.  A failing level is re-run whole, as in the exhaustive sweep, so
    the reports are the same.

Both sweeps rest on a fourth:

(E) A child's friezes are its parent's, extended by its ear.  An ear of D
    is a face whose corners are a run a, a + 1, ..., b = a + p − 1 that
    does not wrap past vertex 0.  With s ≥ 2 faces D has at least two ears
    (the leaves of its dual tree), and only the face on the edge (n − 1, 0)
    can wrap, so its canonical ear, the non-wrapping one with the least first
    inner vertex e, is defined.  Cutting it off and numbering the rest
    consecutively gives D's parent.  Conversely, gluing a p-gon on the edge
    (a, a + 1) of a parent P (new corners a + 1..a + p − 2, P's vertices
    above a moved up by p − 2) makes the new face the child's canonical ear
    exactly when a ≤ e_P + p − 3: the face of P on the edge stops being an
    ear, P's other ears keep their runs, and those are ahead of a + 1 only
    if they end at or before a, which the canonical ear of P, starting at
    e_P − 1, does exactly when a ≥ e_P + p − 2.  So every p-angulation
    with s ≥ 2 is glued exactly once, from its canonical parent; the lone
    p-gon is glued once, on the one edge of the 2-gon.  A child's e is
    a + 1, so its own children glue on a' ≤ a + p − 2 ≤ n' − 2, reading
    only its rows 0..a + p − 1.  This half holds for every p ≥ 3 and reads
    the counts alone: the inner corners of an ear are the vertices of count
    1, so the canonical ear is the first run of p − 2 ones from vertex 1
    on, and cutting it takes 1 from a and from b (`polygon._canonical_parent`,
    the inverse of the glue, `polygon._glued`).  `polygon._ear_counts` walks
    the tree on counts; the deep scan reads its leaves for p = 3.

    The friezes come from plane vectors (`tests/geometry.py` builds them
    exactly).  Give the corners of a face, in order, the unit vectors
    v_t = (cos tπ/p, sin tπ/p), for which det(v_i, v_j)/sin(π/p) is
    ℓ_{j−i} = sin((j−i)π/p)/sin(π/p) (1, √2, 1 for p = 4 and 1, √3, 2, √3,
    1 for p = 6), and glue the ear onto the placed w_a and w_b by the one
    linear map sending its v_0 and v_{p−1} there; it has determinant 1, as
    det(v_0, v_{p−1}) = sin(π/p) = det(w_a, w_b), a and b being neighbours
    in the parent (entry 1).  By Cramer's rule
    v_t = ℓ_{p−1−t}·v_0 + ℓ_t·v_{p−1}, so the corner x = a + t gets
    w_x = ℓ_{p−1−t}·w_a + ℓ_t·w_b, and with e(i, j) = det(w_i, w_j)/sin(π/p):
    (E1) no old vector moves, so every old entry is kept;
    (E2) e(x, j) = e(a, x)·e(b, j) + e(x, b)·e(a, j) for every old j, with
         e(a, x) = ℓ_t and e(x, b) = ℓ_{p−1−t}; two corners of the ear t
         apart have ℓ_t.
    Induction on s: if the parent's entries are its frieze, the new entries
    are positive (sums of positive products), the sides and the diagonal
    (a, b) have 1, and the diamond rule at every position is the Plücker
    relation det(w_i, w_k)·det(w_j, w_l) = det(w_i, w_j)·det(w_k, w_l) +
    det(w_i, w_l)·det(w_j, w_k) of four vectors with two pairs of
    neighbours: the grid is a frieze, which its row 2 fixes.  Row 2 is kept
    away from the ear, is ℓ_2 = λ at the inner corners and is checked at a
    and b, so the grid is the radical frieze of λ times the child's face
    counts.  The integral family is the same with the ear refined along its
    own black corners: unit triangles glued along T give its
    Conway–Coxeter frieze, and the ear's own entries, the Conway–Coxeter
    frieze of the refined p-gon, replace the ℓ's.  In C values (the C of
    C·√m at an even distance of the radical frieze) a product of two surds
    gains the factor m = λ².

    So a batch computes, for every child a and family, the rows
    α·(row a + 1) + β·(row a) of its new corners against the old vertices,
    and checks them: positive, and the integral entry equal to the radical
    one, times p/2 at an even distance from a white new corner (ε = 0).
    Row 2 at a and at b must be the changed counts, q + 1 and the triangle
    counts plus the ear's, so the comparison there is the lemma on them.
    Each entry of D is checked once in the tree: a pair of two old vertices
    is the parent's pair, a pair of a new corner and an old vertex is this
    batch's, and a pair of two corners of the ear is one of the lone
    p-gon's pairs with the same colours, checked once (`_faces_pass`), so
    following D's canonical parents to the 2-gon meets each pair of D
    exactly once.  An old pair keeps its check: gluing moves a vertex by 0
    or p − 2, both even, so the distance of the pair and the colour of its
    smaller vertex, which place the factor p/2, are kept with its value.
    Conversely every descendant of a child holds the child's entries, which
    its own batch does not check again, so a batch that fails marks its
    level, and every level above it is re-run too.
"""

from __future__ import annotations

import time
from operator import mul, ne
from typing import NamedTuple, Sequence

from .bijection import _require_p, associated_triangulation
from .ears import _ear_batches, _ears_pass, _faces_pass
from .exact import LAMBDA_RADICAND
from .frieze import Frieze, InternalAssertionError, _require_grid, _rows
from .polygon import (
    Dissection,
    _canonical_parent,
    _ear_counts,
    _glued,
    _polygon_size,
    _walked,
    enumerate_p_angulations,
    fuss_catalan,
    quiddity_counts,
)


# A frieze grid as ints, indexed [r][k]; None marks an entry with no int reading.
Rows = Sequence[Sequence["int | None"]]


class FirstViolation(NamedTuple):
    """Where a check first failed: claim name, frieze row (if any), column/vertex."""

    claim: str
    row: int | None
    index: int

    def to_json(self) -> dict:
        return {"claim": self.claim, "row": self.row, "index": self.index}


class CheckResult(NamedTuple):
    ok: bool
    witness: FirstViolation | None


class EvenScalingResult(NamedTuple):
    ok: bool
    witness: FirstViolation | None
    epsilons: tuple[int, ...]
    alternates: bool


def _first_miss(coeffs: Sequence, row: Sequence, half: int, eps: int) -> int | None:
    """The first column k where row[k] is not coeffs[k]·half^((k + eps) mod 2), or
    None; a None coefficient never matches.  The rows have one length."""
    for k, (c, e) in enumerate(zip(coeffs, row)):
        if c is None or e != (c * half if (k + eps) % 2 else c):
            return k
    return None


def _lemma_counts(q: Sequence[int], tc: Sequence[int], p: int) -> CheckResult:
    """Triangle counts against face counts: t_α = q_α at even α, (p/2)·q_α at odd α,
    witnessed by `_first_miss` at the first vertex that differs."""
    alpha = _first_miss(q, tc, p // 2, 0)
    if alpha is not None:
        return CheckResult(False, FirstViolation("lemma", None, alpha))
    return CheckResult(True, None)


def _odd_rows_match(radical: Rows, integral: Rows, width: int) -> CheckResult:
    """Odd rows of two int grids, equal entrywise by `_first_miss`; None never matches."""
    for r in range(1, width + 3, 2):
        k = _first_miss(radical[r], integral[r], 1, 0)
        if k is not None:
            return CheckResult(False, FirstViolation("odd_rows", r, k))
    return CheckResult(True, None)


def _even_rows_match(coefficients: Rows, integral: Rows, width: int, p: int) -> EvenScalingResult:
    """Even rows: integral entries equal to the radical coefficients dressed by (p/2).

    coefficients[r] holds the radical entries of row r as multiples a_k of
    √m, integral[r] the integral entries; None (no such integer) never
    matches, nor does a coefficient that is not positive, witnessed at its
    column.  Each row is scanned by `_first_miss` against the coefficients
    times (p/2) at the columns k with k + ε odd, ε = 0 (the factor at odd
    columns) tried first; a row that neither offset passes is witnessed at
    the smaller of the two misses.
    """
    half = p // 2
    epsilons: list[int] = []
    for r in range(2, width + 2, 2):
        coeffs, row = coefficients[r], integral[r]
        k = next((k for k, c in enumerate(coeffs) if c is None or c <= 0), None)
        if k is not None:
            return EvenScalingResult(
                False, FirstViolation("even_scaling", r, k), tuple(epsilons), False
            )
        miss = _first_miss(coeffs, row, half, 0)
        if miss is not None:
            other = _first_miss(coeffs, row, half, 1)
            if other is not None:
                witness = FirstViolation("even_scaling", r, min(miss, other))
                return EvenScalingResult(False, witness, tuple(epsilons), False)
        epsilons.append(0 if miss is None else 1)
    eps = tuple(epsilons)
    alternates = len(eps) > 1 and all(map(ne, eps, eps[1:]))
    return EvenScalingResult(True, None, eps, alternates)


def odd_rows_coincide(radical: Frieze, integral: Frieze) -> CheckResult:
    """Do two same-width friezes agree entrywise on every odd row?

    A cell agrees when both entries are the same integer (odd rows of both
    frieze families are integral); entries are read as integers whatever
    their field, so the friezes may live over different radicands.  Unequal
    widths raise ValueError.
    """
    return _odd_rows_match(*_read(radical, integral, False), radical.width)


def even_rows_scaled(radical: Frieze, integral: Frieze, p: int) -> EvenScalingResult:
    """Is each even integral row a (p/2)-dressed copy of the radical row?

    Row 2j passes when the radical entries are positive integer multiples
    a_k of √m and the integral entries equal (p/2)^((k+ε_j) mod 2)·a_k for
    some per-row offset ε_j ∈ {0, 1}, tried 0 first; the chosen offsets are
    reported, and a failing row is witnessed at the smallest column either
    offset misses.  A p outside {4, 6}, then unequal widths, raise ValueError.
    """
    _require_p(p)
    return _even_rows_match(*_read(radical, integral, True), radical.width, p)


def _read(radical: Frieze, integral: Frieze, surd: bool) -> tuple[Rows, Rows]:
    """Both grids' entries as ints, read off `Frieze._mapped`'s coefficient pairs
    (a, b), no pair grid cached: a of an integer (a, 0), or for the radical grid
    with surd the c of c·√m, (0, c); None where an entry is not of that form (a
    zero coefficient is always the int 0).  Unequal widths raise ValueError."""
    if radical.width != integral.width:
        raise ValueError("friezes must share a width")
    ints = lambda a, b: a if b == 0 and type(a) is int else None
    surds = lambda a, b: b if a == 0 and type(b) is int else None
    return list(radical._mapped(surds if surd else ints)), list(integral._mapped(ints))


def _counts(d: Dissection, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """D's face counts and the triangle counts of its associated triangulation,
    built unchecked by `associated_triangulation` (p, then its p-angulation
    test, the one check of D)."""
    return quiddity_counts(d), quiddity_counts(associated_triangulation(d, p))


def _grids(q: Sequence[int], tc: Sequence[int], p: int) -> tuple[Rows, Rows]:
    """The kernel rows of the radical frieze grown from the face counts q and of
    the integral frieze grown from the triangle counts tc."""
    return _rows(q, LAMBDA_RADICAND[p], True), _rows(tc, 1, False)


def check_lemma(d: Dissection, p: int) -> CheckResult:
    """Triangle counts of the associated triangulation against face counts of D;
    no frieze is grown."""
    return _lemma_counts(*_counts(d, p), p)


def check_odd_rows(d: Dissection, p: int) -> CheckResult:
    """Entrywise agreement of the two friezes on every odd row."""
    return _odd_rows_match(*_grids(*_counts(d, p), p), d.n - 3)


def check_even_scaling(d: Dissection, p: int) -> EvenScalingResult:
    """Even rows of the integer frieze as (p/2)-scaled radical-row coefficients."""
    return _even_rows_match(*_grids(*_counts(d, p), p), d.n - 3, p)


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


class VerificationReport(NamedTuple):
    """All three checks for one dissection, with the first violation if any."""

    p: int
    s: int
    dissection: Dissection
    lemma_ok: bool
    odd_rows_ok: bool
    even_scaling_ok: bool
    epsilons: tuple[int, ...]
    epsilon_alternates: bool
    first_violation: FirstViolation | None
    timings_ms: dict[str, float]

    @property
    def ok(self) -> bool:
        return self.lemma_ok and self.odd_rows_ok and self.even_scaling_ok

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "s": self.s,
            "dissection": self.dissection.to_json(),
            "lemma_ok": self.lemma_ok,
            "odd_rows_ok": self.odd_rows_ok,
            "even_scaling_ok": self.even_scaling_ok,
            "epsilons": list(self.epsilons),
            "epsilon_alternates": self.epsilon_alternates,
            "first_violation": None
            if self.first_violation is None
            else self.first_violation.to_json(),
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
        }


def verify_dissection(d: Dissection, p: int) -> VerificationReport:
    """Run all three checks on D's counts, read once.

    Both friezes are grown once from the counts by `_rows` (which raises
    InternalAssertionError if the kernel fails) and walked entry by entry,
    which names the first violation, in check order, and the ε_j.
    timings_ms["build"] times reading the counts and growing both friezes;
    timings_ms["checks"] times the three walks.
    """
    started = time.perf_counter()
    q, tc = _counts(d, p)
    radical, integral = _grids(q, tc, p)
    built = time.perf_counter()
    width = d.n - 3
    lemma = _lemma_counts(q, tc, p)
    odd = _odd_rows_match(radical, integral, width)
    even = _even_rows_match(radical, integral, width, p)
    finished = time.perf_counter()
    first = lemma.witness or odd.witness or even.witness  # a witness is never falsy
    return VerificationReport(
        p=p,
        s=len(d.diagonals) + 1,
        dissection=d,
        lemma_ok=lemma.ok,
        odd_rows_ok=odd.ok,
        even_scaling_ok=even.ok,
        epsilons=even.epsilons,
        epsilon_alternates=even.alternates,
        first_violation=first,
        timings_ms={
            "build": (built - started) * 1000.0,
            "checks": (finished - built) * 1000.0,
        },
    )


class DeepUniquenessResult(NamedTuple):
    """Which triangulations of the polygon reproduce the radical frieze's odd rows.

    ok is the strict reading: exactly one triangulation matched and it is
    the associated one.  The scan always finds a second witness — the
    opposite-color refinement shares every odd row (only the even rows
    differ, by where the p/2 factor sits) — so match_kinds labels every
    match as "associated", "mirror" or "other" to keep the outcome
    interpretable (by (B) in the module docstring no "other" occurs).
    matches come in a fixed order: "associated" first, then "mirror", then
    the rest in lexicographic order of `diagonals_sorted`.
    """

    ok: bool
    triangulations: int
    matches: tuple[Dissection, ...]
    expected: Dissection
    match_kinds: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "triangulations": self.triangulations,
            "expected": self.expected.to_json(),
            "matches": [
                {"kind": kind, **match.to_json()}
                for kind, match in zip(self.match_kinds, self.matches)
            ],
        }


def deep_uniqueness(d: Dissection, p: int) -> DeepUniquenessResult:
    """Scan all triangulations of the n-gon for odd-row agreement with D's frieze.

    Exhaustive over Catalan-many candidates, so only sensible for small
    polygons.  A candidate is a count vector: the ear tree of triangle
    counts (`polygon._ear_counts` with p = 3) glues each triangulation's
    counts from its canonical parent's, and by Conway–Coxeter these counts
    c are its quiddity.  By (A) in the module docstring a candidate matches
    exactly when its row 3 does, that is when c_k·c_{k+1} = (p/2)·q_k·q_{k+1}
    for every k, so no frieze is grown.  A match is labelled by its counts:
    "associated" for those of `expected`, the black-corner refinement, which
    is built, "mirror" for q at black and (p/2)·q at white vertices, the
    white-corner refinement's, which is not ((B): a quiddity fixes its
    triangulation).  Only a match becomes a Dissection,
    named by its counts (`_triangulation`) and built unchecked like the
    library's other derived dissections (`polygon._walked`).
    The number scanned is checked against the Catalan number C_{n−2}; any
    other count is an InternalAssertionError.  See DeepUniquenessResult for
    how matches are reported.
    """
    expected = associated_triangulation(d, p)  # the one check of p and of D
    q = quiddity_counts(d)
    half = p // 2
    products = [half * a * b for a, b in zip(q, q[1:] + q[:1])]
    associated = list(quiddity_counts(expected))
    mirror = [c if v & 1 else half * c for v, c in enumerate(q)]
    catalan = fuss_catalan(d.n - 2, 3)
    matches = []
    total = 0
    first = products[0]
    for c in _ear_counts(d.n - 2, 3):  # the n-gon's triangulations, as quiddities
        total += 1
        # the first term decides most candidates before the row is built
        if c[0] * c[1] == first and list(map(mul, c, c[1:] + c[:1])) == products:
            kind = "associated" if c == associated else "mirror" if c == mirror else "other"
            matches.append((kind, _triangulation(c)))
    if total != catalan:
        raise InternalAssertionError(
            f"scanned {total} triangulations of the {d.n}-gon, expected {catalan}"
        )
    # "associated" < "mirror" < "other", and the rest in the order of their sorted diagonals
    matches.sort(key=lambda match: (match[0], match[1].diagonals_sorted))
    found = tuple(match for _, match in matches)
    ok = len(found) == 1 and found[0] == expected
    return DeepUniquenessResult(ok, total, found, expected, tuple(kind for kind, _ in matches))


def _triangulation(counts: list[int]) -> Dissection:
    """The triangulation with these triangle counts: its canonical ears cut one
    by one (`polygon._canonical_parent`) back to the lone triangle, each
    cut's diagonal (a, a + 2) recorded in the original labels."""
    n = len(counts)
    labels = list(range(n))
    diagonals = []
    while len(counts) > 3:
        counts, a = _canonical_parent(counts, 3)
        diagonals.append((labels[a], labels[a + 2]))
        del labels[a + 1]
    return _walked(Dissection, n, frozenset(diagonals))


class SweepSummary(NamedTuple):
    """Aggregate outcome of verifying every p-angulation with s ≤ s_max.

    orbits_checked is None for an exhaustive sweep; an orbit sweep sets it
    to the number of orbit representatives, one p-angulation per
    even-rotation orbit of each level, and only then does the JSON carry
    it."""

    p: int
    s_max: int
    checked: int
    per_s: dict[int, int]
    counterexamples: tuple[VerificationReport, ...]
    deep_checked: bool
    deep_failures: tuple[Dissection, ...]
    orbits_checked: int | None = None

    @property
    def all_ok(self) -> bool:
        return not self.counterexamples and not self.deep_failures

    def to_json(self) -> dict:
        orbits = {} if self.orbits_checked is None else {"orbits_checked": self.orbits_checked}
        return {
            "p": self.p,
            "s_max": self.s_max,
            "checked": self.checked,
            **orbits,
            "per_s": {str(s): c for s, c in sorted(self.per_s.items())},
            "all_ok": self.all_ok,
            "counterexamples": [r.to_json() for r in self.counterexamples],
            "deep_checked": self.deep_checked,
            "deep_failures": [d.to_json() for d in self.deep_failures],
        }


def sweep(p: int, s_max: int, deep: bool = False, orbits: bool = False) -> SweepSummary:
    """Verify every p-angulation with 1 ≤ s ≤ s_max faces.

    One door checks the arguments of both modes before any level is read:
    s_max, p (as the walk, then `_require_p`), then the largest polygon
    against the kernel's bound (`frieze._require_grid`).

    The exhaustive sweep glues ears (`_ear_batches`, (E) in the module
    docstring): each p-angulation is built once, from its canonical parent,
    and only the O(p·n) entries and counts its ear adds are computed and
    checked, for all children of one parent at once, in one call
    (`_ears_pass`); the entries between two corners of one ear are the lone
    p-gon's, checked once (`_faces_pass`).  A failing check marks its level;
    every level above it, where its children's descendants lie, inherits
    the mark.
    After each level's count is checked against the Fuss–Catalan number, in
    order of s, a marked level is re-run once through `verify_dissection`,
    in enumeration order, so every report (witness, ε, timings) and every
    error is the one that dissection gives alone.  A level whose own check
    failed and whose re-run finds no counterexample is an
    InternalAssertionError; a level that only inherited its mark may pass.

    With orbits=True the levels below s_max are checked as above, and on the
    top level only the p-angulations whose face counts are least among their
    even rotations (`_least_rotation`, one per orbit), each alone by the
    same call (`_ears_pass` on a run of one); by (C) in the
    module docstring each passes exactly when its orbit does.  A marked
    level is re-run whole, as above; `checked` and `per_s` still count every
    p-angulation, and `orbits_checked` the representatives of every level.

    With deep=True each dissection also runs deep_uniqueness, exhaustive
    over all triangulations of its polygon (so keep s small), after the
    level's count check, in the same pass as the re-run: the one pass that
    builds the level's `Dissection`s, in enumeration order.
    """
    if type(s_max) is not int:  # no floats, no bools
        raise ValueError(f"face count bound must be an integer, got {s_max!r}")
    if s_max < 1:
        raise ValueError("face count bound must be positive")
    _polygon_size(1, p)
    _require_p(p)
    _require_grid((p - 2) * s_max + 2)
    per_s: dict[int, int] = {}
    counterexamples: list[VerificationReport] = []
    deep_failures: list[Dissection] = []
    orbits_checked = 0
    levels = _ear_levels(p, s_max, orbits)
    for s, (count, failed, inherited, representatives) in zip(range(1, s_max + 1), levels):
        orbits_checked += representatives
        if count != fuss_catalan(s, p):
            raise InternalAssertionError(
                f"enumerated {count} {p}-angulations with {s} faces, "
                f"expected {fuss_catalan(s, p)}"
            )
        marked = failed or inherited
        if marked or deep:  # the level's one pass over Dissections
            found = len(counterexamples)
            for d in enumerate_p_angulations(s, p):
                if marked:
                    report = verify_dissection(d, p)
                    if not report.ok:
                        counterexamples.append(report)
                if deep and not deep_uniqueness(d, p).ok:
                    deep_failures.append(d)
            if failed and len(counterexamples) == found:
                raise InternalAssertionError(
                    f"a batch of {p}-angulations with {s} faces failed, but each passes alone"
                )
        per_s[s] = count
    return SweepSummary(
        p=p,
        s_max=s_max,
        checked=sum(per_s.values()),
        per_s=per_s,
        counterexamples=tuple(counterexamples),
        deep_checked=deep,
        deep_failures=tuple(deep_failures),
        orbits_checked=orbits_checked if orbits else None,
    )


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
    for s, last, counts, rows, checked in _ear_batches(p, s_max, _ears_pass):
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
