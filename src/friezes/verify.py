"""Exhaustive checks tying the two frieze constructions together.

For a p-angulation D (p ∈ {4, 6}), T is its associated triangulation: each
face of D cut along its black (odd) corners.  Both friezes grow from their
quiddity rows by the same continuant recurrence, the radical one from the
face counts of D times 2cos(π/p), the integer one from the triangle counts
of T.  The checks are:

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
compared directly.

sweep() runs all three over every p-angulation up to a face-count bound;
deep_uniqueness() compares one radical frieze against the integer friezes
of *all* triangulations of the same polygon, and names the matches by the
same refinement: the black-corner one is "associated", the white-corner
one its "mirror".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

from .bijection import Triangulation, _refine, associated_triangulation, triangle_counts
from .exact import LAMBDA_RADICAND
from .frieze import Frieze, InternalAssertionError, cc_frieze, lambda_frieze
from .polygon import (
    Dissection,
    enumerate_p_angulations,
    fuss_catalan,
    quiddity_counts,
    rotate,
)


@dataclass(frozen=True)
class FirstViolation:
    """Where a check first failed: claim name, frieze row (if any), column/vertex."""

    claim: str
    row: int | None
    index: int

    def to_json(self) -> dict:
        return {"claim": self.claim, "row": self.row, "index": self.index}


class CheckResult(NamedTuple):
    ok: bool
    witness: FirstViolation | None


@dataclass(frozen=True)
class EvenScalingResult:
    ok: bool
    witness: FirstViolation | None
    epsilons: tuple[int, ...]
    alternates: bool


def _lemma_counts(d: Dissection, p: int, t: Triangulation) -> CheckResult:
    q = quiddity_counts(d)
    tc = triangle_counts(t)
    half = p // 2
    for alpha in range(d.n):
        expected = q[alpha] if alpha % 2 == 0 else half * q[alpha]
        if tc[alpha] != expected:
            return CheckResult(False, FirstViolation("lemma", None, alpha))
    return CheckResult(True, None)


def odd_rows_coincide(radical: Frieze, integral: Frieze) -> CheckResult:
    """Do two same-width friezes agree entrywise on every odd row?

    Entries are compared as integers (odd rows of both frieze families are
    integral), so the two friezes may live over different radicands.
    """
    assert radical.width == integral.width, "friezes must share a width"
    for r in range(1, radical.width + 3, 2):
        for k in range(radical.period):
            a = radical.entry(r, k).as_integer()
            b = integral.entry(r, k).as_integer()
            if a is None or b is None or a != b:
                return CheckResult(False, FirstViolation("odd_rows", r, k))
    return CheckResult(True, None)


def even_rows_scaled(radical: Frieze, integral: Frieze, p: int) -> EvenScalingResult:
    """Is each even integral row a (p/2)-dressed copy of the radical row?

    Row 2j passes when the radical entries are positive integer multiples
    a_k of √m and the integral entries equal (p/2)^((k+ε_j) mod 2)·a_k for
    some per-row offset ε_j ∈ {0, 1}; the chosen offsets are reported.
    """
    half = p // 2
    epsilons: list[int] = []
    for r in range(2, radical.width + 2, 2):
        coeffs = []
        for k in range(radical.period):
            c = radical.entry(r, k).as_radical_multiple()
            if c is None or c <= 0:
                return EvenScalingResult(
                    False, FirstViolation("even_scaling", r, k), tuple(epsilons), False
                )
            coeffs.append(c)
        chosen = None
        first_bad = None
        for eps in (0, 1):
            bad = next(
                (
                    k
                    for k in range(radical.period)
                    if integral.entry(r, k) != coeffs[k] * half ** ((k + eps) % 2)
                ),
                None,
            )
            if bad is None:
                chosen = eps
                break
            first_bad = bad if first_bad is None else min(first_bad, bad)
        if chosen is None:
            return EvenScalingResult(
                False, FirstViolation("even_scaling", r, first_bad), tuple(epsilons), False
            )
        epsilons.append(chosen)
    eps = tuple(epsilons)
    alternates = len(eps) > 1 and all(a != b for a, b in zip(eps, eps[1:]))
    return EvenScalingResult(True, None, eps, alternates)


def _build(d: Dissection, p: int) -> tuple[Triangulation, Frieze, Frieze]:
    t = associated_triangulation(d, p)
    radical = lambda_frieze(d, p)
    integral = cc_frieze(t, m=LAMBDA_RADICAND[p])
    return t, radical, integral


def check_lemma(d: Dissection, p: int) -> CheckResult:
    """Triangle counts of the associated triangulation against face counts of D."""
    return _lemma_counts(d, p, associated_triangulation(d, p))


def check_odd_rows(d: Dissection, p: int) -> CheckResult:
    """Entrywise agreement of the two friezes on every odd row."""
    _, radical, integral = _build(d, p)
    return odd_rows_coincide(radical, integral)


def check_even_scaling(d: Dissection, p: int) -> EvenScalingResult:
    """Even rows of the integer frieze as (p/2)-scaled radical-row coefficients."""
    _, radical, integral = _build(d, p)
    return even_rows_scaled(radical, integral, p)


@dataclass(frozen=True)
class VerificationReport:
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
    """Run all three checks, building each frieze exactly once."""
    started = time.perf_counter()
    t, radical, integral = _build(d, p)
    built = time.perf_counter()
    lemma = _lemma_counts(d, p, t)
    odd = odd_rows_coincide(radical, integral)
    even = even_rows_scaled(radical, integral, p)
    finished = time.perf_counter()
    first = next(
        (w for w in (lemma.witness, odd.witness, even.witness) if w is not None), None
    )
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


@dataclass(frozen=True)
class DeepUniquenessResult:
    """Which triangulations of the polygon reproduce the radical frieze's odd rows.

    ok is the strict reading: exactly one triangulation matched and it is
    the associated one.  The scan always finds a second witness — the
    opposite-color refinement shares every odd row (only the even rows
    differ, by where the p/2 factor sits) — and rotation-symmetric inputs
    add rotation images on top, so match_kinds labels every match as
    "associated", "mirror", "rotation" or "other" to keep the outcome
    interpretable.
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
    polygons.  See DeepUniquenessResult for how matches are reported.
    """
    radical = lambda_frieze(d, p)
    expected = associated_triangulation(d, p)
    # The white-corner refinement shares every odd row: its quiddity carries
    # the p/2 factor at even instead of odd vertices, odd rows are
    # even-length continuants of the quiddity, and each continuant monomial
    # drops adjacent index pairs (one of each parity), so the factor
    # placement cancels out.
    mirror = _refine(d, p, black=False)
    stabilizer = [c for c in range(1, d.n) if rotate(d, c) == d]
    matches = []
    total = 0
    for candidate in enumerate_p_angulations(d.n - 2, 3):
        total += 1
        if odd_rows_coincide(radical, cc_frieze(candidate)).ok:
            matches.append(candidate)

    def classify(m: Dissection) -> str:
        if m == expected:
            return "associated"
        if m == mirror:
            return "mirror"
        for c in stabilizer:
            if m == rotate(expected, c) or m == rotate(mirror, c):
                return "rotation"
        return "other"

    ok = len(matches) == 1 and matches[0] == expected
    return DeepUniquenessResult(
        ok, total, tuple(matches), expected, tuple(classify(m) for m in matches)
    )


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate outcome of verifying every p-angulation with s ≤ s_max."""

    p: int
    s_max: int
    checked: int
    per_s: dict[int, int]
    counterexamples: tuple[VerificationReport, ...]
    deep_checked: bool
    deep_failures: tuple[Dissection, ...]

    @property
    def all_ok(self) -> bool:
        return not self.counterexamples and not self.deep_failures

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "s_max": self.s_max,
            "checked": self.checked,
            "per_s": {str(s): c for s, c in sorted(self.per_s.items())},
            "all_ok": self.all_ok,
            "counterexamples": [r.to_json() for r in self.counterexamples],
            "deep_checked": self.deep_checked,
            "deep_failures": [d.to_json() for d in self.deep_failures],
        }


def sweep(p: int, s_max: int, deep: bool = False) -> SweepSummary:
    """Verify every p-angulation with 1 ≤ s ≤ s_max faces.

    With deep=True each dissection additionally runs deep_uniqueness —
    exhaustive over all triangulations of its polygon, so keep s small.
    """
    if s_max < 1:
        raise ValueError("face count bound must be positive")
    per_s: dict[int, int] = {}
    counterexamples = []
    deep_failures = []
    checked = 0
    for s in range(1, s_max + 1):
        count = 0
        for d in enumerate_p_angulations(s, p):
            count += 1
            report = verify_dissection(d, p)
            if not report.ok:
                counterexamples.append(report)
            if deep and not deep_uniqueness(d, p).ok:
                deep_failures.append(d)
        if count != fuss_catalan(s, p):
            raise InternalAssertionError(
                f"enumerated {count} {p}-angulations with {s} faces, "
                f"expected {fuss_catalan(s, p)}"
            )
        per_s[s] = count
        checked += count
    return SweepSummary(
        p=p,
        s_max=s_max,
        checked=checked,
        per_s=per_s,
        counterexamples=tuple(counterexamples),
        deep_checked=deep,
        deep_failures=tuple(deep_failures),
    )
