"""Frieze grids over Q(√m): construction from a quiddity row, validation,
rendering and serialization.

A frieze of width n is a grid of rows 0..n+3, each a cyclic sequence of
period N = n + 3.  Rows 0 and n+3 are zero, rows 1 and n+2 are one, and the
interior is positive.  Entry e(r, k) sits at horizontal position k + r/2;
the diamond at (r, k) reads

        north = e(r+1, k)
    west = e(r, k)    east = e(r, k+1)
        south = e(r-1, k+1)

and satisfies west·east - south·north = 1.  The quiddity row is row 2, with
e(2, k) attached to polygon vertex k.  Every entry is a continuant of the
quiddity row: e(r+1, k) = e(2, k+r-1)·e(r, k) - e(r-1, k), so building a
frieze needs ring operations only, never a division.  In a staggered
rendering rows drift horizontally, so a single row matches a reference
sequence only up to cyclic rotation, while frieze-against-frieze
comparisons are entrywise at equal (r, k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .bijection import NotPAngulationError, triangle_counts
from .exact import LAMBDA_RADICAND, QuadNum, RadicandMismatchError
from .polygon import Dissection, is_p_angulation, quiddity_counts


class FriezeError(ValueError):
    """A frieze could not be built or parsed."""


class QuiddityPositivityError(FriezeError):
    """Not a frieze quiddity: a generated interior entry is zero or negative."""

    def __init__(self, row: int, col: int, message: str):
        super().__init__(message)
        self.row = row
        self.col = col


class ClosureError(FriezeError):
    """The generated top row is positive but not all ones."""

    def __init__(self, row: int, col: int, message: str):
        super().__init__(message)
        self.row = row
        self.col = col


class InternalAssertionError(RuntimeError):
    """A mathematically guaranteed step failed; indicates a defect, not bad input."""


class IntegralityError(InternalAssertionError):
    """A triangle-count frieze produced a non-integer interior entry."""


@dataclass(frozen=True)
class Frieze:
    """An immutable frieze grid: radicand m, width n, rows 0..n+3."""

    m: int
    width: int
    rows: tuple[tuple[QuadNum, ...], ...]

    @property
    def period(self) -> int:
        return self.width + 3

    def row(self, r: int) -> tuple[QuadNum, ...]:
        if not 0 <= r <= self.width + 3:
            raise IndexError(f"row {r} outside 0..{self.width + 3}")
        return self.rows[r]

    def entry(self, r: int, k: int) -> QuadNum:
        """e(r, k); the column index wraps with period n + 3."""
        return self.row(r)[k % self.period]

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "m": self.m,
            "rows": [[e.to_json() for e in row] for row in self.rows],
        }

    @staticmethod
    def from_json(data: dict) -> "Frieze":
        """Parse a frieze grid, checking shape but not the frieze laws.

        Arbitrary grids load fine so that `validate` can report on them.
        """
        try:
            width = int(data["width"])
            m = int(data["m"])
            raw_rows = [list(raw) for raw in data["rows"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FriezeError(f"malformed frieze object: {exc}") from exc
        if width < 0:
            raise FriezeError(f"width must be nonnegative, got {width}")
        if len(raw_rows) != width + 4:
            raise FriezeError(f"expected {width + 4} rows for width {width}, got {len(raw_rows)}")
        rows = []
        for raw in raw_rows:
            if len(raw) != width + 3:
                raise FriezeError(f"every row must have {width + 3} entries, got {len(raw)}")
            row = tuple(QuadNum.from_json(e) for e in raw)
            if any(e.m != m for e in row):
                raise FriezeError("rows mix radicands with the frieze header")
            rows.append(row)
        return Frieze(m, width, tuple(rows))


def from_quiddity(entries: Sequence[QuadNum]) -> Frieze:
    """Grow a frieze from its quiddity row, or reject the row.

    Row 1 is ones; each later row follows from the continuant recurrence
    e(r+1, k) = e(2, k+r-1)·e(r, k) - e(r-1, k).  The row is a frieze
    quiddity only if rows 2..n+2 are positive and row n+2 comes out as all
    ones; the first failure, in row-major order, is reported with its
    (row, col).  Only ring operations are used, so rational quiddities
    build as well as integral or radical ones.
    """
    quiddity = tuple(entries)
    if len(quiddity) < 3:
        raise FriezeError(f"a quiddity row needs at least 3 entries, got {len(quiddity)}")
    m = quiddity[0].m
    if any(e.m != m for e in quiddity):
        raise RadicandMismatchError("quiddity row mixes radicands")
    period = len(quiddity)
    n = period - 3
    zeros = (QuadNum.zero(m),) * period
    ones = (QuadNum.one(m),) * period
    rows = [zeros, ones, quiddity]
    for r in range(2, n + 2):
        shifted = quiddity[r - 1 :] + quiddity[: r - 1]  # e(2, k+r-1) at index k
        rows.append(tuple(q * e - below for q, e, below in zip(shifted, rows[r], rows[r - 1])))
    for r in range(2, n + 3):
        for k, e in enumerate(rows[r]):
            if e.sign() <= 0:
                raise QuiddityPositivityError(
                    r, k, f"not a frieze quiddity: entry {e} at ({r}, {k}) is not positive"
                )
    for k, e in enumerate(rows[n + 2]):
        if e != 1:
            raise ClosureError(
                n + 2, k, f"closure failure: row {n + 2} holds {e} at column {k}, expected 1"
            )
    rows.append(zeros)
    return Frieze(m, n, tuple(rows))


def lambda_frieze(dissection: Dissection, p: int) -> Frieze:
    """The frieze of a p-angulation: quiddity q_k·(2cos(π/p)), p ∈ {4, 6}."""
    if p not in (4, 6):
        raise ValueError(f"radical friezes are defined for p ∈ {{4, 6}}, got {p}")
    if not is_p_angulation(dissection, p):
        raise NotPAngulationError(f"{dissection!r} is not a {p}-angulation")
    m = LAMBDA_RADICAND[p]
    quiddity = tuple(QuadNum(m, 0, c) for c in quiddity_counts(dissection))
    try:
        return from_quiddity(quiddity)
    except FriezeError as exc:  # cannot happen for a genuine p-angulation
        raise InternalAssertionError(
            f"frieze construction failed on a valid {p}-angulation: {exc}"
        ) from exc


def cc_frieze(triangulation: Dissection, m: int = 1) -> Frieze:
    """The integer frieze of a triangulation, from its triangle counts.

    The optional radicand m only selects the ambient field (entries stay
    rational), so the result can be compared entrywise against a radical
    frieze over the same field.
    """
    counts = triangle_counts(triangulation)  # validates the triangulation
    quiddity = tuple(QuadNum(m, c) for c in counts)
    try:
        built = from_quiddity(quiddity)
    except FriezeError as exc:  # cannot happen for a genuine triangulation
        raise InternalAssertionError(
            f"frieze construction failed on a valid triangulation: {exc}"
        ) from exc
    for r in range(2, built.width + 2):
        for k, e in enumerate(built.row(r)):
            if e.as_integer() is None:
                raise IntegralityError(
                    f"triangle-count frieze entry {e} at ({r}, {k}) is not an integer"
                )
    return built


class Violation(NamedTuple):
    kind: str  # "boundary" | "positivity" | "diamond" | "recurrence"
    row: int
    col: int


@dataclass(frozen=True)
class FriezeReport:
    """Outcome of validate(): every rule violation, with its grid position."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "row": v.row, "col": v.col} for v in self.violations
            ],
        }


def validate(frieze: Frieze) -> FriezeReport:
    """Check a grid against all frieze laws and report every violation.

    Checked: zero boundary rows, one rows, interior positivity, the diamond
    rule for rows 1..n+2, and the quiddity recurrence
    e(r+1, k) = e(2, k+r-1)·e(r, k) - e(r-1, k) for rows 2..n+2.
    """
    n = frieze.width
    period = frieze.period
    if len(frieze.rows) != n + 4 or any(len(row) != period for row in frieze.rows):
        raise FriezeError("grid shape does not match the declared width")
    bad: list[Violation] = []
    for r in (0, n + 3):
        for k in range(period):
            if frieze.entry(r, k) != 0:
                bad.append(Violation("boundary", r, k))
    for r in (1, n + 2):
        for k in range(period):
            if frieze.entry(r, k) != 1:
                bad.append(Violation("boundary", r, k))
    for r in range(2, n + 2):
        for k in range(period):
            if frieze.entry(r, k).sign() <= 0:
                bad.append(Violation("positivity", r, k))
    for r in range(1, n + 3):
        for k in range(period):
            west, east = frieze.entry(r, k), frieze.entry(r, k + 1)
            south, north = frieze.entry(r - 1, k + 1), frieze.entry(r + 1, k)
            if west * east - south * north != 1:
                bad.append(Violation("diamond", r, k))
    for r in range(2, n + 3):
        for k in range(period):
            expected = frieze.entry(2, k + r - 1) * frieze.entry(r, k) - frieze.entry(r - 1, k)
            if frieze.entry(r + 1, k) != expected:
                bad.append(Violation("recurrence", r, k))
    return FriezeReport(tuple(bad))


def render_ascii(frieze: Frieze) -> str:
    """Staggered plain-text grid, top row n+3 first, odd rows offset one column."""
    cells = [[e.render() for e in row] for row in frieze.rows]
    width = max(len(s) for row in cells for s in row)
    col = (width + 2) // 2  # half the horizontal stride of one entry
    lines = []
    for r in range(frieze.width + 3, -1, -1):
        offset = " " * (col * (r % 2))
        lines.append((offset + "".join(s.center(2 * col) for s in cells[r])).rstrip())
    return "\n".join(lines)


def render_csv(frieze: Frieze) -> str:
    """One line per row, bottom row first: row index, then rendered entries."""
    lines = []
    for r, row in enumerate(frieze.rows):
        lines.append(",".join([str(r)] + [e.render() for e in row]))
    return "\n".join(lines)
