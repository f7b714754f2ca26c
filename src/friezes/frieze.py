"""Frieze grids in ℤ[√m]: construction from a quiddity row, validation,
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
quiddity row: e(r+1, k) = e(2, k+r-1)·e(r, k) - e(r-1, k), an integer (times
√m on the even rows of a radical frieze), so builds run on plain ints: one
private kernel grows the int rows from integer counts, which enter through
`_rows` once the dissection is checked (by `lambda_frieze`, by `cc_frieze`'s
triangle counts, or by `verify`) or are parsed by `from_quiddity` out of a
QuadNum row, and checks positivity and closure on those ints, in one pass
of C-level maps per row.  Closure is decided by Coxeter's glide alone,
e(r, k) = e(N - r, k + r) for period N, tested at the middle row: a
frieze that passes grows no further, each row above the middle a lower
row rotated, sharing its ints; one that fails does not close, and grows on
only to name its first failure (proofs in `_grow`'s docstring).  A built
`Frieze` keeps those int rows and whether it is radical; a parsed one
(`from_json`, or `Frieze(m, width, rows)`, which reads its QuadNum rows
once; both check the shape by `_check_shape` and refuse other radicands)
holds each entry a + b√m as the coefficient pair (a, b) exactly as QuadNum
holds it, an int where the coefficient is integral and an exact rational
only where it is not.  One row source, `Frieze._mapped`, feeds the JSON pieces
`_json_pieces` (`_json_text` joins them; `to_json` is `json.loads` of that),
the CSV and the ASCII rows, which the CLI's one writer joins into writes of
up to 64 KiB as they come.  Each row's cells come from a memo per
coefficient kind keyed by the int (or by the pair), so each distinct cell's
text is made once; the checks in `verify` read their int rows from it too.
`friezes validate` reads the writer's own text back directly, by
`_grid_from_text`, to the pairs `from_json` would hold, without building an
entry dict; any other JSON goes through `json.loads` and `from_json`.
`validate` checks the diamonds only when row 0, row 1 or the recurrence
fails: otherwise every row is a continuant and every diamond holds (the
proof is in its docstring).  In a staggered rendering rows drift
horizontally, so a single row matches a reference sequence only up to
cyclic rotation, while frieze-against-frieze comparisons are entrywise at
equal (r, k).
"""

from __future__ import annotations

import json
import re
from functools import partial
from operator import mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .bijection import _not_p_angulation, _require_p, triangle_counts
from .exact import (
    LAMBDA_RADICAND,
    QuadNum,
    RadicandMismatchError,
    coefficients_from_json,
    quadratic_sign,
)
from .polygon import Dissection, InternalAssertionError, _Memo, is_p_angulation, quiddity_counts

_MAX_FRIEZE_N = 1000  # the largest polygon `_grow` takes; see its docstring


def _require_grid(n: int) -> None:
    """Refuse a polygon whose friezes `_grow` would not grow: the one size check."""
    if n > _MAX_FRIEZE_N:
        raise ValueError(f"the {n}-gon is too large for a frieze grid")


class FriezeError(ValueError):
    """A frieze could not be built or parsed."""


class _GridPositionError(FriezeError):
    """A kernel failure at grid position (row, col)."""

    def __init__(self, row: int, col: int, message: str):
        super().__init__(message)
        self.row = row
        self.col = col


class QuiddityPositivityError(_GridPositionError):
    """Not a frieze quiddity: a generated interior entry is zero or negative."""


class ClosureError(_GridPositionError):
    """The frieze does not close: the glide fails and the top row is not all ones."""


class Frieze:
    """An immutable frieze grid: radicand m, width n, rows 0..n+3, held as
    `Dissection` is, in private slots behind the read-only `m` and `width`.

    A built grid (`lambda_frieze`, `cc_frieze`, `from_quiddity`) keeps the
    kernel's int rows and whether it is radical: entry e(r, k) is the int C,
    or C·√m on the even rows of a radical grid.  A parsed grid (`from_json`,
    `Frieze(m, width, rows)`) holds each entry a + b√m as the pair (a, b) of
    its QuadNum coefficients, ints unless a coefficient is not integral.
    `Frieze(m, width, rows)` raises FriezeError unless m and width are ints,
    width ≥ 0, and rows are width + 4 rows of width + 3 entries (the check of
    `from_json`, `_check_shape`), RadicandMismatchError for an entry outside
    Q(√m), and reads the QuadNum rows into pairs once, keeping none.  A built
    grid derives the pairs once, only when a caller needs them (equality,
    hashing, pickling and `validate`).  `.rows` wraps the entries into
    QuadNums only when read, once per grid, equal entries sharing one
    QuadNum.  Grids compare and hash by (m, width, pairs): within one
    radicand each value has one pair.
    """

    __slots__ = ("_m", "_width", "_ints", "_radical", "_cells", "_rows")

    def __init__(self, m: int, width: int, rows: Iterable[Iterable[QuadNum]]):
        rows = [tuple(row) for row in rows]
        _check_shape(width, rows, m)
        if any(e.m != m for row in rows for e in row):
            raise RadicandMismatchError("grid mixes radicands with the frieze header")
        cells = tuple([tuple([(e.rat, e.rad) for e in row]) for row in rows])
        self._hold(m, width, None, False, cells)

    @classmethod
    def _of_cells(cls, m: int, width: int, cells: tuple[tuple[tuple, ...], ...]) -> "Frieze":
        """A grid of coefficient pairs as QuadNum holds them, every entry in Q(√m)
        and the shape checked by the caller."""
        frieze = cls.__new__(cls)
        frieze._hold(m, width, None, False, cells)
        return frieze

    @classmethod
    def _of_ints(cls, m: int, radical: bool, ints: list[list[int]]) -> "Frieze":
        """A built grid: `_grow`'s rows, kept as they are and never mutated."""
        frieze = cls.__new__(cls)
        frieze._hold(m, len(ints) - 4, ints, radical, None)
        return frieze

    def _hold(self, m: int, width: int, ints: list | None, radical: bool, cells: tuple | None):
        self._m, self._width, self._ints, self._radical = m, width, ints, radical
        self._cells, self._rows = cells, None  # the caches `_pairs` and `rows` fill

    @property
    def m(self) -> int:
        return self._m

    @property
    def width(self) -> int:
        return self._width

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._m, self._width, self._pairs()) == (other._m, other._width, other._pairs())

    def __hash__(self) -> int:
        return hash((self._m, self._width, self._pairs()))

    def __repr__(self) -> str:
        return f"Frieze(m={self.m!r}, width={self.width!r}, rows={self.rows!r})"

    def __reduce__(self) -> tuple:
        return Frieze._of_cells, (self._m, self._width, self._pairs())

    def _mapped(self, f: Callable) -> Iterator[list]:
        """The rows, each as a list of f(a, b) over its entries a + b√m.

        f is called once per distinct cell: per distinct pair of a parsed
        grid, and per distinct int of each coefficient kind of a built one
        (C as f(C, 0); C·√m, on the even rows of a radical grid, as f(0, C)).
        """
        ints = self._ints
        if ints is None:
            memo = _Memo(lambda pair: f(*pair))
            for row in self._cells:
                yield list(map(memo.__getitem__, row))
            return
        rat = _Memo(lambda c: f(c, 0))
        even = _Memo(lambda c: f(0, c)) if self._radical else rat
        for r, row in enumerate(ints):
            yield list(map((rat if r % 2 else even).__getitem__, row))

    def _pairs(self) -> tuple[tuple[tuple, ...], ...]:
        """The entries as coefficient pairs (a, b), derived once from a built grid's
        int rows, equal entries sharing one pair."""
        cells = self._cells
        if cells is None:
            # tuples from lists, not generators: tuple(generator) grows by resizing, and
            # the resized tuples pile up on the interpreter's per-size free lists (peak
            # RSS) until a full garbage collection, which the few allocations here rarely
            # trigger
            cells = self._cells = tuple([tuple(row) for row in self._mapped(lambda a, b: (a, b))])
        return cells

    @property
    def rows(self) -> tuple[tuple[QuadNum, ...], ...]:
        rows = self._rows
        if rows is None:
            # QuadNum is immutable, so equal entries share one; from lists: see _pairs
            quad = partial(QuadNum, self._m)
            rows = self._rows = tuple([tuple(row) for row in self._mapped(quad)])
        return rows

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
        """The grid as `_json_text` writes it: every entry is its own dict."""
        return json.loads(self._json_text())

    def _json_text(self) -> str:
        """`json.dumps` of the grid: the pieces of `_json_pieces`, joined."""
        return "".join(self._json_pieces())

    def _json_pieces(self) -> Iterator[str]:
        """The text of `json.dumps` of the grid in pieces: the header, then one
        piece per row, then the closing brackets, each distinct cell's text
        written once.

        A coefficient's `str` (an int, or n/d) needs no escaping, so a cell
        is its text between quotes; the rows join with the separators
        `json.dumps` writes by default.  A caller that writes the pieces as
        they come holds one row's text, not the whole grid's.
        """
        m = json.dumps(self.m)
        cells = self._mapped(lambda a, b: f'{{"m": {m}, "rat": "{a}", "rad": "{b}"}}')
        yield f'{{"width": {json.dumps(self.width)}, "m": {m}, "rows": ['
        for r, row in enumerate(cells):
            yield (", [" if r else "[") + ", ".join(row) + "]"
        yield "]}"

    @staticmethod
    def from_json(data: dict) -> "Frieze":
        """Parse a frieze grid, checking shape but not the frieze laws.

        Arbitrary grids load fine so that `validate` can report on them.
        `_check_shape` runs before any entry is read.  Every entry is read by
        `coefficients_from_json`, the reader of `QuadNum.from_json`, so both
        accept and reject the same entries, with the same errors; an entry
        over another field than the header's raises the constructor's
        RadicandMismatchError.  `friezes validate` calls it on every text but
        the JSON writer's own, which `_grid_from_text` reads directly to the
        same grid, so every error a grid's reading reports comes from here.
        """
        try:
            width, m = data["width"], data["m"]
            raw_rows = [list(raw) for raw in data["rows"]]
        except (KeyError, TypeError) as exc:
            raise FriezeError(f"malformed frieze object: {exc}") from exc
        _check_shape(width, raw_rows, m)
        seen: dict[tuple[str, str], tuple] = {}
        cells = []
        for raw in raw_rows:
            row = tuple([_parse_entry(e, m, seen) for e in raw])
            if None in row:
                raise RadicandMismatchError("grid mixes radicands with the frieze header")
            cells.append(row)
        return Frieze._of_cells(m, width, tuple(cells))


def _check_shape(width: object, rows: Sequence[Sequence], m: object) -> None:
    """The one check of a grid's header and shape, for `Frieze(m, width, rows)`
    and `from_json` alike: the same fault raises the same FriezeError at both."""
    if type(width) is not int or type(m) is not int:  # no floats, no bools
        raise FriezeError("malformed frieze object: width and m must be integers")
    if width < 0:
        raise FriezeError(f"width must be nonnegative, got {width}")
    if len(rows) != width + 4:
        raise FriezeError(f"expected {width + 4} rows for width {width}, got {len(rows)}")
    for row in rows:
        if len(row) != width + 3:
            raise FriezeError(f"every row must have {width + 3} entries, got {len(row)}")


def _parse_entry(data: object, m: int, seen: dict[tuple[str, str], tuple]) -> tuple | None:
    """The coefficient pair (a, b), as QuadNum holds it, of one JSON entry of a
    grid over Q(√m), None when the entry names another radicand, or the error
    `coefficients_from_json` raises.

    seen holds the pairs read so far from entries over Q(√m) with string
    coefficients, keyed by those strings, so each distinct text is read once.
    """
    if type(data) is dict:
        em, rat, rad = data.get("m"), data.get("rat"), data.get("rad")
        if type(em) is int and em == m and type(rat) is str and type(rad) is str:
            t = seen.get((rat, rad))
            if t is None:
                t = seen[rat, rad] = coefficients_from_json(data)[1:]
            return t
    em, a, b = coefficients_from_json(data)
    return (a, b) if em == m else None


# the pieces of `_json_pieces`' text around and between the cells
_GRID_HEAD = re.compile(r'\{"width": (0|[1-9][0-9]*), "m": ([123]), "rows": \[\[\{')
_GRID_CELL = re.compile(r'"m": ([123]), "rat": "([-0-9/]*)", "rad": "([-0-9/]*)"')
_ROW_SEP, _CELL_SEP, _GRID_TAIL = "}], [{", "}, {", "}]]}"


def _grid_from_text(text: str) -> Frieze | None:
    """The grid of a text `_json_pieces` writes, read without `json.loads`, or
    None for any other text.

    The text must be exactly the writer's: the header
    `{"width": W, "m": M, "rows": [`, rows joined by ", ", each row's cells
    joined by ", ", each cell `{"m": D, "rat": "S", "rad": "S"}` with D the
    digit M and each S made of digits, "-" and "/" only, then "]}" and at most
    one "\\n".  No separator can occur inside such a cell, so the rows are
    found by `str.find` and each row's cells by one `str.split`, one row at a
    time.  Each distinct cell text is read once, by `coefficients_from_json`
    on the dict `json.loads` would build from it, so the pairs, ints or
    Fractions, are those `from_json` holds.  Any deviation (another
    spelling, a wrong row count or row length, a cell over another radicand,
    or an error of `coefficients_from_json`) gives None, and the caller reads
    the text by `json.loads` and `from_json`, whose errors are the only ones
    reported.
    """
    head = _GRID_HEAD.match(text)
    end = len(text) - text.endswith("\n") - len(_GRID_TAIL)
    if head is None or not text.startswith(_GRID_TAIL, end):
        return None
    m = int(head[2])
    cell = _Memo(partial(_grid_cell, m)).__getitem__
    rows: list[tuple] = []
    start = head.end()
    try:
        width = int(head[1])  # a ValueError past int's digit limit
        while len(rows) <= width + 4:  # one row too many is enough to refuse
            stop = text.find(_ROW_SEP, start, end)
            row = tuple(map(cell, text[start : end if stop < 0 else stop].split(_CELL_SEP)))
            if len(row) != width + 3:
                return None
            rows.append(row)
            if stop < 0:
                break
            start = stop + len(_ROW_SEP)
    except ValueError:
        return None
    return Frieze._of_cells(m, width, tuple(rows)) if len(rows) == width + 4 else None


def _grid_cell(m: int, text: str) -> tuple:
    """The pair (a, b) of one cell's text between its braces, or ValueError
    unless it is the writer's cell over Q(√m)."""
    cell = _GRID_CELL.fullmatch(text)
    if cell is None:
        raise ValueError("not a cell as the grid writer spells it")
    em, a, b = coefficients_from_json({"m": int(cell[1]), "rat": cell[2], "rad": cell[3]})
    if em != m:
        raise ValueError("a cell over another radicand")
    return a, b


def from_quiddity(entries: Sequence[QuadNum]) -> Frieze:
    """Parse a quiddity row and grow its frieze, or reject the row.

    The row holds integers c_k, or integer multiples c_k·√m (m ∈ {2, 3});
    any other row raises FriezeError, and a row longer than _MAX_FRIEZE_N
    raises ValueError.  The c_k go to the plain-int kernel that
    `lambda_frieze` and `cc_frieze` feed with their counts directly.
    """
    quiddity = tuple(entries)
    if len(quiddity) < 3:
        raise FriezeError(f"a quiddity row needs at least 3 entries, got {len(quiddity)}")
    m = quiddity[0].m
    if any(e.m != m for e in quiddity):
        raise RadicandMismatchError("quiddity row mixes radicands")
    counts = [e.as_integer() for e in quiddity]
    radical = None in counts
    if radical:  # m = 1 folds √1 away, so only integers pass there
        counts = [e.as_radical_multiple() for e in quiddity]
        if None in counts:
            raise FriezeError(f"quiddity entries must be integers or integer multiples of √{m}")
    return Frieze._of_ints(m, radical, _grow(counts, m, radical))


def _grow(counts: list[int] | tuple[int, ...], m: int, radical: bool) -> list[list[int]]:
    """The int rows C(r, k) of the frieze of the quiddity row c_k (times √m when
    radical), or FriezeError.

    Entry e(r, k) is C(r, k), times √m on the even rows of a radical row,
    grown by C(r+1, k) = c_{k+r-1}·C(r, k)·f_r - C(r-1, k), where f_r = m on
    even r of a radical row and 1 otherwise.  Each row is grown by C-level
    maps over one slice of the doubled count list (c_{k+r-1} at index k),
    the even rows of a radical row reading a copy of the counts times m, so
    no row multiplies by 1.

    Only the rows up to the middle are grown when the frieze closes.  With
    period N and mid = N // 2, once row mid + 1 is grown the kernel tests
    Coxeter's glide at the middle, e(r, k) = e(N - r, k + r) for r = mid and
    mid + 1 and every column k.  If it holds, the frieze closes, and each
    row R = mid + 2 .. N - 1 is row N - R rotated by R columns (the same
    int objects), row N is row 0.  Proof: write c_j for
    e(2, j) (indices mod N) and K(i, j) for the continuant of c_i, ..., c_j,
    with K(i, i-1) = 1 and K(i, i-2) = 0, so every grown entry is
    e(r, k) = K(k, k+r-2).  Fix k; u_r = e(r, k) = K(k, k+r-2) and
    v_r = K(k+r, k+N-2), which is e(N - r, k + r), for 0 ≤ r ≤ N.  u obeys
    u_{r+1} = c_{k+r-1}·u_r - u_{r-1} by construction, and so does v:
    extending a continuant on the left, K(i-1, j) = c_{i-1}·K(i, j) - K(i+1, j),
    with i = k + r reads v_{r-1} = c_{k+r-1}·v_r - v_{r+1}.  A recurrence of
    second order whose last coefficient -1 is a unit runs both ways, so the
    two equal terms u_mid = v_mid and u_{mid+1} = v_{mid+1} make u_r = v_r
    for every r.  So u_N = v_N = K(k+N, k+N-2) = 0 and
    u_{N-1} = v_{N-1} = K(k+N-1, k+N-2) = 1: row N - 1 is all ones, and each
    row R > mid + 1 equals the rotated row N - R ≤ mid - 1, which is already
    grown and checked positive.  Conversely a closed frieze has
    u_{N-1} = v_{N-1} = 1 and u_N = v_N = 0, so it passes the test, and a
    failing test means the frieze does not close.  The test compares ints:
    for even N, rows r and N - r have the same parity, so both hold C or
    both hold C·√m; for odd N the two rows differ in parity, so a radical
    row of odd period, whose top row is a surd and never closes, is not
    tested.  A test of row mid alone is not enough:
    [1, 3, 1, 3] and [1, 2, 4, 1, 2, 4] pass it and do not close.

    The glide exit is the kernel's only success.  Rows 2..n+2 are checked
    positive as they are grown, and growth stops at the first failing row.
    After a failed glide test (or none, for a surd top row) growth goes on
    only to name the failure, a ClosureError at the first entry of row n+2
    that is not 1 (column 0 of a surd top row).  There is one: were row
    N - 1 all ones, the diamonds 1·1 - e(N-2, k+1)·e(N, k) = 1 with
    e(N-2, k+1) > 0 would make row N zero, so the frieze would close and
    pass the test.  The error is the first failure in row-major order, with
    its (row, col) and the entry rendered as a QuadNum.  The n + 4 rows (row
    n+3 is row 0 again) are shared lists: callers must not mutate them.

    The grid holds (n+3)² ints of up to hundreds of bits, but the rows above
    the middle share the int objects of the rows below it, so only about
    half of them are distinct: `friezes gen --p 4` of the 1000-gon ladder of
    quadrilaterals (634-bit entries) peaks at about 54 MB of RSS in JSON or
    CSV and 64 MB in ASCII (CPython 3.11, x86-64 Linux).  A period longer
    than _MAX_FRIEZE_N = 1000 entries raises ValueError naming the polygon
    before any row is allocated, not a FriezeError, so a checked dissection
    that is too large is refused as input rather than reported as a defect
    by `_rows`.
    """
    period = len(counts)
    _require_grid(period)
    n = period - 3
    mid = period // 2
    surd = radical and period % 2 == 1  # the top row is a surd: it never closes
    doubled = counts * 2  # a list or a tuple, as the caller gives the counts
    scaled = [m * c for c in counts] * 2 if radical else doubled
    rows = [[0] * period, [1] * period]
    for r in range(1, n + 2):
        shifted = (scaled if r % 2 == 0 else doubled)[r - 1 : r - 1 + period]
        row = list(map(sub, map(mul, shifted, rows[r]), rows[r - 1]))
        if min(row) <= 0:  # row r + 1: rows 2..n+2 must be positive
            k, c = next((k, c) for k, c in enumerate(row) if c <= 0)
            e = QuadNum(m, 0, c) if radical and r % 2 else QuadNum(m, c)
            raise QuiddityPositivityError(
                r + 1, k, f"not a frieze quiddity: entry {e} at ({r + 1}, {k}) is not positive"
            )
        rows.append(row)
        if r == mid and not surd and all(
            rows[j] == _rotated(rows[period - j], j) for j in (mid, mid + 1)
        ):  # the frieze closes: see the docstring
            rows += [_rotated(rows[period - j], j) for j in range(mid + 2, period)]
            rows.append(rows[0])
            return rows
    top = rows[n + 2]  # not all ones, as the glide failed: see the docstring
    k = 0 if surd else next(k for k, c in enumerate(top) if c != 1)
    e = QuadNum(m, 0, top[k]) if surd else QuadNum(m, top[k])
    raise ClosureError(
        n + 2, k, f"closure failure: row {n + 2} holds {e} at column {k}, expected 1"
    )


def _rotated(row: list[int], shift: int) -> list[int]:
    """The row read from index `shift` on, cyclically."""
    return row[shift:] + row[:shift]


def _rows(counts: tuple[int, ...], m: int, radical: bool) -> list[list[int]]:
    """Kernel rows of a checked dissection's counts, where a kernel failure is a defect."""
    try:
        return _grow(counts, m, radical)
    except FriezeError as exc:
        raise InternalAssertionError(
            f"frieze construction failed on the counts of a valid dissection: {exc}"
        ) from exc


def lambda_frieze(dissection: Dissection, p: int) -> Frieze:
    """The frieze of a p-angulation: quiddity q_k·(2cos(π/p)), p ∈ {4, 6}."""
    _require_p(p)
    if not is_p_angulation(dissection, p):
        raise _not_p_angulation(dissection, p)
    m = LAMBDA_RADICAND[p]
    return Frieze._of_ints(m, True, _rows(quiddity_counts(dissection), m, True))


def cc_frieze(triangulation: Dissection) -> Frieze:
    """The Conway–Coxeter frieze of a triangulation: integers grown from its triangle counts."""
    return Frieze._of_ints(1, False, _rows(triangle_counts(triangulation), 1, False))


class Violation(NamedTuple):
    kind: str  # "boundary" | "positivity" | "diamond" | "recurrence"
    row: int
    col: int


class FriezeReport(NamedTuple):
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
    e(r+1, k) = e(2, k+r-1)·e(r, k) - e(r-1, k) for rows 2..n+2; violations
    are listed by law in that order (boundary, positivity, diamond,
    recurrence), each row-major.

    The diamond pass runs only when row 0, row 1 or the recurrence failed,
    since otherwise it cannot find anything.  Write c_j = e(2, j) (indices
    mod n + 3) and K(i, j) for the continuant of c_i, ..., c_j, with
    K(i, i-1) = 1 and K(i, i-2) = 0.  Rows 0 and 1 right and the recurrence
    holding make every row a continuant, e(r, k) = K(k, k+r-2), by induction
    on r.  The product of the matrices [[c_j, -1], [1, 0]] for j = i..l is
    [[K(i, l), -K(i, l-1)], [K(i+1, l), -K(i+1, l-1)]], and its determinant
    is 1 in any commutative ring; with i = k, l = k+r-1 that is
    K(k, k+r-2)·K(k+1, k+r-1) - K(k+1, k+r-2)·K(k, k+r-1) = 1, the diamond
    at (r, k).  Both laws are checked in the same ring, the pairs (a, b)
    under (a, b)·(c, d) = (ac + bdm, ad + bc), so the report is the one the
    full diamond pass gives.

    The laws read the coefficient pairs (a, b) of the entries a + b√m
    over the header's m (the constructor refuses other radicands), and
    multiply them out by hand (the constructors have checked the shape).
    Generated grids, and parsed grids of integral entries, hold ints
    throughout, so the checks cost what plain ints cost; a rational entry
    brings exact rational arithmetic, which reduces after every operation,
    so no denominator common to the grid is ever formed.
    """
    n = frieze.width
    m, rows = frieze.m, frieze._pairs()
    bad: list[Violation] = []
    for r in (0, n + 3):
        bad += [Violation("boundary", r, k) for k, (a, b) in enumerate(rows[r]) if a or b]
    for r in (1, n + 2):
        bad += [Violation("boundary", r, k) for k, (a, b) in enumerate(rows[r]) if a != 1 or b]
    grounded = not any(v.row < 2 for v in bad)  # rows 0 and 1 are right
    for r in range(2, n + 2):
        bad += [  # a + b√m with a, b ≥ 0, not both 0, is positive without quadratic_sign
            Violation("positivity", r, k)
            for k, (a, b) in enumerate(rows[r])
            if (a < 0 or b < 0 or not (a or b)) and quadratic_sign(a, b, m) <= 0
        ]
    recurrence: list[Violation] = []
    quiddity = rows[2]
    for r in range(2, n + 3):
        shifted = quiddity[r - 1 :] + quiddity[: r - 1]  # e(2, k+r-1) at index k
        recurrences = zip(shifted, rows[r], rows[r - 1], rows[r + 1])
        for k, ((aq, bq), (ac, bc), (ab, bb), (at, bt)) in enumerate(recurrences):
            # e(r+1, k) = e(2, k+r-1)·e(r, k) - e(r-1, k)
            if aq * ac + bq * bc * m - ab != at or aq * bc + bq * ac - bb != bt:
                recurrence.append(Violation("recurrence", r, k))
    if recurrence or not grounded:  # else every diamond holds: see the docstring
        for r in range(1, n + 3):
            row, below = rows[r], rows[r - 1]
            diamonds = zip(row, row[1:] + row[:1], below[1:] + below[:1], rows[r + 1])
            for k, ((aw, bw), (ae, be), (as_, bs), (an, bn)) in enumerate(diamonds):
                # west·east - south·north = 1
                if (
                    aw * ae + bw * be * m - as_ * an - bs * bn * m != 1
                    or aw * be + bw * ae - as_ * bn - bs * an
                ):
                    bad.append(Violation("diamond", r, k))
    return FriezeReport(tuple(bad + recurrence))


def _rendered(frieze: Frieze) -> Iterator[list[str]]:
    """Each row's entries as `QuadNum.render` writes them, each distinct cell
    rendered once."""
    m = frieze.m
    return frieze._mapped(lambda a, b: QuadNum(m, a, b).render())


def render_ascii(frieze: Frieze) -> str:
    """Staggered plain-text grid, top row n+3 first, odd rows offset one column."""
    return "\n".join(_ascii_rows(frieze))


def _ascii_rows(frieze: Frieze) -> Iterator[str]:
    """The lines of `render_ascii`, one row at a time, so a caller that
    writes them as they come holds one padded row, not the whole text."""
    cells = list(_rendered(frieze))
    width = max(len(s) for row in cells for s in row)
    col = (width + 2) // 2  # half the horizontal stride of one entry
    for r in range(frieze.width + 3, -1, -1):
        offset = " " * (col * (r % 2))
        yield (offset + "".join([s.center(2 * col) for s in cells[r]])).rstrip()


def render_csv(frieze: Frieze) -> str:
    """One line per row, bottom row first: row index, then rendered entries."""
    return "\n".join(_csv_rows(frieze))


def _csv_rows(frieze: Frieze) -> Iterator[str]:
    """The lines of `render_csv`, one row at a time, each row's entries
    rendered as the row comes."""
    for r, row in enumerate(_rendered(frieze)):
        yield ",".join([str(r)] + row)
