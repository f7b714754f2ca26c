"""Frieze generation, validation, rendering, serialization.

The reference rows below are for the running 10-gon example (diagonals
(1,4), (4,9), (5,8)).  They were frozen from the continuant oracle in
oracle.py, which rebuilds every entry on its own, on plain coefficient
pairs rather than row by row: entry (r, k) is the continuant of r-1
successive quiddity values starting at column k.  The staggered display convention drifts the rows against the
anchored grid, so whole rows are compared cyclically and the anchoring is
pinned separately by entrywise spot checks.
"""

import json
import operator
import sys
from fractions import Fraction

import pytest

from friezes import (
    ClosureError,
    Dissection,
    Frieze,
    FriezeError,
    NotPAngulationError,
    QuadNum,
    QuiddityPositivityError,
    RadicandMismatchError,
    Triangulation,
    associated_triangulation_p4,
    cc_frieze,
    from_quiddity,
    lambda_frieze,
    render_ascii,
    render_csv,
    triangle_counts,
    validate,
)

from oracle import continuant_entry, cyclic_equal

# rows of the radical frieze of the 10-gon example: even rows as integer
# multiples of √2, odd rows as plain integers (display order, cyclic)
RADICAL_SQRT2_ROWS = {
    2: (1, 2, 1, 1, 3, 2, 1, 1, 2, 2),
    4: (4, 2, 1, 2, 9, 8, 1, 1, 5, 5),
    6: (8, 1, 1, 5, 5, 4, 2, 1, 2, 9),
    8: (2, 1, 1, 2, 2, 1, 2, 1, 1, 3),
}
RADICAL_INT_ROWS = {
    3: (3, 3, 1, 5, 11, 3, 1, 3, 7, 3),
    5: (5, 1, 3, 7, 13, 5, 1, 3, 7, 13),
    7: (3, 1, 3, 7, 3, 3, 3, 1, 5, 11),
}

# rows of the integer frieze of the associated triangulation (display order)
CC_ROWS = {
    2: (1, 4, 1, 2, 3, 4, 1, 2, 2, 4),
    3: (3, 3, 1, 5, 11, 3, 1, 3, 7, 3),
    4: (8, 2, 2, 2, 18, 8, 2, 1, 10, 5),
    5: (5, 1, 3, 7, 13, 5, 1, 3, 7, 13),
    6: (8, 2, 1, 10, 5, 8, 2, 2, 2, 18),
    7: (3, 1, 3, 7, 3, 3, 3, 1, 5, 11),
    8: (4, 1, 2, 2, 4, 1, 4, 1, 2, 3),
}


def assert_matches_continuant_oracle(frieze):
    quiddity = [(e.rat, e.rad) for e in frieze.row(2)]
    for r in range(frieze.width + 4):
        for k in range(frieze.period):
            e = frieze.entry(r, k)
            assert (e.rat, e.rad) == continuant_entry(quiddity, frieze.m, r, k)


# ---------------------------------------------------------------------------
# from_quiddity


def int_quiddity(*values):
    return [QuadNum(1, v) for v in values]


def test_width_one_frieze():
    f = from_quiddity(int_quiddity(1, 2, 1, 2))
    assert f.width == 1 and f.period == 4
    assert [e.as_integer() for e in f.row(0)] == [0, 0, 0, 0]
    assert [e.as_integer() for e in f.row(1)] == [1, 1, 1, 1]
    assert [e.as_integer() for e in f.row(2)] == [1, 2, 1, 2]
    assert [e.as_integer() for e in f.row(3)] == [1, 1, 1, 1]
    assert [e.as_integer() for e in f.row(4)] == [0, 0, 0, 0]


def test_width_zero_frieze():
    f = from_quiddity(int_quiddity(1, 1, 1))
    assert f.width == 0
    assert validate(f).ok


def test_all_ones_rejected():
    with pytest.raises(QuiddityPositivityError, match="not a frieze quiddity"):
        from_quiddity(int_quiddity(1, 1, 1, 1))


def test_closure_failure():
    with pytest.raises(ClosureError, match="closure failure"):
        from_quiddity(int_quiddity(2, 2, 2, 2))


def test_nonpositive_quiddity_rejected():
    with pytest.raises(QuiddityPositivityError):
        from_quiddity(int_quiddity(1, 2, 1, 0))


def test_short_quiddity_rejected():
    with pytest.raises(FriezeError):
        from_quiddity(int_quiddity(2, 2))


def test_mixed_radicands_rejected():
    with pytest.raises(RadicandMismatchError):
        from_quiddity([QuadNum(2, 1), QuadNum(3, 1), QuadNum(2, 1), QuadNum(2, 1)])


def rad_quiddity(m, *values):
    return [QuadNum(m, 0, v) for v in values]


@pytest.mark.parametrize(
    "values,error,position",
    [
        (int_quiddity(1, 1, 1, 1), QuiddityPositivityError, (3, 0)),
        (int_quiddity(1, 2, 1, 0), QuiddityPositivityError, (2, 3)),
        (int_quiddity(1, 2, 2, 1, 2, 2), QuiddityPositivityError, (4, 2)),
        (int_quiddity(1, 2, 2, 2, 1, 3), QuiddityPositivityError, (5, 2)),
        (int_quiddity(2, 2, 2, 2), ClosureError, (3, 0)),
        (int_quiddity(1, 2, 3, 1, 3, 3), ClosureError, (5, 1)),
        (rad_quiddity(2, 1, 1, 1, 1, 1, 1), QuiddityPositivityError, (4, 0)),
        (rad_quiddity(3, 1, 1, 1), ClosureError, (2, 0)),
        (rad_quiddity(2, 2, 1, 2, 1), ClosureError, (3, 0)),
    ],
)
def test_first_failure_position(values, error, position):
    with pytest.raises(error) as info:
        from_quiddity(values)
    assert (info.value.row, info.value.col) == position


def test_failure_messages_render_the_entry():
    with pytest.raises(ClosureError, match="row 2 holds √3 at column 0"):
        from_quiddity(rad_quiddity(3, 1, 1, 1))
    with pytest.raises(QuiddityPositivityError, match="entry -√2 at \\(2, 1\\)"):
        from_quiddity(rad_quiddity(2, 1, -1, 1, 1))


def test_non_integral_quiddities_rejected():
    # rows are read as integers c_k or as integer multiples c_k·√m, nothing else
    half = Fraction(1, 2)
    with pytest.raises(FriezeError, match="integer multiples"):
        from_quiddity(int_quiddity(half, 4, half, 4))
    with pytest.raises(FriezeError, match="integer multiples"):
        from_quiddity([QuadNum(2, 1, 1)] * 4)
    with pytest.raises(FriezeError, match="integer multiples"):
        from_quiddity([QuadNum(2, 0, 1), QuadNum(2, 1), QuadNum(2, 0, 1), QuadNum(2, 1)])


def test_builds_never_divide(monkeypatch):
    # frieze builds grow on plain ints: no QuadNum arithmetic at all
    from friezes import associated_triangulation, enumerate_p_angulations

    def no_arithmetic(*args):
        raise AssertionError("a frieze build did QuadNum arithmetic")

    ring = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "sign")
    for op in ring + ("__truediv__", "__rtruediv__"):
        monkeypatch.setattr(QuadNum, op, no_arithmetic)
    built = []
    for p in (4, 6):
        for s in (1, 2, 3):
            for d in enumerate_p_angulations(s, p):
                built.append(lambda_frieze(d, p))
                built.append(cc_frieze(associated_triangulation(d, p)))
    monkeypatch.undo()
    assert all(validate(f).ok for f in built)


def ladder(p, n=42):
    """The p-angulation of the n-gon whose diagonals are parallel chords."""
    half = (p - 2) // 2
    return Dissection(n, [(j * half, n - 1 - j * half) for j in range(1, (n - 2) // (p - 2))])


def test_hot_paths_construct_no_fraction(monkeypatch, capsys):
    # every entry is integral, so builds, JSON and validate need no Fraction
    from friezes import associated_triangulation, exact
    from friezes.cli import main

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was constructed")

    monkeypatch.setattr(exact, "Fraction", NoFraction)
    for p in (4, 6):
        d = ladder(p)
        for f in (lambda_frieze(d, p), cc_frieze(associated_triangulation(d, p))):
            assert f.width == 39
            assert all(type(e.rat) is int and type(e.rad) is int for row in f.rows for e in row)
        dissection = json.dumps(d.to_json())
        assert main(["gen", "--p", str(p), "--input", dissection, "--format", "json"]) == 0
        grid = capsys.readouterr().out
        assert main(["validate", "--input", grid]) == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True, "violations": []}


def test_json_edge_builds_no_quadnum(monkeypatch, capsys):
    # gen, validate and cc carry coefficient pairs from the kernel to the JSON and
    # back: not one QuadNum is built unless a caller reads .rows
    from friezes.cli import main

    def no_quadnum(*args, **kwargs):
        raise AssertionError("a QuadNum was constructed")

    monkeypatch.setattr(QuadNum, "__init__", no_quadnum)
    for p in (4, 6):
        dissection = json.dumps(ladder(p).to_json())
        assert main(["gen", "--p", str(p), "--input", dissection, "--format", "json"]) == 0
        grid = capsys.readouterr().out
        assert main(["validate", "--input", grid]) == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True, "violations": []}
        assert main(["associate", "--p", str(p), "--input", dissection]) == 0
        triangulation = capsys.readouterr().out
        assert main(["cc", "--input", triangulation, "--format", "json"]) == 0
        cc = capsys.readouterr().out
        assert json.loads(cc)["width"] == 39
        # grids compare and hash by their coefficient pairs
        built = lambda_frieze(ladder(p), p)
        parsed = Frieze.from_json(json.loads(grid))
        assert built == parsed and hash(built) == hash(parsed)
        assert built != Frieze.from_json(json.loads(cc))


def test_row_and_entry_indexing():
    f = from_quiddity(int_quiddity(1, 2, 1, 2))
    assert f.entry(2, 5) == f.entry(2, 1)  # wraps with period 4
    assert f.entry(2, -1) == f.entry(2, 3)
    with pytest.raises(IndexError):
        f.row(5)


# ---------------------------------------------------------------------------
# the radical frieze of a p-angulation


def test_radical_frieze_of_quad10(quad10):
    f = lambda_frieze(quad10, 4)
    assert f.m == 2 and f.width == 7
    # quiddity row is anchored to the polygon: entry k is q_k·√2
    assert [e.as_radical_multiple() for e in f.row(2)] == [1, 2, 1, 1, 3, 2, 1, 1, 2, 2]
    # anchored spot values fixing the grid convention
    assert [e.as_integer() for e in f.row(3)] == list(RADICAL_INT_ROWS[3])
    assert f.entry(4, 9) == QuadNum(2, 0, 4)
    # every nontrivial row matches the frozen reference up to rotation
    for r, expected in RADICAL_INT_ROWS.items():
        assert cyclic_equal([e.as_integer() for e in f.row(r)], expected)
    for r, expected in RADICAL_SQRT2_ROWS.items():
        assert cyclic_equal([e.as_radical_multiple() for e in f.row(r)], expected)
    assert [e.as_integer() for e in f.row(5)].count(13) == 2
    assert validate(f).ok
    assert_matches_continuant_oracle(f)


def test_equal_entries_share_one_quadnum(quad10, hex18):
    # a build wraps each distinct kernel value once (per parity of a radical row)
    triangulation = Dissection(10, [(1, 3), (1, 4), (1, 9), (4, 9), (5, 7), (5, 8), (5, 9)])
    for f in (lambda_frieze(quad10, 4), lambda_frieze(hex18, 6), cc_frieze(triangulation)):
        entries = [e for row in f.rows for e in row]
        assert len({id(e) for e in entries}) == len(set(entries))


def test_radical_frieze_single_quad():
    f = lambda_frieze(Dissection(4), 4)
    assert f.width == 1
    assert all(e == QuadNum.sqrt(2) for e in f.row(2))


def test_radical_frieze_p6(hex18):
    f = lambda_frieze(hex18, 6)
    assert f.m == 3 and f.width == 15
    assert [e.as_radical_multiple() for e in f.row(2)] == [
        1, 2, 1, 1, 1, 1, 3, 1, 2, 1, 1, 1, 1, 2, 1, 2, 1, 1,
    ]
    assert validate(f).ok
    assert_matches_continuant_oracle(f)


def test_radical_frieze_input_checks(quad10):
    with pytest.raises(ValueError):
        lambda_frieze(quad10, 5)
    with pytest.raises(NotPAngulationError):
        lambda_frieze(Dissection(10, [(1, 4)]), 4)


def test_radical_frieze_refuses_by_the_one_face_size_check(quad10):
    # the face size and the p-angulation are refused with the messages of
    # associated_triangulation, which checks them the same way
    from friezes import associated_triangulation

    for p in (2, 3, 5, 8, 4.0, True):  # 4.0 == 4, but no face size
        with pytest.raises(ValueError) as raised:
            lambda_frieze(quad10, p)
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"face size p must be 4 or 6, got {p}"
        with pytest.raises(ValueError) as associated:
            associated_triangulation(quad10, p)
        assert str(associated.value) == str(raised.value)
    bad = Dissection(10, [(1, 4)])
    with pytest.raises(NotPAngulationError) as raised:
        lambda_frieze(bad, 4)
    with pytest.raises(NotPAngulationError) as associated:
        associated_triangulation(bad, 4)
    assert str(raised.value) == str(associated.value) == f"{bad!r} is not a 4-angulation"


# ---------------------------------------------------------------------------
# the integer frieze of a triangulation


def test_integer_frieze_of_associated_triangulation(quad10):
    f = cc_frieze(associated_triangulation_p4(quad10))
    assert f.width == 7
    assert [e.as_integer() for e in f.row(2)] == [1, 4, 1, 2, 3, 4, 1, 2, 2, 4]
    for r, expected in CC_ROWS.items():
        got = [e.as_integer() for e in f.row(r)]
        assert all(isinstance(v, int) for v in got)
        assert cyclic_equal(got, expected)
    row4 = [e.as_integer() for e in f.row(4)]
    assert 18 in row4 and 10 in row4
    assert validate(f).ok
    assert_matches_continuant_oracle(f)


def test_integer_frieze_small_cases():
    assert cc_frieze(Triangulation(4, [(1, 3)])).width == 1
    assert cc_frieze(Triangulation(3)).width == 0


def test_integer_frieze_ambient_field(quad10):
    # an integer quiddity row builds the same grid over any radicand
    t = associated_triangulation_p4(quad10)
    plain = cc_frieze(t)
    embedded = from_quiddity([QuadNum(2, c) for c in triangle_counts(t)])
    assert plain.m == 1 and embedded.m == 2
    for r in range(plain.width + 4):
        assert [e.as_integer() for e in plain.row(r)] == [
            e.as_integer() for e in embedded.row(r)
        ]


def test_integer_frieze_rejects_non_triangulations(quad10):
    from friezes import NotTriangulationError

    with pytest.raises(NotTriangulationError):
        cc_frieze(quad10)


# ---------------------------------------------------------------------------
# validate


def test_validate_flags_perturbed_entry(quad10):
    good = cc_frieze(associated_triangulation_p4(quad10))
    rows = [list(row) for row in good.rows]
    rows[4][2] = rows[4][2] + 1
    report = validate(Frieze(good.m, good.width, tuple(tuple(r) for r in rows)))
    assert not report.ok
    diamonds = {(v.row, v.col) for v in report.violations if v.kind == "diamond"}
    recurrences = {(v.row, v.col) for v in report.violations if v.kind == "recurrence"}
    others = [v for v in report.violations if v.kind not in ("diamond", "recurrence")]
    # the bad entry sits in exactly four diamonds and three recurrence triples
    assert diamonds == {(4, 1), (4, 2), (5, 1), (3, 2)}
    assert recurrences == {(3, 2), (4, 2), (5, 2)}
    assert others == []


def test_validate_flags_boundary(quad10):
    good = cc_frieze(associated_triangulation_p4(quad10))
    rows = [list(row) for row in good.rows]
    rows[good.width + 2][0] = QuadNum(good.m, 2)
    report = validate(Frieze(good.m, good.width, tuple(tuple(r) for r in rows)))
    assert any(
        v.kind == "boundary" and (v.row, v.col) == (good.width + 2, 0)
        for v in report.violations
    )


def test_validate_rejects_malformed_shape():
    with pytest.raises(FriezeError):
        validate(Frieze(1, 1, ((QuadNum(1, 0),),)))
    good = from_quiddity(int_quiddity(1, 1, 1))
    mixed = good.rows[:2] + (tuple(QuadNum(2, 1) for _ in range(3)),) + good.rows[3:]
    with pytest.raises(RadicandMismatchError):
        validate(Frieze(good.m, good.width, mixed))


def test_validate_never_uses_quadnum_arithmetic(monkeypatch, quad10):
    # validate reads each entry once into ints: no QuadNum arithmetic at all
    radical = lambda_frieze(quad10, 4)
    integral = cc_frieze(associated_triangulation_p4(quad10))
    rows = [list(row) for row in integral.rows]
    rows[4][2] = QuadNum(1, rows[4][2].as_integer() + 1)
    perturbed = Frieze(integral.m, integral.width, tuple(tuple(r) for r in rows))

    def no_arithmetic(*args):
        raise AssertionError("validate did QuadNum arithmetic")

    ring = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "sign")
    for op in ring:
        monkeypatch.setattr(QuadNum, op, no_arithmetic)
    assert validate(radical).ok
    assert validate(integral).ok
    assert {(v.kind, v.row, v.col) for v in validate(perturbed).violations} == {
        ("diamond", 4, 1), ("diamond", 4, 2), ("diamond", 5, 1), ("diamond", 3, 2),
        ("recurrence", 3, 2), ("recurrence", 4, 2), ("recurrence", 5, 2),
    }


def test_validate_checks_a_built_frieze_on_its_int_rows(monkeypatch):
    # a built frieze's laws hold on its int rows, so validate derives no pairs;
    # a grid they fail on is reported from its pairs
    from friezes import associated_triangulation

    built = [f for p in (4, 6) for f in (lambda_frieze(ladder(p), p), cc_frieze(associated_triangulation(ladder(p), p)))]
    ints = [list(row) for row in built[0]._ints]
    ints[3][1] -= 1
    broken = [
        Frieze._of_ints(2, True, ints),
        # rows that close under the recurrence, but with a negative row 2, and
        # (width 0) a row n + 2 of -1
        Frieze._of_ints(1, False, [[0] * 4, [1] * 4, [-1, -2, -1, -2], [1] * 4, [0] * 4]),
        Frieze._of_ints(1, False, [[0] * 3, [1] * 3, [-1] * 3, [0] * 3]),
    ]
    calls = []
    pairs = Frieze._pairs
    monkeypatch.setattr(Frieze, "_pairs", lambda self: calls.append(self) or pairs(self))
    assert all(validate(f).ok for f in built) and calls == []
    kinds = [{v.kind for v in validate(f).violations} for f in broken]
    assert kinds == [{"diamond", "recurrence"}, {"positivity"}, {"boundary"}] and calls == broken


def reference_violations(frieze):
    """The frieze laws checked entry by entry in QuadNum arithmetic."""
    n, period, entry = frieze.width, frieze.period, frieze.entry
    bad = []
    for r in (0, n + 3):
        bad += [("boundary", r, k) for k in range(period) if entry(r, k) != 0]
    for r in (1, n + 2):
        bad += [("boundary", r, k) for k in range(period) if entry(r, k) != 1]
    for r in range(2, n + 2):
        bad += [("positivity", r, k) for k in range(period) if entry(r, k).sign() <= 0]
    for r in range(1, n + 3):
        for k in range(period):
            if entry(r, k) * entry(r, k + 1) - entry(r - 1, k + 1) * entry(r + 1, k) != 1:
                bad.append(("diamond", r, k))
    for r in range(2, n + 3):
        for k in range(period):
            if entry(r + 1, k) != entry(2, k + r - 1) * entry(r, k) - entry(r - 1, k):
                bad.append(("recurrence", r, k))
    return tuple(bad)


def seeded_grids():
    """400 random grids of width 0..3 over m ∈ {1, 2, 3} with rational and
    radical coefficients, the generated friezes of p = 4, s ≤ 3 and p = 6,
    s ≤ 2 with a perturbed copy of each, a rational width-1 frieze and a
    copy of it with 20 pairwise distinct denominators: a fixed seed."""
    import random

    from friezes import associated_triangulation, enumerate_p_angulations

    rng = random.Random(20181)

    def coefficient():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3, 7)))

    def value(m):
        return QuadNum(m, coefficient(), coefficient() if rng.random() < 0.5 else 0)

    def perturbed(f):
        rows = [list(row) for row in f.rows]
        for _ in range(rng.randint(1, 2)):
            rows[rng.randrange(len(rows))][rng.randrange(f.period)] = value(f.m)
        return Frieze(f.m, f.width, tuple(tuple(r) for r in rows))

    grids = []
    for _ in range(400):
        width, m = rng.randint(0, 3), rng.choice((1, 2, 3))
        rows = tuple(tuple(value(m) for _ in range(width + 3)) for _ in range(width + 4))
        grids.append(Frieze(m, width, rows))
    for p, s in ((4, 1), (4, 2), (4, 3), (6, 1), (6, 2)):
        for d in enumerate_p_angulations(s, p):
            for f in (lambda_frieze(d, p), cc_frieze(associated_triangulation(d, p))):
                grids += [f, perturbed(f)]
    # a rational frieze (quiddity 3/2, 4/3, ...) and a copy with pairwise distinct denominators
    x = Fraction(3, 2)
    rational = Frieze(1, 1, tuple(
        tuple(QuadNum(1, v) for v in row)
        for row in ((0,) * 4, (1,) * 4, (x, 2 / x, x, 2 / x), (1,) * 4, (0,) * 4)
    ))
    primes = iter((101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
                   173, 179, 181, 191, 193, 197))
    distinct = Frieze(2, 1, tuple(
        tuple(QuadNum(2, e.rat + Fraction(1, next(primes)), 1) for e in row)
        for row in rational.rows
    ))
    return grids + [rational, distinct]


def test_validate_matches_quadnum_reference():
    grids = seeded_grids()
    rational, distinct = grids[-2:]
    assert validate(rational).ok
    assert len({e.rat.denominator for row in distinct.rows for e in row}) == 20
    violated = 0
    for f in grids:
        got = validate(f).violations
        assert tuple(tuple(v) for v in got) == reference_violations(f)
        violated += bool(got)
    assert 0 < violated < len(grids)


def continuant_grids():
    """600 grids of width 0..4 over m ∈ {1, 2, 3}, each grown by the recurrence
    from rows 0 and 1 and a random row 2 (ints, fractions, mixed a + b√m, zeros
    and negatives) with no closure: some left as grown, some with row 0 or 1
    corrupted before growing (the recurrence holds but diamonds fail), some
    with one cell perturbed, or row 0 or 1 corrupted, after growing: a fixed
    seed."""
    import random

    rng = random.Random(20182)

    def coefficient():
        return rng.choice((0, 0, 1, 2, 3, -1, -2, Fraction(rng.randint(-5, 5), rng.choice((2, 3)))))

    def value(m):
        return QuadNum(m, coefficient(), coefficient() if rng.random() < 0.5 else 0)

    def corrupt(rows, m):
        row = rows[rng.randrange(2)]
        row[rng.randrange(len(row))] = value(m)

    grids = []
    for _ in range(600):
        width, m, kind = rng.randint(0, 4), rng.choice((1, 2, 3)), rng.randrange(4)
        period = width + 3
        q = [value(m) for _ in range(period)]
        rows = [[QuadNum(m, 0)] * period, [QuadNum(m, 1)] * period, q]
        if kind == 1:
            corrupt(rows, m)
        for r in range(2, width + 3):
            rows.append([q[(k + r - 1) % period] * rows[r][k] - rows[r - 1][k] for k in range(period)])
        if kind == 2:
            rows[rng.randrange(len(rows))][rng.randrange(period)] = value(m)
        elif kind == 3:
            corrupt(rows, m)
        grids.append(Frieze(m, width, rows))
    return grids


def test_validate_skips_only_diamond_passes_that_find_nothing():
    # rows 0 and 1 right and the recurrence holding make every diamond hold, so
    # validate runs the diamond pass only otherwise: the reports stay the full ones
    skipped = with_diamonds = 0
    for f in continuant_grids():
        got = tuple(tuple(v) for v in validate(f).violations)
        assert got == reference_violations(f)
        kinds = {v[0] for v in got}
        grounded = not any(v[0] == "boundary" and v[1] < 2 for v in got)
        skipped += grounded and "recurrence" not in kinds
        with_diamonds += "diamond" in kinds
    assert skipped > 150 and with_diamonds > 150


def reference_from_json(data):
    """Frieze.from_json read entry by entry with QuadNum.from_json, a row's
    radicands checked once the whole row has parsed: QuadNum rows."""
    try:
        width, m = data["width"], data["m"]
        raw_rows = [list(raw) for raw in data["rows"]]
    except (KeyError, TypeError) as exc:
        raise FriezeError(f"malformed frieze object: {exc}") from exc
    if type(width) is not int or type(m) is not int:
        raise FriezeError("malformed frieze object: width and m must be integers")
    if width < 0:
        raise FriezeError(f"width must be nonnegative, got {width}")
    if len(raw_rows) != width + 4:
        raise FriezeError(f"expected {width + 4} rows for width {width}, got {len(raw_rows)}")
    for raw in raw_rows:  # every row's length before any entry
        if len(raw) != width + 3:
            raise FriezeError(f"every row must have {width + 3} entries, got {len(raw)}")
    rows = []
    for raw in raw_rows:
        row = tuple(QuadNum.from_json(e) for e in raw)
        if any(e.m != m for e in row):
            raise RadicandMismatchError("grid mixes radicands with the frieze header")
        rows.append(row)
    return Frieze(m, width, tuple(rows))


def reference_to_json(frieze):
    return {
        "width": frieze.width,
        "m": frieze.m,
        "rows": [[e.to_json() for e in row] for row in frieze.rows],
    }


def assert_parses_like_reference(data):
    """Frieze.from_json against the reference: the same JSON back, the same
    violations, or the same error class and message."""
    try:
        expected = reference_from_json(data)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Frieze.from_json(data)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return None
    parsed = Frieze.from_json(data)
    assert parsed.to_json() == reference_to_json(expected)
    assert parsed == expected
    assert tuple(tuple(v) for v in validate(parsed).violations) == reference_violations(expected)
    return parsed


def test_json_edge_matches_quadnum_reference():
    for f in seeded_grids():
        assert_parses_like_reference(json.loads(json.dumps(reference_to_json(f))))
    base = from_quiddity(int_quiddity(1, 2, 1, 2)).to_json()

    def grid(*entries, m=1, row=2):
        data = json.loads(json.dumps(base))
        data["m"] = m
        data["rows"] = [[dict(e, m=m) for e in r] for r in data["rows"]]
        data["rows"][row][: len(entries)] = entries
        return data

    def parsed_entry(data, row=2):
        got = assert_parses_like_reference(data)
        return got.to_json()["rows"][row][0], got.entry(row, 0)

    cases = [  # (rat, rad) read, in Q(√m), (rat, rad) written, the value
        (("5/2", "0"), 1, ("5/2", "0"), QuadNum(1, Fraction(5, 2))),
        (("0", "-1/3"), 2, ("0", "-1/3"), QuadNum(2, 0, Fraction(-1, 3))),
        (("1", "1"), 1, ("2", "0"), QuadNum(1, 2)),  # √1 folds into the rational part
        ((" 7", "0"), 1, ("7", "0"), QuadNum(1, 7)),
        ((2, -1), 3, ("2", "-1"), QuadNum(3, 2, -1)),
    ]
    for (rat, rad), m, (a, b), value in cases:
        written = {"m": m, "rat": a, "rad": b}
        assert parsed_entry(grid({"m": m, "rat": rat, "rad": rad}, m=m)) == (written, value)
    underscored = grid({"m": 1, "rat": "1_0", "rad": "0"})
    if sys.version_info >= (3, 11):  # Fraction() reads digit-group underscores from 3.11 on
        assert parsed_entry(underscored) == ({"m": 1, "rat": "10", "rad": "0"}, QuadNum(1, 10))
    else:
        assert_parses_like_reference(underscored)
    failures = [
        # an entry over another field than the header's
        (grid({"m": 2, "rat": "1", "rad": "0"}), RadicandMismatchError,
         "grid mixes radicands with the frieze header"),
        # a malformed coefficient later in the row that mixes radicands is reported first
        (grid({"m": 2, "rat": "1", "rad": "0"}, {"m": 1, "rat": "1e5", "rad": "0"}), ValueError,
         "malformed quadratic value: {'m': 1, 'rat': '1e5', 'rad': '0'}"),
        (grid({"m": 2, "rat": "1", "rad": "0"}, {"m": 1, "rat": "abc", "rad": "0"}), ValueError,
         "Invalid literal for Fraction: 'abc'"),
        (grid({"m": 1, "rat": "1/0", "rad": "0"}), ValueError,
         "malformed quadratic value: {'m': 1, 'rat': '1/0', 'rad': '0'}"),
        (grid({"m": 5, "rat": "1", "rad": "0"}, m=5), ValueError,
         "radicand must be one of (1, 2, 3), got 5"),
        # a bool radicand equals 1, but is no int: it is not read as the valid entry before it
        (grid({"m": 1, "rat": "1", "rad": "0"}, {"m": True, "rat": "1", "rad": "0"}), ValueError,
         "malformed quadratic value: {'m': True, 'rat': '1', 'rad': '0'}"),
    ]
    for data, error, message in failures:
        assert_parses_like_reference(data)
        with pytest.raises(ValueError) as got:
            Frieze.from_json(data)
        assert (type(got.value), str(got.value)) == (error, message)


def test_from_json_reads_each_distinct_pair_once(monkeypatch):
    # entries over the header's field with string coefficients go through the shared
    # reader once per distinct (rat, rad) text
    from friezes import exact, frieze

    calls = []

    def counted(data):
        calls.append((data["rat"], data["rad"]))
        return exact.coefficients_from_json(data)

    monkeypatch.setattr(frieze, "coefficients_from_json", counted)
    for p in (4, 6):
        f = lambda_frieze(ladder(p), p)
        data = json.loads(json.dumps(reference_to_json(f)))
        calls.clear()
        assert Frieze.from_json(data) == f
        distinct = {(e["rat"], e["rad"]) for row in data["rows"] for e in row}
        assert f.width == 39 and sorted(calls) == sorted(distinct)


def written_grids():
    """The texts `gen` and `cc` write (the pieces of `_json_pieces` and "\\n"):
    both grids of every p-angulation of p = 4, s ≤ 5 and p = 6, s ≤ 3, and of
    the seeded 42-gons of the benchmark's `frieze_request` (seed 1)."""
    import importlib.util
    from pathlib import Path

    from friezes import associated_triangulation, enumerate_p_angulations

    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    seeded = [(r["p"], Dissection.from_json(r["dissection"])) for r in workloads.FriezeRequest().requests(1)]
    swept = [(p, d) for p, s_max in ((4, 5), (6, 3)) for s in range(1, s_max + 1) for d in enumerate_p_angulations(s, p)]
    for p, d in swept + seeded:
        for f in (lambda_frieze(d, p), cc_frieze(associated_triangulation(d, p))):
            yield "".join(f._json_pieces()) + "\n"


def pairs_and_types(frieze):
    return frieze._pairs(), [type(c) for row in frieze._pairs() for pair in row for c in pair]


def assert_matched_alike(text):
    """The matcher gives None for the text, or the grid json.loads + from_json
    give, to the coefficient types, with the same validate report; returns
    what it gave."""
    from friezes.frieze import _kernel_frieze

    matched = _kernel_frieze(text)
    if matched is not None:
        expected = Frieze.from_json(json.loads(text))
        assert matched == expected and pairs_and_types(matched) == pairs_and_types(expected), text[:200]
        assert validate(matched) == validate(expected), text[:200]
    return matched


def test_kernel_frieze_matches_what_the_writer_writes(monkeypatch):
    # the text of every grid gen and cc write is matched to the kernel grid of its
    # row 2, the grid json.loads + from_json give; a rational grid is not matched
    from friezes import frieze

    entry = lambda v: {"m": 1, "rat": v, "rad": "0"}  # noqa: E731
    zeros, ones = [entry("0")] * 4, [entry("1")] * 4
    quiddity = [entry(v) for v in ("3/2", "4/3", "3/2", "4/3")]
    rational = json.dumps({"width": 1, "m": 1, "rows": [zeros, ones, quiddity, ones, zeros]})
    texts = list(written_grids())
    assert len(texts) == 770 + 128
    for text in texts:
        assert assert_matched_alike(text) is not None, text[:200]
    for text in (rational, rational + "\n"):
        assert assert_matched_alike(text) is None
    # a cc grid: integral counts over m = 1
    cc = cc_frieze(associated_triangulation_p4(Dissection(10, [(1, 8), (2, 7), (3, 6)])))
    matched = assert_matched_alike(cc._json_text())
    assert (matched.m, matched._radical, validate(matched).ok) == (1, False, True)
    # a given radical grid of even width: its top row is a surd, so the kernel refuses
    # its row 2, and a built grid of the same int rows fails at once, with the JSON
    # path's report
    counts, period = (1, 2, 1, 2, 3), 5
    ints = [[0] * period, [1] * period, list(counts)]
    for r in range(2, period):
        f = 2 if r % 2 == 0 else 1
        ints.append([counts[(k + r - 1) % period] * ints[r][k] * f - ints[r - 1][k] for k in range(period)])
    given = Frieze(2, 2, [[QuadNum(2, 0, c) if r % 2 == 0 else QuadNum(2, c) for c in row]
                          for r, row in enumerate(ints)])
    text = given._json_text()
    assert assert_matched_alike(text) is None
    built = Frieze._of_ints(2, True, ints)
    assert built == given and validate(built) == validate(Frieze.from_json(json.loads(text)))
    assert ("boundary", 4, 0) in validate(built).violations
    # a built grid with one corrupted int: its text is no kernel grid's, and its
    # report is the JSON path's
    good = lambda_frieze(ladder(4), 4)
    ints = [list(row) for row in good._ints]
    ints[4][2] += 1
    corrupted = Frieze._of_ints(2, True, ints)
    text = corrupted._json_text()
    assert assert_matched_alike(text) is None
    report = validate(corrupted)
    assert not report.ok and report == validate(Frieze.from_json(json.loads(text)))
    # the 1,001-gon's grid: the one size check, `_require_grid`, refuses it
    n = frieze._MAX_FRIEZE_N + 1
    fan = Dissection(n, [(0, b) for b in range(2, n - 1)])
    with monkeypatch.context() as larger:
        larger.setattr(frieze, "_MAX_FRIEZE_N", n)
        big = cc_frieze(fan)
        text = big._json_text()
        assert frieze._kernel_frieze(text)._ints == big._ints
    assert frieze._kernel_frieze(text) is None


def test_kernel_frieze_grows_only_what_the_text_could_spell(monkeypatch):
    # a text shorter than its width's grid, or a row 2 whose counts sum past
    # 3(N - 2), is refused before the kernel grows anything
    from friezes import frieze

    def no_growth(*args):
        raise AssertionError("the kernel grew a row 2 no writer's text holds")

    cell = lambda a: {"m": 1, "rat": str(a), "rad": "0"}  # noqa: E731
    rows = [[cell(0)] * 1000, [cell(1)] * 1000, [cell(2)] * 1000]
    short = json.dumps({"width": 997, "m": 1, "rows": rows}) + "\n"
    data = cc_frieze(associated_triangulation_p4(Dissection(10, [(1, 8), (2, 7), (3, 6)]))).to_json()
    data["rows"][2][0] = cell(100)
    heavy = json.dumps(data)
    monkeypatch.setattr(frieze, "_grow", no_growth)
    assert frieze._kernel_frieze(short) is None and frieze._kernel_frieze(heavy) is None


def test_kernel_frieze_refuses_every_other_text():
    # single-character changes of a written grid: only the text itself, or the
    # text without its newline, is matched
    import random

    text = "".join(lambda_frieze(Dissection(6, [(0, 3)]), 4)._json_pieces()) + "\n"
    rng = random.Random(51)
    alphabet = '0123456789-/ ,:{}[]"\nmratdwhios'
    matched = refused = 0
    for _ in range(4000):
        k = rng.randrange(len(text) + 1)
        c = rng.choice(alphabet)
        mutant = rng.choice((text[:k] + c + text[k + 1 :], text[:k] + text[k + 1 :], text[:k] + c + text[k:]))
        got = assert_matched_alike(mutant)
        assert (got is not None) is (mutant in (text, text[:-1])), mutant
        matched += got is not None
        refused += got is None
    assert matched > 10 and refused > 3500


def test_report_json(quad10):
    report = validate(lambda_frieze(quad10, 4))
    assert report.to_json() == {"ok": True, "violations": []}


# ---------------------------------------------------------------------------
# serialization and rendering


def test_frieze_json_round_trip(quad10):
    f = lambda_frieze(quad10, 4)
    blob = json.loads(json.dumps(f.to_json()))
    again = Frieze.from_json(blob)
    assert again == f
    assert validate(again).ok


def test_to_json_gives_every_entry_its_own_dict():
    rows = lambda_frieze(Dissection(6, [(0, 3)]), 4).to_json()["rows"]
    before = [[dict(e) for e in row] for row in rows]
    rows[2][0]["rat"] = "7"
    changed = [(r, k) for r, row in enumerate(rows) for k, e in enumerate(row) if e != before[r][k]]
    assert changed == [(2, 0)]


def test_built_and_given_grids_behave_alike(quad10):
    # a built grid holds coefficient pairs, and Frieze(m, width, rows) reads the QuadNum
    # rows it is given into them: both compare, hash, print, copy (pickle at every
    # protocol) and refuse assignment alike, and entries outside the header's field
    # are refused
    import copy
    import pickle

    built = lambda_frieze(quad10, 4)
    given = Frieze(2, 7, tuple(tuple(QuadNum(2, e.rat, e.rad) for e in row) for row in built.rows))
    assert built == given and given == built and hash(built) == hash(given)
    assert repr(built) == repr(given)
    assert built.to_json() == given.to_json() and validate(built) == validate(given)
    for f in (built, given):  # a foreign operand gets NotImplemented: never equal
        assert f.__eq__(f.to_json()) is NotImplemented and f.__eq__(f.rows) is NotImplemented
        assert (f == f.to_json()) is False and (f != "a") is True and ("a" == f) is False
    with pytest.raises(RadicandMismatchError):
        Frieze(3, 7, given.rows)
    with pytest.raises(FriezeError):  # equal to 2, but no int: the header check refuses it
        Frieze(2.0, 7, given.rows)
    for f in (built, given):
        text = f._json_text()
        assert copy.deepcopy(f) == f
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(f, protocol))
            assert again == f and again._json_text() == text
        for name in ("m", "width"):
            with pytest.raises(AttributeError):
                setattr(f, name, 3)
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert (f.m, f.width) == (2, 7) and f == built and f._json_text() == text


def test_built_parsed_and_given_grids_are_one_value(quad10, hex18):
    # a built grid keeps the kernel's int rows, a parsed or given one its coefficient
    # pairs: the three copies of each grid compare and hash equal, pickle to equal
    # grids, and grids of different values stay apart
    import pickle

    from friezes import associated_triangulation

    built = [from_quiddity([QuadNum(2, c) for c in (1, 2, 1, 2)])]
    for p, d in ((4, quad10), (6, hex18), (4, ladder(4)), (6, ladder(6))):
        built += [lambda_frieze(d, p), cc_frieze(associated_triangulation(d, p))]
    for f in built:
        parsed = Frieze.from_json(json.loads(f._json_text()))
        given = Frieze(f.m, f.width, f.rows)
        for a in (f, parsed, given):
            assert [a == b for b in (f, parsed, given)] == [True] * 3
            assert hash(a) == hash(f) and a.rows == f.rows
            again = pickle.loads(pickle.dumps(a))
            assert again == f and hash(again) == hash(f)
            assert again._json_text() == f._json_text()
    assert len(set(built)) == len(built)


def test_frieze_from_json_rejects_bad_shapes():
    f = from_quiddity(int_quiddity(1, 2, 1, 2))
    blob = f.to_json()
    short = dict(blob, rows=blob["rows"][:-1])
    with pytest.raises(FriezeError):
        Frieze.from_json(short)
    ragged = dict(blob, rows=[row[:-1] for row in blob["rows"]])
    with pytest.raises(FriezeError):
        Frieze.from_json(ragged)
    with pytest.raises(FriezeError):
        Frieze.from_json(dict(blob, width=-1))
    mixed = dict(blob, m=2)
    with pytest.raises(RadicandMismatchError):  # as `Frieze(2, 1, f.rows)` raises
        Frieze.from_json(mixed)


def test_both_doors_refuse_a_shape_fault_alike():
    # Frieze(m, width, rows) and from_json decide a grid's shape by one check,
    # so each fault gets one message at both doors, before any entry is read
    f = from_quiddity(int_quiddity(1, 2, 1, 2))  # width 1: 5 rows of 4
    rows, blob = f.rows, f.to_json()

    def cut(grid, r, k):
        return [row[:k] if i == r else row for i, row in enumerate(grid)]

    faults = [
        (1, rows[:-1], "expected 5 rows for width 1, got 4"),
        (1, rows + rows[:1], "expected 5 rows for width 1, got 6"),
        (1, (), "expected 5 rows for width 1, got 0"),
        (2, rows, "expected 6 rows for width 2, got 5"),
        (-1, rows[:3], "width must be nonnegative, got -1"),
        (1.0, rows, "malformed frieze object: width and m must be integers"),
        (True, rows, "malformed frieze object: width and m must be integers"),
        (1, [row + row[:1] for row in rows], "every row must have 4 entries, got 5"),
    ]
    faults += [(1, cut(rows, r, k), f"every row must have 4 entries, got {k}")
               for r in range(5) for k in (0, 3)]
    for width, grid, message in faults:
        data = dict(blob, width=width, rows=[[e.to_json() for e in row] for row in grid])
        for door in (lambda: Frieze(1, width, grid), lambda: Frieze.from_json(data)):
            with pytest.raises(FriezeError) as raised:
                door()
            assert type(raised.value) is FriezeError and str(raised.value) == message
    # the shape comes before the entries: a bad entry in row 0 and a short row 3
    data = dict(blob, rows=cut(blob["rows"], 3, 3))
    data["rows"][0] = [{"m": 1, "rat": "abc", "rad": "0"}] + data["rows"][0][1:]
    with pytest.raises(FriezeError, match="^every row must have 4 entries, got 3$"):
        Frieze.from_json(data)


def test_both_doors_refuse_a_header_radicand_that_is_no_int_alike(quad10):
    # the header's m is checked with the width, by `_check_shape`, at both doors: a
    # float, a bool, a string or None gets one FriezeError, not a radicand mismatch
    f = lambda_frieze(quad10, 4)
    blob = f.to_json()
    for m in (2.0, True, "2", None):
        for door in (lambda: Frieze(m, 7, f.rows), lambda: Frieze.from_json(dict(blob, m=m))):
            with pytest.raises(FriezeError) as raised:
                door()
            assert type(raised.value) is FriezeError
            assert str(raised.value) == "malformed frieze object: width and m must be integers"


def test_both_doors_refuse_a_header_radicand_no_entry_shares_alike(quad10):
    # an int header m that names another field than the entries' is refused
    # by both doors with one class and one message (the JSON door raised
    # FriezeError("rows mix radicands with the frieze header"))
    f = lambda_frieze(quad10, 4)
    blob = f.to_json()
    for m in (1, 3, 5):
        for door in (lambda: Frieze(m, 7, f.rows), lambda: Frieze.from_json(dict(blob, m=m))):
            with pytest.raises(RadicandMismatchError) as raised:
                door()
            assert type(raised.value) is RadicandMismatchError
            assert str(raised.value) == "grid mixes radicands with the frieze header"


def test_render_ascii_width_one():
    f = from_quiddity(int_quiddity(1, 2, 1, 2))
    assert render_ascii(f) == "\n".join(
        [
            "0 0 0 0",
            " 1 1 1 1",
            "1 2 1 2",
            " 1 1 1 1",
            "0 0 0 0",
        ]
    )


def test_render_ascii_staggers_and_covers_all_rows(quad10):
    text = render_ascii(lambda_frieze(quad10, 4))
    lines = text.split("\n")
    assert len(lines) == 11
    assert lines[0].split() == ["0"] * 10 and lines[-1].split() == ["0"] * 10
    assert lines[1].split() == ["1"] * 10

    def indent(line):
        return len(line) - len(line.lstrip())

    # odd rows sit half a stride deeper than their even neighbors
    assert indent(lines[1]) > indent(lines[0])
    assert "3√2" in text and "11" in text


def test_render_csv_width_one():
    f = from_quiddity(int_quiddity(1, 2, 1, 2))
    assert render_csv(f) == "\n".join(
        [
            "0,0,0,0,0",
            "1,1,1,1,1",
            "2,1,2,1,2",
            "3,1,1,1,1",
            "4,0,0,0,0",
        ]
    )


def test_render_csv_radical_entries(quad10):
    text = render_csv(lambda_frieze(quad10, 4))
    assert text.split("\n")[2].startswith("2,√2,2√2,")


def grids_to_write(quad10, hex18):
    """Generated radical and integer friezes, parsed grids holding Fraction and
    negative coefficients, an m = 1 rational frieze and a width-0 grid."""
    from friezes import associated_triangulation

    grids = []
    for p, d in ((4, quad10), (4, ladder(4)), (6, hex18), (6, ladder(6))):
        grids += [lambda_frieze(d, p), cc_frieze(associated_triangulation(d, p))]
    for m in (1, 2, 3):
        blob = from_quiddity(int_quiddity(1, 2, 1, 2)).to_json()
        rows = [[dict(e, m=m) for e in row] for row in blob["rows"]]
        rows[2][:3] = [
            {"m": m, "rat": "-1/4", "rad": "3/2"},
            {"m": m, "rat": "3/2", "rad": "-7"},
            {"m": m, "rat": "-5", "rad": "0"},
        ]
        grids.append(Frieze.from_json(dict(blob, m=m, rows=rows)))
    x = Fraction(3, 2)  # quiddity 3/2, 4/3, 3/2, 4/3
    grids.append(Frieze(1, 1, tuple(
        tuple(QuadNum(1, v) for v in row)
        for row in ((0,) * 4, (1,) * 4, (x, 2 / x, x, 2 / x), (1,) * 4, (0,) * 4)
    )))
    grids.append(from_quiddity(int_quiddity(1, 1, 1)))
    return grids


def test_json_text_is_the_bytes_of_json_dumps(quad10, hex18):
    # the writer against QuadNum.to_json of every entry
    grids = grids_to_write(quad10, hex18)
    assert {f.width for f in grids} >= {0, 1, 39}
    assert any(type(e.rat) is Fraction for f in grids for row in f.rows for e in row)
    for f in grids:
        assert f._json_text() == json.dumps(reference_to_json(f))
        assert f.to_json() == reference_to_json(f)


def test_renderers_match_each_entry_rendered(quad10, hex18):
    # ASCII and CSV render each distinct cell once: the text of every entry's render()
    def reference_ascii(frieze):
        cells = [[e.render() for e in row] for row in frieze.rows]
        width = max(len(s) for row in cells for s in row)
        col = (width + 2) // 2
        lines = []
        for r in range(frieze.width + 3, -1, -1):
            offset = " " * (col * (r % 2))
            lines.append((offset + "".join(s.center(2 * col) for s in cells[r])).rstrip())
        return "\n".join(lines)

    def reference_csv(frieze):
        return "\n".join(
            ",".join([str(r)] + [e.render() for e in row]) for r, row in enumerate(frieze.rows)
        )

    for f in grids_to_write(quad10, hex18):
        assert render_ascii(f) == reference_ascii(f)
        assert render_csv(f) == reference_csv(f)


# ---------------------------------------------------------------------------
# cross-checks over whole enumerations


@pytest.mark.parametrize("s,p", [(1, 4), (2, 4), (3, 4), (1, 6), (2, 6)])
def test_generated_friezes_validate_and_match_oracle(s, p):
    from friezes import associated_triangulation, enumerate_p_angulations

    for d in enumerate_p_angulations(s, p):
        radical = lambda_frieze(d, p)
        integral = cc_frieze(associated_triangulation(d, p))
        assert radical.width == integral.width == d.n - 3
        assert validate(radical).ok
        assert validate(integral).ok
        assert_matches_continuant_oracle(radical)
        assert_matches_continuant_oracle(integral)


# ---------------------------------------------------------------------------
# the kernel against its per-entry predecessor


def reference_grow(counts, m, radical):
    """The kernel as it was before its rows were grown by C-level maps and checked
    as they grow: every row built by one comprehension, positivity checked
    after growth, closure by a scan of the top row.  Kept verbatim."""
    from friezes.frieze import _MAX_FRIEZE_N

    period = len(counts)
    if period > _MAX_FRIEZE_N:
        raise ValueError(f"the {period}-gon is too large for a frieze grid")
    n = period - 3
    rows = [[0] * period, [1] * period]
    for r in range(1, n + 2):
        f = m if radical and r % 2 == 0 else 1
        shifted = counts[r - 1 :] + counts[: r - 1]  # c_{k+r-1} at index k
        rows.append([q * c * f - below for q, c, below in zip(shifted, rows[r], rows[r - 1])])
    for r in range(2, n + 3):
        if min(rows[r]) <= 0:
            k, c = next((k, c) for k, c in enumerate(rows[r]) if c <= 0)
            e = QuadNum(m, 0, c) if radical and r % 2 == 0 else QuadNum(m, c)
            raise QuiddityPositivityError(
                r, k, f"not a frieze quiddity: entry {e} at ({r}, {k}) is not positive"
            )
    top = rows[n + 2]
    surd = radical and n % 2 == 0
    k = 0 if surd else next((k for k, c in enumerate(top) if c != 1), None)
    if k is not None:
        e = QuadNum(m, 0, top[k]) if surd else QuadNum(m, top[k])
        raise ClosureError(
            n + 2, k, f"closure failure: row {n + 2} holds {e} at column {k}, expected 1"
        )
    rows.append(rows[0])
    return rows


def grow_outcome(grow, counts, m, radical):
    """The rows a kernel returns, or the class, (row, col) and message of its failure."""
    try:
        return grow(counts, m, radical)
    except FriezeError as exc:
        return type(exc), exc.row, exc.col, str(exc)


def test_kernel_matches_its_per_entry_predecessor():
    # the same rows, or the same first failure, on the counts of every p-angulation
    # of the sweep and of its associated triangulation, on each of their ±1
    # perturbations, on seeded random rows and on the 1,000-gon ladder
    import random

    from friezes import associated_triangulation, enumerate_p_angulations, quiddity_counts
    from friezes.exact import LAMBDA_RADICAND
    from friezes.frieze import _grow

    cases = []
    for p, s_max in ((4, 5), (6, 3)):
        for s in range(1, s_max + 1):
            for d in enumerate_p_angulations(s, p):
                cases.append((quiddity_counts(d), LAMBDA_RADICAND[p], True))
                cases.append((quiddity_counts(associated_triangulation(d, p)), 1, False))
    perturbed = [
        (counts[:k] + (c + delta,) + counts[k + 1 :], m, radical)
        for counts, m, radical in cases
        for k, c in enumerate(counts)
        for delta in (-1, 1)
    ]
    rng = random.Random("kernel equivalence")
    drawn = [
        ([rng.randint(-1, 4) for _ in range(rng.randint(3, 40))], m, radical)
        for m in (1, 2, 3)
        for radical in (False, True)
        for _ in range(300)
    ]
    ladder_n = 1000
    ladder_d = Dissection(ladder_n, [(a, ladder_n - 1 - a) for a in range(1, ladder_n // 2 - 1)])
    ladders = [(list(quiddity_counts(ladder_d)), 2, True)]  # the largest grid the kernel takes
    kinds = {}
    for counts, m, radical in cases + perturbed + drawn + ladders:
        got = grow_outcome(_grow, counts, m, radical)
        assert got == grow_outcome(reference_grow, counts, m, radical), (counts, m, radical)
        kind = got[0].__name__ if type(got) is tuple else "rows"
        kinds[kind] = kinds.get(kind, 0) + 1
    # every outcome occurs, so no comparison above is vacuous
    assert set(kinds) == {"rows", "QuiddityPositivityError", "ClosureError"}, kinds
    assert min(kinds.values()) >= 50, kinds


def test_kernel_matches_its_predecessor_on_every_short_quiddity():
    # every quiddity with entries 1..4 and period 3..6, for each m and both
    # kinds of row: the same rows, or the same first failure, so the test at
    # the middle row takes its exit exactly when the full growth closes
    from itertools import product

    from friezes.frieze import _grow

    kinds = {}
    for period in range(3, 7):
        quiddities = list(product(range(1, 5), repeat=period))
        for m, radical in product((1, 2, 3), (False, True)):
            outcomes = [grow_outcome(reference_grow, q, m, radical) for q in quiddities]
            for q, expected in zip(quiddities, outcomes):
                assert grow_outcome(_grow, q, m, radical) == expected, (q, m, radical)
                kind = expected[0].__name__ if type(expected) is tuple else "rows"
                kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"rows", "QuiddityPositivityError", "ClosureError"}, kinds
    assert min(kinds.values()) >= 50, kinds


def test_rows_above_the_middle_share_the_ints_below_it():
    # on the 1,000-gon ladder of quadrilaterals each row R above the middle
    # holds the very int objects of row N - R rotated by R columns: the rows
    # were taken from the glide, not grown, and hold each big int once
    from friezes import associated_triangulation, enumerate_p_angulations, quiddity_counts
    from friezes.frieze import _grow

    n = 1000
    ladder = Dissection(n, [(a, n - 1 - a) for a in range(1, n // 2 - 1)])
    rows = lambda_frieze(ladder, 4)._ints
    mid = n // 2
    assert max(rows[mid]).bit_length() > 600  # far past the small-int cache
    for r in range(mid + 2, n):
        lower = rows[n - r][r:] + rows[n - r][:r]
        assert len(rows[r]) == n and all(map(operator.is_, rows[r], lower)), r
    assert rows[n] is rows[0]
    # so in both families of a dissection, as `verify_dissection` grows them,
    # each row R > N/2 is row N - R rotated by R columns (row N/2 + 1 by the
    # glide test, the rows above it by the very ints)
    for d in list(enumerate_p_angulations(4, 4))[:7]:  # 10-gons
        n = d.n
        families = (
            (quiddity_counts(d), 2, True),
            (quiddity_counts(associated_triangulation(d, 4)), 1, False),
        )
        for counts, m, radical in families:
            rows = _grow(counts, m, radical)
            for r in range(n // 2 + 1, n):
                lower = rows[n - r][r:] + rows[n - r][:r]
                assert rows[r] == lower, (r, radical)
                assert r == n // 2 + 1 or all(map(operator.is_, rows[r], lower)), (r, radical)
            assert rows[n] is rows[0]
