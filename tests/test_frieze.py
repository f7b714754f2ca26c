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
from fractions import Fraction

import pytest

from friezes import (
    ClosureError,
    Dissection,
    Frieze,
    FriezeError,
    IntegralityError,
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


@pytest.mark.parametrize(
    "values,error,position",
    [
        ((1, 1, 1, 1), QuiddityPositivityError, (3, 0)),
        ((1, 2, 1, 0), QuiddityPositivityError, (2, 3)),
        ((1, 2, 2, 1, 2, 2), QuiddityPositivityError, (4, 2)),
        ((1, 2, 2, 2, 1, 3), QuiddityPositivityError, (5, 2)),
        ((2, 2, 2, 2), ClosureError, (3, 0)),
        ((1, 2, 3, 1, 3, 3), ClosureError, (5, 1)),
    ],
)
def test_first_failure_position(values, error, position):
    with pytest.raises(error) as info:
        from_quiddity(int_quiddity(*values))
    assert (info.value.row, info.value.col) == position


def test_rational_quiddity_builds():
    half = Fraction(1, 2)
    f = from_quiddity(int_quiddity(half, 4, half, 4))
    assert f.width == 1
    assert validate(f).ok


def test_builds_never_divide(monkeypatch):
    from friezes import associated_triangulation, enumerate_p_angulations

    def no_division(*args):
        raise AssertionError("a frieze build divided")

    monkeypatch.setattr(QuadNum, "__truediv__", no_division)
    monkeypatch.setattr(QuadNum, "__rtruediv__", no_division)
    for p in (4, 6):
        for s in (1, 2, 3):
            for d in enumerate_p_angulations(s, p):
                assert validate(lambda_frieze(d, p)).ok
                assert validate(cc_frieze(associated_triangulation(d, p))).ok


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
    t = associated_triangulation_p4(quad10)
    plain = cc_frieze(t)
    embedded = cc_frieze(t, m=2)
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
    with pytest.raises(FriezeError):
        Frieze.from_json(mixed)


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
