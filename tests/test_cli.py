"""Command line surface: every subcommand, every format, every exit code."""

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import friezes
from friezes import (
    Dissection,
    InternalAssertionError,
    enumerate_p_angulations,
    fuss_catalan,
    lambda_frieze,
    render_ascii,
)
from friezes.cli import _CHUNK, main
from friezes.frieze import _MAX_FRIEZE_N

QUAD10 = '{"n": 10, "diagonals": [[1, 4], [4, 9], [5, 8]]}'
T_QUAD10 = '{"n": 10, "diagonals": [[1, 3], [1, 4], [1, 9], [4, 9], [5, 7], [5, 8], [5, 9]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def width_0_frieze(m=1, width=0, radicand=1):
    """The valid frieze of the triangle as JSON, with its integer fields replaceable."""
    zero, one = ({"m": radicand, "rat": v, "rad": "0"} for v in ("0", "1"))
    rows = [[zero] * 3, [one] * 3, [one] * 3, [zero] * 3]
    return json.dumps({"width": width, "m": m, "rows": rows})


def test_gen_ascii(capsys):
    code, out, _ = run(capsys, "gen", "--p", "4", "--input", QUAD10)
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 11
    assert "3√2" in out and "11" in out


def test_gen_json_revalidates(capsys):
    code, out, _ = run(capsys, "gen", "--p", "4", "--input", QUAD10, "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["width"] == 7 and blob["m"] == 2
    code, out, _ = run(capsys, "validate", "--input", json.dumps(blob))
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_gen_csv(capsys):
    code, out, _ = run(capsys, "gen", "--p", "4", "--input", QUAD10, "--format", "csv")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 11
    assert lines[0] == "0," + ",".join(["0"] * 10)
    assert lines[2].startswith("2,√2,2√2,")


def test_cc(capsys):
    code, out, _ = run(capsys, "cc", "--input", T_QUAD10, "--format", "csv")
    assert code == 0
    assert out.split("\n")[2] == "2,1,4,1,2,3,4,1,2,2,4"


def test_tree(capsys):
    code, out, _ = run(capsys, "tree", "--input", QUAD10)
    assert code == 0
    assert json.loads(out) == {
        "host_n": 10,
        "edges": [[1, 3], [1, 9], [5, 7], [5, 9]],
    }


def test_associate(capsys):
    code, out, _ = run(capsys, "associate", "--p", "4", "--input", QUAD10)
    assert code == 0
    assert json.loads(out) == json.loads(T_QUAD10)


def test_enumerate_is_sorted(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "4", "--s", "2")
    assert code == 0
    listed = [json.loads(line)["diagonals"] for line in out.strip().split("\n")]
    assert listed == [[[0, 3]], [[1, 4]], [[2, 5]]]


def test_enumerate_listing_streams():
    # the walk yields in sorted order, so the listing holds no list of the
    # 43,263 dissections (their sorted list peaked near 80 MB of RSS)
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            code = main(["enumerate", "--p", "4", "--s", "8"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2_000_000


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "6", "--s", "3", "--count-only")
    assert code == 0 and out.strip() == "35"


def test_enumerate_count_only_streams(capsys):
    # counting holds no list of the 7752 dissections (about 10 MB when sorted)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "enumerate", "--p", "4", "--s", "7", "--count-only")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.strip() == "7752"
    assert peak < 4_000_000


def test_enumerate_writes_the_json_of_each_dissection(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "6", "--s", "4")
    expected = "".join(json.dumps(d.to_json()) + "\n" for d in enumerate_p_angulations(4, 6))
    assert code == 0 and out == expected


class _Enough(Exception):
    """Raised by a `WriteRecorder` once it has seen its last write."""


class WriteRecorder:
    """A text stream that keeps each write apart, and stops the writer with
    `_Enough` after `limit` writes."""

    def __init__(self, limit=None):
        self.writes = []
        self.limit = limit

    def write(self, text):
        self.writes.append(text)
        if len(self.writes) == self.limit:
            raise _Enough
        return len(text)

    def flush(self):
        pass


def assert_same_listing(text, expected):
    """The text must be the expected lines joined, compared by line count and
    SHA-256, so a wrong listing of megabytes fails at once, naming its first
    differing line, and is not diffed whole."""
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    if (text.count("\n"), digest(text)) == (len(expected), digest("".join(expected))):
        return
    got = text.splitlines(keepends=True)
    k = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
    pytest.fail(f"{len(got)} lines for {len(expected)}; first difference at line {k}: "
                f"{got[k] if k < len(got) else None!r} for {expected[k] if k < len(expected) else None!r}")


@pytest.mark.parametrize("p,s", [(4, 8), (6, 4)])
def test_enumerate_writes_whole_lines_in_chunks(p, s):
    recorder = WriteRecorder()
    with redirect_stdout(recorder):
        code = main(["enumerate", "--p", str(p), "--s", str(s)])
    expected = [json.dumps(d.to_json()) + "\n" for d in enumerate_p_angulations(s, p)]
    writes = recorder.writes
    assert code == 0
    assert_same_listing("".join(writes), expected)
    assert all(w.endswith("\n") for w in writes)
    assert all(len(w) <= _CHUNK or w.count("\n") == 1 for w in writes)
    # a chunk is written only when the next line would not fit in it
    longest = max(len(line) for line in expected)
    assert all(len(w) + longest > _CHUNK for w in writes[:-1])
    assert len(writes) <= len(expected) // 100 + 1


def test_enumerate_writes_a_line_longer_than_a_chunk_alone():
    # vertex 0's fan of the 20,002-gon is about 120 KB of text: the first
    # write is that line, written before the walk goes on
    first = json.dumps(next(enumerate_p_angulations(10_000, 4)).to_json()) + "\n"
    assert len(first) > _CHUNK
    recorder = WriteRecorder(limit=1)
    with redirect_stdout(recorder), pytest.raises(_Enough):
        main(["enumerate", "--p", "4", "--s", "10000"])
    assert recorder.writes == [first]


def test_enumerate_refuses_a_huge_listing_before_allocating(capsys):
    # nothing of the listing is built for a polygon the walk refuses: the
    # 1,000,002-gon is just past it; stdout stops the command at its first
    # write, so a listing that is not refused fails here instead of walking on
    recorder = WriteRecorder(limit=1)
    tracemalloc.start()
    try:
        with redirect_stdout(recorder):
            code = main(["enumerate", "--p", "4", "--s", "500000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, recorder.writes) == (1, [])
    assert capsys.readouterr().err == "error: the 1000002-gon is too large to walk\n"
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "p,payload",
    [
        (4, QUAD10),
        (4, json.dumps({"n": 42, "diagonals": [[a, 41 - a] for a in range(1, 20)]})),
        (6, json.dumps({"n": 42, "diagonals": [[2 * j, 41 - 2 * j] for j in range(1, 10)]})),
    ],
)
def test_gen_ascii_writes_the_text_of_render_ascii(capsys, p, payload):
    code, out, _ = run(capsys, "gen", "--p", str(p), "--input", payload)
    frieze = lambda_frieze(Dissection.from_json(json.loads(payload)), p)
    assert code == 0 and out == render_ascii(frieze) + "\n"


@pytest.mark.parametrize("command", ["gen", "cc"])
def test_csv_writes_the_text_of_render_csv(capsys, command):
    from friezes import associated_triangulation, cc_frieze, render_csv

    hexagons = Dissection(42, [(2 * j, 41 - 2 * j) for j in range(1, 10)])
    triangulation = associated_triangulation(hexagons, 6)
    argv, d, frieze = {
        "gen": (["gen", "--p", "6"], hexagons, lambda_frieze(hexagons, 6)),
        "cc": (["cc"], triangulation, cc_frieze(triangulation)),
    }[command]
    code, out, _ = run(capsys, *argv, "--input", json.dumps(d.to_json()), "--format", "csv")
    assert code == 0 and out == render_csv(frieze) + "\n"


def assert_written_by_the_chunk_rule(writes, pieces):
    """`writes` are `pieces` joined by `cli._write`'s rule: each write is whole
    consecutive pieces, longer than _CHUNK only when it is one piece, and each
    write but the last would overflow _CHUNK with the piece after it."""
    assert "".join(writes) == "".join(pieces)
    start = 0
    for write in writes:
        end, size = start, 0
        while size < len(write):
            size += len(pieces[end])
            end += 1
        assert end > start and write == "".join(pieces[start:end])
        assert len(write) <= _CHUNK or end == start + 1
        if end < len(pieces):
            assert len(write) + len(pieces[end]) > _CHUNK
        start = end
    assert start == len(pieces)


@pytest.mark.parametrize("fmt", ["ascii", "csv", "json"])
@pytest.mark.parametrize("command", ["gen", "cc"])
def test_frieze_writes_its_text_in_chunks(command, fmt):
    # the 102-gon ladder's grid is about 400 KB of JSON: its text is that of
    # render_ascii, render_csv or _json_text, and its rows (or JSON pieces)
    # are joined into writes by the one rule of `_write`
    from friezes import associated_triangulation, cc_frieze, render_csv
    from friezes.frieze import _ascii_rows, _csv_rows

    n = 102
    ladder = Dissection(n, [(a, n - 1 - a) for a in range(1, n // 2 - 1)])
    triangulation = associated_triangulation(ladder, 4)
    argv, d, frieze = {
        "gen": (["gen", "--p", "4"], ladder, lambda_frieze(ladder, 4)),
        "cc": (["cc"], triangulation, cc_frieze(triangulation)),
    }[command]
    text, pieces = {
        "ascii": (render_ascii(frieze), [line + "\n" for line in _ascii_rows(frieze)]),
        "csv": (render_csv(frieze), [line + "\n" for line in _csv_rows(frieze)]),
        "json": (frieze._json_text(), [*frieze._json_pieces(), "\n"]),
    }[fmt]
    recorder = WriteRecorder()
    with redirect_stdout(recorder):
        code = main([*argv, "--input", json.dumps(d.to_json()), "--format", fmt])
    writes = recorder.writes
    assert code == 0 and "".join(writes) == text + "\n"
    assert len(writes) > 1
    assert_written_by_the_chunk_rule(writes, pieces)


def test_write_writes_each_chunk_once_the_next_piece_overflows():
    # a piece longer than a chunk goes out alone as soon as it comes; other
    # pieces are held until the next one would overflow the chunk, so a piece
    # or a run that fills the chunk exactly waits for the piece after it; the
    # last chunk goes out at the end, and nothing when nothing is held
    from friezes.cli import _write

    events, written = [], []

    class Recorder:
        def write(self, text):
            events.append(("write", len(text), text[:1]))
            written.append(text)
            return len(text)

    sizes = [("a", 150_000), ("b", 40_000), ("c", 40_000), ("d", 60_000), ("x", _CHUNK)]
    sizes += [("e", 30_000), ("f", 30_000), ("g", _CHUNK - 60_000), ("h", 10), ("i", 150_000)]

    def pieces():
        for letter, size in sizes:
            events.append(("piece", letter))
            yield letter * size

    with redirect_stdout(Recorder()):
        _write(pieces())
    assert events == [
        ("piece", "a"),
        ("write", 150_000, "a"),
        ("piece", "b"),
        ("piece", "c"),
        ("write", 40_000, "b"),
        ("piece", "d"),
        ("write", 40_000, "c"),
        ("piece", "x"),
        ("write", 60_000, "d"),
        ("piece", "e"),
        ("write", _CHUNK, "x"),
        ("piece", "f"),
        ("piece", "g"),
        ("piece", "h"),
        ("write", _CHUNK, "e"),
        ("piece", "i"),
        ("write", 10, "h"),
        ("write", 150_000, "i"),
    ]
    assert "".join(written) == "".join(letter * size for letter, size in sizes)


@pytest.mark.parametrize("argv", [["validate"], ["gen", "--p", "4"], ["cc"], ["tree"]])
def test_inline_json_array_is_refused_as_malformed(capsys, argv):
    for payload in ("[1, 2]", " []"):
        code, out, err = run(capsys, *argv, "--input", payload)
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed ") and "No such file" not in err


@pytest.mark.parametrize("p", [4, 6])
def test_enumerate_count_only_is_fuss_catalan(capsys, p):
    for s in range(1, 7):
        code, out, _ = run(capsys, "enumerate", "--p", str(p), "--s", str(s), "--count-only")
        assert (code, out) == (0, f"{fuss_catalan(s, p)}\n")


def test_verify_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--p", "4", "--max-s", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["checked"] == 4 and blob["all_ok"] is True
    assert blob["counterexamples"] == []


def test_verify_orbits_adds_only_its_count(capsys):
    # the orbit sweep checks one dissection per even-rotation orbit on the
    # top level (the levels below in full) and reports the same summary as
    # the exhaustive one, plus orbits_checked
    code, out, _ = run(capsys, "verify", "--p", "4", "--max-s", "5")
    code_orbits, out_orbits, _ = run(capsys, "verify", "--p", "4", "--max-s", "5", "--orbits")
    assert code == code_orbits == 0
    blob, orbit_blob = json.loads(out), json.loads(out_orbits)
    assert "orbits_checked" not in blob
    assert 0 < orbit_blob.pop("orbits_checked") < blob["checked"] == 344
    assert orbit_blob == blob


def test_verify_deep_uniqueness_reports_counterexamples(capsys):
    # the opposite-color refinement always reproduces the odd rows, so the
    # deep scan reports a second witness for every dissection: exit code 2
    code, out, _ = run(
        capsys, "verify", "--p", "4", "--max-s", "1", "--deep-uniqueness"
    )
    assert code == 2
    blob = json.loads(out)
    assert blob["all_ok"] is False
    assert blob["deep_failures"] == [{"n": 4, "diagonals": []}]


def test_validate_flags_bad_grid(capsys):
    code, out, _ = run(capsys, "gen", "--p", "4", "--input", QUAD10, "--format", "json")
    blob = json.loads(out)
    blob["rows"][4][2]["rat"] = "100"
    code, out, _ = run(capsys, "validate", "--input", json.dumps(blob))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["violations"]


def validate_outcomes(capsys, monkeypatch, text):
    """`validate`'s (exit code, stdout, stderr) on the text from stdin and, for
    an inline object, from the command line."""
    outcomes = []
    for source in ["-"] + ([text] if text.lstrip()[:1] == "{" else []):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        outcomes.append(run(capsys, "validate", "--input", source))
    return outcomes


def test_validate_reads_every_other_text_as_the_json_path_does(capsys, monkeypatch):
    # validate reads the text gen and cc write directly; every other text goes
    # through json.loads + Frieze.from_json, and its outcome, errors included,
    # must be the one that path gives when forced
    from friezes.frieze import _grid_from_text

    grid = run(capsys, "gen", "--p", "4", "--input", QUAD10, "--format", "json")[1]
    blob = json.loads(grid)
    head, body = grid.split('"rows": ')
    written = lambda rows: head + '"rows": ' + json.dumps(rows) + "}\n"  # noqa: E731 the writer's spelling

    def changed(r, k, **fields):
        rows = json.loads(json.dumps(blob["rows"]))
        rows[r][k].update(fields)
        return written(rows)

    short = json.loads(json.dumps(blob["rows"]))
    short[3].pop()
    ones = {"m": 1, "rat": "1", "rad": "0"}
    rational = [[{**ones, "rat": "0"}] * 4, [ones] * 4, [{**ones, "rat": v} for v in ("3/2", "4/3") * 2], [ones] * 4,
                [{**ones, "rat": "0"}] * 4]
    read = {  # texts the reader takes
        "gen": grid,
        "cc": run(capsys, "cc", "--input", T_QUAD10, "--format", "json")[1],
        "no newline": grid.rstrip("\n"),
        "rational width 1": json.dumps({"width": 1, "m": 1, "rows": rational}),
        "a wrong entry": changed(4, 2, rat="100"),
    }
    refused = {  # texts it refuses
        "indent=1": json.dumps(blob, indent=1),
        "reordered keys": json.dumps({"m": blob["m"], "width": blob["width"], "rows": blob["rows"]}),
        "trailing space": grid.rstrip("\n") + " ",
        "two newlines": grid + "\n",
        "BOM": "\ufeff" + grid,
        "int coefficients": written([[{**e, "rat": int(e["rat"]), "rad": int(e["rad"])} for e in row]
                                     for row in blob["rows"]]),
        "m 2.0": grid.replace('"m": 2,', '"m": 2.0,', 1),
        "m true": grid.replace('"m": 2,', '"m": true,', 1),
        "cell m true": changed(0, 0, m=True),
        "width with a leading zero": grid.replace('"width": 7', '"width": 07', 1),
        "1/0": changed(2, 1, rat="1/0"),
        "1e5": changed(2, 1, rat="1e5"),
        "a cell over another radicand": changed(3, 1, m=3),
        "a row one cell short": written(short),
        "a row too many": written(blob["rows"] + blob["rows"][:1]),
        "an extra key": json.dumps({**blob, "note": "x"}),
        "an extra key in a cell": written([[{**e, "x": 1} if (r, k) == (2, 0) else e for k, e in enumerate(row)]
                                           for r, row in enumerate(blob["rows"])]),
        "an array": json.dumps(blob["rows"]),
        "empty": "",
        "cut short": grid[: len(grid) // 2],
    }
    for name, text in {**read, **refused}.items():
        assert (_grid_from_text(text) is None) is (name in refused), name
        direct = validate_outcomes(capsys, monkeypatch, text)
        with monkeypatch.context() as patched:
            patched.setattr(friezes.cli, "_grid_from_text", lambda text: None)
            assert validate_outcomes(capsys, monkeypatch, text) == direct, name
    assert validate_outcomes(capsys, monkeypatch, read["gen"])[0] == (0, '{"ok": true, "violations": []}\n', "")
    assert validate_outcomes(capsys, monkeypatch, refused["a row one cell short"])[0][0] == 1


def test_input_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.json"
    path.write_text(QUAD10, encoding="utf-8")
    code, out, _ = run(capsys, "tree", "--input", str(path))
    assert code == 0

    monkeypatch.setattr(sys, "stdin", io.StringIO(QUAD10))
    code, out, _ = run(capsys, "tree", "--input", "-")
    assert code == 0


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "gen", "--p", "4")[0] == 1  # missing --input
    assert run(capsys, "gen", "--p", "5", "--input", QUAD10)[0] == 1
    assert run(capsys, "enumerate", "--p", "4", "--s", "0")[0] == 1


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]])
def test_help_returns_0(capsys, argv):
    # argparse prints the help and would exit; `main` returns its status
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: friezes") and err == ""


def test_usage_error_leaves_the_parser_intact(capsys):
    # the parser is built once per process, so a failed parse must not
    # change how the next command line reads
    alone = run(capsys, "gen", "--p", "4", "--input", QUAD10)
    assert run(capsys, "gen", "--p", "5", "--input", QUAD10)[0] == 1
    assert run(capsys, "gen", "--p", "4")[0] == 1
    assert run(capsys, "gen", "--p", "4", "--input", QUAD10) == alone


def test_commands_leave_no_reference_cycles(capsys):
    # no parser per call and no recursive closures: reference counting
    # alone frees everything a command allocates
    code, grid, _ = run(capsys, "gen", "--p", "4", "--input", QUAD10, "--format", "json")
    assert code == 0
    commands = [
        ("gen", "--p", "4", "--input", QUAD10, "--format", "json"),
        ("validate", "--input", grid),
        ("validate", "--input", json.dumps(json.loads(grid), indent=1)),  # through json.loads
        ("associate", "--p", "4", "--input", QUAD10),
        ("cc", "--input", T_QUAD10),
        ("tree", "--input", QUAD10),
        ("verify", "--p", "4", "--max-s", "3"),
        ("verify", "--p", "6", "--max-s", "3", "--orbits"),
        ("enumerate", "--p", "6", "--s", "3"),
        ("enumerate", "--p", "4", "--s", "3", "--count-only"),
        ("verify", "--p", "4", "--max-s", "2", "--deep-uniqueness"),
    ]
    gc.disable()
    try:
        gc.collect()
        for argv in commands:
            expected = 2 if "--deep-uniqueness" in argv else 0  # the scan finds the twin
            assert run(capsys, *argv)[0] == expected
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "gen", "--p", "4", "--input", '{"n": 10, "diagonals": [[1, 4], [2, 6]]}')
    assert code == 1 and "cross" in err
    code, _, err = run(capsys, "tree", "--input", '{"n": 6, "diagonals": []}')
    assert code == 1 and "4-angulation" in err
    code, _, err = run(capsys, "gen", "--p", "4", "--input", "not json")
    assert code == 1
    code, _, err = run(capsys, "gen", "--p", "4", "--input", "/no/such/file.json")
    assert code == 1
    # malformed JSON shapes end in exit 1, not a traceback
    code, _, err = run(capsys, "cc", "--input", '{"n": 6, "diagonals": 5}')
    assert code == 1 and "malformed dissection" in err
    code, _, err = run(capsys, "validate", "--input", '{"width": 1, "m": 1, "rows": 5}')
    assert code == 1 and "malformed frieze" in err
    zero_denominator = {"m": 1, "rat": "1/0", "rad": "0"}
    rows = [[zero_denominator] * 3] * 4
    code, _, err = run(
        capsys, "validate", "--input", json.dumps({"width": 0, "m": 1, "rows": rows})
    )
    assert code == 1 and "malformed quadratic value" in err
    # non-finite numbers and runaway nesting end in exit 1 too
    code, _, err = run(capsys, "validate", "--input", '{"width": Infinity, "m": 1, "rows": []}')
    assert code == 1 and "malformed frieze" in err
    code, _, err = run(capsys, "validate", "--input", '{"width": 1, "m": Infinity, "rows": []}')
    assert code == 1 and "malformed frieze" in err
    infinite = {"m": 1, "rat": float("inf"), "rad": "0"}
    rows = [[infinite] * 3] * 4
    code, _, err = run(
        capsys, "validate", "--input", json.dumps({"width": 0, "m": 1, "rows": rows})
    )
    assert code == 1 and "malformed quadratic value" in err
    # JSON floats are no coefficients: not even 1.0 in the triangle's frieze
    zero = {"m": 1, "rat": "0", "rad": "0"}
    for value in (1.0, 0.1):
        one = {"m": 1, "rat": value, "rad": "0"}
        rows = [[zero] * 3, [one] * 3, [one] * 3, [zero] * 3]
        payload = json.dumps({"width": 0, "m": 1, "rows": rows})
        code, _, err = run(capsys, "validate", "--input", payload)
        assert code == 1 and "malformed quadratic value" in err
    deep = '{"n": 6, "diagonals": ' + "[" * 100_000 + "]" * 100_000 + "}"
    code, _, err = run(capsys, "gen", "--p", "4", "--input", deep)
    assert code == 1 and "nests too deeply" in err
    # integer fields must be JSON integers: floats and bools are not truncated
    code, _, _ = run(capsys, "validate", "--input", width_0_frieze())
    assert code == 0  # the grid itself is a valid frieze
    for payload in [
        width_0_frieze(width=0.9),
        width_0_frieze(m=1.5),
        width_0_frieze(m=True),
        width_0_frieze(radicand=1.5),
        width_0_frieze(radicand=True),
    ]:
        code, _, err = run(capsys, "validate", "--input", payload)
        assert code == 1 and "malformed" in err
    # exponent strings would make Fraction expand every digit
    huge = {"m": 1, "rat": "1e100000", "rad": "0"}
    payload = json.dumps({"width": 0, "m": 1, "rows": [[huge] * 3] * 4})
    code, _, err = run(capsys, "validate", "--input", payload)
    assert code == 1 and "malformed quadratic value" in err
    # a polygon past the index range, or past any address space, cannot be
    # walked
    for s in (10**20, 10**15):
        code, _, err = run(capsys, "enumerate", "--p", "4", "--s", str(s), "--count-only")
        assert code == 1 and err.startswith("error: ") and f"the {2 * s + 2}-gon" in err
    # a size the address space would hold is refused before anything is allocated
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "enumerate", "--p", "4", "--s", str(10**7), "--count-only")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and err == f"error: the {2 * 10**7 + 2}-gon is too large to walk\n"
    assert peak < 1_000_000


def test_frieze_past_its_bound_exits_1(capsys):
    # the grid of a 12,002-gon would ask for tens of GB; a polygon just past
    # the bound is refused before any row is allocated
    n = _MAX_FRIEZE_N + 2  # even, so the ladder is a 4-angulation
    ladder = json.dumps({"n": n, "diagonals": [[a, n - 1 - a] for a in range(1, n // 2 - 1)]})
    fan = json.dumps({"n": n, "diagonals": [[0, b] for b in range(2, n - 1)]})
    for argv in (["gen", "--p", "4", "--input", ladder], ["cc", "--input", fan]):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == f"error: the {n}-gon is too large for a frieze grid\n"
        assert peak < 1_000_000


def test_internal_assertions_exit_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalAssertionError("sentinel")

    monkeypatch.setattr("friezes.cli.sweep", boom)
    code, _, err = run(capsys, "verify", "--p", "4", "--max-s", "1")
    assert code == 3 and "sentinel" in err


def child_env():
    """The environment of a child that imports the same package as this process."""
    src = str(Path(friezes.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "friezes.cli", "enumerate", "--p", "4", "--s", "2", "--count-only"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_closed_output_pipe_exits_1_silently():
    # as in `friezes enumerate --p 4 --s 9 | head -1`: the reader leaves after
    # one line of the 246,675, which is no input error, so stderr stays empty
    proc = subprocess.Popen(
        [sys.executable, "-m", "friezes.cli", "enumerate", "--p", "4", "--s", "9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read()
    proc.stderr.close()
    assert json.loads(first)["n"] == 20
    assert err == b""
    assert code == 1


def buffered_child_env():
    """`child_env` with stdout block-buffered, as it is when stdout is a pipe
    and PYTHONUNBUFFERED is unset."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--p", "4", "--s", "2"],
        ["enumerate", "--p", "4", "--s", "2", "--count-only"],
        ["verify", "--p", "4", "--max-s", "2"],
        ["gen", "--p", "4", "--input", '{"n": 6, "diagonals": [[0, 3]]}', "--format", "json"],
        ["--help"],
        ["gen", "--help"],
    ],
    ids=["enumerate", "count-only", "verify", "gen-json", "help", "gen-help"],
)
def test_output_that_fits_the_buffer_into_a_closed_pipe_exits_1_silently(argv):
    # the reader is gone before the command starts, and the whole output
    # fits stdout's buffer, so the first write to the pipe is a flush: the
    # one in `main` meets the closed pipe (the flush at exit would fail with
    # exit 120 and "Exception ignored ... BrokenPipeError" on stderr); the
    # help argparse prints is flushed there too
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "friezes.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=buffered_child_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("fmt", ["ascii", "csv", "json"])
def test_frieze_into_a_pipe_closed_after_100_bytes_exits_1_silently(fmt):
    # the 402-gon ladder's frieze is megabytes of text in every format, so
    # `_write` meets the closed pipe long before the frieze is written
    n = 402
    ladder = json.dumps({"n": n, "diagonals": [[a, n - 1 - a] for a in range(1, n // 2 - 1)]})
    proc = subprocess.Popen(
        [sys.executable, "-m", "friezes.cli", "gen", "--p", "4", "--format", fmt, "--input", ladder],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=buffered_child_env(),
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read()
    proc.stderr.close()
    assert len(head) == 100
    assert err == b""
    assert code == 1


# ---------------------------------------------------------------------------
# fuzzing the JSON boundary: every payload ends in a documented exit code

DISSECTION_COMMANDS = [
    ["gen", "--p", "4"],
    ["gen", "--p", "6"],
    ["cc"],
    ["tree"],
    ["associate", "--p", "4"],
    ["associate", "--p", "6"],
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
odd = st.sampled_from([None, True, 1.5, float("nan"), float("inf"), float("-inf"), "4", [], {}])
small_ints = st.integers(-2, 12)
sizes = st.sampled_from([0, 1, 3, 4, 6, 10, 10**6]) | st.integers(-3, 10**6) | odd
dissections = st.fixed_dictionaries(
    {
        "n": sizes | json_values,
        "diagonals": st.lists(st.lists(small_ints | odd, max_size=3), max_size=5) | json_values,
    }
)
quadnums = st.fixed_dictionaries(
    {
        "m": st.sampled_from([0, 1, 2, 3]) | odd,
        "rat": st.sampled_from(["1", "-1/2", "1/0", "x", "1e100000", 2, 0.1]) | odd,
        "rad": st.sampled_from(["0", "1", 3]) | odd,
    }
)
friezes_json = st.fixed_dictionaries(
    {
        "width": sizes | json_values,
        "m": st.sampled_from([1, 2, 3]) | odd,
        "rows": st.lists(st.lists(quadnums | odd, max_size=4), max_size=5) | json_values,
    }
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.tuples(st.sampled_from(DISSECTION_COMMANDS), dissections | json_values)
    | st.tuples(st.just(["validate"]), friezes_json | json_values)
)
def test_json_boundary_never_raises(case):
    argv, payload = case
    text = json.dumps(payload)
    inline = text.lstrip().startswith("{")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--input", text if inline else "-"])
    assert code in (0, 1, 2, 3)
