"""Command line surface: every subcommand, every format, every exit code."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import friezes
from friezes import InternalAssertionError
from friezes.cli import main

QUAD10 = '{"n": 10, "diagonals": [[1, 4], [4, 9], [5, 8]]}'
T_QUAD10 = '{"n": 10, "diagonals": [[1, 3], [1, 4], [1, 9], [4, 9], [5, 7], [5, 8], [5, 9]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "6", "--s", "3", "--count-only")
    assert code == 0 and out.strip() == "35"


def test_verify_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--p", "4", "--max-s", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["checked"] == 4 and blob["all_ok"] is True
    assert blob["counterexamples"] == []


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


def test_internal_assertions_exit_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalAssertionError("sentinel")

    monkeypatch.setattr("friezes.cli.sweep", boom)
    code, _, err = run(capsys, "verify", "--p", "4", "--max-s", "1")
    assert code == 3 and "sentinel" in err


def test_module_entry_point():
    # the child imports the same package as this process, wherever it was found
    src = str(Path(friezes.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "friezes.cli", "enumerate", "--p", "4", "--s", "2", "--count-only"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"
