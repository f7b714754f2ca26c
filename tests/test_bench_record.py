"""The before/after summary of `tools/bench_record.py`: quartiles, verdicts and
the layer that moved, on hand-made run values (no benchmark is run)."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

RECORDER = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", RECORDER)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)  # stdlib imports only


def test_spread_of_one_value_is_that_value():
    assert bench_record.spread([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0}


def test_spread_of_ten_values():
    s = bench_record.spread([float(v) for v in range(10, 0, -1)])
    assert s == {"median": 5.5, "q1": 3.25, "q3": 7.75}


STEADY = [10.0] * 10  # a parent with no spread


@pytest.mark.parametrize(
    "parent,change,lower,wins,expected",
    [
        # nine of ten pairs won and a median move beyond the parent's spread
        (STEADY, [8.0] * 10, True, 9, "gain"),
        (STEADY, [12.0] * 10, False, 9, "gain"),
        # eight wins are not enough, however far the medians move
        (STEADY, [8.0] * 10, True, 8, "unchanged"),
        # worse than the parent by more than the bound (0.2 of its median)
        (STEADY, [12.5] * 10, True, 0, "regression"),
        (STEADY, [7.5] * 10, False, 0, "regression"),
        # worse, but within the bound
        (STEADY, [11.5] * 10, True, 0, "unchanged"),
        # the parent's own spread (10) is wider than the bound (0.2 · 15)
        ([10.0] * 5 + [20.0] * 5, [11.0] * 10, True, 5, "unresolved"),
        # ... unless every change run beats every parent run; the median move
        # (6) is within that spread, so it is no gain either
        ([10.0] * 5 + [20.0] * 5, [9.0] * 10, True, 10, "unchanged"),
    ],
)
def test_verdict(parent, change, lower, wins, expected):
    assert bench_record.verdict(parent, change, lower, 0.2, wins) == expected


def layers(medians):
    """Per-layer summaries from {metric: (parent median, change median)}."""
    return {
        name: {"parent": {"median": before}, "change": {"median": after}}
        for name, (before, after) in medians.items()
    }


def test_a_span_that_falls_to_zero_is_bypassed_not_moved():
    summary = layers({
        "frieze.lambda_s": (0.004, 0.0),  # the change no longer enters this span
        "verify.self_s": (0.001, 0.003),
        "polygon.faces_s": (0.002, 0.002),
        "frieze.lambda_calls": (50.0, 0.0),  # counts are not timed layers
        "exact.s": (0.0, 0.0),
    })
    assert bench_record.bypassed_layers(summary) == ["frieze.lambda_s"]
    assert bench_record.moved_layer(summary) == "verify.self_s"


def test_nothing_moved():
    still = {"polygon.faces_s": (0.002, 0.002), "exact.s": (0.0, 0.0)}
    assert bench_record.moved_layer(layers(still)) is None
    assert bench_record.bypassed_layers(layers(still)) == []
    # a bypassed span alone is not a move
    assert bench_record.moved_layer(layers({**still, "frieze.cc_s": (0.001, 0.0)})) is None


@pytest.mark.parametrize(
    "line,expected",
    [
        ("1 failed, 239 passed in 32.10s", {"failed": 1, "passed": 239}),
        ("240 passed in 31.92s", {"passed": 240}),
        ("1 failed, 238 passed, 3 warnings, 2 errors in 1:02:03",
         {"failed": 1, "passed": 238, "warnings": 3, "errors": 2}),
        ("==== 5 passed, 1 skipped in 0.12s ====", {"passed": 5, "skipped": 1}),
        ("no tests ran in 0.01s", {}),
        ("", {}),
        # appended last so that the earlier cases keep their ids
        ("1 failed, 266 passed, 1 error in 28.46s", {"failed": 1, "passed": 266, "error": 1}),
    ],
)
def test_outcome_counts_read_a_pytest_summary_line(line, expected):
    assert bench_record.outcome_counts(line) == expected


@pytest.mark.parametrize(
    "line,errors",
    [("1 failed, 266 passed, 1 error in 28.46s", 1), ("2 errors in 0.50s", 2),
     ("267 passed in 28.00s", 0)],
)
def test_tier1_counts_collection_errors(monkeypatch, line, errors):
    # a collection error under --continue-on-collection-errors is counted, not
    # mistaken for a missing pass
    ran = SimpleNamespace(stdout=f"....\n{line}\n")
    monkeypatch.setattr(bench_record.subprocess, "run", lambda *args, **kwargs: ran)
    suite = bench_record.tier1(Path("tree"))
    counts = bench_record.outcome_counts(line)
    assert suite["errors"] == errors
    assert (suite["passed"], suite["failed"]) == (counts.get("passed", 0), counts.get("failed", 0))
