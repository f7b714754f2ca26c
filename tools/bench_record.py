"""Record a before/after benchmark comparison as BENCH_<short-sha>.json.

    python3 tools/bench_record.py --base REV [--seconds 5] [--seed 101]

The change is this checkout's working tree; the parent is revision --base,
checked out with `git worktree add` into a temporary directory and removed
afterwards.  --base has no default: a change of several commits has no
revision that is always its parent, so it is named on purpose.  Each
tree's own `bench/run.py` measures its own `src/`.

For every workload in BENCHMARK.json, the two trees run alternately with
the same seed and --seconds: PAIRS pairs with `--trace 0` (seeds --seed,
--seed + 1, ...), then TRACE_PAIRS pairs with `--trace 1`.  Odd pairs run
the change first, so neither side always runs second.

The file (written next to this checkout's BENCHMARK.json) records the
interpreter, the CPU and both commits as `bench/run.py` reports them,
every run's metrics, and per metric the median and quartiles of each
side, the ratio of the medians and how many pairs the change won.  Each
end-to-end metric gets a verdict: "gain" when the change wins at least
nine tenths of the pairs and the medians differ by more than the parent's
interquartile range, "regression" when the change's median is worse than
the parent's by more than the metric's bound, "unresolved" when the
parent's own spread is wider than the bound (unless every change run
beats every parent run), and "unchanged" otherwise.  Per workload it names
the layer that moved: the traced per-layer time metric (`*_s`) whose
median changed most among the spans both trees pass through.  Spans the
change no longer passes through (parent median above 0, change median 0)
are listed apart as bypassed: their fall to 0 is time moved elsewhere,
not a move of that layer.  Before the pairs, each tree runs its Tier-1
suite once (TIER1, from the tree's root with its `src/` first on
PYTHONPATH); the file records its wall seconds and its passed, failed and
errors counts (collection errors included) under "tier1".  The exit status is 1 when any run was not `correct`
or had `failed` > 0, and 2 when a run could not be completed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # untraced pairs per workload: enough to ask for nine wins in ten
TRACE_PAIRS = 3  # traced pairs per workload; layer counts repeat exactly
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]  # ROADMAP.md's Tier-1


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One `bench/run.py` run in a tree: its report's environment and its result."""
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-2])["report"]["environment"], json.loads(lines[-1])


def outcome_counts(line: str) -> dict[str, int]:
    """The counts of a pytest summary line, e.g. "1 failed, 239 passed in 32.10s"."""
    return {word: int(count) for count, word in re.findall(r"(\d+) ([a-z]+)", line)}


def tier1(tree: Path) -> dict:
    """One Tier-1 run in a tree: its wall seconds and passed, failed and errors
    counts (pytest writes "1 error" but "2 errors")."""
    paths = [str(tree / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    counts = outcome_counts(lines[-1] if lines else "")
    return {"seconds": round(seconds, 2), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0)}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], lower: bool, bound: float,
            wins: int) -> str:
    before, after = spread(parent), spread(change)
    gain = (before["median"] - after["median"]) if lower else (after["median"] - before["median"])
    if 10 * wins >= 9 * len(parent) and gain > before["q3"] - before["q1"]:
        return "gain"
    if -gain > bound * before["median"]:
        return "regression"
    beats_all = min(parent) > max(change) if lower else max(parent) < min(change)
    if before["q3"] - before["q1"] > bound * before["median"] and not beats_all:
        return "unresolved"
    return "unchanged"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' spread, the median ratio, the change's wins and,
    where the metric has a bound, a verdict."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        before, after = spread(parent), spread(change)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        out[name] = {
            "better": metric["better"],
            "parent": before,
            "change": after,
            "ratio": after["median"] / before["median"] if before["median"] else None,
            "change_wins": wins,
            "pairs": len(runs),
        }
        if "bound" in metric:
            out[name]["verdict"] = verdict(parent, change, lower, metric["bound"], wins)
    return out


def bypassed_layers(layers: dict) -> list[str]:
    """Traced time-per-op metrics the parent spends time in and the change never enters."""
    return [name for name, s in layers.items() if name.endswith("_s")
            and s["parent"]["median"] > 0 and s["change"]["median"] == 0]


def moved_layer(layers: dict) -> str | None:
    """The traced time-per-op metric whose median moved most (either way),
    among those the change does not bypass."""
    bypassed = bypassed_layers(layers)
    timed = {name: abs(s["change"]["median"] - s["parent"]["median"])
             for name, s in layers.items() if name.endswith("_s") and name not in bypassed}
    return max(timed, key=timed.get) if timed and max(timed.values()) > 0 else None


def measure(spec: dict, trees: dict[str, Path], seconds: int, first_seed: int) -> dict:
    """Time each tree's Tier-1 suite, run every pair and summarize them per workload."""
    suites = {side: tier1(tree) for side, tree in trees.items()}
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {trace: {w: [] for w in workloads} for trace in (0, 1)}
    environments: dict[str, dict] = {}
    bad = []
    for trace, pairs in ((0, PAIRS), (1, TRACE_PAIRS)):
        for i in range(pairs):
            seed = first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                pair = {"seed": seed}
                for side in order:
                    env, result = run_once(trees[side], workload, seed, seconds, trace)
                    environments.setdefault(side, env)
                    pair[side] = {key: result[key]
                                  for key in ("correct", "attempted", "failed", "metrics")}
                    if result["correct"] is not True or result["failed"] > 0:
                        bad.append({"side": side, "workload": workload, "seed": seed,
                                    "trace": trace, "correct": result["correct"],
                                    "failed": result["failed"]})
                runs[trace][workload].append(pair)
                print(f"trace {trace} pair {i + 1}/{pairs} {workload} done",
                      file=sys.stderr, flush=True)
    summary = {}
    for workload in workloads:
        layers = summarize(runs[1][workload], spec["per_layer"])
        summary[workload] = {
            "end_to_end": summarize(runs[0][workload], spec["end_to_end"]),
            "per_layer": layers,
            "moved_layer": moved_layer(layers),
            "bypassed_layers": bypassed_layers(layers),
            "runs": {"trace0": runs[0][workload], "trace1": runs[1][workload]},
        }
    commit = ("commit", "dirty", "source_sha256")
    env = environments["change"]
    return {
        "environment": {key: env[key] for key in ("python", "cpu", "nproc")},
        "parent": {key: environments["parent"][key] for key in commit},
        "change": {key: env[key] for key in commit},
        "settings": {"seconds": seconds, "pairs": PAIRS, "trace_pairs": TRACE_PAIRS,
                     "first_seed": first_seed,
                     "order": "alternating; odd pairs run the change first"},
        "tier1": suites,
        "workloads": summary,
        "all_correct": not bad,
        "bad_runs": bad,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="parent revision, checked out into a temporary worktree")
    parser.add_argument("--seconds", type=int, default=5, help="--seconds of every run")
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        worktree = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(worktree), git("rev-parse", args.base))
        try:
            record = measure(spec, {"parent": worktree, "change": ROOT},
                             args.seconds, args.seed)
        except (RuntimeError, json.JSONDecodeError, KeyError) as exc:
            print(f"bench_record: {exc}", file=sys.stderr)
            return 2
        finally:
            git("worktree", "remove", "--force", str(worktree))

    path = ROOT / f"BENCH_{record['change']['commit'][:7]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    for side, suite in record["tier1"].items():
        print(f"  tier1 {side:6s} {suite['seconds']:.1f} s, {suite['passed']} passed, "
              f"{suite['failed']} failed, {suite['errors']} errors")
    for workload, result in record["workloads"].items():
        for name, s in result["end_to_end"].items():
            print(f"  {workload:15s} {name:12s} {s['parent']['median']:.6g} -> "
                  f"{s['change']['median']:.6g}  (ratio {s['ratio']}, change better "
                  f"in {s['change_wins']}/{s['pairs']}: {s['verdict']})")
        print(f"  {workload:15s} layer that moved: {result['moved_layer']}; "
              f"bypassed: {', '.join(result['bypassed_layers']) or 'none'}")
    for run in record["bad_runs"]:
        print(f"  BAD RUN {run}", file=sys.stderr)
    return 1 if record["bad_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
