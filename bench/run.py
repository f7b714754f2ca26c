"""Benchmark of the friezes library: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and described in bench/README.md.
Each run starts fresh worker processes one after another (never two at a
time): with ``--trace 0``, one worker that sets up and measures for
``--seconds``, with ``SETUP_SAMPLES // 2`` workers that only set up before
it and as many after it, so the set-up samples span the run; with
``--trace 1``, one worker that runs the workload untraced and then traced.  The report
goes to stdout; its last line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 7
DEADLINE_S = 170  # a run must end within 180 s


def environment() -> dict:
    """Interpreter, machine and source revision the run measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                        timeout=10, capture_output=True, text=True,
                                        check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source.hexdigest(),
    }


def spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    """Run one worker to completion and return the JSON object it printed."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--t0", repr(time.time())]
    if setup_only:
        argv.append("--setup-only")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def tail(op_ms: list[float]) -> dict | None:
    """Latency at the highest percentile with at least ten samples beyond it."""
    if len(op_ms) < 11:
        return None
    ordered = sorted(op_ms)
    return {"value": ordered[-11], "percentile": 100.0 * (len(ordered) - 10) / len(ordered),
            "samples": len(ordered)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    deadline = time.monotonic() + DEADLINE_S

    extra = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        setups = [spawn(args, deadline, True) for _ in range(extra)]
        final = spawn(args, deadline, False)
        setups += [spawn(args, deadline, True) for _ in range(extra)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    faults = [f for s in setups for f in s["faults"]] + final["faults"]
    attempted = sum(s["attempted"] for s in setups + [final])
    failed = sum(s["failed"] for s in setups + [final])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = final["layers"]
    else:
        values = {
            "ops_per_s": final["ops_per_s"],
            "op_ms_p50": final["op_ms_p50"],
            "peak_rss_mb": final["peak_rss_mb"],
            "setup_s": statistics.median([s["setup_s"] for s in setups + [final]]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "inputs": final["inputs"],
        "error_rate": failed / attempted, "faults": faults[:10],
    }
    print(f"friezes benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        report.update(outputs_match=final["outputs_match"], spans=final["spans"],
                      spans_file=final["spans_file"])
    else:
        report.update(requests=final["requests"], op_ms_tail=tail(final["op_ms"]),
                      setup_samples_s=[s["setup_s"] for s in setups + [final]],
                      snippet_ms=final["snippet_ms"],
                      wall={"ops_per_s": final["wall"]["ops_per_s"],
                            "op_ms_p50": final["wall"]["op_ms_p50"],
                            "op_ms_tail": tail(final["wall"]["op_ms"]),
                            "setup_s": statistics.median(
                                [s["setup_wall_s"] for s in setups + [final]])})
        tail_ms = report["op_ms_tail"]
        print("  op_ms_tail                   " + (
            f"{tail_ms['value']:.6g} ms (p{tail_ms['percentile']:.1f} of "
            f"{tail_ms['samples']} requests)" if tail_ms else
            f"n/a ({final['requests']} requests, fewer than 11)"))
    print(f"  error_rate                   {report['error_rate']:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    for fault in faults[:10]:
        print(f"  FAULT {fault}")
    print(json.dumps({"report": report}))
    correct = failed == 0 and final.get("outputs_match", True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
