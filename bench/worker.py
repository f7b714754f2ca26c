"""One benchmark process: set up one workload, then measure or trace it.

Started by ``run.py`` in a fresh interpreter for every run, so set-up time
and peak memory belong to this process alone.  Prints one JSON object.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --t0 EPOCH_SECONDS [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from clock import REFERENCE_S, Sampler

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


class Phase:
    """Outcome of running requests back to back, untraced or traced.

    Times are kept twice: as wall time and in reference seconds (clock.py).
    """

    def __init__(self, sampler: Sampler) -> None:
        self.sampler = sampler
        self.ops = 0
        self.failed = 0
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.op_ms: list[float] = []
        self.op_wall_ms: list[float] = []
        self.digests: list[str] = []
        self.faults: list[str] = []

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.reference_s


def run_request(workload, request, phase: Phase) -> None:
    """Time one request, then check its output outside the timed region."""
    ops = workload.ops(request)
    start = time.perf_counter()
    try:
        output = workload.run(request)
    except Exception:  # a failed operation is counted, and the run goes on
        end = time.perf_counter()
        faults = [traceback.format_exc(limit=-3)]
        digest = "exception"
    else:
        end = time.perf_counter()
        try:
            faults = workload.check(request, output)
            digest = workload.digest(output)
        except Exception:
            faults = [traceback.format_exc(limit=-3)]
            digest = "exception"
    reference = phase.sampler.reference_s(start, end)
    phase.ops += ops
    phase.wall_s += end - start
    phase.reference_s += reference
    phase.op_ms.append(reference * 1000.0 / ops)
    phase.op_wall_ms.append((end - start) * 1000.0 / ops)
    phase.digests.append(digest)
    if faults:
        phase.failed += ops
        phase.faults.extend(f"{workload.name}: {fault}" for fault in faults)


def measure(workload, requests: list, seconds: float, sampler: Sampler) -> Phase:
    """Issue requests one at a time (closed loop) until `seconds` have passed."""
    phase = Phase(sampler)
    start = time.perf_counter()
    index = 0
    while True:
        run_request(workload, requests[index % len(requests)], phase)
        index += 1
        if time.perf_counter() - start >= seconds:
            return phase


def measure_passes(workload, requests: list, seconds: float, sampler: Sampler,
                   tracer=None) -> Phase:
    """Repeat whole passes over `requests` until `seconds` have passed.

    Whole passes keep per-operation counts identical from run to run.
    """
    phase = Phase(sampler)
    start = time.perf_counter()
    while True:
        for request in requests:
            if tracer is not None:
                tracer.request_id += 1
            run_request(workload, request, phase)
        if tracer is not None:
            tracer.keep_spans = False  # later passes repeat the first
        if time.perf_counter() - start >= seconds:
            return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_run(workload, requests: list, seconds: float, seed: int, sampler: Sampler) -> dict:
    """Untraced, then traced passes over the same requests; compare outputs."""
    from tracing import Tracer

    prefix = requests[: workload.trace_requests]
    plain = measure_passes(workload, prefix, seconds / 2, sampler)
    tracer = Tracer()
    bytes_before = workload.cli.output_bytes
    tracer.install()
    started = time.perf_counter()
    try:
        traced = measure_passes(workload, prefix, seconds / 2, sampler, tracer)
    finally:
        tracer.uninstall()
    # per-layer times in reference seconds, at the host speed of the traced passes
    scale = REFERENCE_S / statistics.fmean(sampler.snippets(started, time.perf_counter()))
    layers = {name: value * scale if name.endswith(("_s", ".s")) else value
              for name, value in tracer.metrics(traced.ops).items()}
    layers["cli.output_bytes"] = (workload.cli.output_bytes - bytes_before) / traced.ops
    layers["trace.overhead"] = plain.ops_per_s / traced.ops_per_s
    first = plain.digests[: len(prefix)]
    mismatched = sum(
        digest != first[i % len(prefix)] for i, digest in enumerate(traced.digests)
    )
    faults = plain.faults + traced.faults
    if mismatched:
        faults.append(f"{mismatched} traced outputs differ from the untraced ones")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    return {
        "attempted": plain.ops + traced.ops,
        "failed": plain.failed + traced.failed,
        "outputs_match": mismatched == 0,
        "faults": faults[:10],
        "layers": layers,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main() -> int:
    sampler = Sampler()
    sampler.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True, help="epoch time of the spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import friezes

    if not Path(friezes.__file__).resolve().is_relative_to(source):
        print(f"friezes imported from {friezes.__file__}, not {source}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    requests = workload.requests(args.seed)
    warm = Phase(sampler)
    run_request(workload, workload.warmup(), warm)
    setup_wall_s = time.time() - args.t0
    setup_end = time.perf_counter()
    result = {
        "setup_s": sampler.reference_s(setup_end - setup_wall_s, setup_end),
        "setup_wall_s": setup_wall_s,
        "inputs": {"requests": len(requests), "exhaustive": workload.exhaustive,
                   "sha256": workloads.sha256(json.dumps(requests, sort_keys=True))},
        "faults": warm.faults,
    }
    if args.setup_only:
        result.update(attempted=0, failed=0)
    elif args.trace:
        result.update(trace_run(workload, requests, args.seconds, args.seed, sampler))
        result["faults"] = warm.faults + result["faults"]
    else:
        started = time.perf_counter()
        phase = measure(workload, requests, args.seconds, sampler)
        snippets = sampler.snippets(started, time.perf_counter())
        result.update(
            attempted=phase.ops,
            failed=phase.failed,
            requests=len(phase.op_ms),
            ops_per_s=phase.ops_per_s,
            op_ms=phase.op_ms,
            op_ms_p50=statistics.median(phase.op_ms),
            wall={"ops_per_s": phase.ops / phase.wall_s,
                  "op_ms_p50": statistics.median(phase.op_wall_ms),
                  "op_ms": phase.op_wall_ms},
            snippet_ms={"mean": statistics.fmean(snippets) * 1000.0,
                        "min": min(snippets) * 1000.0, "max": max(snippets) * 1000.0,
                        "samples": len(snippets)},
            faults=(warm.faults + phase.faults)[:10],
        )
    result["attempted"] += warm.ops  # the checked warm-up counts as attempted
    result["failed"] += warm.failed
    sampler.stop()
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
