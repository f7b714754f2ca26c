"""Every CI check of `tools/ci.py` runs here at its smallest sizes, so a
private name or signature a check uses that drifts fails Tier-1, not only CI;
and its child helper reports each child's own peak RSS, kills a child past
its time and reaps every child; and the ear walk's comparison with the
kernel sees a glue fault that the sweep's checks cannot.

The checks run in a fresh interpreter: a child's peak RSS counts the
address space of the process that started it, and this one's is large.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each step's smallest sizes, and whether it passes (Tier-1 fails by design)
SMALLEST = """
import importlib.util, os, sys

spec = importlib.util.spec_from_file_location("ci", sys.argv[1])
ci = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ci)
ci.CLI = [sys.executable, "-S", "-m", "friezes.cli"]  # no site: each start is 20 ms shorter
junit = sys.argv[2]
steps = {
    "import_footprint": ((), {}, True),
    "tier1": ((junit, "-p", "no:hypothesispytest", "-p", "no:cacheprovider",
               "tests/test_acceptance.py::test_criterion_10_uniqueness_deep_scan"), {}, False),
    "tier1_by_design": ((junit,), {}, True),
    "sweeps": ((), {"runs": ((4, 2, ("--deep-uniqueness",), 2, None), (6, 2, (), 0, None),
                            (4, 3, ("--orbits",), 0, 6))}, True),
    "ear_walk": ((), {"levels": ((4, 3), (6, 2)), "exhaustive": (4, 2)}, True),
    "ear_depth": ((), {"depth": 3}, True),
    "enumerate_sorted": ((), {"s": 3}, True),
    "enumerate_first_line": ((), {"s": 3}, True),
    "enumerate_bytes": ((), {"sizes": ((4, 3), (6, 2))}, True),
    "derived": ((), {"levels": ((4, 3), (6, 2)), "deep_n": 10}, True),
    "frieze_ladders": ((), {"bounds": {10: {"ascii": 60, "csv": 40, "json": 40}}}, True),
    "json_edge": ((), {"n": 10}, True),
    "crossing": ((), {"n": 16}, True),
}
assert list(steps) == list(ci.STEPS), "a step of tools/ci.py has no smallest sizes here"
for name, (args, sizes, passes) in steps.items():
    print(f"{name}: {'as expected' if ci.STEPS[name](*args, **sizes) is passes else 'UNEXPECTED'}", flush=True)
# each child's own peak RSS, not the largest yet; a child past its time is killed
big = ci.run([sys.executable, "-S", "-c", "b = bytearray(b'x') * (120 << 20)"])
small = ci.run([sys.executable, "-S", "-c", "pass"])
print(f"rss {big.rss_mb:.1f} then {small.rss_mb:.1f} MB: {'as expected' if big.rss_mb > 120 > 40 > small.rss_mb else 'UNEXPECTED'}")
slow = ci.run([sys.executable, "-S", "-c", "import time; time.sleep(60)"], timeout=0.2)
print(f"killed: {'as expected' if slow.code == -9 and slow.seconds < 10 else 'UNEXPECTED'}")
with open(junit, "w") as fh:
    fh.write('<testsuite><testcase classname="tests.test_cli" name="test_x"><failure message="boom"/></testcase></testsuite>')
print(f"unexpected failure: {'as expected' if ci.tier1_by_design(junit) is False else 'UNEXPECTED'}")
try:
    print(f"child left unreaped: {os.waitpid(-1, os.WNOHANG)}")
except ChildProcessError:
    print("every child reaped")
"""


def test_every_ci_step_runs_at_its_smallest_sizes(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-S", "-c", SMALLEST, str(ROOT / "tools" / "ci.py"), str(tmp_path / "tier1.xml")]
    done = subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    verdicts = [line for line in done.stdout.splitlines() if line.endswith(("as expected", "UNEXPECTED"))]
    assert verdicts and all(line.endswith("as expected") for line in verdicts), done.stdout
    assert done.stdout.endswith("every child reaped\n"), done.stdout[-2000:]


def test_ear_walk_sees_a_glue_fault_both_families_share(monkeypatch):
    # ROADMAP item 13's mutant: two entries of row 0 whose columns have one
    # parity (3 and 5, away from the centres 2 and n − 1 of the children
    # glued on that row) swapped in both families, in the rows of every
    # child a = 0 with n ≥ 8.  (F) still holds between the families, so the
    # sweep's checks pass it; the walk's comparison with the kernel reports
    # the nodes it moved
    import friezes.ears

    spec = importlib.util.spec_from_file_location("ci", ROOT / "tools" / "ci.py")
    ci = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci)
    assert ci.ear_tree(4, 5)[1:] == (71, [])
    glued_rows = friezes.ears._glued_rows

    def swapped(rows, n, a, news, inner):
        out = glued_rows(rows, n, a, news, inner)
        if a == 0 and n + len(news) >= 8:  # the child's n
            out[3], out[5] = out[5], out[3]
        return out

    monkeypatch.setattr(friezes.ears, "_glued_rows", swapped)
    glued, nodes, off = ci.ear_tree(4, 5)
    assert nodes == 71 and off and all(len(counts) >= 8 and counts[0] >= 2 for counts in off)
