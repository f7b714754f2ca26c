"""The CI checks, one function per step of `.github/workflows/tests.yml`.

Run one step with the package on the path, from the repository's root:

    PYTHONPATH=src python3 tools/ci.py sweeps

A step prints one log line per check and exits 0 when every check holds,
else 1 (`tier1` exits 1 whenever pytest fails).  Each step's keyword defaults
are the sizes, bounds and time limits the workflow runs, and
`tests/test_ci.py` runs every step at its smallest sizes.  The steps
`sweeps`, `ear_walk`, `enumerate_sorted`, `enumerate_first_line`,
`enumerate_bytes`, `frieze_ladders`, `validate_ladder`, `json_edge` and
`crossing` start the `friezes` console script (`CLI`).  Every peak RSS is
the one child's, read by `os.wait4` as it is reaped (see `reap`).  Linux
only (`os.waitid`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from collections import namedtuple
from itertools import chain, combinations
from pathlib import Path
from typing import Iterator, Sequence

from friezes import (
    Dissection,
    NoncrossingTree,
    Triangulation,
    associated_triangulation,
    cc_frieze,
    deep_uniqueness,
    enumerate_p_angulations,
    faces,
    lambda_frieze,
    quad_to_tree,
    quiddity_counts,
)
import friezes.ears
from friezes.bijection import _refine
from friezes.ears import _FACES, _child, _ear_batches, _ears_pass, _lanes_wide, _matrix, _unpacked
from friezes.exact import LAMBDA_RADICAND
from friezes.frieze import _MAX_FRIEZE_N, _ascii_rows, _csv_rows, _rows
from friezes.polygon import _canonical_parent, _ear_counts, _glued
from friezes.verify import _counts

ROOT = Path(__file__).resolve().parent.parent
CLI = ["friezes"]

Child = namedtuple("Child", "code out err seconds rss_mb")


def run(argv: list[str], stdin: bytes = b"", timeout: float | None = None, digest: bool = False) -> Child:
    """Run argv on stdin's bytes to its end, killed past timeout seconds: its
    exit code, stdout bytes (with digest, their length and SHA-256 instead),
    stderr text, wall seconds and peak RSS in MB.  Its output goes to files,
    so no pipe fills while it runs."""
    with tempfile.TemporaryFile() as given, tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        given.write(stdin)
        given.seek(0)
        start = time.monotonic()
        child = subprocess.Popen(argv, stdin=given, stdout=out, stderr=err)
        code, rss_mb = reap(child, killer(child, timeout))
        seconds = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        written = sha256_of(out) if digest else out.read()
        return Child(code, written, err.read().decode(errors="replace"), seconds, rss_mb)


def sha256_of(stream) -> tuple[int, str]:
    """The length and SHA-256 of a stream's bytes, read a MiB at a time."""
    return sha256_of_pieces(iter(lambda: stream.read(1 << 20), b""))


def sha256_of_pieces(pieces) -> tuple[int, str]:
    """The length and SHA-256 of bytes that come in pieces, holding one piece
    at a time."""
    total, h = 0, hashlib.sha256()
    for piece in pieces:
        total += len(piece)
        h.update(piece)
    return total, h.hexdigest()


def killer(child: subprocess.Popen, timeout: float | None) -> threading.Timer | None:
    """A started timer that kills the child past timeout seconds; `reap` stops it."""
    if timeout is None:
        return None
    timer = threading.Timer(timeout, os.kill, (child.pid, signal.SIGKILL))
    timer.start()
    return timer


def reap(child: subprocess.Popen, timer: threading.Timer | None = None) -> tuple[int, float]:
    """Wait for the child and reap it: its exit code (−N for signal N) and its
    own peak RSS in MB, where RUSAGE_CHILDREN would keep the largest child
    seen so far.  The timer is stopped once the child has exited and before
    it is reaped, so it never kills a process that reused the pid.

    The kernel counts the address space a child replaced at exec, here the
    checker's: a child's peak RSS is at least the checker's own peak when
    it was started (about 20 MB), so a step starts its children with an RSS
    bound before it does any work of its own."""
    os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
    if timer is not None:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # so Popen never waits for it again
    return child.returncode, usage.ru_maxrss / 1024


def expect(child: Child, code: int = 0, rss_mb: float | None = None, error: str | None = None) -> list[str]:
    """What is wrong with a finished child: an exit code other than code; with
    error, a stderr other than the one line "error: " + a message that
    error (a regex) matches, so no traceback; a peak RSS of rss_mb or more."""
    problems = []
    if child.code != code:
        problems.append(f"exit {child.code}, expected {code}: {child.err[:500]!r}")
    if error is not None and not re.fullmatch(f"error: {error}\n", child.err):
        problems.append(f"stderr {child.err[:500]!r}")
    if rss_mb is not None and child.rss_mb >= rss_mb:
        problems.append(f"peak RSS {child.rss_mb:.1f} MB, expected under {rss_mb} MB")
    return problems


def report(line: str, problems: list[str], fine: str) -> bool:
    """Print the log line, ending in the problems or else in fine; True when none."""
    print(line + ("; ".join(problems) or fine), flush=True)
    return not problems


def per_s(p: int, s_max: int) -> dict[str, int]:
    """The Fuss–Catalan number of p-angulations with s faces, for s = 1..s_max."""
    return {str(s): math.comb((p - 1) * s, s - 1) // s for s in range(1, s_max + 1)}


def cli(*args) -> list[str]:
    """The console script's argv for these arguments."""
    return [*CLI, *map(str, args)]


def import_footprint() -> bool:
    """The installed package's import cost: the log gives `friezes.cli`'s
    cumulative import time, and the step fails if importing it loads
    dataclasses, inspect or ast (dataclasses pulled in all three, about
    0.9 MB of RSS and 7-11 ms per start).  Modules the interpreter loads
    with no import (`-c pass`, such as a site hook's) are left out.
    Tier-1 scans src/ for `dataclasses` import statements, which
    `-X importtime` cannot see inside a function."""

    def imports(code):
        child = run([sys.executable, "-X", "importtime", "-c", code])
        lines = {}
        for line in child.err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[0].strip().isdigit():
                lines[fields[2].strip()] = line
        return lines

    package, bare = imports("import friezes.cli"), imports("pass")
    print(package["friezes.cli"])
    heavy = [name for name in ("dataclasses", "inspect", "ast") if name in package and name not in bare]
    return report("", [f"importing friezes.cli loads {', '.join(heavy)}"] if heavy else [], "no dataclasses, inspect or ast")


def tier1(junit: str, *pytest_args: str) -> bool:
    """Tier-1, the slowest tests listed, its outcomes written to junit.
    Criterion 10 fails by design (README), so this is red on every run."""
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10",
            f"--junitxml={junit}", *pytest_args]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": path}).returncode == 0


def tier1_by_design(junit: str) -> bool:
    """Green only when criterion 10 is Tier-1's sole failure or error and
    still reports the two matches of the README."""
    known = ("tests.test_acceptance", "test_criterion_10_uniqueness_deep_scan")
    diagnostic = "matches=2 kinds=('associated', 'mirror')"
    failed = {}
    for case in ET.parse(junit).getroot().iter("testcase"):
        for outcome in case:
            if outcome.tag in ("failure", "error"):
                key = (case.get("classname"), case.get("name"))
                failed[key] = failed.get(key, "") + outcome.get("message", "") + (outcome.text or "")
    problems = [f"unexpected failure: {classname}::{name}" for classname, name in sorted(failed) if (classname, name) != known]
    if known not in failed:
        problems.append("criterion 10 did not fail; its documented failure is gone")
    elif diagnostic not in failed[known]:
        problems.append(f"criterion 10 failed without {diagnostic}: {failed[known][:500]}")
    return report("tier-1: ", problems, "only the known failure")


SWEEPS = (  # p, max_s, flags, exit code, orbits_checked
    (4, 4, ("--deep-uniqueness",), 2, None),
    (6, 3, ("--deep-uniqueness",), 2, None),
    (4, 7, (), 0, None),
    (6, 4, (), 0, None),
    (6, 5, (), 0, None),
    (4, 10, ("--orbits",), 0, 160865),
)


def sweeps(runs=SWEEPS) -> bool:
    """`friezes verify` sweeps, each checked even after another fails: the
    exit code, `checked` and `per_s` against the Fuss–Catalan numbers, no
    counterexample, `all_ok` (true exactly on exit 0), `deep_failures` and
    `orbits_checked`; the log gives each wall time.
    - The deep scan always finds the mirror twin (the white-corner
      refinement shares every odd row), so a deep sweep flags every
      dissection and exits 2.
    - Past the bench's sweep (p = 4, s ≤ 7; p = 6, s ≤ 4) every batch must
      pass; p = 6, s ≤ 5 takes the ear checks one hexagon level further.
    - `--orbits` checks every 4-angulation with s ≤ 9 and, of s = 10, one per
      even-rotation orbit; orbits_checked counts the representatives of
      every level (160,865 of 1,730,177), and checked still counts all."""
    ok = True
    for p, max_s, flags, code, orbits in runs:
        argv = cli("verify", *flags, "--p", p, "--max-s", max_s)
        child = run(argv)
        counts = per_s(p, max_s)
        checked = sum(counts.values())
        problems = expect(child, code)
        if not problems:
            blob = json.loads(child.out)
            if blob["checked"] != checked:
                problems.append(f"checked {blob['checked']}, expected {checked}")
            if blob["per_s"] != counts:
                problems.append(f"per_s {blob['per_s']}, expected {counts}")
            if blob.get("orbits_checked") != orbits:
                problems.append(f"orbits_checked {blob.get('orbits_checked')}, expected {orbits}")
            if blob["all_ok"] is not (code == 0) or blob["counterexamples"]:
                problems.append(f"all_ok {blob['all_ok']}, {len(blob['counterexamples'])} counterexamples")
            flagged = checked if "--deep-uniqueness" in flags else 0
            if len(blob["deep_failures"]) != flagged:
                problems.append(f"{len(blob['deep_failures'])} deep failures, expected {flagged}")
        line = f"{' '.join(argv[len(CLI):])}: {child.seconds:.2f} s wall, "
        ok &= report(line, problems, f"exit {code}, {checked} checked")
    return ok


def kernel_families(p: int, counts: tuple, last: int) -> Iterator[tuple[list[int], int]]:
    """Per family, a node's rows 0..last + 1, flat, as the ear tree holds them,
    and its largest entry, both from the frieze the kernel grows from the
    node's own counts, `_matrix(_rows(...))`, in C values; one frieze is
    held at a time."""
    m = LAMBDA_RADICAND[p]
    for c, scale, radical in zip(counts, (m, 1), (True, False)):
        grid = _rows(tuple(c), scale, radical)
        yield [e for row in _matrix(grid)[: last + 2] for e in row], max(map(max, grid))


def ear_tree(p: int, s_max: int) -> tuple[dict, int, list, list]:
    """One walk of the ear tree (`friezes.ears`) up to level s_max: per level s
    the face counts of the children it glues; the number of nodes past the
    2-gon; the face counts of every node whose glued rows 0..last + 1,
    in either family, are not the rows of `_matrix(_rows(...))` grown by the
    kernel from the node's own counts; and (child's face counts, a) of every
    edge that `_canonical_parent` does not cut back to its node and a.  The
    glued rows come from (E2) and the gather plans, which the kernel shares
    nothing with, so a fault that moves entries alike in both families,
    which every check of the sweep passes (ROADMAP item 13), shows here."""
    glued = {s: [] for s in range(1, s_max + 1)}
    nodes, off, uncut = 0, [], []
    for s, last, counts, rows, _ in _ear_batches(p, s_max):
        for a in range(last + 1):
            child = _glued(counts[0], a, [1] * p)
            glued[s].append(tuple(child))
            if _canonical_parent(child, p) != (counts[0], a):
                uncut.append((tuple(child), a))
        if s > 1:  # past the 2-gon
            nodes += 1
            if list(rows) != [flat for flat, _ in kernel_families(p, counts, last)]:
                off.append(tuple(counts[0]))
    return glued, nodes, off, uncut


def ear_counts(p: int, s: int) -> tuple[int, int, int, int, float, float]:
    """The leaves of `_ear_counts(s, p)` against the face counts of the walk's
    leaves, each vertex's 1 plus its degree (`quiddity_counts`): (walked,
    glued, glued but not walked or glued twice, walked but not glued,
    seconds of the walk, seconds of the tree).  Only the walked vectors are
    held, as a set each glued leaf is taken out of."""
    start = time.monotonic()
    left = set(map(quiddity_counts, enumerate_p_angulations(s, p)))
    walked, middle = len(left), time.monotonic()
    glued = extra = 0
    for counts in _ear_counts(s, p):
        glued += 1
        try:
            left.remove(tuple(counts))
        except KeyError:
            extra += 1
    return walked, glued, extra, len(left), middle - start, time.monotonic() - middle


def ear_walk(levels=((4, 8), (6, 5)), exhaustive=(4, 9), counts_levels=((3, 12), (5, 6))) -> bool:
    """Per level, the face counts of the p-angulations the ear tree glues
    must be those of the enumeration walk's leaves, derived from their
    diagonals (`quiddity_counts`; a p-angulation is fixed by its counts),
    compared as a SHA-256 of the sorted count vectors, every node's glued
    rows, in both families, the kernel's, and every edge cut back to its
    node by `_canonical_parent` (`ear_tree`): this guards the gather plans
    past the sizes Tier-1 compares (p = 4, s ≤ 6; p = 6, s ≤ 4).  The count
    tree the deep scan reads, `_ear_counts`, must yield each level's walked
    count vectors, each once, at counts_levels, which reach p = 3 up to the
    14-gon (208,012 triangulations on the top level) and p = 5, s ≤ 6
    (`ear_counts`, timed against the walk).  The log also gives the wall
    time of the exhaustive `verify --p 4 --max-s 9` (299,462
    4-angulations), which must exit 0 having checked them all."""

    def digest(vectors):
        return hashlib.sha256(repr(sorted(vectors)).encode()).hexdigest()

    ok = True
    for p, s_max in levels:
        start = time.monotonic()
        glued, nodes, off, uncut = ear_tree(p, s_max)
        seconds = time.monotonic() - start
        for s in range(1, s_max + 1):
            walked = list(map(quiddity_counts, enumerate_p_angulations(s, p)))
            same = digest(glued[s]) == digest(walked)
            ok &= report(f"p = {p}, s = {s}: {len(glued[s])} glued, {len(walked)} walked, ",
                         [] if same else ["DIFFERENT counts"], "same counts")
        problems = [f"{len(off)} differ from the kernel's, the first of face counts {off[0]}"] if off else []
        if uncut:
            problems.append(f"{len(uncut)} edges not cut back to their node, the first (counts, a) {uncut[0]}")
        ok &= report(f"p = {p}, s <= {s_max}: {nodes} nodes' glued rows and their edges, {seconds:.2f} s, ",
                     problems, "each row the kernel's, each edge cut back")
    for p, s_max in counts_levels:
        for s in range(1, s_max + 1):
            walked, glued, extra, missing, walk_s, tree_s = ear_counts(p, s)
            problems = [f"{extra} glued but not walked or glued twice"] if extra else []
            if missing:
                problems.append(f"{missing} walked but not glued")
            ok &= report(f"p = {p}, s = {s}: {glued} glued in {tree_s:.2f} s, {walked} walked in {walk_s:.2f} s, ",
                         problems, "the same counts, each once")
    p, max_s = exhaustive
    argv = cli("verify", "--p", p, "--max-s", max_s)
    child = run(argv)
    checked = sum(per_s(p, max_s).values())
    problems = expect(child) or ([] if json.loads(child.out)["checked"] == checked else [f"not {checked} checked"])
    return report(f"{' '.join(argv[len(CLI):])}: {child.seconds:.2f} s wall, ", problems, "exit 0") and ok


def ear_path(p: int, depth: int, every: int, seed: int | None = None) -> tuple[int, int, str | None]:
    """One root-to-leaf path of the ear tree to level depth, each child glued
    from its node by the sweep's own `ears._child`: the a = 0 spine, or with
    a seed, each edge a drawn uniformly from 0..last by `random.Random(seed)`.
    Every node's batch on the path is computed and checked by `_ears_pass`,
    as the sweep checks it.  At every node at a level divisible by every,
    and at the leaf, the glued rows of both families are compared with the
    kernel's of the node's own counts (`kernel_families`), and the largest
    entry of both kernel friezes, times p/2, must stay below the guard bit
    of the n-gon's lanes (`ears._lanes_wide`): the sizes the kernel's
    memos, tables and lane widths reach (`_PLANS`, `_INDICES`, `_EARS`,
    `_lane_coef`'s masks) are compared at every depth, where `ear_walk`
    stops at the 22-gon.
    Returns (batches checked, nodes compared, the first fault or None), the
    fault naming its node by level and size."""
    rng = random.Random(seed)
    s, last, counts, rows, _ = next(_ear_batches(p, depth))  # the 2-gon's batch
    node, checked, compared = (s - 1, last, counts, tuple(rows)), 0, 0
    while True:
        s, last, counts, rows = node
        n = len(counts[0])
        if s and (s % every == 0 or s == depth):
            compared += 1
            largest = 0
            for flat, (kernel, most) in zip(rows, kernel_families(p, counts, last)):
                if flat != kernel:
                    return checked, compared, f"level {s}, the {n}-gon: glued rows differ from the kernel's"
                largest = max(largest, most)
            if largest * (p // 2) >> (8 * _lanes_wide(p, n) - 1):
                return checked, compared, (f"level {s}, the {n}-gon: its largest entry {largest} times p/2"
                                           f" reaches the guard bit of its {_lanes_wide(p, n)}-byte lanes")
        if s == depth:
            return checked, compared, None
        news, passed = _ears_pass(p, 0, last, counts, rows)
        checked += 1
        if not passed:
            return checked, compared, f"level {s}, the {n}-gon: its batch fails `_ears_pass`"
        a = 0 if seed is None else rng.randrange(last + 1)
        s, last, counts, rows = _child(p, node, child_news(p, n, last, news, a), a)
        node = s, last, counts, tuple(rows)


def child_news(p: int, n: int, last: int, news: list, a: int) -> list[list[Sequence[int]]]:
    """Child a's news, per family and inner corner its n entries with the old
    vertices, read alone from the packed news of the batch 0..last of an
    n-gon node: the lanes the sweep's `ears._subtree` would slice out
    for it, without unpacking its siblings'."""
    lanes, width = (last + 1) * n, friezes.ears._lanes_wide(p, n + p - 2)  # the kernel's own width
    bits = 8 * width
    row = (1 << n * bits) - 1
    return [[_unpacked((new >> (t * lanes + a * n) * bits) & row, n, width) for t in range(p - 2)] for new in news]


EAR_DEPTH = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
sys.path.insert(0, {tools!r})
from ci import _ear_batches, ear_path
for s, _, counts, _, _ in _ear_batches({p}, {depth}):
    if s == {depth}:
        break
print(json.dumps([s, len(counts[0])]))
for seed in (None, *{seeds}):
    print(json.dumps([seed, *ear_path({p}, {depth}, {every}, seed)]), flush=True)
"""


def ear_depth(depths=((4, 499, 50), (6, 249, 25)), seeds=(1, 2), limit_as=1 << 30, seconds=60) -> bool:
    """The ear tree is walked by a recursive generator, one frame per depth.
    Per (p, depth, every), one child under a 1 GiB address-space limit must,
    within 60 s: reach level depth by `_ear_batches`, the deepest the
    1,000-vertex grid bound admits (for p = 4 the children of the 998-gon,
    for p = 6 those of the 994-gon); then walk the a = 0 spine and a seeded
    random path per seed to a leaf there (`ear_path`), every batch passing,
    every compared node's rows the kernel's and its largest entry, times
    p/2, below the guard bit of its lanes.  The comparisons run in the
    child, so the checker's RSS stays out of the next child's peak (see
    `reap`).  The p = 4 spine is a fan at vertex 0, whose row 0 is 1 at
    every odd column: a fault that moves row 0 alike in both families shows
    on the random paths (`tests/test_ci.py`).  Measured on a 2-vCPU x86-64
    host, CPython 3.11, three paths of 10 compared nodes each, with the
    kernel on packed lanes (100-byte lanes at the 1,000-gon for p = 4,
    73-byte at the 998-gon for p = 6): p = 4 18.7–21.9 s and 140 MB of peak
    RSS, p = 6 27.4–28.8 s and 217 MB; the reach alone takes 3.1–3.6 s and
    4.9–5.3 s.  The list kernel before it took 7.1–11.0 s and 198 MB, and
    9.8–12.5 s and 292 MB: its ints had no fixed width, where every lane is
    as wide as the bound of its level."""
    ok = True
    tools = str(ROOT / "tools")
    for p, depth, every in depths:
        code = EAR_DEPTH.format(limit=limit_as, tools=tools, p=p, depth=depth, every=every, seeds=tuple(seeds))
        child = run([sys.executable, "-c", code], timeout=seconds)
        problems = expect(child)
        lines = child.out.decode().splitlines()
        reached = [depth, (p - 2) * (depth - 1) + 2]  # the level, and its nodes' n
        if child.seconds >= seconds:
            problems = [f"not done within {seconds} s"]
        elif not problems and (len(lines) != 2 + len(seeds) or json.loads(lines[0]) != reached):
            problems.append(f"{child.out[:200]!r}")
        elif not problems:
            for line in lines[1:]:
                seed, checked, compared, fault = json.loads(line)
                path = "the a = 0 spine" if seed is None else f"the path of seed {seed}"
                if fault is not None or checked != depth:
                    problems.append(f"{path}: {fault or f'{checked} batches checked'}")
                else:
                    print(f"p = {p}, {path}: {checked} batches checked, {compared} nodes compared", flush=True)
        line = f"_ear_batches({p}, {depth}) and its paths: {child.seconds:.2f} s wall, peak RSS {child.rss_mb:.1f} MB, "
        ok &= report(line, problems, "exit 0, every batch passing, every compared row the kernel's")
    return ok


def enumerate_sorted(s=9, rss_mb=40) -> bool:
    """The walk yields in sorted order, so `enumerate --p 4` streams: it holds
    no list of dissections, and its peak RSS stays under the bound (several
    hundred MB when the listing sorted a held list)."""
    child = run(cli("enumerate", "--p", 4, "--s", s))
    lines, previous, disorder = 0, None, None
    for line in child.out.splitlines():
        diagonals = json.loads(line)["diagonals"]
        if disorder is None and previous is not None and not previous < diagonals:
            disorder = lines + 1
        previous = diagonals
        lines += 1
    problems = expect(child, 0, rss_mb)
    expected = per_s(4, s)[str(s)]
    if lines != expected:
        problems.append(f"{lines} lines, expected {expected}")
    if disorder is not None:
        problems.append(f"line {disorder} is not above the line before it")
    return report(f"{lines} lines, peak RSS {child.rss_mb:.1f} MB: ", problems, "sorted and streamed")


def enumerate_first_line(s=40, seconds=20, rss_mb=40) -> bool:
    """The walk keeps nothing but its O(n) stack, so the first line of a
    listing far too long to finish comes out at once: vertex 0's full fan,
    the lexicographically first 4-angulation of the 82-gon.  A walk that
    built every subset of a task's fan ends printed nothing here within
    4 s and had reached 176 MB."""
    n = 2 * s + 2
    expected = json.dumps({"n": n, "diagonals": [[0, b] for b in range(3, n - 2, 2)]}) + "\n"
    start = time.monotonic()
    child = subprocess.Popen(cli("enumerate", "--p", 4, "--s", s), stdout=subprocess.PIPE, text=True)
    timer = killer(child, seconds)
    line = child.stdout.readline()
    elapsed = time.monotonic() - start
    os.kill(child.pid, signal.SIGKILL)
    _, peak = reap(child, timer)
    child.stdout.close()
    problems = [] if line == expected else [f"first line {line[:200]!r}, expected vertex 0's full fan"]
    if peak >= rss_mb:
        problems.append(f"peak RSS {peak:.1f} MB, expected under {rss_mb} MB")
    return report(f"first line after {elapsed:.2f} s, peak RSS {peak:.1f} MB: ", problems, "streamed at once")


def enumerate_bytes(sizes=((4, 8), (6, 4))) -> bool:
    """The listing writes each line from the walk's sorted diagonal list,
    building no Dissection: its bytes must be those of json.dumps of each
    enumerated Dissection's to_json(), computed in-process."""
    ok = True
    for p, s in sizes:
        child = run(cli("enumerate", "--p", p, "--s", s))
        written = child.out.splitlines(keepends=True)
        expected = [(json.dumps(d.to_json()) + "\n").encode() for d in enumerate_p_angulations(s, p)]
        problems = expect(child)
        wrong = next((k for k, (got, want) in enumerate(zip(written, expected), 1) if got != want), None)
        if wrong is not None:
            problems.append(f"line {wrong}: {written[wrong - 1][:200]!r}, expected {expected[wrong - 1][:200]!r}")
        if len(written) != len(expected):
            problems.append(f"{len(written)} lines, expected {len(expected)}")
        ok &= report(f"p={p} s={s}: ", problems, f"{len(written)} lines, each the bytes of json.dumps")
    return ok


def derived(levels=((4, 8), (6, 5)), deep_n=12) -> bool:
    """Refinements, trees and deep-scan matches are built unchecked
    (`polygon._walked`), so each must equal what the validating constructor
    builds from diagonals found here independently: in type, equality, hash,
    sorted diagonals, repr and JSON.  The counts the checks read off the
    unchecked refinement must be those of the validated one: `verify._counts`
    of every p-angulation at the levels, and the triangle counts of the
    sweep's ears, `ears._FACES[p]`, the lone p-gon's for the colour c = 0
    and their rotation by one for c = 1.  The deep scan is Catalan-sized, so
    it runs up to the deep_n-gon."""

    def validated_refinement(d, black):
        chords = [(a, b) for face in faces(d) for a, b in combinations(face, 2) if a % 2 == b % 2 == black]
        return Triangulation(d.n, [*d.diagonals, *chords])

    def same(derived, checked):
        return (type(derived) is type(checked) and derived == checked and hash(derived) == hash(checked)
                and derived.diagonals_sorted == checked.diagonals_sorted
                and repr(derived) == repr(checked) and derived.to_json() == checked.to_json())

    for p, s_max in levels:
        counts = quiddity_counts(validated_refinement(Dissection(p), True))
        ears = [integral[1] for _, integral in _FACES[p]]
        if ears != [list(counts), list(counts[1:] + counts[:1])]:
            return report(f"p={p}: ", [f"ear triangle counts {ears!r}, expected {counts!r} and its rotation"], "")
        checked = 0
        for s in range(1, s_max + 1):
            for d in enumerate_p_angulations(s, p):
                black, white = validated_refinement(d, True), validated_refinement(d, False)
                read = _counts(d, p)
                if read != (quiddity_counts(d), quiddity_counts(black)):
                    return report(f"p={p} s={s} {d!r}: ", [f"counts {read!r}, expected those of {black!r}"], "")
                pairs = [("refinement", _refine(d, p), black)]
                if p == 4:
                    pairs.append(("tree", quad_to_tree(d), NoncrossingTree(d.n, black.diagonals - d.diagonals)))
                if d.n <= deep_n:
                    matches = deep_uniqueness(d, p).matches
                    twins = (Dissection(d.n, black.diagonals), Dissection(d.n, white.diagonals))
                    if len(matches) != len(twins):
                        return report(f"p={p} s={s} {d!r}: ", [f"deep matches {matches!r}, expected {twins!r}"], "")
                    pairs += [("deep match", m, t) for m, t in zip(matches, twins)]
                for name, got, expected in pairs:
                    if not same(got, expected):
                        return report(f"p={p} s={s} {d!r}: ", [f"{name} {got!r}, expected {expected!r}"], "")
                checked += 1
        print(f"p={p} s<={s_max}: {checked} dissections, each derived one and its counts, and the ears' "
              "counts, equal to its validated construction's")
    return True


LADDER_RSS_MB = {402: {"ascii": 60, "csv": 40, "json": 40}, 1000: {"ascii": 75, "csv": 65, "json": 65}}


def ladder(n: int) -> dict:
    """The n-gon's ladder 4-angulation: the rungs (a, n − 1 − a)."""
    return {"n": n, "diagonals": [[a, n - 1 - a] for a in range(1, n // 2 - 1)]}


def frieze_ladders(bounds=LADDER_RSS_MB) -> bool:
    """`gen` writes the frieze's ASCII or CSV lines, or its JSON pieces (a
    piece per row), as they come, in stdout writes of up to 64 KiB, holding
    no joined copy of the text: on each ladder its stdout is byte for byte
    render_ascii, render_csv or `_json_text`, each + "\\n", and the child's
    peak RSS stays under the format's bound.  The checker never builds
    those texts either: it hashes the lines of `_ascii_rows` or `_csv_rows`,
    each + "\\n", or the pieces of `_json_pieces` and "\\n", as they come
    (building them whole took the checker to 841 MB on the 1,000-gon).  On
    the 402-gon, the whole text built and printed as one string peaked at
    84 MB (ascii) and 49.9 MB (csv, json).  On the 1,000-gon, the largest
    grid the kernel takes, growing every row peaked at 91.8, 82.2 and
    82.0 MB; the rows above the middle, taken from the glide, share the
    ints below it.  Every child runs before the checker builds a frieze;
    the log ends with the checker's own peak RSS."""
    lines = lambda rows: (line + "\n" for line in rows)
    renders = {"ascii": ("render_ascii", lambda frieze: lines(_ascii_rows(frieze))),
               "csv": ("render_csv", lambda frieze: lines(_csv_rows(frieze))),
               "json": ("_json_text", lambda frieze: chain(frieze._json_pieces(), ["\n"]))}
    children = {(n, fmt): run(cli("gen", "--p", 4, "--format", fmt, "--input", json.dumps(ladder(n))), digest=True)
                for n, by_format in bounds.items() for fmt in by_format}
    ok = True
    for n, by_format in bounds.items():
        frieze = lambda_frieze(Dissection.from_json(ladder(n)), 4)
        for fmt, bound_mb in by_format.items():
            name, pieces = renders[fmt]
            child = children[n, fmt]
            problems = expect(child, 0, bound_mb)
            expected = sha256_of_pieces(piece.encode() for piece in pieces(frieze))
            if child.out != expected:
                problems.append(f"{child.out[0]} bytes differ from {name}'s {expected[0]}")
            ok &= report(f"{fmt}, {n}-gon ladder, peak RSS {child.rss_mb:.1f} MB: ", problems, f"the bytes of {name}")
    print(f"checker's own peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    return ok


def validate_ladder(n=1000, seconds=10, rss_mb=260) -> bool:
    """`validate` matches the text `gen` and `cc` write against the kernel
    grid of its row 2 (`frieze._kernel_frieze`) and checks that grid's laws
    on its int rows, not through `json.loads` and `Frieze.from_json`: on the
    n-gon ladder's radical frieze (97 MB of JSON at the 1,000-gon) and on
    the integral frieze of its associated triangulation (m = 1), it must
    exit 0 with the report of a frieze, each within seconds and under
    rss_mb of peak RSS.  `gen` and `cc` write to a temporary file that
    `validate --input PATH` reads, so the checker never holds the text when
    it starts the child (see `reap`).  On the 1,000-gon's radical grid, on
    a 2-vCPU x86-64 host with CPython 3.11, the matcher took 0.80 s at
    200.9 MB, most of it reading the file (its bytes and its text at once);
    the JSON path took 1.65–1.83 s and 415 MB, past the bound.

    The radical grid with its last 1, in row n − 1 near its top, changed
    to 2 in place (`change_near_top`) fails the match, so `validate` reads
    it by the JSON path and checks every law: it must exit 1 with a report
    of violations, the first a boundary violation at row n − 1, within
    10 s and under 560 MB of peak RSS, whatever n.  On the same host it
    took 2.5–3.1 s and 431 MB at the 1,000-gon."""
    changed_seconds, changed_rss_mb = 10, 560
    quads = Dissection.from_json(ladder(n))
    writers = {"radical": ("gen", "--p", 4, "--input", json.dumps(ladder(n))),
               "cc": ("cc", "--input", json.dumps(associated_triangulation(quads, 4).to_json()))}
    ok = True
    for name, argv in writers.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.json")
            with open(path, "wb") as fh:
                code, _ = reap(subprocess.Popen(cli(*argv, "--format", "json"), stdout=fh))
            size = os.path.getsize(path)
            child = run(cli("validate", "--input", path), timeout=10 * seconds)
            if name == "radical" and not code:
                change_near_top(path)
                changed = run(cli("validate", "--input", path), timeout=10 * changed_seconds)
        problems = [f"{argv[0]} exit {code}"] if code else expect(child, 0, rss_mb)
        if not problems and child.out != b'{"ok": true, "violations": []}\n':
            problems.append(f"report {child.out[:200]!r}")
        if child.seconds >= seconds:
            problems.append(f"{child.seconds:.2f} s, expected under {seconds} s")
        line = (f"validate the {n}-gon ladder's {name} grid ({size:,} bytes), {child.seconds:.2f} s,"
                f" peak RSS {child.rss_mb:.1f} MB: ")
        ok &= report(line, problems, "a frieze")
        if name == "radical" and not code:
            problems = expect(changed, 1, changed_rss_mb)
            first = {"kind": "boundary", "row": n - 1, "col": n - 1}
            if not problems and not changed.out.startswith(b'{"ok": false, "violations": [' + json.dumps(first).encode()):
                problems.append(f"report {changed.out[:200]!r}")
            if changed.seconds >= changed_seconds:
                problems.append(f"{changed.seconds:.2f} s, expected under {changed_seconds} s")
            line = (f"validate the {n}-gon ladder's radical grid, one entry near its top changed,"
                    f" {changed.seconds:.2f} s, peak RSS {changed.rss_mb:.1f} MB: ")
            ok &= report(line, problems, "exit 1, its violations reported")
    return ok


def change_near_top(path: str) -> None:
    """Change the last `"rat": "1"` of a written grid file, in its top rows, to
    `"rat": "2"`, in place: only the file's last 64 KiB are read."""
    with open(path, "r+b") as fh:
        start = max(0, fh.seek(0, os.SEEK_END) - (64 << 10))
        fh.seek(start)
        at = fh.read().rindex(b'"rat": "1"') + len(b'"rat": "')
        fh.seek(start + at)
        fh.write(b"2")


def width_one(quiddity: tuple[str, ...]) -> dict:
    """The width-1 grid of this rational quiddity, between rows of zeros and ones."""
    def entry(v):
        return {"m": 1, "rat": v, "rad": "0"}
    zeros, ones = [entry("0")] * 4, [entry("1")] * 4
    return {"width": 1, "m": 1, "rows": [zeros, ones, [entry(v) for v in quiddity], ones, zeros]}


def json_edge(n=42, rss_mb=40) -> bool:
    """The JSON edge through the console script.  A generated n-gon frieze
    read back by `validate` passes; a width-1 grid with a rational entry
    exits 1 with its violations listed; a valid rational width-1 frieze
    (quiddity 3/2, 4/3, 3/2, 4/3) passes, and with its top row cut off
    exits 1 with the one shape check's message; enumerating a polygon past
    any address space exits 1 with an error.  The `gen` and `cc` grids are
    byte for byte `json.dumps` of the grid written entry by entry with
    `QuadNum.to_json`, computed in-process.  A 4-angulation just past the
    frieze grid's size bound exits 1 with an error before any row is
    allocated (the 1,202-gon ladder's grid peaked at 217 MB before it)."""
    hexagons = {"n": n, "diagonals": [[2 * j, n - 1 - 2 * j] for j in range(1, (n - 2) // 4)]}
    given, d = json.dumps(hexagons).encode(), Dissection.from_json(hexagons)
    past = run(cli("gen", "--p", 4, "--input", "-"), json.dumps(ladder(_MAX_FRIEZE_N + 2)).encode())
    ok = report(f"gen past the frieze bound, peak RSS {past.rss_mb:.1f} MB: ", expect(past, 1, rss_mb, ".*"), "refused")

    gen = run(cli("gen", "--p", 6, "--input", "-", "--format", "json"), given)
    associated = run(cli("associate", "--p", 6, "--input", "-"), given)
    cc = run(cli("cc", "--input", "-", "--format", "json"), associated.out)
    problems = []
    for name, child, frieze in (("gen", gen, lambda_frieze(d, 6)), ("cc", cc, cc_frieze(associated_triangulation(d, 6)))):
        rows = [[e.to_json() for e in row] for row in frieze.rows]
        reference = {"width": frieze.width, "m": frieze.m, "rows": rows}
        if expect(child) or child.out != (json.dumps(reference) + "\n").encode():
            problems.append(f"{name} --format json: {len(child.out)} bytes differ from json.dumps")
    ok &= report("", problems, "gen and cc write the bytes of json.dumps of each QuadNum.to_json")

    problems = []
    for name, grid, code in (
        (f"generated {n}-gon frieze", gen.out, 0),
        ("rational grid", json.dumps(width_one(("1/2", "2", "1", "2"))).encode(), 1),
        ("rational frieze", json.dumps(width_one(("3/2", "4/3", "3/2", "4/3"))).encode(), 0),
    ):
        child = run(cli("validate", "--input", "-"), grid)
        try:
            got = json.loads(child.out)
        except ValueError:
            got = None
        rejected = bool(got) and got["ok"] is False and bool(got["violations"])
        if child.code != code or (got != {"ok": True, "violations": []} if code == 0 else not rejected):
            problems.append(f"{name}: exit {child.code}, report {got}")
    short = width_one(("3/2", "4/3", "3/2", "4/3"))
    short["rows"].pop()
    child = run(cli("validate", "--input", "-"), json.dumps(short).encode())
    problems += [f"grid a row short: {p}" for p in expect(child, 1, error=r"expected \d+ rows for width \d+, got \d+")]
    child = run(cli("enumerate", "--p", 4, "--s", 10**15, "--count-only"))
    problems += [f"enumerate past the address space: {p}" for p in expect(child, 1, error=".*")]
    return report("", problems, "generated grid and rational frieze pass, rational grid is rejected,"
                  " a huge enumerate and a grid a row short exit 1") and ok


def crossing(n=16000, seconds=5) -> bool:
    """A fan of n − 3 diagonals plus one crossing pair at its far end (the
    16,000-gon's is 180,921 bytes, past Linux's 128 KiB cap on one argv
    string, so it goes through stdin) exits 1 naming a crossing pair, in
    under 5 s (a pairwise rescan to name the pair took 17.7 s)."""
    diagonals = [[0, b] for b in range(2, n - 1)] + [[n - 5, n - 2], [n - 4, n - 1]]
    child = run(cli("gen", "--p", 4, "--input", "-"), json.dumps({"n": n, "diagonals": diagonals}).encode())
    problems = expect(child, 1, error=r"diagonals .* cross")
    if child.seconds >= seconds:
        problems.append(f"{child.seconds:.2f} s, expected under {seconds} s")
    return report(f"gen on a crossing {n:,}-gon, {child.seconds:.2f} s: ", problems, child.err.strip())


STEPS = {step.__name__: step for step in (
    import_footprint, tier1, tier1_by_design, sweeps, ear_walk, ear_depth, enumerate_sorted,
    enumerate_first_line, enumerate_bytes, derived, frieze_ladders, validate_ladder, json_edge, crossing,
)}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in STEPS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(STEPS)}}} [ARG ...]")
    sys.exit(0 if STEPS[sys.argv[1]](*sys.argv[2:]) else 1)
