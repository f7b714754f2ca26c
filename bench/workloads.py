"""The benchmark workloads: seeded inputs, the timed call, and output checks.

Workloads drive the library only through its public functions and
``friezes.cli.main``; the library receives only the generated dissections
or their JSON.  A *request* is what one timed call covers and holds
``ops(request)`` operations, the unit ``ops_per_s`` counts.  The unit is
fixed by the input, so a faster algorithm cannot change what is counted.

Every workload answers the same questions:

* ``requests(seed)`` -- the measured inputs, the same for the same seed;
* ``warmup()`` -- one small request run untimed during set-up;
* ``run(request)`` -- the timed library calls, returning their output;
* ``check(request, output)`` -- what is wrong with the output, as messages;
* ``digest(output)`` -- a SHA-256 of the output, for byte-for-byte comparison.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

import friezes
import friezes.cli

RUNNING_EXAMPLE = {"n": 10, "diagonals": [[1, 4], [4, 9], [5, 8]]}

# Output digests recorded at the seed commit (see bench/README.md to re-record).
ENUMERATE_SHA256 = {
    (4, 1): "3fa61b1dcb94dc21d624913d2c96660b44d54d254277e149bae8794926ddcc6e",
    (4, 8): "12af4cb6b7ac1d4be88b6cb54931a24a711094f79bbebeb04928e6780c74447c",
}
CANARY_SHA256 = {
    4: "7ebe46d953ace9b73303b927d504ce549f4234ffd46f79c414cba20828eed372",
    6: "8a77bd295fe169446040a5de25cda151b84f59c7d7dcb5e7e46ef21619c5610f",
}


def fuss_catalan(s: int, p: int) -> int:
    """p-angulations of the ((p-2)s+2)-gon, computed here, not by the library."""
    return math.comb((p - 1) * s, s - 1) // s


def glue_p_angulation(rng: random.Random, p: int, s: int) -> dict:
    """A p-angulation with s faces: glue p-gons one at a time onto random boundary edges."""
    boundary = list(range(p))
    fresh = p
    diagonals = []
    for _ in range(s - 1):
        i = rng.randrange(len(boundary))
        diagonals.append((boundary[i], boundary[(i + 1) % len(boundary)]))
        boundary[i + 1 : i + 1] = range(fresh, fresh + p - 2)
        fresh += p - 2
    position = {v: k for k, v in enumerate(boundary)}
    edges = sorted(sorted((position[a], position[b])) for a, b in diagonals)
    return {"n": len(boundary), "diagonals": edges}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Cli:
    """Calls ``friezes.cli.main`` in-process and captures what it prints."""

    def __init__(self) -> None:
        self.output_bytes = 0

    def call(self, argv: list[str], sink=None) -> tuple[int, str]:
        out = io.StringIO() if sink is None else sink
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = friezes.cli.main(argv)
        if sink is not None:
            self.output_bytes += sink.bytes
            return code, ""
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        return code, text


class LineDigestSink:
    """Write-only text stream that hashes what it is given and counts its lines."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self._tail = ""
        self._seen: set[int] = set()
        self.bytes = 0
        self.lines = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self._sha.update(data)
        self.bytes += len(data)
        *done, self._tail = (self._tail + text).split("\n")
        for line in done:
            self._seen.add(hash(line))
        self.lines += len(done)
        return len(text)

    def flush(self) -> None:
        pass

    def result(self) -> dict:
        return {"sha256": self._sha.hexdigest(), "lines": self.lines,
                "distinct": len(self._seen), "unterminated": self._tail}


class Sweep:
    """verify --p 4 --max-s 5, then verify --p 6 --max-s 3: one dissection is one op."""

    name = "sweep"
    exhaustive = True
    trace_requests = 1

    def __init__(self) -> None:
        self.cli = Cli()

    def requests(self, seed: int) -> list[dict]:
        return [{"calls": [[4, 5], [6, 3]]}]

    def warmup(self) -> dict:
        return {"calls": [[4, 1]]}

    def ops(self, request: dict) -> int:
        return sum(fuss_catalan(s, p) for p, s_max in request["calls"]
                   for s in range(1, s_max + 1))

    def run(self, request: dict) -> list:
        return [self.cli.call(["verify", "--p", str(p), "--max-s", str(s_max)])
                for p, s_max in request["calls"]]

    def check(self, request: dict, output: list) -> list[str]:
        faults = []
        for (p, s_max), (code, text) in zip(request["calls"], output):
            label = f"verify --p {p} --max-s {s_max}"
            if code != 0:
                faults.append(f"{label}: exit {code}")
                continue
            summary = json.loads(text)
            per_s = {str(s): fuss_catalan(s, p) for s in range(1, s_max + 1)}
            if summary["checked"] != sum(per_s.values()):
                faults.append(f"{label}: checked {summary['checked']}")
            if summary["per_s"] != per_s:
                faults.append(f"{label}: per_s {summary['per_s']}")
            if summary["all_ok"] is not True or summary["counterexamples"]:
                faults.append(f"{label}: counterexamples reported")
        return faults

    def digest(self, output: list) -> str:
        return sha256(json.dumps(output))


class DeepScan:
    """deep_uniqueness(d, 4) on 4-angulations of the 10-gon: one query is one op."""

    name = "deep_scan"
    exhaustive = False
    trace_requests = 1
    queries = 8

    def __init__(self) -> None:
        self.cli = Cli()  # never called: cli.output_bytes reads 0 here

    def requests(self, seed: int) -> list[dict]:
        rng = random.Random(f"deep_scan:{seed}")
        return [RUNNING_EXAMPLE] + [glue_p_angulation(rng, 4, 4)
                                    for _ in range(self.queries - 1)]

    def warmup(self) -> dict:
        return {"n": 6, "diagonals": [[0, 3]]}

    def ops(self, request: dict) -> int:
        return 1

    def run(self, request: dict) -> dict:
        return friezes.deep_uniqueness(friezes.Dissection.from_json(request), 4).to_json()

    def check(self, request: dict, output: dict) -> list[str]:
        faults = []
        n = request["n"]
        catalan = math.comb(2 * (n - 2), n - 2) // (n - 1)
        if output["triangulations"] != catalan:
            faults.append(f"scanned {output['triangulations']} triangulations, not {catalan}")
        kinds = [match["kind"] for match in output["matches"]]
        if "associated" not in kinds or "mirror" not in kinds or "other" in kinds:
            faults.append(f"match kinds {kinds}")
        if request == RUNNING_EXAMPLE and kinds != ["associated", "mirror"]:
            faults.append(f"running example gave {kinds}")
        return faults

    def digest(self, output: dict) -> str:
        return sha256(json.dumps(output, sort_keys=True))


class Enumerate:
    """enumerate --p 4 --s 8 into a hashing sink: one dissection listed is one op."""

    name = "enumerate"
    exhaustive = True
    trace_requests = 1

    def __init__(self) -> None:
        self.cli = Cli()

    def requests(self, seed: int) -> list[dict]:
        return [{"p": 4, "s": 8}]

    def warmup(self) -> dict:
        return {"p": 4, "s": 1}

    def ops(self, request: dict) -> int:
        return fuss_catalan(request["s"], request["p"])

    def run(self, request: dict) -> dict:
        sink = LineDigestSink()
        code, _ = self.cli.call(
            ["enumerate", "--p", str(request["p"]), "--s", str(request["s"])], sink)
        return {"exit": code, **sink.result()}

    def check(self, request: dict, output: dict) -> list[str]:
        faults = []
        expected = self.ops(request)
        if output["exit"] != 0:
            faults.append(f"exit {output['exit']}")
        if output["lines"] != expected or output["distinct"] != expected:
            faults.append(f"{output['lines']} lines, {output['distinct']} distinct, "
                          f"expected {expected}")
        if output["unterminated"]:
            faults.append("last line not terminated")
        if output["sha256"] != ENUMERATE_SHA256[(request["p"], request["s"])]:
            faults.append("output digest differs from the recorded one")
        return faults

    def digest(self, output: dict) -> str:
        return output["sha256"]


def _entry(value: dict) -> tuple[int, int]:
    return int(value["rat"]), int(value["rad"])


def _sign(a: int, b: int, m: int) -> int:
    """Sign of a + b√m, decided in integers."""
    if (a >= 0) == (b >= 0) or a == 0 or b == 0:
        return (a + b > 0) - (a + b < 0)
    # opposite signs: the larger of a² and b²m decides (never equal for m = 2, 3)
    return (a > 0) - (a < 0) if a * a > b * b * m else (b > 0) - (b < 0)


def frieze_faults(text: str, m: int, width: int) -> tuple[list[str], list]:
    """Check a frieze printed as JSON against the frieze laws, independently
    of the library: boundary rows, positivity and every diamond
    ``west·east - south·north = 1``, with entries a + b√m in integers."""
    data = json.loads(text)
    rows = [[_entry(e) for e in row] for row in data["rows"]]
    period = width + 3
    if (data["m"], data["width"], len(rows)) != (m, width, width + 4) or any(
        len(row) != period for row in rows
    ):
        return [f"frieze header m={data['m']} width={data['width']} rows={len(rows)}"], rows
    faults = []
    if any(e != (0, 0) for e in rows[0] + rows[-1]) or any(
        e != (1, 0) for e in rows[1] + rows[-2]
    ):
        faults.append("boundary rows are not 0 and 1")
    if any(_sign(a, b, m) <= 0 for row in rows[2:-2] for a, b in row):
        faults.append("interior entry not positive")
    for r in range(1, width + 3):
        for k in range(period):
            (a, b), (c, d) = rows[r][k], rows[r][(k + 1) % period]
            (e, f), (g, h) = rows[r - 1][(k + 1) % period], rows[r + 1][k]
            if (a * c + b * d * m - e * g - f * h * m, a * d + b * c - e * h - f * g) != (1, 0):
                faults.append(f"diamond rule fails at ({r}, {k})")
                return faults, rows
    return faults, rows


class FriezeRequest:
    """gen, validate, associate, cc and (p = 4) tree on a 42-gon: one chain is one op."""

    name = "frieze_request"
    exhaustive = False
    trace_requests = 4
    faces = {4: 20, 6: 10}  # both give 42 vertices
    requests_per_seed = 64

    def __init__(self) -> None:
        self.cli = Cli()

    def _canaries(self) -> list[dict]:
        rng = random.Random("frieze_request:canary")
        return [{"p": p, "canary": True, "dissection": glue_p_angulation(rng, p, self.faces[p])}
                for p in (4, 6)]

    def requests(self, seed: int) -> list[dict]:
        rng = random.Random(f"frieze_request:{seed}")
        seeded = [
            {"p": p, "dissection": glue_p_angulation(rng, p, self.faces[p])}
            for _ in range((self.requests_per_seed - 2) // 2) for p in (4, 6)
        ]
        return self._canaries() + seeded

    def warmup(self) -> dict:
        return self._canaries()[0]

    def ops(self, request: dict) -> int:
        return 1

    def run(self, request: dict) -> dict:
        p = str(request["p"])
        dissection = json.dumps(request["dissection"])
        call = self.cli.call
        steps = {"gen": call(["gen", "--p", p, "--input", dissection, "--format", "json"])}
        steps["validate"] = call(["validate", "--input", steps["gen"][1]])
        steps["associate"] = call(["associate", "--p", p, "--input", dissection])
        steps["cc"] = call(["cc", "--input", steps["associate"][1], "--format", "json"])
        roundtrip = None
        if p == "4":
            steps["tree"] = call(["tree", "--input", dissection])
            tree = friezes.NoncrossingTree.from_json(json.loads(steps["tree"][1]))
            roundtrip = friezes.tree_to_quad(tree).to_json()
        return {"steps": steps, "roundtrip": roundtrip}

    def check(self, request: dict, output: dict) -> list[str]:
        p, dissection = request["p"], request["dissection"]
        n = dissection["n"]
        steps = output["steps"]
        faults = [f"{name}: exit {code}" for name, (code, _) in steps.items() if code != 0]
        if faults:
            return faults
        if json.loads(steps["validate"][1]) != {"ok": True, "violations": []}:
            faults.append("validate rejects the generated frieze")
        radical_faults, radical = frieze_faults(steps["gen"][1], {4: 2, 6: 3}[p], n - 3)
        integral_faults, integral = frieze_faults(steps["cc"][1], 1, n - 3)
        faults += [f"gen: {f}" for f in radical_faults]
        faults += [f"cc: {f}" for f in integral_faults]
        if not faults and any(
            radical[r][k] != integral[r][k] for r in range(1, n, 2) for k in range(n)
        ):
            faults.append("odd rows of the gen and cc friezes differ")
        triangulation = json.loads(steps["associate"][1])
        chords = {tuple(d) for d in triangulation["diagonals"]}
        if triangulation["n"] != n or len(chords) != n - 3 or not chords.issuperset(
            tuple(d) for d in dissection["diagonals"]
        ):
            faults.append("associate did not refine the input")
        if p == 4 and output["roundtrip"] != dissection:
            faults.append("tree round trip does not return the input")
        if request.get("canary") and self.digest(output) != CANARY_SHA256[p]:
            faults.append("canary output digest differs from the recorded one")
        return faults

    def digest(self, output: dict) -> str:
        return sha256(json.dumps(output, sort_keys=True))


WORKLOADS = {w.name: w for w in (Sweep, DeepScan, Enumerate, FriezeRequest)}
