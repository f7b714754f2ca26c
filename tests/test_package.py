"""The public surface: every exported name resolves, and so does every name
the benchmark's span tracer patches (`bench/tracing.py`), so removing a
function from the library cannot silently break a traced benchmark run;
importing the package loads no module beyond its own and the standard
modules it names; and no module under src/ holds an assert statement or
imports `dataclasses`.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import friezes

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src").rglob("*.py"))


def test_all_names_resolve():
    missing = [name for name in friezes.__all__ if not hasattr(friezes, name)]
    assert not missing
    assert len(set(friezes.__all__)) == len(friezes.__all__)


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # stdlib imports only
    missing = []
    for module_name, names in tracing.SPANNED.values():
        module = importlib.import_module(f"friezes.{module_name}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}.{dotted}")
    missing += [f"QuadNum.{op}" for op in tracing.EXACT_OPS if not hasattr(friezes.QuadNum, op)]
    assert not missing


# The standard modules the package's sources import.
PACKAGE_STDLIB = (
    "__future__", "argparse", "bisect", "fractions", "functools", "itertools", "json",
    "math", "operator", "os", "sys", "time", "typing",
)


def test_import_loads_nothing_past_the_standard_modules_it_names():
    # relative to what is loaded once those modules are, so a site hook that
    # preloads modules cannot fail it; `dataclasses` alone would bring in
    # inspect, ast, dis and copy
    code = (
        f"import {', '.join(PACKAGE_STDLIB)}\n"
        "before = set(sys.modules)\n"
        "import friezes, friezes.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(friezes.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = done.stdout.split()
    assert "friezes.cli" in loaded
    assert [name for name in loaded if name != "friezes" and not name.startswith("friezes.")] == []


def parsed_nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so the library raises
    # InternalAssertionError instead
    assert SOURCES
    assert [f"{name}:{node.lineno}" for name, node in parsed_nodes() if isinstance(node, ast.Assert)] == []


def test_no_module_imports_dataclasses():
    # an import inside a function runs only when the function does, which
    # the import test above cannot see, so every import statement counts
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level else []

    found = [f"{name}:{node.lineno}" for name, node in parsed_nodes()
             if any(module.split(".")[0] == "dataclasses" for module in imported(node))]
    assert found == []
