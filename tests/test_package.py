"""The public surface: every exported name resolves, and so does every name
the benchmark's span tracer patches (`bench/tracing.py`), so removing a
function from the library cannot silently break a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import friezes

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
