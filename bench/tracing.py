"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces each public function of the library's layers by
a wrapper that records a span (name, start, end, parent, request id).  A
function is replaced at every module attribute that holds it, so calls made
from inside the package are recorded too.  ``QuadNum`` arithmetic is too
fine-grained to keep as spans: those calls are counted and timed, and their
time is charged to the enclosing span as child time.

A layer's self time is a span's duration minus the time its child spans and
arithmetic calls cover, summed per layer when each span closes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("exact", "polygon", "bijection", "frieze", "verify", "cli")

# Public functions that get a span: layer -> (module, [name or Class.method]).
SPANNED = {
    "polygon": (
        "polygon",
        [
            "enumerate_p_angulations",
            "faces",
            "is_p_angulation",
            "quiddity_counts",
            "rotate",
            "Dissection.__init__",
            "Dissection.from_json",
            "Dissection.to_json",
        ],
    ),
    "bijection": (
        "bijection",
        [
            "associated_triangulation",
            "associated_triangulation_p4",
            "associated_triangulation_p6",
            "quad_to_tree",
            "tree_to_quad",
            "triangle_counts",
            "Triangulation.__init__",
            "NoncrossingTree.__init__",
            "NoncrossingTree.from_json",
        ],
    ),
    "frieze": (
        "frieze",
        [
            "from_quiddity",
            "lambda_frieze",
            "cc_frieze",
            "validate",
            "render_ascii",
            "render_csv",
            "Frieze.to_json",
            "Frieze.from_json",
        ],
    ),
    "verify": (
        "verify",
        [
            "odd_rows_coincide",
            "even_rows_scaled",
            "verify_dissection",
            "check_lemma",
            "check_odd_rows",
            "check_even_scaling",
            "deep_uniqueness",
            "sweep",
        ],
    ),
    "cli": ("cli", ["main"]),
}

# QuadNum methods counted as exact.quadnum_ops (add/sub/mul/truediv/sign).
EXACT_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "sign",
)

# Spanned functions whose outermost calls feed a named per-layer metric.
GROUPS = {
    "faces": "polygon.faces",
    "enumerate_p_angulations": "polygon.enumerate",
    "associated_triangulation": "bijection.associate",
    "associated_triangulation_p4": "bijection.associate",
    "associated_triangulation_p6": "bijection.associate",
    "quad_to_tree": "bijection.tree",
    "tree_to_quad": "bijection.tree",
    "lambda_frieze": "frieze.lambda",
    "cc_frieze": "frieze.cc",
    "validate": "frieze.validate",
    "render_ascii": "frieze.json",
    "render_csv": "frieze.json",
    "Frieze.to_json": "frieze.json",
    "Frieze.from_json": "frieze.json",
    "odd_rows_coincide": "verify.checks",
    "even_rows_scaled": "verify.checks",
    "deep_uniqueness": "verify.deep",
}

# Fields of an open span on the stack.
_ID, _NAME, _LAYER, _GROUP, _START, _CHILD = range(6)


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self) -> None:
        self.request_id = 0
        self.keep_spans = True
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, name index, parent id, request id, start, end)
        self._stack: list[list] = []
        self._next_id = 0
        self._exact_depth = 0
        self._group_depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = {}
        self.group_s: dict[str, float] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.errors = {layer: 0 for layer in LAYERS}
        self.quadnum_ops = 0
        self.enumerate_items = 0
        self.deep_frieze_builds = 0

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self, name_index: int, layer: str, group: str | None) -> None:
        if group is not None:
            depth = self._group_depth.get(group, 0)
            if depth == 0:
                self.calls[group] = self.calls.get(group, 0) + 1
            self._group_depth[group] = depth + 1
        if group == "frieze.cc" and self._group_depth.get("verify.deep", 0):
            self.deep_frieze_builds += 1
        self._next_id += 1
        self._stack.append([self._next_id, name_index, layer, group, perf_counter(), 0.0])

    def _exit(self, failed: bool) -> None:
        end = perf_counter()
        span = self._stack.pop()
        duration = end - span[_START]
        layer, group = span[_LAYER], span[_GROUP]
        self.self_s[layer] += duration - span[_CHILD]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[_CHILD] += duration
        if failed and (parent is None or parent[_LAYER] != layer):
            self.errors[layer] += 1  # counted once, where it leaves the layer
        if group is not None:
            depth = self._group_depth[group] - 1
            self._group_depth[group] = depth
            if depth == 0:
                self.group_s[group] = self.group_s.get(group, 0.0) + duration
        if self.keep_spans:
            self.spans.append(
                (span[_ID], span[_NAME], parent[_ID] if parent else None,
                 self.request_id, span[_START], end)
            )

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str):
        tracer = self
        group = GROUPS.get(name)
        self.names.append(name)
        index = len(self.names) - 1

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    tracer._enter(index, layer, group)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._exit(False)
                        return
                    except Exception:
                        tracer._exit(True)
                        raise
                    tracer._exit(False)
                    tracer.enumerate_items += 1
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(index, layer, group)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._exit(True)
                raise
            tracer._exit(False)
            return result

        return wrapper

    def _exact_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            tracer.quadnum_ops += 1
            if tracer._exact_depth:  # e.g. __rsub__ delegating to __sub__
                return fn(*args)
            tracer._exact_depth = 1
            start = perf_counter()
            try:
                return fn(*args)
            except Exception:
                tracer.errors["exact"] += 1
                raise
            finally:
                duration = perf_counter() - start
                tracer._exact_depth = 0
                tracer.self_s["exact"] += duration
                if tracer._stack:
                    tracer._stack[-1][_CHILD] += duration

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function and method of the imported library."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "friezes" or n.startswith("friezes.")]
        exact = importlib.import_module("friezes.exact")
        for op in EXACT_OPS:
            self._set(exact.QuadNum, op, self._exact_wrapper(exact.QuadNum.__dict__[op]))
        for layer, (module_name, names) in SPANNED.items():
            module = importlib.import_module(f"friezes.{module_name}")
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, (staticmethod, classmethod)):
                        wrapped = type(raw)(self._span_wrapper(raw.__func__, name, layer))
                    else:
                        wrapped = self._span_wrapper(raw, name, layer)
                    self._set(cls, attr, wrapped)
                    continue
                original = getattr(module, name)
                wrapper = self._span_wrapper(original, name, layer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures per workload operation, keyed by metric name."""

        def per_op(value: float) -> float:
            return value / ops

        calls, group_s = self.calls, self.group_s
        return {
            "exact.quadnum_ops": per_op(self.quadnum_ops),
            "exact.s": per_op(self.self_s["exact"]),
            "exact.errors": per_op(self.errors["exact"]),
            "polygon.enumerate_items": per_op(self.enumerate_items),
            "polygon.enumerate_s": per_op(group_s.get("polygon.enumerate", 0.0)),
            "polygon.faces_calls": per_op(calls.get("polygon.faces", 0)),
            "polygon.faces_s": per_op(group_s.get("polygon.faces", 0.0)),
            "polygon.self_s": per_op(self.self_s["polygon"]),
            "polygon.errors": per_op(self.errors["polygon"]),
            "bijection.associate_calls": per_op(calls.get("bijection.associate", 0)),
            "bijection.associate_s": per_op(group_s.get("bijection.associate", 0.0)),
            "bijection.tree_s": per_op(group_s.get("bijection.tree", 0.0)),
            "bijection.self_s": per_op(self.self_s["bijection"]),
            "bijection.errors": per_op(self.errors["bijection"]),
            "frieze.lambda_calls": per_op(calls.get("frieze.lambda", 0)),
            "frieze.lambda_s": per_op(group_s.get("frieze.lambda", 0.0)),
            "frieze.cc_calls": per_op(calls.get("frieze.cc", 0)),
            "frieze.cc_s": per_op(group_s.get("frieze.cc", 0.0)),
            "frieze.validate_s": per_op(group_s.get("frieze.validate", 0.0)),
            "frieze.json_s": per_op(group_s.get("frieze.json", 0.0)),
            "frieze.self_s": per_op(self.self_s["frieze"]),
            "frieze.errors": per_op(self.errors["frieze"]),
            "verify.checks_s": per_op(group_s.get("verify.checks", 0.0)),
            "verify.deep_frieze_builds": self.deep_frieze_builds
            / max(calls.get("verify.deep", 0), 1),
            "verify.self_s": per_op(self.self_s["verify"]),
            "verify.errors": per_op(self.errors["verify"]),
            "cli.self_s": per_op(self.self_s["cli"]),
            "cli.errors": per_op(self.errors["cli"]),
        }

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines: a header naming the fields, then
        one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "parent", "request", "start", "end"]})
                     + "\n")
            for span_id, name, parent, request, start, end in self.spans:
                fh.write(json.dumps([span_id, self.names[name], parent, request, start, end])
                         + "\n")
