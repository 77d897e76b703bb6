"""Span tracing of the quadareas layers, installed from outside the library.

``installed(tracer)`` replaces every public function of each layer module,
plus the construction and parsing methods of the classes named in
``CLASS_METHODS``, with a wrapper that records a span.  The wrapper is put
under every name the package's modules bind the function to (for example
``quadareas.membership.hyperplanes`` and ``quadareas.witness.member``), so
calls between modules are traced too.  Everything is restored on exit, so a
run without tracing calls the library's own functions.

Spans live in memory as parallel arrays (name, start, end, parent, op) and
are summarised and written out after the run.  Only spans opened inside an
operation (``op >= 0``) count in the summary; the rest are the benchmark's
own calls, such as building the next operation's inputs.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("division", "cone", "linalg", "membership", "reduction", "witness", "geometry", "oracle", "cli")

CLASS_METHODS = {
    "division": {"DivisionSpec": ("__post_init__", "of")},
    "geometry": {"ConvexQuad": ("__post_init__", "of", "parse")},
}

# spans whose arguments are kept (by reference) for the per-spec and operand metrics
CAPTURE = {"cone.frame", "cone.classify", "linalg.solve2", "linalg.solve3"}

NAMED = (
    ("cone.hyperplanes", ("calls", "self_ms")),
    ("cone.evaluate_plane", ("calls", "self_ms")),
    ("cone.frame", ("calls", "self_ms")),
    ("cone.classify", ("calls",)),
    ("cone.discriminants", ("calls",)),
    ("linalg.solve2", ("calls",)),
    ("linalg.solve3", ("calls",)),
    ("membership.member", ("calls", "self_ms")),
    ("witness.synthesize_witness", ("self_ms",)),
    ("witness.apex_quad", ("calls",)),
    ("geometry.strip_areas", ("self_ms",)),
    ("geometry.apex_of", ("self_ms",)),
    ("geometry.subdivide", ("calls",)),
    ("reduction.member_via_collapse", ("self_ms",)),
    ("reduction.collapse", ("calls",)),
    ("reduction.member_tail", ("self_ms",)),
)


# per-layer metrics measured around the traced calls rather than from spans;
# each is 0 on a workload that makes no such call
EXTRA = ("cli.interpreter_ms", "cli.import_ms", "cli.main_ms", "cli.stdout_bytes",
         "cli.hostile_failed_frac", "oracle.accepted_ratio", "trace.overhead_frac")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    empty = {"calls": {}, "self_ns": {}, "distinct_specs": dict.fromkeys(("cone.frame", "cone.classify"), 0),
             "bits": [0, 0]}
    return sorted([*per_op(empty, 1), *EXTRA])


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its suffix."""
    for suffix, name in (("calls", "calls/op"), ("_ms", "ms/op"), ("per_spec", "calls/spec"),
                         ("bits", "bits"), ("bytes", "bytes/op"), ("ratio", "ratio"), ("frac", "frac")):
        if metric.endswith(suffix):
            return name
    raise KeyError(metric)


class Tracer:
    """In-memory span store.  ``op`` is the id stamped on spans opened from now on."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.span_op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op = -1
        self.captured: dict[str, list] = defaultdict(list)

    def intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def span(self, name: str, fn):
        """Call wrapper recording one span per call of ``fn``."""
        nid = self.intern(name)
        names, parents, ops, starts, ends, stack = (
            self.span_name, self.parent, self.span_op, self.start, self.end, self.stack)
        keep = self.captured[name].append if name in CAPTURE else None
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            if keep is not None and tracer.op >= 0:
                keep(args)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __len__(self):
        return len(self.start)

    def records(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": list(zip(self.span_name, self.start, self.end, self.parent, self.span_op)),
        }


def write(path, records) -> None:
    with open(path, "w") as fh:
        json.dump(records, fh, separators=(",", ":"))


def _layer_modules():
    return {layer: importlib.import_module(f"quadareas.{layer}") for layer in LAYERS}


def _targets(modules):
    """Map each traced function object to its span name."""
    targets = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                targets[obj] = f"{layer}.{attr}"
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install span wrappers in every quadareas namespace; restore them on exit."""
    modules = _layer_modules()
    targets = _targets(modules)
    wrappers = {fn: tracer.span(name, fn) for fn, name in targets.items()}
    restore = []
    try:
        for mod in [importlib.import_module("quadareas"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, classes in CLASS_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}" if meth == "__post_init__" else f"{layer}.{cls_name}.{meth}"
                    restore.append((cls, meth, raw))
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(tracer.span(name, raw.__func__)))
                    else:
                        setattr(cls, meth, tracer.span(name, raw))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(tracer: Tracer) -> list[int]:
    """Per span: its duration minus the time its direct children cover (ns)."""
    count = len(tracer)
    child = [0] * count
    starts, ends, parents = tracer.start, tracer.end, tracer.parent
    for idx in range(count):
        par = parents[idx]
        if par >= 0:
            child[par] += ends[idx] - starts[idx]
    return [ends[i] - starts[i] - child[i] for i in range(count)]


def _bits(value) -> list[int]:
    return [value.numerator.bit_length(), value.denominator.bit_length()]


def aggregate(tracer: Tracer) -> dict:
    """Raw sums over the spans opened inside an operation: calls and self time per layer and per function.

    Raw sums from several processes add up; ``per_op`` turns them into metrics.
    """
    own = self_times(tracer)
    calls: dict = defaultdict(int)
    self_ns: dict = defaultdict(int)
    for idx, nid in enumerate(tracer.span_name):
        if tracer.span_op[idx] < 0:
            continue
        name = tracer.names[nid]
        for key in (name.split(".", 1)[0], name):
            calls[key] += 1
            self_ns[key] += own[idx]
    distinct = {name: len({args[0] for args in tracer.captured[name]}) for name in ("cone.frame", "cone.classify")}
    bits = [b for name in ("linalg.solve2", "linalg.solve3") for m, rhs in tracer.captured[name]
            for value in [*(v for row in m for v in row), *rhs] for b in _bits(value)]
    return {"calls": dict(calls), "self_ns": dict(self_ns), "distinct_specs": distinct,
            "bits": [sum(bits), len(bits)]}


def merge(raws) -> dict:
    total = {"calls": defaultdict(int), "self_ns": defaultdict(int),
             "distinct_specs": defaultdict(int), "bits": [0, 0]}
    for raw in raws:
        for key in ("calls", "self_ns", "distinct_specs"):
            for name, value in raw[key].items():
                total[key][name] += value
        total["bits"][0] += raw["bits"][0]
        total["bits"][1] += raw["bits"][1]
    return total


def per_op(raw: dict, ops: int) -> dict:
    """Per-op layer metrics: ``<layer>.calls``, ``<layer>.self_ms`` and the named functions."""
    calls, self_ns = raw["calls"], raw["self_ns"]
    ops = max(ops, 1)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0) / ops
        out[f"{layer}.self_ms"] = self_ns.get(layer, 0) / 1e6 / ops
    for name, kinds in NAMED:
        for kind in kinds:
            value = calls.get(name, 0) if kind == "calls" else self_ns.get(name, 0) / 1e6
            out[f"{name}.{kind}"] = value / ops
    for name, distinct in raw["distinct_specs"].items():
        out[f"{name}.per_spec"] = calls.get(name, 0) / distinct if distinct else 0.0
    bit_sum, bit_count = raw["bits"]
    out["linalg.operand_bits"] = bit_sum / bit_count if bit_count else 0.0
    return out
