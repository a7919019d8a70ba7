"""Span tracer that measures qrsim's layers from outside the package.

``Tracer.install`` rebinds each traced public function, in every loaded
``qrsim.*`` module namespace that holds it, to a wrapper that records a span
(name, start, end, parent span, operation id) and the counts the benchmark
reports at that boundary.  ``uninstall`` restores the originals.  No file of
the package changes, and untraced runs never install the wrappers.

Spans are kept in memory and written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from dataclasses import astuple, dataclass

# (module under qrsim, function); the span name is "module.function"
TRACED = (
    ("cli", "main"),
    ("bell", "run_bell"),
    ("measurement", "build_measurement_unitary"),
    ("hilbert", "apply"),
    ("hilbert", "partial_trace"),
    ("qrs", "joint_probability"),
    ("qrs", "formal_joint"),
    ("qrs", "comparability"),
    ("schmidt", "possible_internal_states"),
    ("schmidt", "schmidt_decompose"),
)

# name -> (unit, better); the order and names match BENCHMARK.json "per_layer"
LAYER_METRICS = {
    "bell.run_bell.calls": ("count/op", "lower"),
    "bell.run_bell.self_ms": ("ms/op", "lower"),
    "bell.run_bell.ms_per_call": ("ms/call", "lower"),
    "bell.setting_reuse_ratio": ("ratio", "higher"),
    "measurement.build_measurement_unitary.calls": ("count/op", "lower"),
    "measurement.build_measurement_unitary.self_ms": ("ms/op", "lower"),
    "hilbert.apply.calls": ("count/op", "lower"),
    "hilbert.apply.self_ms": ("ms/op", "lower"),
    "qrs.joint_probability.calls": ("count/op", "lower"),
    "qrs.joint_probability.self_ms": ("ms/op", "lower"),
    "qrs.table_entries": ("count/op", "lower"),
    "qrs.formal_joint.calls": ("count/op", "lower"),
    "qrs.formal_joint.self_ms": ("ms/op", "lower"),
    "qrs.useful_entry_ratio": ("ratio", "higher"),
    "qrs.comparability.self_ms": ("ms/op", "lower"),
    "schmidt.possible_internal_states.calls": ("count/op", "lower"),
    "schmidt.possible_internal_states.self_ms": ("ms/op", "lower"),
    "schmidt.possible_internal_states.dim_sum": ("count/op", "lower"),
    "schmidt.schmidt_decompose.self_ms": ("ms/op", "lower"),
    "hilbert.partial_trace.calls": ("count/op", "lower"),
    "hilbert.partial_trace.self_ms": ("ms/op", "lower"),
    "hilbert.partial_trace.bytes_out": ("B/op", "lower"),
    "cli.main.self_ms": ("ms/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    op: int


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []
        self._settings: set = set()
        self._restore: list = []

    def _record_counts(self, name: str, result) -> None:
        c = self.counts
        if name == "hilbert.partial_trace":
            # computed, not measured: one complex128 d x d matrix per call
            c["hilbert.partial_trace.bytes_out"] += 16 * result.system.joint_dim ** 2
        elif name == "schmidt.possible_internal_states":
            c["schmidt.possible_internal_states.dim_sum"] += result.subsystem.joint_dim
        elif name in ("qrs.joint_probability", "qrs.formal_joint"):
            c["qrs.table_entries"] += result.table.size
            c["qrs.useful_entries"] += math.prod(
                int((~e.negligible).sum()) for e in result.ensembles
            )
        elif name == "bell.run_bell":
            s = result.scenario
            self._settings.add((self.op, s.theta1, s.theta2))

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._record_counts(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "qrsim" or k.startswith("qrsim.")]
        for module, func in TRACED:
            original = getattr(sys.modules[f"qrsim.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_times(self) -> tuple:
        """(calls, inclusive seconds, self seconds) per span name.

        Calls run on one thread and nest strictly, so the children of a span
        never overlap and the time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        calls, total_s, self_s = Counter(), Counter(), Counter()
        for s, child in zip(self.spans, covered):
            calls[s.name] += 1
            total_s[s.name] += s.end - s.start
            self_s[s.name] += (s.end - s.start) - child
        return calls, total_s, self_s

    def layer_metrics(self, n_ops: int, overhead_ratio: float) -> dict:
        """Every LAYER_METRICS value, as an average per operation where it is one."""
        calls, total_s, self_s = self.self_times()
        c = self.counts
        values = {}
        for module, func in TRACED:
            name = f"{module}.{func}"
            values[f"{name}.calls"] = calls[name] / n_ops
            values[f"{name}.self_ms"] = 1e3 * self_s[name] / n_ops
        for key in (
            "qrs.table_entries",
            "schmidt.possible_internal_states.dim_sum",
            "hilbert.partial_trace.bytes_out",
        ):
            values[key] = c[key] / n_ops
        values["bell.run_bell.ms_per_call"] = 1e3 * _ratio(total_s["bell.run_bell"], calls["bell.run_bell"])
        values["bell.setting_reuse_ratio"] = _ratio(len(self._settings), calls["bell.run_bell"])
        values["qrs.useful_entry_ratio"] = _ratio(c["qrs.useful_entries"], c["qrs.table_entries"])
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: values[name] for name in LAYER_METRICS}

    def dump(self, path, header: dict) -> None:
        fields = list(Span.__dataclass_fields__)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**header, "span_fields": fields, "spans": [astuple(s) for s in self.spans]},
                fh,
            )
