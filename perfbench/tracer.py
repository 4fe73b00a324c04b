"""In-memory span tracer that wraps kvrelay functions from outside.

``Tracer.install`` replaces each traced function at every ``kvrelay``
module attribute that refers to it (for example both
``kvrelay.relay.run_chain`` and ``kvrelay.cli.run_chain``), so calls made
through any of those names are recorded; ``uninstall`` puts the originals
back. The source under ``src/`` is never modified.

A span holds its name, start, end, thread CPU time, parent span and op id.
Each thread keeps its own span stack. A thread whose stack is empty (a
worker of the CLI's thread pool) takes as parent the innermost open span of
the thread that opened the current op, so pool work nests under
``cli.cmd_simulate``.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


def _obf_units(args, result):
    trace = result[2]
    return {
        "compress.obf_units": trace.total,
        "compress.obf_active_units": trace.total - trace.skipped_count,
    }


def _file_bytes(metric):
    return lambda args, result: {metric: os.path.getsize(args[0])}


# (defining module, function) -> work counter computed from the call's
# arguments and result, keyed by metric name. Every listed function is
# wrapped; every counter is an exact integer and is listed in COUNTERS.
TARGETS = {
    ("relay", "run_chain"): None,
    ("compress", "compress"): _obf_units,
    ("compress", "h2o_select"): None,
    ("compress", "obf_residual"): None,
    ("linalg", "principal_subspace"): lambda args, result: {
        "linalg.principal_subspace.input_elems": int(args[0].size)
    },
    ("linalg", "orthonormal_basis"): None,
    ("linalg", "project_out"): None,
    ("linalg", "top_k_indices"): None,
    ("scoring", "attention_mass_headwise"): lambda args, result: {
        "scoring.mass_entries": args[0].num_layers * args[0].num_kv_heads * len(args[2])
    },
    ("scoring", "aggregate_layerwise"): None,
    ("scoring", "aggregate_global"): None,
    ("scoring", "demand_sums"): None,
    ("backbone", "generate_episode"): None,
    ("backbone", "tiny_attention_forward"): None,
    ("kv", "select"): lambda args, result: {"kv.rows_copied": len(args[1])},
    ("kv", "concat"): lambda args, result: {
        "kv.rows_copied": args[0].num_tokens + args[1].num_tokens
    },
    ("kv", "decompose"): None,
    ("fixtures", "load_episode_fixture"): _file_bytes("fixtures.load_episode_fixture.bytes"),
    ("fixtures", "dump_json"): _file_bytes("fixtures.dump_json.bytes"),
    ("cli", "cmd_simulate"): None,
    ("cli", "load_run_config"): None,
}
COUNTERS = (
    "compress.obf_units",
    "compress.obf_active_units",
    "linalg.principal_subspace.input_elems",
    "scoring.mass_entries",
    "kv.rows_copied",
    "fixtures.load_episode_fixture.bytes",
    "fixtures.dump_json.bytes",
)


@dataclass(frozen=True)
class Span:
    name: str
    span_id: int
    parent: int | None
    op: int
    start: float
    end: float
    cpu: float
    work: dict | None


class Tracer:
    """Collects spans for calls into kvrelay while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, work):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._op_stack[-1] if tracer._op_stack else None
            span_id = next(tracer._ids)
            op = tracer.op
            stack.append(span_id)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                counted = work(args, result) if work is not None and returned else None
                tracer.spans.append(Span(name, span_id, parent, op, start, end, cpu, counted))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def op_span(self, op: int):
        """Open the root span of one benchmark op on the calling thread."""
        self.op = op
        span_id = next(self._ids)
        stack = self._stack()
        stack.append(span_id)
        self._op_stack = stack
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            self._op_stack = []
            self.spans.append(Span("bench.op", span_id, None, op, start, end, cpu, None))

    def install(self) -> None:
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if name == "kvrelay" or name.startswith("kvrelay.")
        }
        for (module_name, func_name), work in TARGETS.items():
            original = getattr(modules[f"kvrelay.{module_name}"], func_name)
            wrapper = self._record(f"{module_name}.{func_name}", original, work)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
            if end > span.start and start < span.end
        ]
        out[span.span_id] = (span.end - span.start) - _union_length(clipped)
    return out
