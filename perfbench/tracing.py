"""Span tracing of the simulator's layers, taken from outside ``src/``.

The benchmark does not instrument the program itself.  Instead,
:func:`install` wraps the public function of each layer (the table
:data:`LAYER_FUNCTIONS`) wherever the program has bound it: the defining
module, every ``repro`` module that imported the name, or the class that
owns the method.  Each wrapped call becomes a span (name, start, end,
parent) kept in memory.  Spans are recorded only inside a root span that
the benchmark opens around the work it times, so correctness checks and
warm-up stay out of the trace.

A span's *self time* is its duration minus the durations of its direct
children.  Every per-layer time the benchmark reports is a self time, so
the layer times of a root plus the root's own self time add up to the root
exactly; nothing is counted twice and nothing is lost.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (span name, module, function or ``Class.method``) for every layer call
#: the benchmark times.  Several functions may share one span name.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("prepare", "repro.api.backend", "SimBackend.prepare"),
    ("analysis", "repro.analysis.engine", "analyze_for_prepare"),
    ("levelize", "repro.netlist.levelize", "levelize"),
    ("compile.fingerprint", "repro.core.compile_cache", "fingerprint_netlist"),
    ("compile.fingerprint", "repro.core.compile_cache", "fingerprint_annotation"),
    ("compile.pack", "repro.core.vector_kernel", "pack_design"),
    ("session", "repro.api.session", "Session.run"),
    ("session", "repro.api.session", "Session.run_stream"),
    ("session", "repro.api.session", "Session.run_cycles"),
    ("session", "repro.api.adapters", "GatspiSession.rerun"),
    ("edits.apply", "repro.api.adapters", "GatspiSession.apply_edits"),
    ("restructure", "repro.core.restructure", "lower_stimulus"),
    ("restructure", "repro.core.restructure", "slice_windows"),
    ("memory", "repro.core.memory", "WaveformPool.load_windows"),
    ("memory", "repro.core.memory", "WaveformPool.allocate_batch"),
    ("memory", "repro.core.memory", "WaveformPool.store_level_outputs"),
    ("memory", "repro.core.memory", "WaveformPool.release_windows"),
    ("kernel", "repro.core.vector_kernel", "simulate_level"),
    ("readback.trim", "repro.core.restructure", "trim_readback"),
    ("readback.stitch", "repro.core.restructure", "stitch_windows"),
    ("clocked.loop", "repro.core.clocked", "run_clocked"),
    ("register.next_state", "repro.core.vector_kernel", "register_next_state"),
    ("stream.add_batch", "repro.power.activity", "StreamingActivityAccumulator.add_batch"),
    ("stream.finalize", "repro.power.activity", "StreamingActivityAccumulator.finalize"),
    ("saif", "repro.waveforms.saif", "saif_from_result"),
    ("saif", "repro.waveforms.saif", "saif_from_activities"),
    ("incremental.plan", "repro.core.incremental", "build_dirty_plan"),
    ("incremental.rebuild", "repro.core.incremental", "rebuild_artifacts"),
    ("power", "repro.power.power_model", "PowerModel.__init__"),
    ("power", "repro.power.power_model", "PowerModel.compute_from_result"),
)

#: Span name of the per-frame callback ``run_clocked`` is handed.
FRAME_SPAN = "clocked.frame"


class Tracer:
    """In-memory span recorder with a call stack and plain counters."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent index]`` list per span.
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Open a root span; layer calls are recorded only inside one."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, amount: int = 1) -> None:
        if self._stack:
            self.counters[name] += amount

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name`` whenever a root is open."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus direct children's durations."""
        selfs = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total time and self time (seconds)."""
        rows: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return rows

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def chrome_trace(self, layers: Dict[str, Dict[str, float]], meta: Dict) -> Dict:
        """Chrome trace-event JSON (opens in Perfetto or chrome://tracing)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"parent": self.spans[parent][0] if parent >= 0 else None},
            }
            for name, start, end, parent in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"layers": layers, "counters": dict(self.counters), **meta},
        }

    def write(self, path: str, meta: Dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(self.table(), meta), handle)


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    if "." in qualname:
        owner_name, attr = qualname.split(".")
        return getattr(module, owner_name), attr
    return module, qualname


def install(tracer: Tracer) -> None:
    """Wrap every layer function of :data:`LAYER_FUNCTIONS` for ``tracer``.

    A function is replaced in every loaded ``repro`` module that bound it
    under its own name, so ``from .x import f`` call sites see the wrapper
    too; modules imported later, and call sites that import at call time,
    read the patched defining module.
    """
    for span, module_name, qualname in LAYER_FUNCTIONS:
        owner, attr = _resolve(module_name, qualname)
        original = getattr(owner, attr)
        if span == "clocked.loop":
            wrapped = tracer.wrap(span, _frame_timing(tracer, original))
        elif span == "kernel":
            wrapped = tracer.wrap(
                span, original, lambda result: tracer.count("kernel.tasks", result.task_count)
            )
        else:
            wrapped = tracer.wrap(span, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)

    from repro.core.xp import NumpyBackend

    lookup = NumpyBackend.__getattr__

    def counted_lookup(self, attr):
        tracer.count("xp.op_lookups")
        return lookup(self, attr)

    NumpyBackend.__getattr__ = counted_lookup


def _frame_timing(tracer: Tracer, run_clocked: Callable) -> Callable:
    """``run_clocked`` with its per-frame callback recorded as a span."""

    @functools.wraps(run_clocked)
    def with_frames(plan, stimulus, cycles, run_frame):
        return run_clocked(plan, stimulus, cycles, tracer.wrap(FRAME_SPAN, run_frame))

    return with_frames
