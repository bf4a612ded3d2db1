"""Per-layer tracing for the traced run, from the benchmark's own files.

:func:`install` wraps the public functions at each layer boundary of
``repro`` with a span recorder.  A span's self time is its duration
minus the time covered by the spans it directly contains (spans nest
per thread, so the children of a span are exactly those started while
it is the innermost one).  Direct recursion (``fingerprint`` walking a
model chain) is folded into the outermost span, so ``calls`` counts
the calls made from other layers.

Timed runs never import this module's :func:`install`; only the traced
run, and the daemon launcher of the traced run, call it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer metrics in report order: (name, unit).  Counts and self
#: times are per completed operation of the traced phase.
PER_LAYER: List[Tuple[str, str]] = [
    ("compile.compile_model.calls", "1/op"),
    ("compile.compile_model.self_ms", "ms/op"),
    ("compile.maybe_compile.calls", "1/op"),
    ("compile.maybe_compile.self_ms", "ms/op"),
    ("compile.fingerprint.calls", "1/op"),
    ("compile.fingerprint.self_ms", "ms/op"),
    ("compile.cache_hit_ratio", "ratio"),
    ("compile.cache_lookups", "1/op"),
] + [(f"analysis.{p}.analyze.{k}", u)
     for p in ("spp", "spnp", "edf", "round_robin", "tdma")
     for k, u in (("calls", "1/op"), ("self_ms", "ms/op"))] + [
    ("memo.analyze.calls", "1/op"),
    ("memo.analyze.self_ms", "ms/op"),
    ("memo.task_reuse_ratio", "ratio"),
    ("memo.tasks_total", "1/op"),
    ("propagation.analyze_system.self_ms", "ms/op"),
    ("propagation.iterations", "1/op"),
    ("degrade.degraded_analyze.self_ms", "ms/op"),
    ("store.get.calls", "1/op"),
    ("store.get.self_ms", "ms/op"),
    ("store.hit_ratio", "ratio"),
    ("store.put.calls", "1/op"),
    ("store.put.self_ms", "ms/op"),
    ("jobs.key.self_ms", "ms/op"),
    ("jobs.run_job.self_ms", "ms/op"),
    ("serialize.to_dict.self_ms", "ms/op"),
    ("serialize.from_dict.self_ms", "ms/op"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.queue.wait_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("trace.overhead.throughput_pct", "%"),
    ("trace.overhead.latency_p50_ms", "ms"),
    ("trace.overhead.cpu_ms_per_op", "ms/op"),
]


class LayerTrace:
    """Span counts and self/total times per layer, all threads."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: Layer-specific tallies (store hits, fixed-point iterations).
        self.tally: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[["LayerTrace", Any], None]] = None
             ) -> Callable:
        trace = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = trace._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with trace._lock:
                    trace.calls[name] += 1
                    trace.self_s[name] += elapsed - frame[1]
                    trace.total_s[name] += elapsed
            if on_result is not None:
                with trace._lock:
                    on_result(trace, result)
            return result

        return span

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                    "total_s": dict(self.total_s),
                    "tally": dict(self.tally)}


def _count_iterations(trace: LayerTrace, result: Any) -> None:
    inner = getattr(result, "result", result)  # AnalysisOutcome or not
    trace.tally["iterations"] += getattr(inner, "iterations", 0)


def _count_store_hit(trace: LayerTrace, result: Any) -> None:
    trace.tally["store_hits"] += result is not None


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Rebind every module-level name in ``repro`` bound to *original*
    (``from x import f`` copies the binding into the importer)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(trace: LayerTrace) -> None:
    """Wrap every traced layer boundary of the already imported
    ``repro`` package."""
    import repro.serve.handlers as handlers
    from repro.analysis.edf import EDFScheduler
    from repro.analysis.memo import LocalAnalysisMemo
    from repro.analysis.round_robin import RoundRobinScheduler
    from repro.analysis.spnp import SPNPScheduler
    from repro.analysis.spp import SPPScheduler
    from repro.analysis.tdma import TDMAScheduler
    from repro.batch import jobs
    from repro.batch.store import ResultStore
    from repro.eventmodels import compile as emc
    from repro.resilience import degrade
    from repro.system import propagation, serialize

    for name in ("compile_model", "maybe_compile", "fingerprint"):
        _replace_everywhere(getattr(emc, name), trace.wrap(
            f"compile.{name}", getattr(emc, name)))
    for cls in (SPPScheduler, SPNPScheduler, EDFScheduler,
                RoundRobinScheduler, TDMAScheduler):
        cls.analyze = trace.wrap(f"analysis.{cls.policy}.analyze",
                                 cls.analyze)
    LocalAnalysisMemo.analyze = trace.wrap("memo.analyze",
                                           LocalAnalysisMemo.analyze)
    _replace_everywhere(propagation.analyze_system, trace.wrap(
        "propagation.analyze_system", propagation.analyze_system,
        _count_iterations))
    _replace_everywhere(degrade.degraded_analyze, trace.wrap(
        "degrade.degraded_analyze", degrade.degraded_analyze))
    ResultStore.get = trace.wrap("store.get", ResultStore.get,
                                 _count_store_hit)
    ResultStore.put = trace.wrap("store.put", ResultStore.put)
    jobs.content_hash = trace.wrap("jobs.key", jobs.content_hash)
    _replace_everywhere(jobs.run_job, trace.wrap("jobs.run_job",
                                                 jobs.run_job))
    _replace_everywhere(serialize.system_to_dict, trace.wrap(
        "serialize.to_dict", serialize.system_to_dict))
    _replace_everywhere(serialize.system_from_dict, trace.wrap(
        "serialize.from_dict", serialize.system_from_dict))
    handlers.run_unary = trace.wrap("serve.run_unary", handlers.run_unary)


def diff(after: Dict[str, Dict[str, float]],
         before: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Per-field difference of two :meth:`LayerTrace.snapshot` values."""
    return {field: {k: v - before.get(field, {}).get(k, 0)
                    for k, v in values.items()}
            for field, values in after.items()}


def merge(a: Dict[str, Dict[str, float]],
          b: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Field-wise sum of two snapshots (benchmark process + daemon)."""
    return {field: {k: a.get(field, {}).get(k, 0) + b.get(field, {}).get(k, 0)
                    for k in set(a.get(field, {})) | set(b.get(field, {}))}
            for field in set(a) | set(b)}


def layer_metrics(snap: Dict[str, Dict[str, float]], ops: int,
                  compile_hits: float, compile_misses: float,
                  memo_reuses: float, memo_tasks: float
                  ) -> Dict[str, float]:
    """Per-op layer metrics from a trace snapshot and cache counters.
    Metrics a workload never reaches read 0."""
    ops = max(ops, 1)
    calls, self_s, tally = snap["calls"], snap["self_s"], snap["tally"]
    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(layer, 0) / ops
        elif field == "self_ms":
            out[name] = 1000.0 * self_s.get(layer, 0.0) / ops
    lookups = compile_hits + compile_misses
    out["compile.cache_hit_ratio"] = compile_hits / lookups if lookups else 0.0
    out["compile.cache_lookups"] = lookups / ops
    out["memo.task_reuse_ratio"] = memo_reuses / memo_tasks if memo_tasks else 0.0
    out["memo.tasks_total"] = memo_tasks / ops
    out["propagation.iterations"] = tally.get("iterations", 0) / ops
    gets = calls.get("store.get", 0)
    out["store.hit_ratio"] = tally.get("store_hits", 0) / gets if gets else 0.0
    return out
