"""Benchmark of the HEM compositional-analysis engine.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_analyze --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``cold_analyze``, ``incremental_sweep``, ``served_mix`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs an untraced and then a traced phase of half the
length each and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status is 0 when the run completed (failed operations included),
non-zero when the program's sources are missing or the run broke.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    END_TO_END,
    UNITS,
    WORK_ROOT,
    CheckoutError,
    add_src_to_path,
    child_env,
    emit,
    median,
)

#: The timed phase runs in this many equal segments.  One set-up in a
#: fresh interpreter runs before the run's own set-up, one between each
#: two segments and one after the last, so the set-ups sample the
#: host's speed across the whole run as the timed phase does (set-ups
#: taken back to back catch a single state of the shared host).
#: ``setup_s`` is the median of the probes and the run's own set-up.
SEGMENTS = 3
#: CPUs of this process before any daemon pins it; every set-up probe
#: runs on all of them, as the run's own set-up did.
ALL_CPUS = os.sched_getaffinity(0)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_analyze", "incremental_sweep",
                                 "served_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print {\"setup_s\": ...}, exit")
    return parser.parse_args(argv)


def probe_setup(args) -> float:
    """Set-up time of one fresh interpreter (``--setup-only``)."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)  # the child inherits it
    try:
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            env=child_env(), capture_output=True, text=True, timeout=120)
    finally:
        os.sched_setaffinity(0, pinned)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def report(wl, phase, failures, label: str) -> None:
    """Human-readable summary on standard output (before the result)."""
    n = phase.completed
    print(f"[{wl.name}] {label}: attempted {phase.attempted}, failed "
          f"{phase.failed}, completed {n} in {phase.wall_s:.2f}s; "
          f"percentile samples {n} (p50: {n // 2} above, "
          f"p90: {n - int(0.9 * n)} above)")
    for line in (phase.failures + failures)[:10]:
        print(f"  FAIL {line}")


def timed_run(wl, args, workloads):
    """The timed phase, a set-up probe between each two of its
    segments, and its checks: ``(phase, failures, probe times)``."""
    part = args.seconds / SEGMENTS
    min_ops = math.ceil(workloads.MIN_OPS / SEGMENTS)
    phase = wl.run_phase(part, min_ops)
    setups = []
    for _ in range(SEGMENTS - 1):
        setups.append(probe_setup(args))
        phase.extend(wl.run_phase(part, min_ops))
    failures = wl.check(phase)
    report(wl, phase, failures, "timed phase")
    return phase, failures, setups


def traced_run(workloads, args) -> None:
    """Untraced phase, then the same workload with layer wrappers.

    ``served_mix`` restarts its daemon through ``serve_launcher.py`` for
    the traced phase; the daemon's layer snapshot is merged with the
    client side's (the callers serialise the systems they send).
    """
    import layers

    half = args.seconds / 2.0
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    try:
        base = wl.run_phase(half)
        base_fail = wl.check(base)
        report(wl, base, base_fail, "untraced phase")
        served = args.workload == "served_mix"
        if served:
            wl.close()
            wl = workloads.WORKLOADS[args.workload]()
            WORK_ROOT.mkdir(parents=True, exist_ok=True)
            trace_out = WORK_ROOT / f"trace-{time.monotonic_ns()}.json"
            wl.setup(args.seed, trace_out=trace_out)
            client = wl.daemon.client
            health0 = client.health()["compile_cache"]
            metrics0 = client.metrics_text()
            snap0 = _daemon_snapshot(wl.daemon, trace_out)
        tracer = layers.LayerTrace()
        layers.install(tracer)

        traced = wl.run_phase(half)
        snap = tracer.snapshot()
        extra = {}
        if served:
            health1 = client.health()["compile_cache"]
            metrics1 = client.metrics_text()
            wl.daemon.stop()
            daemon = layers.diff(json.loads(trace_out.read_text()), snap0)
            trace_out.unlink()
            snap = layers.merge(snap, daemon)
            hits = health1["hits"] - health0["hits"]
            misses = health1["misses"] - health0["misses"]
            reuses = tasks = 0
            family = "repro_serve_queue_wait_seconds"
            wait_s, waits = (a - b for a, b in zip(
                _histogram(metrics1, family), _histogram(metrics0, family)))
            roundtrip = sum(traced.latencies_ms) / max(traced.completed, 1)
            executed = daemon["calls"].get("serve.run_unary", 0)
            execute_ms = (1000 * daemon["total_s"].get("serve.run_unary", 0.0)
                          / executed if executed else 0.0)
            extra = {
                "serve.roundtrip_ms": roundtrip,
                "serve.queue.wait_ms": (1000 * wait_s / waits
                                        if waits else 0.0),
                "serve.overhead_ms": roundtrip - execute_ms,
            }
        else:
            hits, misses = traced.compile.hits, traced.compile.misses
            reuses, tasks = traced.memo
        failures = wl.check(traced)
        report(wl, traced, failures, "traced phase")
    finally:
        wl.close()

    metrics = layers.layer_metrics(snap, traced.completed, hits, misses,
                                   reuses, tasks)
    metrics.update(extra)
    plain, probed = base.end_to_end(0.0), traced.end_to_end(0.0)
    metrics["trace.overhead.throughput_pct"] = 100.0 * (
        plain["throughput_per_s"] - probed["throughput_per_s"]) \
        / plain["throughput_per_s"]
    metrics["trace.overhead.latency_p50_ms"] = (
        probed["latency_p50_ms"] - plain["latency_p50_ms"])
    metrics["trace.overhead.cpu_ms_per_op"] = (
        probed["cpu_ms_per_op"] - plain["cpu_ms_per_op"])
    units = dict(layers.PER_LAYER)
    for name, unit in layers.PER_LAYER:
        print(f"  {name:<38} {metrics[name]:>12.4f} {unit}")
    all_failures = base_fail + failures
    emit(not all_failures, base.attempted + traced.attempted,
         base.failed + traced.failed + len(all_failures),
         {name: metrics[name] for name in units}, units)


def _histogram(text: str, family: str):
    """``(sum, count)`` of one OpenMetrics histogram family."""
    values = {}
    for line in text.splitlines():
        for suffix in ("_sum", "_count"):
            if line.startswith(family + suffix + " "):
                values[suffix] = float(line.split()[1])
    return values.get("_sum", 0.0), values.get("_count", 0.0)


def _daemon_snapshot(daemon, trace_out: Path):
    """Ask the traced daemon (SIGUSR1) for a layer snapshot."""
    import signal

    target = trace_out.with_suffix(".start.json")
    daemon.proc.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + 30
    while not target.exists():
        if time.monotonic() > deadline:
            raise RuntimeError("traced daemon wrote no snapshot")
        time.sleep(0.01)
    snap = json.loads(target.read_text())
    target.unlink()
    return snap


def main(argv=None) -> int:
    args = parse(argv)
    try:
        add_src_to_path()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        import workloads

        traced_run(workloads, args)
        return 0
    before = [] if args.setup_only else [probe_setup(args)]
    t0 = time.perf_counter()
    import workloads  # imports repro: set-up starts here

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        phase, failures, during = timed_run(wl, args, workloads)
    finally:
        wl.close()
    setups = before + [setup_s] + during + [probe_setup(args)]
    print(f"[{wl.name}] set-up times (s): "
          + ", ".join(f"{s:.3f}" for s in setups))
    metrics = phase.end_to_end(median(setups))
    for name in END_TO_END:
        print(f"  {name:<18} {metrics[name]:>12.4f} {UNITS[name]}")
    emit(not failures, phase.attempted, phase.failed + len(failures),
         metrics, UNITS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
