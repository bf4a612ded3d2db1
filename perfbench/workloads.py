"""The three workloads: set-up, one timed phase, output checks.

Each workload object is driven by ``run.py`` as::

    wl.setup(seed)                     # timed as set-up, untraced
    phase = wl.run_phase(seconds)      # timed operations
    phase.extend(wl.run_phase(...))    # more of them (optional)
    failures = wl.check(phase)         # reference checks, untimed
    wl.close()

A phase replays the workload's seeded rounds of operations in order
and stops at the first round boundary after ``seconds`` (and after at
least ``min_ops`` operations), so every run attempts whole rounds.  A
further phase continues with the next round.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import inputs as I
import reference as R
from common import BENCH_DIR, WORK_ROOT, Phase, child_env, median

from repro._errors import ReproError
from repro.analysis import memo as memo_mod
from repro.batch.design_space import DesignSpace, period_axis, wcet_axis
from repro.batch.executor import BatchRunner, SerialBackend
from repro.batch.store import ResultStore
from repro.eventmodels import compile as emc
from repro.serve.client import ServeClient, ServeError
from repro.system import propagation
from repro.system.serialize import system_from_dict

#: Every run completes at least this many operations, so the 90th
#: percentile has at least ten samples beyond it.
MIN_OPS = 100
#: CPUs this process may use, read before any daemon pins it.
CPUS = sorted(os.sched_getaffinity(0))


def _work_dir(tag: str) -> Path:
    path = WORK_ROOT / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


class CompileCounter:
    """Hit/miss totals of the process-global compile cache across the
    cache resets ``cold_analyze`` makes before every call."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._base = emc.cache().stats()

    def before_reset(self) -> None:
        stats = emc.cache().stats()
        self.hits += stats["hits"] - self._base["hits"]
        self.misses += stats["misses"] - self._base["misses"]
        self._base = {"hits": 0, "misses": 0}

    def finish(self) -> None:
        self.before_reset()
        self._base = emc.cache().stats()


# ----------------------------------------------------------------------
# cold_analyze
# ----------------------------------------------------------------------
class ColdAnalyze:
    """One caller; strict ``analyze_system`` without a memo on an empty
    compile cache, over gateways and seeded task graphs."""

    name = "cold_analyze"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.round = 0
        self.inputs = I.cold_inputs(seed)
        for inp in self.inputs:  # warm-up: imports, lazy tables, code paths
            emc.configure(reset_cache=True)
            propagation.analyze_system(system_from_dict(inp.system))

    def run_phase(self, seconds: float, min_ops: int = MIN_OPS) -> Phase:
        phase = Phase()  # outputs: (input, wcrt) per completed op
        phase.compile = CompileCounter()
        phase.memo = (0, 0)
        deadline = time.perf_counter() + seconds
        phase.start()
        while True:
            for inp in I.cold_round(self.inputs, self.seed, self.round):
                system = system_from_dict(inp.system)
                phase.compile.before_reset()
                emc.configure(reset_cache=True)
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = propagation.analyze_system(system)
                except ReproError as exc:
                    phase.fail(f"{inp.name}: {type(exc).__name__}: {exc}")
                    continue
                phase.latencies_ms.append(1000 * (time.perf_counter() - t0))
                phase.outputs.append((inp, R.wcrt_of(result)))
            self.round += 1
            if (time.perf_counter() >= deadline
                    and phase.completed >= min_ops):
                break
        phase.stop()
        phase.compile.finish()
        return phase

    def check(self, phase: Phase) -> List[str]:
        verdict: Dict[str, List[str]] = {}
        first: Dict[str, R.Wcrt] = {}
        #: Tasks compared by the HEM <= flat check, per gateway.
        self.hem_compared: Dict[str, int] = {}
        failures = []
        for inp, wcrt in phase.outputs:
            if inp.name not in verdict:
                first[inp.name] = wcrt
                verdict[inp.name] = self._check_input(inp, wcrt)
            bad = verdict[inp.name] or R.check_same(
                wcrt, first[inp.name], f"{inp.name} repeat")
            if bad:
                failures.append(bad[0])
        print(f"[{self.name}] HEM <= flat compared on "
              + ", ".join(f"{name} ({n} tasks)" if n
                          else f"{name} (flat unbounded)"
                          for name, n in sorted(self.hem_compared.items())))
        return failures

    def _check_input(self, inp: I.Input, wcrt: R.Wcrt) -> List[str]:
        out = R.check_same(wcrt, R.reference_wcrt(inp.system),
                           f"{inp.name} vs fresh run")
        if inp.kind == "single":
            out += R.check_textbook(inp.system, wcrt)
        if inp.flat is not None:
            bad, self.hem_compared[inp.name] = R.check_hem_vs_flat(
                wcrt, inp.flat)
            out += bad
        if inp.kind in ("single", "graph"):
            out += R.check_against_sim(inp.system, wcrt, self.seed)
        return [f"{inp.name}: {f}" for f in out]

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# incremental_sweep
# ----------------------------------------------------------------------
class IncrementalSweep:
    """One caller; incremental single-axis design-space sweeps through
    ``BatchRunner`` + ``SerialBackend`` into a fresh ``ResultStore``."""

    name = "incremental_sweep"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.round = 0
        self.sweeps = I.sweeps(seed)
        self.work = _work_dir("sweep")
        self.serial = 0
        self.answers: Dict[Tuple[str, float], R.Wcrt] = {}
        for sweep in self.sweeps:  # warm-up: fills the compile cache
            self._run(sweep)

    def _space(self, sweep: I.Sweep, group: str) -> DesignSpace:
        axis = (wcet_axis(sweep.values, tasks=sweep.targets)
                if sweep.axis == "wcet"
                else period_axis(sweep.values, sources=sweep.targets))
        return DesignSpace(group, [axis], base=sweep.base,
                           incremental=True)

    def _run(self, sweep: I.Sweep):
        """One sweep, the operation.  Store and memo are fresh: every
        point is executed, none is served from a cache of results."""
        self.serial += 1
        group = f"{sweep.name}#{self.serial}"
        store_dir = self.work / f"store-{self.serial}"
        store = ResultStore(store_dir)
        runner = BatchRunner(store=store, backend=SerialBackend())
        t0 = time.perf_counter()
        space = self._space(sweep, group)
        result = space.run(runner)
        elapsed = time.perf_counter() - t0
        store.close()
        shutil.rmtree(store_dir)
        with memo_mod._POOL_LOCK:
            memo = memo_mod._MEMO_POOL.pop(f"space:{group}")
        stats = memo.stats()
        report = result.report
        problems = []
        if report.cached:
            problems.append(f"{group}: {len(report.cached)} store hits")
        if report.failed:
            problems.append(f"{group}: {len(report.failed)} failed points")
        points = [p[space.axes[0].name] for p in result.points]
        wcrts = [report.result_for(job).data["wcrt"] for job in result.jobs]
        return elapsed, problems, points, wcrts, stats

    def run_phase(self, seconds: float, min_ops: int = MIN_OPS) -> Phase:
        phase = Phase()  # outputs: (sweep, points, wcrts) per completed op
        phase.compile = CompileCounter()
        reuses = tasks = 0
        deadline = time.perf_counter() + seconds
        phase.start()
        while True:
            for sweep in I.sweep_round(self.sweeps, self.seed, self.round):
                phase.attempted += 1
                elapsed, problems, points, wcrts, stats = self._run(sweep)
                reuses += stats["task_reuses"]
                tasks += stats["tasks_total"]
                if problems:
                    phase.fail(problems[0])
                    continue
                phase.latencies_ms.append(1000 * elapsed)
                phase.outputs.append((sweep, points, wcrts))
            self.round += 1
            if (time.perf_counter() >= deadline
                    and phase.completed >= min_ops):
                break
        phase.stop()
        phase.compile.finish()
        phase.memo = (reuses, tasks)
        return phase

    def check(self, phase: Phase) -> List[str]:
        failures = []
        verdict: Dict[str, List[str]] = {}
        for sweep, points, wcrts in phase.outputs:
            if sweep.name not in verdict:
                verdict[sweep.name] = self._check_sweep(sweep)
            bad = list(verdict[sweep.name])
            for point, wcrt in zip(points, wcrts):
                bad += R.check_same(
                    wcrt, self.answers[(sweep.name, point)],
                    f"{sweep.name} at {point:.4f}")
            if bad:
                failures.append(bad[0])
        return failures

    def _check_sweep(self, sweep: I.Sweep) -> List[str]:
        """Memo-free, cache-cleared references for every point, and
        WCRT monotonicity along WCET axes."""
        space = self._space(sweep, f"{sweep.name}#reference")
        refs = []
        for value in sweep.values:
            point = {space.axes[0].name: value}
            ref = R.reference_wcrt(space.system_dict_for(point))
            self.answers[(sweep.name, value)] = ref
            refs.append(ref)
        if sweep.axis == "wcet":
            return R.check_monotone(sweep.values, refs, sweep.name)
        return []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# served_mix
# ----------------------------------------------------------------------
_SERVING = re.compile(r"serving on [^:]+:(\d+)")


class Daemon:
    """``python -m repro serve --workers 2`` as a child process with a
    fresh cache directory.  ``trace_out`` starts it through the
    benchmark's launcher instead, with layer wrappers installed."""

    def __init__(self, trace_out: Optional[Path] = None):
        self.work = _work_dir("serve")
        args = ["--port", "0", "--workers", "2",
                "--cache-dir", str(self.work / "cache")]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"] + args
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                   "--trace-out", str(trace_out)] + args
        self.proc = subprocess.Popen(
            cmd, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.log: List[str] = []
        port = None
        for line in self.proc.stdout:
            self.log.append(line.rstrip())
            match = _SERVING.search(line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            self.stop()
            raise RuntimeError("daemon exited before serving:\n"
                               + "\n".join(self.log[-20:]))
        self._pin_apart()
        self._drain = threading.Thread(target=self._read_log, daemon=True)
        self._drain.start()
        self.client = ServeClient(port=port)
        self.client.wait_healthy()

    def _pin_apart(self) -> None:
        """Run the daemon and the load generator (this process, whose
        caller threads start later and inherit it) on different CPUs.
        Left to the scheduler they share one CPU for seconds at a time,
        which moved served throughput by up to 25% between runs of
        identical work on a 2-CPU host."""
        if len(CPUS) < 2:
            return
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), CPUS[1:2])
        os.sched_setaffinity(0, CPUS[:1])

    def _read_log(self) -> None:
        for line in self.proc.stdout:
            self.log.append(line.rstrip())

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)


class ServedMix:
    """Two blocking ``ServeClient`` callers against the daemon: store
    hits on keys answered during set-up, and misses on WCET variants
    never sent before."""

    name = "served_mix"
    CALLERS = 2

    def setup(self, seed: int, trace_out: Optional[Path] = None) -> None:
        self.seed = seed
        self.round = 0
        self.bases = I.served_bases(seed)
        self.systems = {b.name: system_from_dict(b.system)
                        for b in self.bases}
        self.daemon = Daemon(trace_out)
        self.answers = {}
        try:
            for name, system in self.systems.items():  # warm-up: hit keys
                resp = self.daemon.client.analyze(system)
                if not resp.ok:
                    raise RuntimeError(f"warm-up {name}: {resp.error}")
                self.answers[name] = resp
        except BaseException:
            self.daemon.stop()
            raise

    def run_phase(self, seconds: float, min_ops: int = MIN_OPS) -> Phase:
        """Both callers take the next request of one shared seeded
        sequence; outputs: (request, ms, response or exception)."""
        phase = Phase(pid=self.daemon.pid)
        ops: List[I.Request] = []
        results: Dict[int, Tuple[float, Any]] = {}
        lock = threading.Lock()
        state = {"next": 0, "round": self.round}
        deadline = time.perf_counter() + seconds

        def take() -> Optional[int]:
            with lock:
                if state["next"] == len(ops):
                    if (time.perf_counter() >= deadline
                            and len(ops) >= min_ops):
                        return None
                    ops.extend(I.served_round(self.bases, self.seed,
                                              state["round"]))
                    state["round"] += 1
                i = state["next"]
                state["next"] += 1
                return i

        def caller() -> None:
            client = ServeClient(port=self.daemon.client.port)
            while True:
                i = take()
                if i is None:
                    return
                req = ops[i]
                system = (self.systems[req.base] if req.hit
                          else system_from_dict(req.system))
                t0 = time.perf_counter()
                try:
                    resp = client.analyze(system)
                except ServeError as exc:  # RequestRejected: 429/503/504...
                    resp = exc
                results[i] = (1000 * (time.perf_counter() - t0), resp)

        threads = [threading.Thread(target=caller)
                   for _ in range(self.CALLERS)]
        phase.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase.stop()
        self.round = state["round"]
        phase.attempted = len(ops)
        for i, req in enumerate(ops):
            ms, resp = results[i]
            phase.outputs.append((req, ms, resp))
            if isinstance(resp, ServeError):
                phase.fail(f"request {i}: {resp}")
            elif not resp.ok:
                phase.fail(f"request {i}: {resp.status}: {resp.error}")
            else:
                phase.latencies_ms.append(ms)
        return phase

    def check(self, phase: Phase) -> List[str]:
        failures = []
        by_kind: Dict[str, List[float]] = {}
        for req, ms, resp in phase.outputs:
            if isinstance(resp, ServeError) or not resp.ok:
                continue
            kind = f"{'hit' if req.hit else 'miss'} {req.base}"
            by_kind.setdefault(kind, []).append(ms)
            got = resp.data.get("wcrt", {})
            if req.hit:
                want = self.answers[req.base]
                bad = R.check_same(got, want.data["wcrt"], f"hit {req.base}")
                if not resp.cached or resp.key != want.key:
                    bad.append(f"hit {req.base}: not served from the store")
            else:
                want = R.wcrt_of(propagation.analyze_system(
                    system_from_dict(req.system)))
                bad = R.check_same(got, want, f"miss {req.base}")
                if resp.cached:
                    bad.append(f"miss {req.base}: served from the store")
            if bad:
                failures.append(bad[0])
        print(f"[{self.name}] median latency (ms) by request kind: "
              + ", ".join(f"{kind} {median(v):.1f} (n={len(v)})"
                          for kind, v in sorted(by_kind.items())))
        return failures

    def close(self) -> None:
        if getattr(self, "daemon", None) is not None:
            self.daemon.stop()


WORKLOADS = {w.name: w for w in (ColdAnalyze, IncrementalSweep, ServedMix)}
