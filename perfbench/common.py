"""Shared plumbing of the benchmark: checkout layout, statistics,
process accounting and the result line.

Nothing here imports ``repro``: :func:`add_src_to_path` must run first,
and the set-up clock starts before it.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Directory of the benchmark; the checkout root is its parent.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of one run (stores, daemon cache dirs, trace dumps);
#: inside the checkout and listed in the root ``.gitignore``.
WORK_ROOT = ROOT / ".perfbench_work"

END_TO_END = ("setup_s", "throughput_per_s", "latency_p50_ms",
              "latency_p90_ms", "cpu_ms_per_op", "peak_rss_mb")
UNITS = {
    "setup_s": "s",
    "throughput_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms/op",
    "peak_rss_mb": "MB",
}


class CheckoutError(RuntimeError):
    """The program's sources are not where the benchmark expects them."""


def add_src_to_path() -> None:
    """Make the checkout's ``src`` importable, or fail loudly.

    The benchmark measures the program in its own checkout only; a
    ``repro`` installed elsewhere must never stand in for it.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no program sources at {SRC}/repro: run the benchmark from "
            f"the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child Python processes (daemon, set-up probes)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    data = sorted(values)
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# process accounting (Linux /proc; read-only)
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: Optional[int] = None) -> float:
    """User + system CPU seconds of a process, all threads included."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# ----------------------------------------------------------------------
# timed-phase bookkeeping
# ----------------------------------------------------------------------
class Phase:
    """Latencies and failures of one timed phase plus its resource use.

    ``pid`` names the process doing the analysis (``None``: this one).
    """

    def __init__(self, pid: Optional[int] = None):
        self.pid = pid
        #: Per-operation answers, kept for the checks after the phase.
        self.outputs: list = []
        self.latencies_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self._t0 = 0.0
        self._cpu0 = 0.0

    def start(self) -> None:
        self._cpu0 = process_cpu_s(self.pid)
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = process_cpu_s(self.pid) - self._cpu0
        self.rss_mb = peak_rss_mb(self.pid)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def extend(self, later: "Phase") -> None:
        """Add a later phase of the same workload to this one."""
        self.outputs += later.outputs
        self.latencies_ms += later.latencies_ms
        self.attempted += later.attempted
        self.failed += later.failed
        self.failures += later.failures[:20 - len(self.failures)]
        self.wall_s += later.wall_s
        self.cpu_s += later.cpu_s
        self.rss_mb = max(self.rss_mb, later.rss_mb)

    @property
    def completed(self) -> int:
        return len(self.latencies_ms)

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        done = max(self.completed, 1)
        return {
            "setup_s": setup_s,
            "throughput_per_s": self.completed / self.wall_s,
            "latency_p50_ms": percentile(self.latencies_ms, 50.0),
            "latency_p90_ms": percentile(self.latencies_ms, 90.0),
            "cpu_ms_per_op": 1000.0 * self.cpu_s / done,
            "peak_rss_mb": self.rss_mb,
        }


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, float], units: Dict[str, str]) -> None:
    """Print the result object as the last line of standard output."""
    out = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(out), flush=True)
