"""Output checks, run outside every timed phase.

Each check compares a result of the program against a computation made
apart from it, or against a property the method must have:

* :func:`textbook_spp` — the classic busy-window response-time analysis
  of static-priority preemptive scheduling (Lehoczky 1990, with the
  standard (P, J, d_min) arrival bounds), written from the textbook and
  used for single-hop SPP systems, where it is exact;
* :func:`check_hem_vs_flat` — the paper's claim: the hierarchical model
  never gives a larger response-time bound than the flat one;
* :func:`check_against_sim` — response times observed in ``repro.sim``
  never exceed the analytic bound;
* :func:`check_same` — equality with a reference answer (memo-free
  strict analysis with the compile cache cleared, or an earlier answer);
* :func:`check_monotone` — no WCRT decreases as the WCET grows.

Every check returns a list of failure strings; empty means passed.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro._errors import (AnalysisError, NotSchedulableError,
                           UnboundedStreamError)
from repro.eventmodels import compile as emc
from repro.sim.generators import random_jitter_arrivals, worst_case_arrivals
from repro.sim.system_sim import simulate_system
from repro.system.propagation import analyze_system
from repro.system.serialize import system_from_dict

#: Relative tolerance between the program and the textbook analysis,
#: and the absolute slack granted to simulated responses.
REL_TOL = 1e-9
SIM_SLACK = 1e-6

Wcrt = Dict[str, float]


def wcrt_of(result) -> Wcrt:
    """``{task: r_max}`` of a ``SystemResult``."""
    return {name: tr.r_max
            for rr in result.resource_results.values()
            for name, tr in rr.task_results.items()}


def reference_wcrt(system: Dict[str, Any]) -> Wcrt:
    """Memo-free strict analysis with the compile cache cleared."""
    emc.configure(reset_cache=True)
    return wcrt_of(analyze_system(system_from_dict(system)))


# ----------------------------------------------------------------------
# textbook SPP response-time analysis
# ----------------------------------------------------------------------
def _delta_min(src: Mapping[str, float], n: int) -> float:
    """Earliest distance spanned by *n* events of a (P, J, d) stream."""
    if n < 2:
        return 0.0
    return max((n - 1) * src["period"] - src["jitter"],
               (n - 1) * src["d_min"])


def _eta_plus(src: Mapping[str, float], window: float) -> int:
    """Most events of a (P, J, d) stream in a half-open window."""
    if window <= 0:
        return 0
    n = math.ceil((window + src["jitter"]) / src["period"])
    if src["d_min"] > 0:
        n = min(n, math.ceil(window / src["d_min"]))
    return max(n, 1)


def textbook_spp(system: Dict[str, Any]) -> Wcrt:
    """WCRT of every task of a single-hop SPP system.

    For task i with higher-priority set hp(i), the q-event busy time is
    the least fixed point of
    ``B(q) = q·C_i + Σ_{j∈hp(i)} η⁺_j(B(q))·C_j``; the WCRT is
    ``max_q B(q) - δ⁻_i(q)`` over q = 1, 2, ... while the (q+1)-th
    activation arrives before B(q).
    """
    sources = system["sources"]
    tasks = system["tasks"]
    out: Wcrt = {}
    for name, task in tasks.items():
        if system["resources"][task["resource"]]["policy"] != "spp":
            raise ValueError(f"{name}: not on an SPP resource")
        (src_name,) = task["inputs"]
        own = sources[src_name]
        hp = [(sources[t["inputs"][0]], t["c_max"])
              for other, t in tasks.items()
              if other != name and t["resource"] == task["resource"]
              and t["priority"] <= task["priority"]]
        wcrt = 0.0
        q = 1
        while True:
            busy = q * task["c_max"] + sum(c for _, c in hp)
            while True:
                nxt = q * task["c_max"] + sum(
                    _eta_plus(src, busy) * c for src, c in hp)
                if nxt <= busy:
                    break
                busy = nxt
            wcrt = max(wcrt, busy - _delta_min(own, q))
            if _delta_min(own, q + 1) >= busy:
                break
            q += 1
        out[name] = wcrt
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_textbook(system: Dict[str, Any], got: Wcrt) -> List[str]:
    expected = textbook_spp(system)
    return [f"{task}: analysis {got.get(task)!r} != textbook {want!r}"
            for task, want in sorted(expected.items())
            if got.get(task) is None or not _close(got[task], want)]


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
def check_hem_vs_flat(hem: Wcrt, flat_system: Dict[str, Any]
                      ) -> Tuple[List[str], int]:
    """Every task's HEM bound is at most its flat bound.

    Returns the failures and the number of tasks compared.  A flat
    variant the analysis rejects as unschedulable or as carrying an
    unbounded stream has unbounded WCRTs, so nothing is compared (0);
    any other analysis error (a flat variant that fails to converge,
    say) is a failure, never a vacuous pass.
    """
    try:
        flat = reference_wcrt(flat_system)
    except (NotSchedulableError, UnboundedStreamError):
        return [], 0
    except AnalysisError as exc:
        return [f"flat variant: {type(exc).__name__}: {exc}"], 0
    common = sorted(task for task in hem if task in flat)
    return ([f"{task}: HEM {hem[task]!r} > flat {flat[task]!r}"
             for task in common if hem[task] > flat[task] * (1 + REL_TOL)],
            len(common))


def check_against_sim(system: Dict[str, Any], got: Wcrt,
                      seed: int, periods: float = 40.0) -> List[str]:
    """Simulate critical-instant and seeded random-jitter arrivals over
    *periods* longest source periods; observed responses stay below
    the analytic WCRTs."""
    live = system_from_dict(system)
    models = {name: src.model for name, src in live.sources.items()}
    horizon = periods * max(m.period for m in models.values())
    rng = random.Random(f"perfbench-sim:{seed}")
    runs = [{name: worst_case_arrivals(m, horizon)
             for name, m in models.items()},
            {name: random_jitter_arrivals(
                m, horizon, rng=random.Random(rng.getrandbits(32)))
             for name, m in models.items()}]
    failures = []
    for arrivals in runs:
        recorder = simulate_system(live, arrivals, horizon).responses
        for task in recorder.tasks():
            seen = recorder.worst_case(task)
            if seen > got[task] + SIM_SLACK:
                failures.append(
                    f"{task}: simulated {seen!r} > WCRT {got[task]!r}")
    return failures


def check_same(got: Wcrt, want: Wcrt, what: str) -> List[str]:
    """Bit-identical WCRTs, the same task set included."""
    if got == want:
        return []
    bad = sorted(t for t in set(got) | set(want)
                 if got.get(t) != want.get(t))
    return [f"{what}: {t} got {got.get(t)!r}, reference {want.get(t)!r}"
            for t in bad[:5]]


def check_monotone(points: Sequence[float], wcrts: Sequence[Wcrt],
                   what: str) -> List[str]:
    """Along ascending WCET factors no task's WCRT may decrease."""
    order = sorted(range(len(points)), key=lambda i: points[i])
    failures = []
    for a, b in zip(order, order[1:]):
        for task, r in wcrts[a].items():
            if wcrts[b].get(task, math.inf) < r * (1 - REL_TOL):
                failures.append(
                    f"{what}: {task} WCRT falls from {r!r} to "
                    f"{wcrts[b][task]!r} as WCET grows "
                    f"{points[a]:.4f} -> {points[b]:.4f}")
    return failures
