"""Seeded inputs of the three workloads.

Every input is a serialised system dict (``repro.system_to_dict``), so
the program only ever sees generated data.  The structure of each
input is fixed (named generator seeds below); the workload seed
perturbs every WCET by a factor in ``[1 - WCET_JITTER, 1]`` and fixes
the order of operations.  Costs therefore stay put from seed to seed
while no two seeds feed the program identical numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.examples_lib.rox08 import build_system as build_rox08
from repro.examples_lib.synth import GraphSpace, synth_system, synth_task_graph
from repro.system.serialize import system_to_dict

#: Largest relative WCET reduction a seed applies.
WCET_JITTER = 0.001

POLICIES = ("spp", "spnp", "edf", "round_robin", "tdma")
#: Multi-hop graphs over every policy.
MIX_SPACE = GraphSpace(max_resources=4, max_sources=5, max_chain=3,
                       policies=POLICIES)
#: Larger graphs on EDF resources only: the local-analysis tail.
EDF_SPACE = GraphSpace(max_resources=2, max_sources=6, max_chain=3,
                       policies=("edf",), util_lo=0.4, util_hi=0.6)
#: Single-hop SPP systems: every task is activated by a source directly,
#: which the textbook analysis in ``reference.py`` covers exactly.
SINGLE_SPACE = GraphSpace(max_resources=2, max_sources=6, max_chain=1,
                          p_or_join=0.0, policies=("spp",),
                          util_lo=0.3, util_hi=0.7)

#: ``bench_compile`` gateway sizes: (signals, frames, base period).
GATEWAYS = ((16, 2, 800.0), (24, 3, 1400.0), (32, 4, 2000.0))


@dataclass
class Input:
    """One analysable system of a workload."""

    name: str
    kind: str  # "gateway", "flat", "graph" or "single"
    system: Dict[str, Any]
    #: Flat-variant twin of a gateway (same perturbation).
    flat: Optional[Dict[str, Any]] = None


def scale_wcet(system: Dict[str, Any], factor: float,
               tasks: Optional[List[str]] = None) -> Dict[str, Any]:
    """A copy of *system* with ``c_min``/``c_max`` of *tasks* (default
    all) multiplied by *factor*."""
    out = dict(system)
    out["tasks"] = {}
    for name, task in system["tasks"].items():
        task = dict(task)
        if tasks is None or name in tasks:
            task["c_min"] = task["c_min"] * factor
            task["c_max"] = task["c_max"] * factor
        out["tasks"][name] = task
    return out


def _factor(seed: int, name: str) -> float:
    rng = random.Random(f"perfbench:{seed}:{name}")
    return 1.0 - WCET_JITTER * rng.random()


def gateway(seed: int, name: str, hem_builder, flat_builder) -> Input:
    factor = _factor(seed, name)
    return Input(name, "gateway",
                 scale_wcet(system_to_dict(hem_builder()), factor),
                 flat=scale_wcet(system_to_dict(flat_builder()), factor))


def graph(seed: int, kind: str, space: GraphSpace, graph_seed: int,
          label: str) -> Input:
    name = f"{label}{graph_seed}"
    system = system_to_dict(synth_task_graph(graph_seed, space))
    return Input(name, kind, scale_wcet(system, _factor(seed, name)))


# ----------------------------------------------------------------------
# cold_analyze
# ----------------------------------------------------------------------
#: Fixed generator seeds: MIX covers all five policies between them,
#: EDF_HEAVY are the largest EDF graphs, SINGLE the single-hop SPP ones.
MIX_SEEDS = (2, 5, 8, 9, 12, 13)
EDF_HEAVY_SEEDS = (0, 7, 11)
SINGLE_SEEDS = (0, 2, 5, 6, 9)

#: Copies of each input in one round of ``cold_analyze`` (default 1).
#: With 21 operations sorted by cost, the median falls in the middle of
#: the two ``mix9`` calls and the 90th percentile in the middle of the
#: two ``synth24x3`` calls, each well apart from its neighbours in cost.
#: A percentile on the boundary between two inputs reads the slowest
#: call of one or the fastest of the other, and wandered by a quarter
#: from run to run.
COLD_COUNTS = {"synth24x3": 2, "mix9": 2}


def cold_inputs(seed: int) -> List[Input]:
    inputs = [
        gateway(seed, "rox08", lambda: build_rox08("hem"),
                lambda: build_rox08("flat")),
    ]
    for n, m, period in GATEWAYS:
        inputs.append(gateway(
            seed, f"synth{n}x{m}",
            lambda n=n, m=m, p=period: synth_system(n, m, base_period=p),
            lambda n=n, m=m, p=period: synth_system(
                n, m, variant="flat", base_period=p)))
    inputs += [graph(seed, "graph", MIX_SPACE, s, "mix")
               for s in MIX_SEEDS]
    inputs += [graph(seed, "graph", EDF_SPACE, s, "edf")
               for s in EDF_HEAVY_SEEDS]
    inputs += [graph(seed, "single", SINGLE_SPACE, s, "single")
               for s in SINGLE_SEEDS]
    # rox08's flat variant is an input of its own, not only a reference.
    rox = inputs[0]
    inputs.insert(1, Input("rox08flat", "flat", rox.flat))
    return inputs


def cold_round(inputs: List[Input], seed: int, index: int) -> List[Input]:
    """The operations of round *index*: every input ``COLD_COUNTS``
    times (default once), in a seeded order."""
    ops = []
    for inp in inputs:
        ops += [inp] * COLD_COUNTS.get(inp.name, 1)
    random.Random(f"perfbench-cold:{seed}:{index}").shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# incremental_sweep
# ----------------------------------------------------------------------
@dataclass
class Sweep:
    """One single-axis sweep: ``axis`` is ``"wcet"`` or ``"period"``."""

    name: str
    base: Dict[str, Any]
    axis: str
    values: Tuple[float, ...]
    targets: Optional[Tuple[str, ...]] = None


#: Grid of every sweep; the seed shifts it by up to SWEEP_SHIFT.
WCET_GRID = (0.80, 0.85, 0.90, 0.95, 1.00, 1.05)
PERIOD_GRID = (0.95, 1.00, 1.05, 1.10, 1.15, 1.20)
SWEEP_SHIFT = 0.01
#: EDF-only graph of the sweeps: 8 tasks, and a warm 6-point sweep over
#: it costs about a third of one over the larger EDF graph 0.
SWEEP_EDF_SEED = 8


def sweeps(seed: int) -> List[Sweep]:
    rng = random.Random(f"perfbench-sweep:{seed}")
    synth = synth_system(32, 4, base_period=2000.0)
    synth_dict = system_to_dict(synth)
    edf_dict = system_to_dict(synth_task_graph(SWEEP_EDF_SEED, EDF_SPACE))
    low = max(synth_dict["tasks"],
              key=lambda t: (synth_dict["tasks"][t]["resource"] == "CPU",
                             synth_dict["tasks"][t]["priority"] or 0))
    edf_task = sorted(edf_dict["tasks"])[0]

    def grid(values):
        shift = SWEEP_SHIFT * rng.random()
        return tuple(v + shift for v in values)

    return [
        Sweep("synth32x4-wcet-one", synth_dict, "wcet", grid(WCET_GRID),
              (low,)),
        Sweep("synth32x4-wcet-all", synth_dict, "wcet", grid(WCET_GRID)),
        Sweep("synth32x4-period-S1", synth_dict, "period",
              grid(PERIOD_GRID), ("S1",)),
        Sweep(f"edf{SWEEP_EDF_SEED}-wcet-one", edf_dict, "wcet",
              grid(WCET_GRID), (edf_task,)),
        Sweep(f"edf{SWEEP_EDF_SEED}-period-all", edf_dict, "period",
              grid(PERIOD_GRID)),
    ]


def sweep_round(all_sweeps: List[Sweep], seed: int,
                index: int) -> List[Sweep]:
    ops = list(all_sweeps)
    random.Random(f"perfbench-sweep-order:{seed}:{index}").shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# served_mix
# ----------------------------------------------------------------------
#: Requests per round.
SERVED_ROUND = 20


def served_bases(seed: int) -> List[Input]:
    """Systems the served requests are drawn from."""
    out = [
        Input("rox08", "gateway",
              scale_wcet(system_to_dict(build_rox08("hem")),
                         _factor(seed, "served-rox08"))),
        Input("rox08flat", "gateway",
              scale_wcet(system_to_dict(build_rox08("flat")),
                         _factor(seed, "served-rox08flat"))),
    ]
    for n, m in ((8, 1), (12, 2)):
        out.append(Input(
            f"synth{n}x{m}", "gateway",
            scale_wcet(system_to_dict(synth_system(n, m)),
                       _factor(seed, f"served-synth{n}x{m}"))))
    return out


#: Bases whose WCET-scaled variants are the misses, and how many of
#: each one round holds.  ``synth12x2``, the costliest, makes 4 of the
#: 20 requests, so the top 20% of latencies are mostly its misses and
#: the 90th percentile falls in the middle of them rather than on the
#: boundary with the next-costliest base (``synth8x1``, then ``rox08``).
MISS_MIX = (("synth12x2", 4), ("synth8x1", 1), ("rox08", 1))
SERVED_MISSES = sum(n for _, n in MISS_MIX)


@dataclass
class Request:
    hit: bool
    base: str
    system: Dict[str, Any]


def served_round(bases: List[Input], seed: int,
                 index: int) -> List[Request]:
    """Round *index*: ``SERVED_ROUND - SERVED_MISSES`` hits cycling over
    every base, and ``SERVED_MISSES`` misses after ``MISS_MIX``, each a
    variant never sent before (a WCET factor drawn fresh from the seed
    and round)."""
    rng = random.Random(f"perfbench-served:{seed}:{index}")
    by_name = {b.name: b for b in bases}
    ops = [Request(True, bases[i % len(bases)].name,
                   bases[i % len(bases)].system)
           for i in range(SERVED_ROUND - SERVED_MISSES)]
    for base in (b for b, n in MISS_MIX for _ in range(n)):
        factor = 1.0 - WCET_JITTER * rng.random()
        ops.append(Request(False, base,
                           scale_wcet(by_name[base].system, factor)))
    rng.shuffle(ops)
    return ops
