"""Steadiness of the benchmark: run every workload N times, each with
another seed, and compare each end-to-end metric's spread with its
bound.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10                 # all workloads
    python3 perfbench/steady.py --runs 5 --workloads served_mix
    python3 perfbench/steady.py --runs 10 --save a.json   # keep the values
    python3 perfbench/steady.py --runs 10 --against a.json

Spread is ``(Q3 - Q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric is ``steady`` when its
spread is below a third of its bound, ``within`` when below the bound
and ``NOISY`` otherwise; ``setup_s`` is judged like every other
metric.  With
``--against`` each median is also compared with the median of an
earlier set: ``WORSE`` marks a metric worse by more than its bound, the
test two sets of runs of the same code must pass.  The share of failed
operations is printed per workload and must be the same in two sets.
Exit status 1 when a run failed or a check above did not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}:\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, default=None,
                        help="write the per-run values as JSON")
    parser.add_argument("--against", type=Path, default=None,
                        help="compare medians with a saved set")
    args = parser.parse_args(argv)
    metrics = spec["end_to_end"]
    earlier = (json.loads(args.against.read_text())
               if args.against else {})

    ok = True
    saved = {}
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            result = run_once(spec, workload, args.first_seed + i)
            runs.append(result)
            print(f"{workload} seed {args.first_seed + i}: "
                  f"{result['elapsed_s']:.1f}s, attempted "
                  f"{result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}", flush=True)
            ok &= bool(result["correct"])
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: failed {failed}/{attempted}, "
              f"per-run failed shares {shares}")
        values = {m["name"]: [r["metrics"][m["name"]]["value"]
                              for r in runs] for m in metrics}
        saved[workload] = {"values": values, "failed_shares": shares}
        print(f"  {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med, q1, q3, spread = summary(values[name])
            verdict = ("steady" if spread < bound / 3
                       else "within" if spread <= bound else "NOISY")
            if verdict == "NOISY":
                ok = False
            line = (f"  {name:<18} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                    f"{spread:>8.4f} {bound:>6.3f}  {verdict}")
            before = earlier.get(workload, {}).get("values", {}).get(name)
            if before:
                old = statistics.median(before)
                change = (med - old) / old
                worse = change if m["better"] == "lower" else -change
                line += f"  vs earlier {old:.4f} ({change:+.2%})"
                if worse > bound:
                    line += " WORSE"
                    ok = False
            print(line)
        if workload in earlier and \
                earlier[workload]["failed_shares"] != shares:
            print(f"  failed shares differ from the earlier set: "
                  f"{earlier[workload]['failed_shares']}")
            ok = False
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
