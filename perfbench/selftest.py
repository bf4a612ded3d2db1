"""Self-test of the output checks: each check passes on the program's
real answer and reports a failure when fed a deliberately perturbed
bound.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Exit status 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import math
import sys

from common import add_src_to_path


def perturbed(wcrt, task, factor):
    out = dict(wcrt)
    out[task] = wcrt[task] * factor
    return out


def main() -> int:
    add_src_to_path()
    import inputs as I
    import reference as R

    by_name = {inp.name: inp for inp in I.cold_inputs(seed=1)}
    single = by_name[f"single{I.SINGLE_SEEDS[0]}"]
    graph = by_name[f"mix{I.MIX_SEEDS[0]}"]
    rox = by_name["rox08"]

    cases = []
    got = R.reference_wcrt(single.system)
    task = max(got, key=got.get)
    cases.append(("textbook SPP", R.check_textbook(single.system, got),
                  R.check_textbook(single.system,
                                   perturbed(got, task, 0.999))))
    got = R.reference_wcrt(rox.system)
    flat = R.reference_wcrt(rox.flat)
    task = max(got, key=lambda t: flat[t] - got[t])
    clean, compared = R.check_hem_vs_flat(got, rox.flat)
    if not compared:
        clean = clean or ["no task compared"]
    cases.append(("HEM <= flat", clean,
                  R.check_hem_vs_flat(
                      perturbed(got, task, 1.001 * flat[task] / got[task]),
                      rox.flat)[0]))
    # A flat variant that fails to converge (its sources stretched into
    # the non-converging range of EDF graph 0) is a failure, not an
    # unbounded flat bound that passes vacuously.
    stuck = I.graph(1, "graph", I.EDF_SPACE, 0, "edf").system
    for src in stuck["sources"].values():
        for key in ("period", "jitter", "d_min"):
            src[key] *= 1.1
    cases.append(("HEM <= non-converging flat", clean,
                  R.check_hem_vs_flat(got, stuck)[0]))
    got = R.reference_wcrt(graph.system)
    task = max(got, key=got.get)
    cases.append(("simulation", R.check_against_sim(graph.system, got, 1),
                  R.check_against_sim(graph.system,
                                      perturbed(got, task, 0.5), 1)))
    nudged = dict(got)
    nudged[task] = math.nextafter(got[task], math.inf)
    cases.append(("equal answers", R.check_same(got, dict(got), "same"),
                  R.check_same(nudged, got, "same")))
    small = perturbed(got, task, 0.99)
    cases.append(("monotone in WCET",
                  R.check_monotone([1.0, 1.1], [small, got], "sweep"),
                  R.check_monotone([1.0, 1.1], [got, small], "sweep")))

    ok = True
    for name, clean, dirty in cases:
        good = not clean and bool(dirty)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: real answer "
              f"{'passes' if not clean else 'FAILS: ' + clean[0]}; "
              f"perturbed bound "
              f"{'reported: ' + dirty[0] if dirty else 'NOT reported'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
