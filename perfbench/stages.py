"""Per-stage timings on the large covers, as medians of repeats.

Reproduces the stage table of the roadmap through this harness: each stage
is timed REPEATS times on one seeded relabelling of each cover and the
median is printed.  automorphism_group and the chain mode of
covering_group are not run on TS(7,1) and TS(8,1), whose uncoloured
search has not finished in reasonable time.  Not part of the gated
workloads; run it with

    python3 perfbench/run.py --stages --seed 1
"""
from __future__ import annotations

import json
import random
import statistics
import time

import corpus

COVERS = ("TS(5,1)", "TS(7,1)", "TS(8,1)", "TS(3,2)")
NO_AUT = ("TS(7,1)", "TS(8,1)")
REPEATS = 3  # per stage; the median is reported


def _median_time(fn):
    times, out = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main(cl, seed: int) -> int:
    table: dict[str, dict[str, float | None]] = {}
    for name in COVERS:
        spec = corpus.SPECS[name]
        base = corpus.build(cl.constructions, spec)
        g = base.relabelled(corpus.relabelling(
            random.Random(f"{seed}/{name}/0"), base.v))
        p = cl.params.derive_params(spec.n, spec.r, spec.mu)
        col = {}
        col["verify_cover"], _ = _median_time(
            lambda: cl.graphcore.verify_cover(g))
        col["spectrum_check"], _ = _median_time(
            lambda: cl.graphcore.spectrum_check(g, p))
        col["covering_group(g)"], _ = _median_time(
            lambda: cl.groupops.covering_group(g))
        if name in NO_AUT:
            col["automorphism_group"] = col["covering_group(g, aut)"] = None
        else:
            col["automorphism_group"], aut = _median_time(
                lambda: cl.autgroup.automorphism_group(g))
            if aut.order() != spec.aut_order:
                print(f"# FAIL {name}: |Aut| = {aut.order()}")
            col["covering_group(g, aut)"], _ = _median_time(
                lambda: cl.groupops.covering_group(g, aut))
        col["lines_from_cover"], _ = _median_time(
            lambda: cl.frames.lines_from_cover(g))
        table[name] = col
        print(f"# {name}: " + ", ".join(
            f"{k}={'-' if v is None else f'{v:.3f}'}" for k, v in col.items()),
            flush=True)

    stages = list(next(iter(table.values())))
    print(f"| stage (median of {REPEATS}, seed {seed}) | "
          + " | ".join(COVERS) + " |")
    print("| --- |" + " --- |" * len(COVERS))
    for st in stages:
        cells = ["not run" if table[c][st] is None else f"{table[c][st]:.3f} s"
                 for c in COVERS]
        print(f"| `{st}` | " + " | ".join(cells) + " |")
    print(json.dumps({"seed": seed, "repeats": REPEATS, "stages": table}))
    return 0
