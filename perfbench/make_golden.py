#!/usr/bin/env python3
"""Regenerate perfbench/golden.json, the digests the benchmark checks outputs against.

    python3 perfbench/make_golden.py

Runs serially (FUNNEL_NAV_THREADS=1), so a benchmark run with the default
thread pool that matches these digests also shows the pool changes no byte.

For every shipped scenario and controller it stores the sha256 of each run's
trace for noise seeds 0 .. GOLDEN_SEEDS + runs - 2, where runs is the number
of runs the benchmark makes (run.REPEAT_RUNS at most), so benchmark seeds
0 .. GOLDEN_SEEDS - 1 are fully covered (run i of seed s uses noise seed s + i).
For each oracle grid it stores the sha256 of its verdict vectors, which no
seed affects.  A change that alters the noise stream or any trace byte on
purpose regenerates this file and says why.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

os.environ["FUNNEL_NAV_THREADS"] = "1"

import run  # noqa: E402  (the benchmark module in this directory)

GOLDEN_SEEDS = 64


def main() -> int:
    run._import_program()
    from funnelnav import evaluate

    golden = {"golden_seeds": GOLDEN_SEEDS, "repeat": {}, "oracle": {}}
    units = run.setup("repeat_sloped", 0)
    for controller in ("sloped", "standard"):
        per = golden["repeat"][controller] = {}
        for scn, path in units:
            wide = replace(scn, seed=0, runs=GOLDEN_SEEDS + scn.runs - 1)
            rep = evaluate.run_scenario(wide, controller=controller, path=path)
            per[scn.name] = [run.run_digest(tr.jsonl_lines()) for tr in rep.traces]
            print(f"{controller:>8} {scn.name}: {len(rep.traces)} runs", flush=True)
    for scn, kf, grid in run.setup("oracle_grid", 0):
        oracle = evaluate.funnel_oracle(kf, scn.world, scn.camera, grid)
        claimed = evaluate.controller_inside_grid(kf, scn.world, scn.camera, grid)
        golden["oracle"][scn.name] = run.verdict_digest(oracle, claimed)
        agree = sum(a == b for a, b in zip(oracle, claimed)) / len(oracle)
        print(f"oracle {scn.name}: agreement {agree}", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
