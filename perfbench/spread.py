#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py [--workloads W ...] [--seeds 10] [--seconds S] [--out FILE]

Seeds 0 .. seeds-1, one run each, --trace 0.

For every end-to-end metric it prints the median of the runs and the spread
(distance between the first and third quartile, as a share of the median),
next to the bound in BENCHMARK.json; a spread over a third of the bound is
flagged.  The runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{out.stdout}")
    result["steal"] = json.loads(lines[-2]).get("machine_steal_frac")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write the medians, quartiles and raw values as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    ok = True
    for w in args.workloads:
        values: dict[str, list[float]] = {}
        steal = []
        for seed in range(args.seeds):
            res = run_once(w, seed, args.seconds)
            steal.append(res["steal"])
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                + f" steal={res['steal']}", flush=True)
        report[w] = {"machine_steal_frac": steal}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if k != "setup_s" and spread > bounds[k] / 3:
                flag = "  <-- over a third of the bound"
                ok = False
            report[w][k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"  {w:16} {k:12} median {med:12.6g}  spread {spread:7.2%}"
                  f"  bound {bounds[k]:.0%}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
