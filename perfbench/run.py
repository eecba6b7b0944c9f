#!/usr/bin/env python3
"""funnelnav benchmark: three workloads over the library's public entry points.

    python3 perfbench/run.py --workload repeat_sloped --seed 0 --seconds 20 --trace 0

Workloads (closed loop; the only threads are the ones run_scenario's own
pool starts, with FUNNEL_NAV_THREADS removed so the pool has its default size):

  repeat_sloped    run_scenario(controller="sloped") on all 11 shipped
                   scenarios with up to REPEAT_RUNS seeded runs each, then
                   jsonl_lines() on every trace; an op is one trace record
  repeat_standard  the same with controller="standard"
  oracle_grid      funnel_oracle + controller_inside_grid on the oracle: blocks
                   of funnel_two_features and almost_straight; an op is one
                   grid pose

--seed is applied as the scenario seed (run i of a scenario uses seed + i).
A unit is one scenario (or one grid).  The untraced measurement runs in
WORKERS processes one after another; each sets up SETUP_REPS times, then
times units round-robin for its share of --seconds.  A metric is the sum over
units of each unit's median sample.  Every output is checked: each run trace
against perfbench/golden.json (sha256 per run, for the seeds it covers), the
trace invariants and the same digests in every sample; each grid against its
golden digest, with oracle agreement 1.0.

--trace 0 prints the end-to-end metrics.  --trace 1 makes the same untraced
measurement, then traces one set-up and one pass over all units in this
process with every boundary in sites() wrapped, prints the per-layer
metrics and writes the spans to .perfbench_out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
GOLDEN = HERE / "golden.json"
OUT = ROOT / ".perfbench_out"

REPEAT_WORKLOADS = {"repeat_sloped": "sloped", "repeat_standard": "standard"}
ORACLE_SCENARIOS = ("funnel_two_features", "almost_straight")
WORKLOADS = (*REPEAT_WORKLOADS, "oracle_grid")
SETUP_REPS = 3  # set-ups per measuring process; setup_s is the median of all
WORKERS = 4  # measuring processes per run, one after another
WORKER_TIMEOUT_S = 150
REPEAT_RUNS = 4  # seeded runs per scenario in the repeat workloads (shipped: up to 10)
TERMINAL_EVENTS = ("done", "lost", "timeout", "collision")


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "funnelnav" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        _fail(f"no funnelnav sources under {ROOT}: expected src/funnelnav and scenarios/")
    sys.path.insert(0, str(SRC))
    import funnelnav  # noqa: F401  (fail here, before any timing, if it cannot load)


# --- digests ----------------------------------------------------------------

def run_digest(lines: list[str]) -> str:
    """sha256 of a run trace exactly as RunTrace.write puts it on disk."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def verdict_digest(oracle: list[bool], claimed: list[bool]) -> str:
    """sha256 of the (oracle, controller) verdict vectors of one grid."""
    bits = "".join("1" if b else "0" for b in oracle) + "\n"
    bits += "".join("1" if b else "0" for b in claimed) + "\n"
    return hashlib.sha256(bits.encode()).hexdigest()


def trace_ok(lines: list[str]) -> bool:
    """Invariants every trace holds: one terminal record, last, matching the summary."""
    summary = json.loads(lines[-1])
    records = len(lines) - 1
    if not summary.get("summary") or summary["ticks"] != records or records < 1:
        return False
    if summary["outcome"] not in TERMINAL_EVENTS:
        return False
    last = json.loads(lines[-2])
    if last["event"] != summary["outcome"]:
        return False
    return not any(f'"event": "{e}"' in line for line in lines[:-2] for e in TERMINAL_EVENTS)


# --- set-up -----------------------------------------------------------------

def oracle_spec(scn, raw: dict):
    """Keyframe index and GridSpec of a scenario's oracle: block, as the CLI reads it.

    Parsed here rather than through the CLI's private helper, so the
    benchmark keeps working when that parsing moves into the library.
    """
    from funnelnav.evaluate import GridSpec

    o = raw.get("oracle") or {}
    g = o.get("grid", {})
    xmin, ymin, xmax, ymax = scn.world.bounds
    grid = GridSpec(
        x0=float(g.get("x0", xmin)),
        x1=float(g.get("x1", xmax)),
        nx=int(g.get("nx", 200)),
        y0=float(g.get("y0", ymin)),
        y1=float(g.get("y1", ymax)),
        ny=int(g.get("ny", 200)),
    )
    return int(o.get("keyframe", -1)), grid


def setup(workload: str, seed: int) -> list:
    """Load the workload's scenarios and teach their paths (the timed set-up)."""
    import yaml
    from funnelnav import evaluate, teach

    units = []
    if workload in REPEAT_WORKLOADS:
        for f in sorted(SCENARIOS.glob("*.yaml")):
            scn = evaluate.load_scenario(f)
            scn = replace(scn, seed=seed, runs=min(scn.runs, REPEAT_RUNS))
            path = teach.record(scn.world, scn.camera, scn.script, scn.min_teach_features)
            units.append((scn, path))
        return units
    for name in ORACLE_SCENARIOS:
        f = SCENARIOS / f"{name}.yaml"
        scn = replace(evaluate.load_scenario(f), seed=seed)
        with open(f) as fh:
            kf_index, grid = oracle_spec(scn, yaml.safe_load(fh))
        path = teach.record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        units.append((scn, path.keyframes[kf_index], grid))
    return units


# --- passes -----------------------------------------------------------------

class Checker:
    """Counts attempted and failed ops-level outputs and keeps each unit's digests."""

    def __init__(self, golden: dict, seed: int):
        self.golden = golden
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0
        self.first: dict = {}  # unit name -> digests of its first sample
        self.nondeterministic = 0
        self.agreement: dict = {}

    def _same_as_first(self, key, digests) -> bool:
        ok = self.first.setdefault(key, digests) == digests
        self.nondeterministic += not ok
        return ok

    def repeat_unit(self, controller: str, name: str, runs: list[list[str]] | None, n: int):
        self.attempted += n
        if runs is None:
            self.failed += n
            return
        gold = self.golden["repeat"][controller].get(name, [])
        digests = [run_digest(lines) for lines in runs]
        same = self._same_as_first(name, digests)
        for i, (lines, d) in enumerate(zip(runs, digests)):
            ok = same and trace_ok(lines)
            if 0 <= self.seed + i < len(gold):
                self.golden_checked += 1
                ok = ok and d == gold[self.seed + i]
            self.failed += not ok

    def oracle_unit(self, name: str, oracle, claimed, n: int):
        self.attempted += n
        if oracle is None:
            self.failed += n
            return
        d = verdict_digest(oracle, claimed)
        gold = self.golden["oracle"].get(name)
        if not self._same_as_first(name, d) or gold not in (None, d):
            self.failed += n
            return
        self.golden_checked += gold is not None
        bad = sum(a != b for a, b in zip(oracle, claimed))
        self.agreement[name] = 1.0 - bad / n
        self.failed += bad

    def state(self) -> dict:
        return {k: getattr(self, k) for k in (
            "attempted", "failed", "golden_checked", "nondeterministic", "first", "agreement")}

    def merge(self, other: dict) -> None:
        """Add another process's counts; its first digests must equal ours."""
        for k in ("attempted", "failed", "golden_checked", "nondeterministic"):
            setattr(self, k, getattr(self, k) + other[k])
        for key, digests in other["first"].items():
            self._same_as_first(key, digests)
        for name, a in other["agreement"].items():
            self.agreement[name] = min(a, self.agreement.get(name, a))

    def digest(self) -> str:
        """One digest over every unit's first-sample digests, comparable across commits."""
        h = hashlib.sha256()
        for key in sorted(self.first):
            h.update(json.dumps([key, self.first[key]]).encode())
        return h.hexdigest()


def run_unit(workload: str, unit, check: Checker) -> tuple:
    """Time one scenario (repeat workloads) or one grid (oracle_grid), then check
    its outputs; returns (wall_s, cpu_s, ops, stopped ticks).

    Only the library calls are timed: run_scenario plus jsonl_lines() on every
    trace, or funnel_oracle plus controller_inside_grid.  A call that raises
    counts its runs or poses as failed.
    """
    from funnelnav import evaluate

    w0, c0 = time.perf_counter(), time.process_time()
    if workload in REPEAT_WORKLOADS:
        controller = REPEAT_WORKLOADS[workload]
        scn, path = unit
        try:
            rep = evaluate.run_scenario(scn, controller=controller, path=path)
            runs = [tr.jsonl_lines() for tr in rep.traces]
        except Exception:
            print(f"perfbench: {scn.name}/{controller} raised", file=sys.stderr)
            traceback.print_exc()
            runs = None
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        check.repeat_unit(controller, scn.name, runs, scn.runs)
        runs = runs or []
        ops = sum(len(lines) - 1 for lines in runs)
        stopped = sum('"event": "stopped"' in line for lines in runs for line in lines)
        return wall, cpu, ops, stopped
    scn, kf, grid = unit
    try:
        oracle = evaluate.funnel_oracle(kf, scn.world, scn.camera, grid)
        claimed = evaluate.controller_inside_grid(kf, scn.world, scn.camera, grid)
    except Exception:
        print(f"perfbench: oracle grid {scn.name} raised", file=sys.stderr)
        traceback.print_exc()
        oracle = claimed = None
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    n = grid.nx * grid.ny
    check.oracle_unit(scn.name, oracle, claimed, n)
    return wall, cpu, n, 0


def sample_units(workload: str, units, check: Checker, start: int, min_units: int,
                 seconds: float) -> list[tuple]:
    """Run units round-robin from index `start`: at least `min_units`, then more
    while one more still fits in `seconds`.  Returns (index, *run_unit(...))."""
    samples = []
    t0 = time.perf_counter()
    while True:
        k = (start + len(samples)) % len(units)
        samples.append((k, *run_unit(workload, units[k], check)))
        n = len(samples)
        if n >= min_units and (time.perf_counter() - t0) * (n + 1) / n > seconds:
            return samples


def combine(samples) -> tuple:
    """One pass's (wall_s, cpu_s, ops, stopped): per unit the median of its
    samples, summed over units, so a burst of load on the machine during one
    sample stays out of the figure."""
    by_unit: dict[int, list] = {}
    for k, *sample in samples:
        by_unit.setdefault(k, []).append(sample)
    per_unit = by_unit.values()
    return (
        sum(statistics.median(s[0] for s in u) for u in per_unit),
        sum(statistics.median(s[1] for s in u) for u in per_unit),
        sum(u[0][2] for u in per_unit),
        sum(u[0][3] for u in per_unit),
    )


def worker(args) -> int:
    """One measuring process: set-up SETUP_REPS times, then sample_units()."""
    check = Checker(json.loads(GOLDEN.read_text()), args.seed)
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        units = setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
    samples = sample_units(args.workload, units, check, args.start, args.min_units, args.seconds)
    print(json.dumps({
        "n_units": len(units),
        "setup_s": setup_times,
        "samples": samples,
        "check": check.state(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


def _cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat; None where unreadable."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def measure(workload: str, seed: int, seconds: float, check: Checker) -> dict:
    """The untraced measurement, spread over WORKERS processes run one after another.

    On a shared 2-vCPU VM the same code ran up to 10% faster or slower in one
    process than in the next, against about 3% between samples inside one
    process, so each process measures a share of the time and the per-unit
    medians pool samples from several processes.  Each process continues
    the round-robin where the previous one stopped, and the last one runs at
    least until every unit has a sample.
    """
    results = []
    start = 0
    n_units = None
    jiffies0 = _cpu_jiffies()
    t0 = time.perf_counter()
    for j in range(WORKERS):
        budget = max(0.0, seconds - (time.perf_counter() - t0)) / (WORKERS - j)
        last = j == WORKERS - 1
        min_units = max(1, n_units - start) if last and n_units else 1
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--workload", workload, "--seed", str(seed), "--seconds", repr(budget),
               "--start", str(start), "--min-units", str(min_units)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            _fail(f"measuring process exited with {out.returncode}")
        r = json.loads(out.stdout.strip().splitlines()[-1])
        n_units = r["n_units"]
        start += len(r["samples"])
        check.merge(r["check"])
        results.append(r)
    samples = [s for r in results for s in r["samples"]]
    wall, cpu, ops, _ = combine(samples)
    jiffies1 = _cpu_jiffies()
    steal = None
    if jiffies0 and jiffies1 and jiffies1[1] > jiffies0[1]:
        steal = (jiffies1[0] - jiffies0[0]) / (jiffies1[1] - jiffies0[1])
    return {
        "setup_s": statistics.median(t for r in results for t in r["setup_s"]),
        "wall": wall,
        "cpu": cpu,
        "ops": ops,
        "samples": len(samples),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        # share of the machine's CPU time the hypervisor gave to other guests
        # during the measurement; wall times of the pool workloads rise with it
        "steal_frac": steal,
    }


# --- tracing ----------------------------------------------------------------

def sites():
    """Every wrapped boundary as (owner, attribute, site), site = module.attribute."""
    # import_module: the package re-exports the navigate() function under the
    # submodule's name
    control_sloped, evaluate, features, navigate, teach = (
        importlib.import_module(f"funnelnav.{m}")
        for m in ("control_sloped", "evaluate", "features", "navigate", "teach")
    )
    mods = {
        "navigate": (navigate, ("visible_set", "match", "perturb", "should_switch",
                                "std_ratio", "median_distance", "mse", "standard_command",
                                "inside_funnel", "sloped_command", "step", "in_collision")),
        "features": (features, ("perturb",)),
        "control_sloped": (control_sloped, ("std_ratio",)),
        "evaluate": (evaluate, ("navigate", "record", "visible_set", "match", "inside_funnel",
                                "run_scenario", "funnel_oracle", "controller_inside_grid",
                                "load_scenario")),
        "teach": (teach, ("record",)),
    }
    out = [(mod, attr, f"{key}.{attr}") for key, (mod, attrs) in mods.items() for attr in attrs]
    out.append((navigate.RunTrace, "jsonl_lines", "RunTrace.jsonl_lines"))
    return out


# layer -> the sites whose self time and calls it sums
LAYERS = {
    "geometry.visible_set": ("navigate.visible_set", "evaluate.visible_set"),
    "geometry.step": ("navigate.step",),
    "geometry.in_collision": ("navigate.in_collision",),
    "features.match": ("navigate.match", "evaluate.match"),
    "features.perturb": ("navigate.perturb", "features.perturb"),
    "features.std_ratio": ("navigate.std_ratio", "control_sloped.std_ratio"),
    "features.median_distance": ("navigate.median_distance",),
    "features.mse": ("navigate.mse",),
    "control_sloped.sloped_command": ("navigate.sloped_command",),
    "control_standard.standard_command": ("navigate.standard_command",),
    "control_standard.inside_funnel": ("navigate.inside_funnel", "evaluate.inside_funnel"),
    "navigate": ("evaluate.navigate",),
    "navigate.should_switch": ("navigate.should_switch",),
    "navigate.jsonl_lines": ("RunTrace.jsonl_lines",),
    "evaluate.run_scenario": ("evaluate.run_scenario",),
    "evaluate.funnel_oracle": ("evaluate.funnel_oracle",),
    "evaluate.controller_inside_grid": ("evaluate.controller_inside_grid",),
    "teach.record": ("teach.record", "evaluate.record"),
    "evaluate.load_scenario": ("evaluate.load_scenario",),
}
STATS = ("features.std_ratio", "features.median_distance", "features.mse")

# which layers the baseline profile says lead each repeat workload
EXPECTED_LEADERS = {
    "repeat_sloped": {"features.stats", "control_sloped.sloped_command"},
    "repeat_standard": {"features.stats", "geometry.visible_set"},
}


def layer_table(summ: dict) -> dict:
    """Tracer summary by site -> calls and seconds by layer (see LAYERS)."""
    idx = {n: i for i, n in enumerate(summ["names"])}
    table = {}
    for layer, names in LAYERS.items():
        table[layer] = {
            "calls": sum(summ["calls"][idx[n]] for n in names),
            "self_s": sum(summ["self_s"][idx[n]] for n in names),
            "total_s": sum(summ["total_s"][idx[n]] for n in names),
            "cpu_s": sum(summ["cpu_s"][idx[n]] for n in names),
        }
    table["features.stats"] = {
        "calls": sum(table[k]["calls"] for k in STATS),
        "self_s": sum(table[k]["self_s"] for k in STATS),
    }
    table["navigate.match@navigate"] = {"calls": summ["calls"][idx["navigate.match"]]}
    return table


def traced(fn, *args):
    """Run fn(*args) with every site wrapped; returns (result, summary, spans)."""
    from tracer import Tracer

    tr = Tracer(sites(), cpu_sites=("evaluate.navigate",))
    tr.install()
    try:
        result = fn(*args)
    finally:
        tr.uninstall()
    return result, tr.summary(), tr.spans()


def per_layer_metrics(workload, setup_summ, work_summ, traced_pass, untraced_us) -> tuple[dict, list, dict]:
    """The per-layer metrics from the traced set-up and the traced pass, the
    layers ranked by self-time share, and the accounting of the timed wall."""
    wall, _, ops, stopped = traced_pass
    t = layer_table(work_summ)
    s = layer_table(setup_summ)
    c = work_summ["counts"]
    ticks = ops if workload in REPEAT_WORKLOADS else 0
    per_tick = (lambda n: n / ticks) if ticks else (lambda n: 0.0)
    rs = t["evaluate.run_scenario"]
    traced_us = 1e6 * wall / ops
    m = {
        "ops": (ops, "count"),
        "geometry.visible_set.calls": (t["geometry.visible_set"]["calls"], "count"),
        "geometry.visible_set.self_s": (t["geometry.visible_set"]["self_s"], "s"),
        "geometry.visible_set.landmarks_tested": (c["tested"], "count"),
        "geometry.visible_set.hit_ratio": (c["visible"] / c["tested"] if c["tested"] else 0.0, "ratio"),
        "geometry.step.self_s": (t["geometry.step"]["self_s"], "s"),
        "geometry.in_collision.self_s": (t["geometry.in_collision"]["self_s"], "s"),
        "features.match.calls": (t["features.match"]["calls"], "count"),
        "features.match.self_s": (t["features.match"]["self_s"], "s"),
        "features.match.kept_ratio": (c["kept"] / c["candidates"] if c["candidates"] else 0.0, "ratio"),
        "features.perturb.calls": (t["features.perturb"]["calls"], "count"),
        "features.perturb.self_s": (t["features.perturb"]["self_s"], "s"),
        "features.stats.self_s": (t["features.stats"]["self_s"], "s"),
        "features.std_ratio.calls_per_tick": (per_tick(t["features.std_ratio"]["calls"]), "1/tick"),
        "features.median_distance.calls_per_tick": (per_tick(t["features.median_distance"]["calls"]), "1/tick"),
        "control_sloped.sloped_command.self_s": (t["control_sloped.sloped_command"]["self_s"], "s"),
        "control_standard.standard_command.self_s": (t["control_standard.standard_command"]["self_s"], "s"),
        "control_standard.inside_funnel.self_s": (t["control_standard.inside_funnel"]["self_s"], "s"),
        "navigate.self_s": (t["navigate"]["self_s"], "s"),
        "navigate.wait_frac": (
            1.0 - t["navigate"]["cpu_s"] / t["navigate"]["total_s"] if t["navigate"]["total_s"] else 0.0,
            "ratio"),
        "navigate.should_switch.self_s": (t["navigate.should_switch"]["self_s"], "s"),
        "navigate.rematch_ratio": (per_tick(t["navigate.match@navigate"]["calls"]), "ratio"),
        "navigate.stopped_frac": (per_tick(stopped), "ratio"),
        "navigate.jsonl_lines.self_s": (t["navigate.jsonl_lines"]["self_s"], "s"),
        "evaluate.run_scenario.self_s": (rs["self_s"], "s"),
        "evaluate.pool.concurrency": (
            t["navigate"]["total_s"] / rs["total_s"] if rs["total_s"] else 0.0, "ratio"),
        "evaluate.funnel_oracle.self_s": (t["evaluate.funnel_oracle"]["self_s"], "s"),
        "evaluate.controller_inside_grid.self_s": (t["evaluate.controller_inside_grid"]["self_s"], "s"),
        "teach.record.self_s": (s["teach.record"]["self_s"], "s"),
        "evaluate.load_scenario.self_s": (s["evaluate.load_scenario"]["self_s"], "s"),
        "trace.us_per_op": (traced_us, "us"),
        "trace.overhead_us_per_op": (traced_us - untraced_us, "us"),
        "accounting.unattributed_frac": ((wall - work_summ["root_s"]) / wall, "ratio"),
    }
    # self-time shares of the layers, largest first; with the pool the self
    # times add up to thread time, which exceeds the wall time
    shares = {k: v["self_s"] for k, v in t.items() if "self_s" in v and k not in STATS}
    total = sum(shares.values()) or 1.0
    ranked = sorted(((v / total, k) for k, v in shares.items()), reverse=True)
    accounting = {
        "timed_wall_s": wall,
        "covered_by_root_spans_s": work_summ["root_s"],
        "self_sum_s": sum(shares.values()),
        "unattributed_s": wall - work_summ["root_s"],
    }
    return m, ranked, accounting


# --- provenance -------------------------------------------------------------

def git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy
    from funnelnav import evaluate

    max_workers = getattr(evaluate, "_max_workers", lambda: 1)
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pool_workers": max_workers(),
    }


# --- main -------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--start", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--min-units", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        _fail("--seed and --seconds must not be negative")

    os.environ.pop("FUNNEL_NAV_THREADS", None)  # measure the pool users get
    _import_program()
    if not GOLDEN.is_file():
        _fail(f"missing {GOLDEN}")
    if args.worker:
        return worker(args)
    print(json.dumps({"provenance": provenance(args.workload, args.seed)}), flush=True)

    check = Checker(json.loads(GOLDEN.read_text()), args.seed)
    m = measure(args.workload, args.seed, args.seconds, check)
    untraced_us = 1e6 * m["wall"] / m["ops"]

    if args.trace:
        units, setup_summ, _ = traced(setup, args.workload, args.seed)
        samples, work_summ, spans = traced(
            sample_units, args.workload, units, check, 0, len(units), 0.0)
        metrics, ranked, accounting = per_layer_metrics(
            args.workload, setup_summ, work_summ, combine(samples), untraced_us)
        OUT.mkdir(exist_ok=True)
        import numpy

        numpy.save(OUT / f"{args.workload}.spans.npy", spans)
        print(json.dumps({"accounting": accounting}))
        print(json.dumps({"self_share": {k: round(v, 4) for v, k in ranked if v > 0}}))
        lead = {k for _, k in ranked[:2]}
        expected = EXPECTED_LEADERS.get(args.workload)
        if expected is not None:
            verdict = "agrees" if lead == expected else "DISAGREES"
            print(f"leading layers {sorted(lead)}: {verdict} with the baseline profile {sorted(expected)}")
    else:
        metrics = {
            "setup_s": (m["setup_s"], "s"),
            "work_s": (m["wall"], "s"),
            "us_per_op": (untraced_us, "us"),
            "cpu_s": (m["cpu"], "s"),
            "peak_rss_mb": (m["peak_rss_mb"], "MB"),
            "ok_frac": (1.0 - check.failed / check.attempted, "ratio"),
        }

    print(json.dumps({
        "unit_samples": m["samples"],
        "machine_steal_frac": m["steal_frac"],
        "workload_digest": check.digest(),
        "golden_checked": check.golden_checked,
        "nondeterministic_units": check.nondeterministic,
        "oracle_agreement": check.agreement,
        "failed_frac": check.failed / check.attempted,
    }))
    print(json.dumps({
        "correct": check.failed == 0 and check.nondeterministic == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
