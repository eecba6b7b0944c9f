"""Command-line entry point.

Subcommands and the flags each one reads::

    funnelnav teach        --config S.yaml --out DIR [--force]
        build a visual path
    funnelnav repeat       --config S.yaml --out DIR [--seed N] [--controller C] [--force]
        run one controller (C: standard or sloped; default the scenario's)
    funnelnav compare      --config S.yaml --out DIR [--seed N] [--force]
        run both controllers on the same seeds
    funnelnav oracle-check --config S.yaml --out DIR [--force]
        controller vs brute-force lane
    funnelnav metrics      --config S.yaml --out DIR
        recompute each controller's metrics.json from its traces in DIR
        (writes nothing)

--seed overrides the scenario seed; --force allows writing into a non-empty
output directory, and replaces the run traces of each controller it runs.  A
flag a subcommand does not read is a usage error (exit 2).  Exit codes: 0
success, 2 config or usage error, 3 degenerate domain input, 4 internal
invariant breach.  Outputs are byte-reproducible for a fixed config and
seed; wall-clock metadata lives only in meta.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, FunnelNavError, InvalidPathError, TeachDegenerateError
from .evaluate import (
    MetricsReport,
    Scenario,
    controller_inside_grid,
    funnel_oracle,
    grid_poses,
    load_scenario,
    report,
    run_scenario,
)
from .features import save_visual_path
from .navigate import read_run
from .teach import record

__all__ = ["main"]


def _prepare_out(out: str, force: bool) -> Path:
    p = Path(out)
    try:
        if p.exists() and any(p.iterdir()) and not force:
            raise ConfigError(f"output directory {out} is not empty (use --force to overwrite)")
        p.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"output directory {out}: {e}") from e
    return p


def _write_meta(out: Path, args, scenario_name: str) -> None:
    meta = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": str(args.config),
        "scenario": scenario_name,
        "seed_override": args.seed,
        "controller_override": args.controller,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


def _teach_path(scn: Scenario):
    return record(scn.world, scn.camera, scn.script, scn.min_teach_features)


def cmd_teach(scn: Scenario, out: Path) -> int:
    path = _teach_path(scn)
    save_visual_path(path, out / "visual_path.json")
    lines = [f"{'index':>5}  {'features':>8}  {'x':>8}  {'y':>8}  {'theta':>8}"]
    for kf in path.keyframes:
        p = kf.pose_truth
        lines.append(
            f"{kf.index:>5}  {len(kf.observations):>8}  {p.x:>8.3f}  {p.y:>8.3f}  {p.theta:>8.3f}"
        )
    (out / "keyframes.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {out / 'visual_path.json'} ({len(path.keyframes)} keyframes)")
    return 0


def _write_report(rep: MetricsReport, out: Path, teach_path) -> None:
    sub = out / rep.metrics["controller"]
    sub.mkdir(exist_ok=True)
    for stale in sub.glob("run_*.jsonl"):  # left by an earlier run under --force
        stale.unlink()
    for i, tr in enumerate(rep.traces):
        tr.write(sub / f"run_{i:03d}.jsonl")
    (sub / "metrics.json").write_text(json.dumps(rep.metrics, indent=1, sort_keys=True) + "\n")
    rows = ["kind,run,step,x,y"]
    for k, kf in enumerate(teach_path.keyframes):
        rows.append(f"teach,-1,{k},{kf.pose_truth.x!r},{kf.pose_truth.y!r}")
    for i, tr in enumerate(rep.traces):
        for r in tr.records:
            rows.append(f"repeat,{i},{r['tick']},{r['x']!r},{r['y']!r}")
    (sub / "trajectories.csv").write_text("\n".join(rows) + "\n")


def _report_row(rep: MetricsReport) -> str:
    m = rep.metrics
    return (
        f"{m['controller']:>10}  acc {m['accuracy']:7.3f} m  rep {m['repeatability']:7.3f} m"
        f"  outcomes {m['outcomes']}"
    )


def cmd_repeat(scn: Scenario, out: Path, controllers) -> int:
    """Teach once, then run and report each controller on the scenario's seeds.

    A controller of None is the scenario's own.
    """
    path = _teach_path(scn)
    save_visual_path(path, out / "visual_path.json")
    if len(controllers) > 1:
        print(f"scenario: {scn.name} ({scn.runs} runs per controller, seed {scn.seed})")
        print(f"{'controller':>10}  {'accuracy / repeatability':^34}  outcomes")
    for controller in controllers:
        rep = run_scenario(scn, controller=controller, path=path)
        _write_report(rep, out, path)
        print(_report_row(rep))
    return 0


def cmd_oracle_check(scn: Scenario, out: Path) -> int:
    if not scn.world.landmarks:
        raise TeachDegenerateError("world has no landmarks to build a funnel lane from")
    path = _teach_path(scn)
    kf_index, grid, n_kf = scn.oracle.keyframe, scn.oracle.grid, len(path.keyframes)
    if not -n_kf <= kf_index < n_kf:
        raise ConfigError(f"oracle: keyframe {kf_index} is out of range for {n_kf} keyframes")
    kf = path.keyframes[kf_index]
    oracle = funnel_oracle(kf, scn.world, scn.camera, grid)
    claimed = controller_inside_grid(kf, scn.world, scn.camera, grid)
    poses = grid_poses(grid, kf.pose_truth.theta)
    n = len(oracle)
    disagree = [i for i in range(n) if oracle[i] != claimed[i]]
    agreement = 1.0 - len(disagree) / n
    rows = ["x,y,oracle,controller"]
    for i in disagree:
        rows.append(f"{poses[i].x!r},{poses[i].y!r},{int(oracle[i])},{int(claimed[i])}")
    (out / "disagreements.csv").write_text("\n".join(rows) + "\n")
    summary = {
        "keyframe": kf.index,
        "grid": [grid.nx, grid.ny],
        "agreement": agreement,
        "n_disagreements": len(disagree),
        "n_inside_oracle": sum(oracle),
    }
    (out / "agreement.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"agreement: {100.0 * agreement:.3f}% ({len(disagree)} / {n} disagreements)")
    return 0


def cmd_metrics(scn: Scenario, out: Path) -> int:
    """Recompute each controller's metrics.json from the run traces under out,
    and print the row that repeat and compare print."""
    path = _teach_path(scn)
    found = False
    for sub in sorted(out.iterdir()):
        runs = sorted(sub.glob("run_*.jsonl")) if sub.is_dir() else []
        if runs:
            found = True
            print(_report_row(report(scn, sub.name, path, [read_run(f) for f in runs])))
    if not found:
        raise ConfigError(f"no run traces found under {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="funnelnav", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    # a subcommand without --seed or --controller reads None: no override
    ap.set_defaults(seed=None, controller=None)
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {
        name: sub.add_parser(name)
        for name in ("teach", "repeat", "compare", "oracle-check", "metrics")
    }
    for p in parsers.values():
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--out", required=True, help="output directory")
    for name in ("repeat", "compare"):
        parsers[name].add_argument(
            "--seed", type=int, default=None, help="override the scenario seed"
        )
    parsers["repeat"].add_argument("--controller", choices=("standard", "sloped"), default=None)
    for name in ("teach", "repeat", "compare", "oracle-check"):
        parsers[name].add_argument(
            "--force", action="store_true", help="allow writing into a non-empty directory"
        )
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scn = load_scenario(args.config)
        if args.seed is not None:
            try:
                scn = replace(scn, seed=args.seed)
            except ValueError as e:
                raise ConfigError(f"--seed: {e}") from e
        if args.command == "metrics":
            out = Path(args.out)
            if not out.is_dir():
                raise ConfigError(f"output directory {args.out} does not exist")
        else:
            out = _prepare_out(args.out, args.force)
            _write_meta(out, args, scn.name)
        if args.command == "teach":
            return cmd_teach(scn, out)
        if args.command == "repeat":
            return cmd_repeat(scn, out, (args.controller,))
        if args.command == "compare":
            return cmd_repeat(scn, out, ("standard", "sloped"))
        if args.command == "oracle-check":
            return cmd_oracle_check(scn, out)
        return cmd_metrics(scn, out)
    # an OSError here is an output path that cannot be written; str(e) names it
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (TeachDegenerateError, InvalidPathError) as e:
        print(f"degenerate input: {e}", file=sys.stderr)
        return 3
    except FunnelNavError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
