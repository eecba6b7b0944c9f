"""Repeat phase: follow a visual path segment by segment.

Each tick the robot senses, matches against the destination keyframe of the
active segment, and either switches segment (spread ratio above 1 and median
distance under threshold), issues a controller command, or stops to recover
lost features.  Tracking inside a segment is simulated as persistence of the
matched id set with per-tick dropout; a full re-match happens only on a
switch or during recovery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .control_sloped import SlopedParams, sloped_command
from .control_standard import StandardParams, standard_command
# read only by perfbench/run.py, whose tracer wraps navigate.inside_funnel
from .control_standard import inside_funnel  # noqa: F401
from .errors import ConfigError, DegenerateSpreadError, EmptyMatchError, InvalidPathError
from .features import (
    MatchSet,
    NoiseModel,
    VisualPath,
    match,
    median_distance,
    mse,
    perturb,
    std_ratio,
)
from .geometry import (
    CameraModel,
    MotionCommand,
    Pose,
    World,
    in_collision,
    step,
    visible_set,
)

__all__ = ["NavigatorConfig", "TickRecord", "RunTrace", "read_run_summary", "TickStats",
           "tick_stats", "should_switch", "navigate"]

STOP = MotionCommand(0.0, 0.0)

TERMINAL_EVENTS = ("done", "lost", "timeout", "collision")


@dataclass(frozen=True)
class NavigatorConfig:
    threshold1_ed: float = 10.0  # px, switch bound on the median distance
    threshold2_features: int = 4  # minimum matches to keep driving
    threshold3_time: int = 50  # stopped ticks before giving up
    dt: float = 0.1
    controller: str = "sloped"  # or "standard"
    max_ticks: int = 5000
    standard: StandardParams = field(default_factory=lambda: StandardParams(0.5, 0.5))
    sloped: SlopedParams = field(default_factory=lambda: SlopedParams(0.5, 0.5))

    def __post_init__(self):
        if self.threshold1_ed <= 0 or self.threshold3_time <= 0 or self.dt <= 0:
            raise ValueError("thresholds and dt must be positive")
        if self.threshold2_features < 2:
            raise ValueError("threshold2_features must be at least 2")
        if self.controller not in ("standard", "sloped"):
            raise ValueError(f"unknown controller {self.controller!r}")
        if self.max_ticks <= 0:
            raise ValueError("max_ticks must be positive")


@dataclass(frozen=True)
class TickRecord:
    tick: int
    x: float
    y: float
    theta: float
    segment: int  # destination keyframe index of the active segment
    v: float
    omega: float
    nmf: int
    std_ratio: float | None
    ed: float | None
    mse: float | None
    s_x: float | None
    s_y: float | None
    inside: bool | None
    event: str  # "", switch, recovered, stopped, done, lost, timeout, collision


@dataclass(frozen=True)
class RunTrace:
    records: tuple[TickRecord, ...]
    outcome: str  # done | lost | timeout | collision
    final_pose: Pose
    seed: int

    def jsonl_lines(self) -> list[str]:
        """One JSON record per trace record plus a trailing run-summary record.

        The summary's "ticks" counts records, not loop ticks.  The last record
        is the terminal one (done, lost, timeout or collision), and two cases
        add a record beyond the loop's ticks: a timeout appends its record
        after the last tick, so max_ticks 1 gives 2 records; a collision
        follows the command record of the tick that hit the obstacle and
        repeats its tick number.
        """
        lines = [json.dumps(r.__dict__, sort_keys=True) for r in self.records]
        lines.append(
            json.dumps(
                {
                    "summary": True,
                    "outcome": self.outcome,
                    "final_x": self.final_pose.x,
                    "final_y": self.final_pose.y,
                    "final_theta": self.final_pose.theta,
                    "ticks": len(self.records),
                    "seed": self.seed,
                },
                sort_keys=True,
            )
        )
        return lines

    def write(self, file) -> None:
        with open(file, "w") as fh:
            fh.write("\n".join(self.jsonl_lines()) + "\n")


def read_run_summary(file: Path) -> tuple[tuple[float, float], str]:
    """Final position and outcome from the summary record that ends a run trace."""
    try:
        last = json.loads(file.read_text().strip().splitlines()[-1])
        return (float(last["final_x"]), float(last["final_y"])), str(last["outcome"])
    except (IndexError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{file}: does not end in a run-summary record") from e


@dataclass(frozen=True)
class TickStats:
    """The image statistics of one tick's match set, each computed once.

    ratio is None when the spread ratio is undefined (fewer than 2 pairs or
    no keyframe spread); ed and mse are None on an empty match set.
    """

    nmf: int  # number of matched features
    ratio: float | None
    ed: float | None
    mse: float | None


def tick_stats(m: MatchSet) -> TickStats:
    """Spread ratio, median distance and MSE of a match set."""
    try:
        ratio = std_ratio(m)
    except DegenerateSpreadError:
        ratio = None
    try:
        ed = median_distance(m)
        err = mse(m)
    except EmptyMatchError:
        ed = err = None
    return TickStats(nmf=len(m), ratio=ratio, ed=ed, mse=err)


def should_switch(stats: TickStats, cfg: NavigatorConfig) -> bool:
    """Keyframe switching criterion.

    Fires when the spread ratio exceeds 1 (the robot has passed the keyframe
    plane) and the median distance is under threshold1.  When the ratio is
    unavailable, falls back to a tighter median-distance-only test.
    """
    if stats.nmf == 0:
        return False
    if stats.ratio is None:
        return stats.ed < cfg.threshold1_ed / 2.0
    return stats.ratio > 1.0 and stats.ed < cfg.threshold1_ed


def navigate(
    world: World,
    cam: CameraModel,
    path: VisualPath,
    start: Pose,
    cfg: NavigatorConfig,
    noise: NoiseModel,
) -> RunTrace:
    """Run one repeat-phase episode and return its full trace.

    Deterministic: identical inputs and seed produce an identical trace.
    """
    if len(path.keyframes) < 2:
        raise InvalidPathError("path must hold at least 2 keyframes")

    rng = noise.make_rng()
    pose = start
    dest = 1
    last = len(path.keyframes) - 1
    tracked: set[int] | None = None  # None forces a full re-match
    stopped = 0
    recovering = False
    records: list[TickRecord] = []

    def rec(tick, cmd, stats, seg, event, state=None, inside=None):
        records.append(
            TickRecord(
                tick=tick,
                x=pose.x,
                y=pose.y,
                theta=pose.theta,
                segment=seg,
                v=cmd.v,
                omega=cmd.omega,
                nmf=stats.nmf,
                std_ratio=stats.ratio,
                ed=stats.ed,
                mse=stats.mse,
                s_x=None if state is None else state.s_x,
                s_y=None if state is None else state.s_y,
                inside=inside if state is None else state.inside,
                event=event,
            )
        )

    for tick in range(cfg.max_ticks):
        obs = visible_set(world, pose, cam)
        kf = path.keyframes[dest]

        if tracked is None:
            m = match(obs, kf, noise, rng)
            tracked = set(m.ids)
        else:
            tracked &= set(obs)
            m = MatchSet(
                tuple(
                    (i, perturb(obs[i], noise, rng), kf.observations[i])
                    for i in sorted(tracked)
                )
            )

        stats = tick_stats(m)
        # a starving match set goes to recovery below; switching on it would
        # let the degenerate median-only fallback fire spuriously
        if stats.nmf >= cfg.threshold2_features and should_switch(stats, cfg):
            if dest == last:
                rec(tick, STOP, stats, dest, "done")
                outcome = "done"
                break
            dest += 1
            tracked = None
            stopped = 0
            recovering = False
            rec(tick, STOP, stats, dest, "switch")
            continue

        if stats.nmf >= cfg.threshold2_features:
            event = "recovered" if recovering else ""
            recovering = False
            stopped = 0
            state = None
            inside = None
            if cfg.controller == "standard":
                cmd, inside = standard_command(m, cfg.standard)
            else:
                cmd, state = sloped_command(m, cfg.sloped, stats.ratio)
            rec(tick, cmd, stats, dest, event, state=state, inside=inside)
            pose = step(pose, cmd, cfg.dt)
            if in_collision(world, pose):
                rec(tick, STOP, stats, dest, "collision")
                outcome = "collision"
                break
            # per-tick tracking attrition
            if noise.dropout_prob > 0.0:
                tracked = {i for i in sorted(tracked) if rng.random() >= noise.dropout_prob}
        else:
            stopped += 1
            recovering = True
            if stopped >= cfg.threshold3_time:
                rec(tick, STOP, stats, dest, "lost")
                outcome = "lost"
                break
            rec(tick, STOP, stats, dest, "stopped")
            tracked = None  # full re-match next tick
    else:  # no terminal event within max_ticks
        rec(len(records), STOP, tick_stats(MatchSet()), dest, "timeout")
        outcome = "timeout"

    return RunTrace(
        records=tuple(records), outcome=outcome, final_pose=pose, seed=noise.seed
    )
