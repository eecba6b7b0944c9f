"""Repeat phase: follow a visual path segment by segment.

Each tick the robot senses, matches against the destination keyframe of the
active segment, and either switches segment (spread ratio above 1 and median
distance under threshold), issues a controller command, or stops to recover
lost features; STOP_LIMIT stopped ticks in a row end the run as lost.
Tracking inside a segment is simulated as persistence of the matched id set
with per-tick dropout; a full re-match happens only on a switch or during
recovery.  A tick projects only the landmarks it can use: a re-match senses
the destination keyframe's landmarks, since no other landmark can enter a
match, and a tracked tick senses only its tracked landmarks, since it reads
only which of them stay in view, and where.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .control_sloped import SlopedParams, sloped_command
from .control_standard import StandardParams, standard_command
# read only by perfbench/run.py, whose tracer wraps navigate.inside_funnel
from .control_standard import inside_funnel  # noqa: F401
from .errors import ConfigError
from .features import (
    Keyframe,
    NoiseModel,
    VisualPath,
    match,
    median_distance,
    mse,
    perturb_all,
    std_ratio,
    survivors,
)
# read only by perfbench/run.py, whose tracer wraps navigate.perturb
from .features import perturb  # noqa: F401
from .geometry import (
    DT,
    CameraModel,
    MotionCommand,
    Pose,
    World,
    in_collision,
    sense,
    step,
    visible_set,
)

__all__ = ["NavigatorConfig", "RunTrace", "read_run", "tick_stats", "should_switch",
           "keyframe_world", "navigate"]

STOP = MotionCommand(0.0, 0.0)
STOP_LIMIT = 50  # consecutive stopped ticks after which a run is lost

TERMINAL_EVENTS = ("done", "lost", "timeout", "collision")


@dataclass(frozen=True)
class NavigatorConfig:
    threshold1_ed: float = 10.0  # px, switch bound on the median distance
    threshold2_features: int = 4  # minimum matches to keep driving
    controller: str = "sloped"  # or "standard"
    max_ticks: int = 5000
    standard: StandardParams = field(default_factory=lambda: StandardParams(0.5, 0.5))
    sloped: SlopedParams = field(default_factory=lambda: SlopedParams(0.5, 0.5))

    def __post_init__(self):
        if not 0 < (ed := self.threshold1_ed) < math.inf:
            raise ValueError(f"threshold1_ed must be positive and finite, not {ed!r}")
        if not 2 <= self.threshold2_features < math.inf:
            raise ValueError("threshold2_features must be at least 2 and finite")
        if self.controller not in ("standard", "sloped"):
            raise ValueError(f"unknown controller {self.controller!r}")
        if not isinstance(self.max_ticks, int) or self.max_ticks <= 0:
            raise ValueError(f"max_ticks must be a positive integer, not {self.max_ticks!r}")


@dataclass(frozen=True)
class RunTrace:
    """A run's records, of which the last and only the last is terminal, and
    its noise seed; the run's outcome and final pose are the terminal record's.

    Each record is the dict that jsonl_lines writes as one JSON object, with
    the keys ed, event, inside, mse, nmf, omega, s_x, s_y, segment, std_ratio,
    theta, tick, v, x, y in that order.  segment is the destination keyframe
    index of the active segment; event is "", switch, recovered, stopped,
    done, lost, timeout or collision.
    """

    records: tuple[dict, ...]
    seed: int

    @property
    def outcome(self) -> str:
        """done | lost | timeout | collision: the terminal record's event."""
        return self.records[-1]["event"]

    @property
    def final_pose(self) -> Pose:
        r = self.records[-1]
        return Pose(r["x"], r["y"], r["theta"])

    def jsonl_lines(self) -> list[str]:
        """One JSON record per trace record plus a trailing run-summary record.

        The summary's outcome and final pose are the terminal record's event
        and pose.  Its "ticks" counts records, not loop ticks.  The last record
        is the terminal one (done, lost, timeout or collision), and two cases
        add a record beyond the loop's ticks: a timeout appends its record
        after the last tick, so max_ticks 1 gives 2 records; a collision
        follows the command record of the tick that hit the obstacle and
        repeats its tick number.
        """
        # records and summary list their keys in sorted order, so each line
        # is a plain json.dumps, which takes the cached default encoder
        lines = [json.dumps(r) for r in self.records]
        last = self.records[-1]
        lines.append(json.dumps({
            "final_theta": last["theta"], "final_x": last["x"], "final_y": last["y"],
            "outcome": last["event"], "seed": self.seed, "summary": True,
            "ticks": len(self.records),
        }))
        return lines

    def write(self, file) -> None:
        with open(file, "w") as fh:
            fh.write("\n".join(self.jsonl_lines()) + "\n")


def read_run(file: Path) -> RunTrace:
    """The run trace in a file, which must be exactly what RunTrace.write wrote."""
    try:
        text = file.read_text()
        *records, summary = map(json.loads, text.splitlines())
        trace = RunTrace(tuple(records), summary["seed"])
        terminal = [k for k, r in enumerate(records) if r["event"] in TERMINAL_EVENTS]
        if terminal != [len(records) - 1]:
            raise ConfigError(f"{file}: the last record, and only the last, must be terminal")
        # json.loads reads true as a bool, and NaN, Infinity and 1e999 as floats
        if not all(type(v := records[-1][k]) in (int, float) and abs(v) <= sys.float_info.max
                   for k in ("x", "y", "theta")):
            raise ConfigError(f"{file}: the terminal x, y and theta must be finite numbers")
        intact = "\n".join(trace.jsonl_lines()) + "\n" == text
    except (OSError, IndexError, KeyError, RecursionError, TypeError, ValueError) as e:
        raise ConfigError(f"{file}: not a readable run trace ending in a summary record") from e
    if not intact:
        raise ConfigError(f"{file}: not the trace RunTrace.write writes for its records and seed")
    return trace


def tick_stats(uc: list[float], uj: list[float]) -> dict:
    """The image statistics of one tick's coordinate columns uc and uj, each
    computed once, as the dict {"ed": median_distance(uc, uj), "mse": mse(uc, uj),
    "nmf": len(uc), "std_ratio": std_ratio(uc, uj)}: the keys and values of the
    tick's record.

    std_ratio, ed and mse are None where undefined: the ratio for fewer than
    2 pairs or no keyframe spread, the other two on an empty match set.
    """
    return {"ed": median_distance(uc, uj), "mse": mse(uc, uj), "nmf": len(uc),
            "std_ratio": std_ratio(uc, uj)}


def should_switch(stats: dict, cfg: NavigatorConfig) -> bool:
    """Keyframe switching criterion.

    Fires when the spread ratio exceeds 1 (the robot has passed the keyframe
    plane) and the median distance is under threshold1.  When the ratio is
    unavailable, falls back to a tighter median-distance-only test.
    """
    if stats["nmf"] == 0:
        return False
    if stats["std_ratio"] is None:
        return stats["ed"] < cfg.threshold1_ed / 2.0
    return stats["std_ratio"] > 1.0 and stats["ed"] < cfg.threshold1_ed


def keyframe_world(world: World, kf: Keyframe) -> World:
    """The landmarks of world that kf observed, in world order, and no obstacles.

    A match against kf keeps only ids kf observed, so visible_set on this world
    gives all a match can use: the entries of visible_set on the whole world
    whose ids kf observed, float for float.
    """
    return World(tuple(lm for lm in world.landmarks if lm.id in kf.observations), world.bounds)


def navigate(
    world: World,
    cam: CameraModel,
    path: VisualPath,
    start: Pose,
    cfg: NavigatorConfig,
    noise: NoiseModel,
) -> RunTrace:
    """Run one repeat-phase episode and return its full trace.

    Deterministic: identical inputs and seed produce an identical trace.  One
    generator, seeded from the noise model, feeds every draw.  A full
    re-match (match) draws per common id in ascending order: the dropout draw,
    then, if the pair is kept, its pixel-noise draw.  A tracked tick draws the
    pixel noise of every tracked id in ascending order, and a driving tick then
    draws the tracking attrition of each of those ids in the same order.
    """
    rng = noise.make_rng()
    pose = start
    dest = 1
    last = len(path.keyframes) - 1
    tracked: list[int] | None = None  # ascending ids; None forces a full re-match
    stopped = 0
    records: list[dict] = []
    seen = [keyframe_world(world, kf) for kf in path.keyframes]

    def rec(tick, cmd, stats, event, s_x=None, s_y=None, inside=None):
        records.append({
            "ed": stats["ed"], "event": event, "inside": inside, "mse": stats["mse"],
            "nmf": stats["nmf"], "omega": cmd.omega, "s_x": s_x, "s_y": s_y, "segment": dest,
            "std_ratio": stats["std_ratio"], "theta": pose.theta, "tick": tick, "v": cmd.v,
            "x": pose.x, "y": pose.y,
        })

    lm_of = {lm.id: lm for lm in world.landmarks}

    for tick in range(cfg.max_ticks):
        kf = path.keyframes[dest]
        if tracked is None:
            m = match(visible_set(seen[dest], pose.x, pose.y, pose.theta, cam), kf, noise, rng)
            tracked, uc = list(m), list(m.values())
        else:
            obs = sense([lm_of[i] for i in tracked], pose.x, pose.y, pose.theta, cam)
            tracked = list(obs)  # ascending still: sense keeps the order given
            uc = perturb_all(list(obs.values()), noise, rng)
        uj = [kf.observations[i] for i in tracked]

        stats = tick_stats(uc, uj)
        if stats["nmf"] < cfg.threshold2_features:
            # a starving match set never switches: the degenerate median-only
            # fallback of should_switch would fire spuriously on it
            stopped += 1
            if stopped >= STOP_LIMIT:
                rec(tick, STOP, stats, "lost")
                break
            rec(tick, STOP, stats, "stopped")
            tracked = None  # full re-match next tick
        elif should_switch(stats, cfg):
            if dest == last:
                rec(tick, STOP, stats, "done")
                break
            dest += 1
            tracked = None
            stopped = 0
            rec(tick, STOP, stats, "switch")
        else:
            event = "recovered" if stopped else ""
            stopped = 0
            if cfg.controller == "standard":
                cmd, inside = standard_command(uc, uj, cfg.standard)
                rec(tick, cmd, stats, event, inside=inside)
            else:
                cmd, s_x, s_y, inside = sloped_command(uc, uj, cfg.sloped, stats["std_ratio"])
                rec(tick, cmd, stats, event, s_x, s_y, inside)
            pose = step(pose, cmd, DT)
            if in_collision(world, pose):
                rec(tick, STOP, stats, "collision")
                break
            # per-tick tracking attrition
            tracked = survivors(tracked, noise, rng)
    else:  # no terminal event within max_ticks
        rec(len(records), STOP, tick_stats([], []), "timeout")

    return RunTrace(records=tuple(records), seed=noise.seed)
