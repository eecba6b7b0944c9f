"""Scenario harness: endpoint metrics, the brute-force funnel-lane oracle and
batch execution of teach/repeat scenarios."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .control_sloped import SlopedParams
from .control_standard import StandardParams, inside_funnel
from .errors import ConfigError, EmptyMatchError
from .features import Keyframe, NoiseModel, VisualPath, match
from .geometry import CameraModel, MotionCommand, Pose, World, visible_set, world_from_dict
from .navigate import NavigatorConfig, RunTrace, navigate
from .teach import TeachScript, record

__all__ = [
    "accuracy",
    "repeatability",
    "GridSpec",
    "OracleSpec",
    "grid_poses",
    "funnel_oracle",
    "controller_inside_grid",
    "Scenario",
    "MetricsReport",
    "run_scenario",
    "load_scenario",
    "scenario_from_dict",
]


def accuracy(points, goal) -> float:
    """RMS Euclidean distance of endpoint positions to the goal position."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("accuracy needs at least one point")
    d = pts - np.asarray(goal, dtype=float)
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))


def repeatability(points) -> float:
    """RMS Euclidean distance of endpoint positions to their own mean."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("repeatability needs at least one point")
    d = pts - pts.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))


# --- funnel-lane oracle ------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    x0: float
    x1: float
    nx: int
    y0: float
    y1: float
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid needs at least 1 x 1 poses, got {self.nx} x {self.ny}")


@dataclass(frozen=True)
class OracleSpec:
    keyframe: int  # index into the taught path; negative counts from the end
    grid: GridSpec


def grid_poses(grid: GridSpec, theta: float) -> list[Pose]:
    """All grid positions at a shared heading, row-major."""
    xs = np.linspace(grid.x0, grid.x1, grid.nx)
    ys = np.linspace(grid.y0, grid.y1, grid.ny)
    return [Pose(float(x), float(y), theta) for y in ys for x in xs]


def funnel_oracle(kf: Keyframe, world: World, cam: CameraModel, grid: GridSpec) -> list[bool]:
    """Ground-truth membership in the combined funnel lane, by brute force.

    Works directly on world geometry (lateral/depth ratios), independent of
    the projection and voting code it is used to check.  A pose is inside iff
    every keyframe landmark is visible from it and satisfies both per-feature
    constraints, strictly.
    """
    lms = {lm.id: lm for lm in world.landmarks}
    feats = [(lms[i], u_j) for i, u_j in sorted(kf.observations.items())]
    out = []
    for pose in grid_poses(grid, kf.pose_truth.theta):
        c, s = math.cos(pose.theta), math.sin(pose.theta)
        inside = True
        for lm, u_j in feats:
            dx, dy = lm.x - pose.x, lm.y - pose.y
            depth = dx * c + dy * s
            if depth < cam.min_depth:
                inside = False
                break
            lat_right = dx * s - dy * c
            if cam.focal_length * abs(lat_right) > cam.half_width * depth:
                inside = False  # outside the image border
                break
            # |u_c| < |u_j| as a ratio test, avoiding the projection routine
            if abs(lat_right) * cam.focal_length >= abs(u_j) * depth:
                inside = False
                break
            if lat_right * u_j < 0:
                inside = False
                break
        out.append(inside)
    return out


def controller_inside_grid(
    kf: Keyframe, world: World, cam: CameraModel, grid: GridSpec
) -> list[bool]:
    """The controller's own "inside combined funnel lane" verdict on each grid pose."""
    quiet = NoiseModel()
    rng = quiet.make_rng()  # one generator for the grid; the quiet model never draws
    out = []
    for pose in grid_poses(grid, kf.pose_truth.theta):
        obs = visible_set(world, pose, cam)
        m = match(obs, kf, quiet, rng)
        if len(m) < len(kf.observations):
            out.append(False)
            continue
        try:
            out.append(inside_funnel(m))
        except EmptyMatchError:
            out.append(False)
    return out


# --- scenarios ---------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    name: str
    world: World
    camera: CameraModel
    script: TeachScript
    repeat_start: Pose
    noise: NoiseModel
    navigator: NavigatorConfig
    oracle: OracleSpec
    runs: int = 1
    seed: int = 0
    tolerance: float = 0.3  # meters, per-run success bound on final error
    remove_landmarks: tuple[int, ...] = field(default=())
    min_teach_features: int = 4

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def repeat_world(self) -> World:
        """The world as seen in the repeat phase (dynamic scenarios drop landmarks)."""
        if self.remove_landmarks:
            return self.world.without(self.remove_landmarks)
        return self.world


@dataclass(frozen=True)
class MetricsReport:
    scenario: str
    controller: str
    accuracy: float
    repeatability: float
    final_points: tuple[tuple[float, float], ...]
    goal: tuple[float, float]
    outcomes: dict[str, int]
    n_within_tolerance: int
    traces: tuple[RunTrace, ...]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "controller": self.controller,
            "accuracy": self.accuracy,
            "repeatability": self.repeatability,
            "final_points": [list(p) for p in self.final_points],
            "goal": list(self.goal),
            "outcomes": dict(sorted(self.outcomes.items())),
            "n_within_tolerance": self.n_within_tolerance,
            "runs": len(self.traces),
        }


def run_scenario(
    scenario: Scenario,
    controller: str | None = None,
    path: VisualPath | None = None,
) -> MetricsReport:
    """Teach once, repeat n times with seeded noise, and summarize endpoints.

    Failed runs contribute their stopping point to the metrics.  Run i uses
    seed scenario.seed + i, so both controllers see identical seed streams.
    """
    cfg = scenario.navigator
    if controller is not None:
        cfg = replace(cfg, controller=controller)
    if path is None:
        path = record(
            scenario.world, scenario.camera, scenario.script, scenario.min_teach_features
        )
    world = scenario.repeat_world()
    goal_pose = path.keyframes[-1].pose_truth
    goal = (goal_pose.x, goal_pose.y)

    def one(i: int) -> RunTrace:
        noise = replace(scenario.noise, seed=scenario.seed + i)
        return navigate(world, scenario.camera, path, scenario.repeat_start, cfg, noise)

    traces = [one(i) for i in range(scenario.runs)]

    points = tuple((t.final_pose.x, t.final_pose.y) for t in traces)
    errors = [math.hypot(p[0] - goal[0], p[1] - goal[1]) for p in points]
    outcomes = Counter(t.outcome for t in traces)
    n_ok = sum(
        1
        for t, e in zip(traces, errors)
        if t.outcome == "done" and e <= scenario.tolerance
    )
    return MetricsReport(
        scenario=scenario.name,
        controller=cfg.controller,
        accuracy=accuracy(points, goal),
        repeatability=repeatability(points),
        final_points=points,
        goal=goal,
        outcomes=dict(outcomes),
        n_within_tolerance=n_ok,
        traces=tuple(traces),
    )


# --- scenario config files ---------------------------------------------------

def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return d[key]


# keys a scenario file may use, per section; the other sections are checked
# by the constructors they are passed to as keyword arguments
_KNOWN_KEYS = {
    "scenario": ("name", "world", "camera", "teach", "repeat", "noise", "navigator",
                 "controllers", "oracle"),
    "world": ("bounds", "landmarks", "generated", "obstacles"),
    "teach": ("start", "steps", "dt", "min_features"),
    "teach.steps": ("v", "omega", "duration"),
    "repeat": ("start", "runs", "seed", "tolerance", "remove_landmarks"),
    "controllers": ("standard", "sloped"),
    "oracle": ("keyframe", "grid"),
    "oracle.grid": ("x0", "x1", "nx", "y0", "y1", "ny"),
}


def _section(value, ctx: str) -> dict:
    """A config block as a mapping; an absent or empty block reads as {}.

    Raises ConfigError for a block that is not a mapping, or one holding a
    key that _KNOWN_KEYS does not list for it.
    """
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{ctx}: must be a mapping, not {type(value).__name__}")
    known = _KNOWN_KEYS.get(ctx)
    if known is not None:
        for key in value:
            if key not in known:
                raise ConfigError(f"{ctx}: unknown key {key!r}")
    return value


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from its YAML file representation."""
    try:
        d = _section(d, "scenario")
        name = str(_require(d, "name", "scenario"))
        world = world_from_dict(_section(_require(d, "world", "scenario"), "world"))
        camera = CameraModel(**_section(d.get("camera"), "camera"))

        t = _section(_require(d, "teach", "scenario"), "teach")
        start = Pose(*_require(t, "start", "teach"))
        raw_steps = [_section(s, "teach.steps") for s in _require(t, "steps", "teach")]
        steps = tuple(
            (MotionCommand(float(s["v"]), float(s["omega"])), float(s["duration"]))
            for s in raw_steps
        )
        script = TeachScript(steps=steps, start_pose=start, dt=float(t.get("dt", 0.1)))

        r = _section(d.get("repeat"), "repeat")
        repeat_start = Pose(*r["start"]) if "start" in r else start
        noise = NoiseModel(**_section(d.get("noise"), "noise"))

        nav = dict(_section(d.get("navigator"), "navigator"))
        ctrl = _section(d.get("controllers"), "controllers")
        if "standard" in ctrl:
            nav["standard"] = StandardParams(**_section(ctrl["standard"], "controllers.standard"))
        if "sloped" in ctrl:
            nav["sloped"] = SlopedParams(**_section(ctrl["sloped"], "controllers.sloped"))
        navigator = NavigatorConfig(**nav)

        o = _section(d.get("oracle"), "oracle")
        g = _section(o.get("grid"), "oracle.grid")
        xmin, ymin, xmax, ymax = world.bounds
        grid = GridSpec(
            float(g.get("x0", xmin)), float(g.get("x1", xmax)), int(g.get("nx", 200)),
            float(g.get("y0", ymin)), float(g.get("y1", ymax)), int(g.get("ny", 200)),
        )

        return Scenario(
            name=name,
            world=world,
            camera=camera,
            script=script,
            repeat_start=repeat_start,
            noise=noise,
            navigator=navigator,
            oracle=OracleSpec(keyframe=int(o.get("keyframe", -1)), grid=grid),
            runs=int(r.get("runs", 1)),
            seed=int(r.get("seed", 0)),
            tolerance=float(r.get("tolerance", 0.3)),
            remove_landmarks=tuple(r.get("remove_landmarks", [])),
            min_teach_features=int(t.get("min_features", 4)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"scenario: {e}") from e


def load_scenario(path) -> Scenario:
    """Parse a scenario YAML file; parse errors carry the offending line."""
    with open(path) as fh:
        try:
            d = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            mark = getattr(e, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark else ""
            raise ConfigError(f"{path}: YAML parse error{where}: {e}") from e
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return scenario_from_dict(d)
