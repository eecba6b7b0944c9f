"""Scenario harness: endpoint metrics, the brute-force funnel-lane oracle,
batch execution of teach/repeat scenarios and the scenario file format."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .control_sloped import SlopedParams
from .control_standard import StandardParams, inside_funnel
from .errors import ConfigError
from .features import Keyframe, NoiseModel, VisualPath, match
from .geometry import CameraModel, Landmark, MotionCommand, Pose, World, visible_set
from .navigate import NavigatorConfig, RunTrace, keyframe_world, navigate
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
    "report",
    "load_scenario",
    "scenario_from_dict",
    "world_from_dict",
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
    return accuracy(pts, pts.mean(axis=0))


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
        if not all(map(math.isfinite, (self.x0, self.x1, self.y0, self.y1))):
            raise ValueError("grid bounds must be finite")
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
    seen = keyframe_world(world, kf)
    out = []
    for pose in grid_poses(grid, kf.pose_truth.theta):
        obs = visible_set(seen, pose, cam)
        m = match(obs, kf, quiet, rng)
        if len(m) < len(kf.observations):
            out.append(False)
            continue
        out.append(inside_funnel(m))
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
    runs: int
    seed: int
    tolerance: float  # meters, per-run success bound on final error
    repeat_world: World  # world less repeat.remove_landmarks (dynamic scenarios)
    min_teach_features: int

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class MetricsReport:
    metrics: dict  # the controller's metrics.json object
    traces: tuple[RunTrace, ...]


def run_scenario(
    scenario: Scenario,
    controller: str | None = None,
    path: VisualPath | None = None,
) -> MetricsReport:
    """Teach once, repeat n times with seeded noise, and report the endpoints.

    Run i uses seed scenario.seed + i, so both controllers see identical seed
    streams.
    """
    cfg = scenario.navigator
    if controller is not None:
        cfg = replace(cfg, controller=controller)
    if path is None:
        path = record(
            scenario.world, scenario.camera, scenario.script, scenario.min_teach_features
        )
    traces = [
        navigate(scenario.repeat_world, scenario.camera, path, scenario.repeat_start, cfg,
                 replace(scenario.noise, seed=scenario.seed + i))
        for i in range(scenario.runs)
    ]
    return report(scenario, cfg.controller, path, traces)


def report(scenario: Scenario, controller: str, path: VisualPath, traces) -> MetricsReport:
    """A controller's metrics.json object over its run traces.

    The goal is the last keyframe's position, and failed runs contribute their
    stopping point.  A run is within tolerance if it is done and ends within
    scenario.tolerance of the goal.
    """
    goal = path.keyframes[-1].pose_truth
    points = [[t.final_pose.x, t.final_pose.y] for t in traces]
    n_ok = sum(
        t.outcome == "done" and math.hypot(x - goal.x, y - goal.y) <= scenario.tolerance
        for t, (x, y) in zip(traces, points)
    )
    metrics = {
        "accuracy": accuracy(points, (goal.x, goal.y)),
        "controller": controller,
        "final_points": points,
        "goal": [goal.x, goal.y],
        "n_within_tolerance": n_ok,
        "outcomes": dict(sorted(Counter(t.outcome for t in traces).items())),
        "repeatability": repeatability(points),
        "runs": len(traces),
        "scenario": scenario.name,
    }
    return MetricsReport(metrics, tuple(traces))


# --- scenario config files ---------------------------------------------------

def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return d[key]


# keys a scenario file may use, per block; _section checks every block
_KNOWN_KEYS = {
    "scenario": ("name", "world", "camera", "teach", "repeat", "noise", "navigator",
                 "controllers", "oracle"),
    "world": ("bounds", "landmarks", "generated", "obstacles"),
    "world.generated": ("grid", "ring", "line"),
    "world.generated.grid": ("x0", "x1", "nx", "y0", "y1", "ny"),
    "world.generated.ring": ("cx", "cy", "radius", "n", "phase"),
    "world.generated.line": ("x0", "y0", "x1", "y1", "n"),
    "camera": ("focal_length", "half_width", "min_depth"),
    "teach": ("start", "steps", "dt", "min_features"),
    "teach.steps": ("v", "omega", "duration"),
    "repeat": ("start", "runs", "seed", "tolerance", "remove_landmarks"),
    "noise": ("dropout_prob", "pixel_sigma"),  # the run seed comes from repeat.seed
    "navigator": ("threshold1_ed", "threshold2_features", "threshold3_time", "dt",
                  "controller", "max_ticks"),
    "controllers": ("standard", "sloped"),
    "controllers.standard": ("v0", "omega0"),
    "controllers.sloped": ("v_max", "omega_max", "sx_epsilon", "norm_floor", "v_floor_frac"),
    "oracle": ("keyframe", "grid"),
    "oracle.grid": ("x0", "x1", "nx", "y0", "y1", "ny"),
}


def _section(value, ctx: str) -> dict:
    """A config block as a mapping; an absent or empty block reads as {}.

    Raises ConfigError for a block that is not a mapping, or one holding a
    key that _KNOWN_KEYS does not list for it or a bool value.
    """
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{ctx}: must be a mapping, not {type(value).__name__}")
    for key, item in value.items():
        if key not in _KNOWN_KEYS[ctx]:
            raise ConfigError(f"{ctx}: unknown key {key!r}")
        if isinstance(item, bool):  # no key takes one, and float() reads it as 0.0 or 1.0
            raise ConfigError(f"{ctx}.{key}: must not be a bool ({item!r})")
    return value


def _grid_points(g):
    nx, ny = _int(g["nx"], "world.generated.grid.nx"), _int(g["ny"], "world.generated.grid.ny")
    for iy in range(ny):
        for ix in range(nx):
            x = g["x0"] + (g["x1"] - g["x0"]) * (ix / (nx - 1) if nx > 1 else 0.0)
            y = g["y0"] + (g["y1"] - g["y0"]) * (iy / (ny - 1) if ny > 1 else 0.0)
            yield x, y


def _ring_points(g):
    n, phase = _int(g["n"], "world.generated.ring.n"), float(g.get("phase", 0.0))
    for k in range(n):
        a = 2.0 * math.pi * k / n + phase
        yield g["cx"] + g["radius"] * math.cos(a), g["cy"] + g["radius"] * math.sin(a)


def _line_points(g):
    n = _int(g["n"], "world.generated.line.n")
    for k in range(n):
        t = k / (n - 1) if n > 1 else 0.0
        yield g["x0"] + (g["x1"] - g["x0"]) * t, g["y0"] + (g["y1"] - g["y0"]) * t


_GENERATORS = {"grid": _grid_points, "ring": _ring_points, "line": _line_points}


def _int(value, ctx: str) -> int:
    # a bool is an int to Python, and int() would truncate a fraction
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{ctx}: must be an integer, not {type(value).__name__} {value!r}")
    return value


def _finite(value, ctx: str) -> float:
    if isinstance(value, bool):  # float() would read it as 0.0 or 1.0
        raise ConfigError(f"{ctx}: must be a number, not bool {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{ctx}: must be finite, not {x}")
    return x


def _rect(value, ctx: str) -> tuple[float, float, float, float]:
    r = tuple(_finite(v, ctx) for v in value)
    if len(r) != 4:
        raise ConfigError(f"{ctx}: must have 4 entries xmin, ymin, xmax, ymax, not {len(r)}")
    return r


def world_from_dict(d: dict) -> World:
    """Build a World from the `world` block of a scenario file.

    Schema::

        bounds: [xmin, ymin, xmax, ymax]
        landmarks: [[id, x, y], ...]            # optional
        generated:                              # optional, ids auto-assigned
          - grid: {x0, x1, nx, y0, y1, ny}
          - ring: {cx, cy, radius, n, phase}    # phase optional, radians
          - line: {x0, y0, x1, y1, n}           # n points, endpoints included
        obstacles: [[xmin, ymin, xmax, ymax], ...]   # optional

    Each `generated` entry names one generator; generated ids count up from
    the largest explicit id.
    """
    d = _section(d, "world")
    try:
        bounds = _rect(_require(d, "bounds", "world"), "world.bounds")
        landmarks = [
            Landmark(_int(i, "world.landmarks"), _finite(x, "world.landmarks"),
                     _finite(y, "world.landmarks"))
            for i, x, y in d.get("landmarks", [])
        ]
        next_id = max((lm.id for lm in landmarks), default=0) + 1
        for entry in d.get("generated", []):
            entry = _section(entry, "world.generated")
            if len(entry) != 1:
                raise ConfigError(f"world.generated: an entry names one generator: {sorted(entry)}")
            ((kind, params),) = entry.items()
            for x, y in _GENERATORS[kind](_section(params, f"world.generated.{kind}")):
                landmarks.append(Landmark(next_id, float(x), float(y)))
                next_id += 1
        obstacles = tuple(_rect(r, "world.obstacles") for r in d.get("obstacles", []))
        return World(landmarks=tuple(landmarks), bounds=bounds, obstacles=obstacles)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"world: {e}") from e


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from its YAML file representation."""
    try:
        d = _section(d, "scenario")
        name = str(_require(d, "name", "scenario"))
        world = world_from_dict(_require(d, "world", "scenario"))
        camera = CameraModel(**_section(d.get("camera"), "camera"))

        t = _section(_require(d, "teach", "scenario"), "teach")
        start = Pose(*(_finite(v, "teach.start") for v in _require(t, "start", "teach")))
        raw_steps = [_section(s, "teach.steps") for s in _require(t, "steps", "teach")]
        steps = tuple(
            (MotionCommand(float(s["v"]), float(s["omega"])), float(s["duration"]))
            for s in raw_steps
        )
        script = TeachScript(steps=steps, start_pose=start, dt=float(t.get("dt", 0.1)))

        r = _section(d.get("repeat"), "repeat")
        repeat_start = (
            Pose(*(_finite(v, "repeat.start") for v in r["start"])) if "start" in r else start
        )
        noise = NoiseModel(**_section(d.get("noise"), "noise"))

        nav = dict(_section(d.get("navigator"), "navigator"))
        for key in ("threshold2_features", "threshold3_time", "max_ticks"):
            if key in nav:
                nav[key] = _int(nav[key], f"navigator.{key}")
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
            float(g.get("x0", xmin)), float(g.get("x1", xmax)),
            _int(g.get("nx", 200), "oracle.grid.nx"),
            float(g.get("y0", ymin)), float(g.get("y1", ymax)),
            _int(g.get("ny", 200), "oracle.grid.ny"),
        )

        drop = {_int(i, "repeat.remove_landmarks") for i in r.get("remove_landmarks", [])}
        missing = drop - {lm.id for lm in world.landmarks}
        if missing:
            raise ConfigError(f"repeat.remove_landmarks: no landmark has id {sorted(missing)}")
        kept = tuple(lm for lm in world.landmarks if lm.id not in drop)

        return Scenario(
            name=name,
            world=world,
            camera=camera,
            script=script,
            repeat_start=repeat_start,
            noise=noise,
            navigator=navigator,
            oracle=OracleSpec(keyframe=_int(o.get("keyframe", -1), "oracle.keyframe"), grid=grid),
            runs=_int(r.get("runs", 1), "repeat.runs"),
            seed=_int(r.get("seed", 0), "repeat.seed"),
            tolerance=_finite(r.get("tolerance", 0.3), "repeat.tolerance"),
            repeat_world=replace(world, landmarks=kept),
            min_teach_features=_int(t.get("min_features", 4), "teach.min_features"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"scenario: {e}") from e


def load_scenario(path) -> Scenario:
    """Parse a scenario YAML file; an unreadable file or a parse error is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            d = yaml.safe_load(fh)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        raise ConfigError(f"{path}: YAML parse error{where}: {e}") from e
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read: {e}") from e
    except RecursionError as e:
        raise ConfigError(f"{path}: nested too deeply to parse") from e
    return scenario_from_dict(d)
