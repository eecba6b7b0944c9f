"""Scenario harness: endpoint metrics, the brute-force funnel-lane oracle,
batch execution of teach/repeat scenarios and the scenario file format."""

from __future__ import annotations

import math
import reprlib
import sys
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .control_sloped import SlopedParams
from .control_standard import StandardParams, inside_funnel
from .errors import ConfigError
from .features import Keyframe, NoiseModel, VisualPath
# read only by perfbench/run.py, whose tracer wraps evaluate.match
from .features import match  # noqa: F401
from .geometry import CameraModel, Landmark, MotionCommand, Pose, World, visible_set
from .navigate import NavigatorConfig, RunTrace, keyframe_world, navigate
from .teach import START, TeachScript, record

__all__ = [
    "accuracy",
    "repeatability",
    "GridSpec",
    "grid_axes",
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

MAX_GRID_POSES = 1_000_000  # 25 times the shipped 200 x 200; the oracle holds arrays of this size


@dataclass(frozen=True)
class GridSpec:
    x0: float
    x1: float
    nx: int
    y0: float
    y1: float
    ny: int

    def __post_init__(self):
        spans = (self.x1 - self.x0, self.y1 - self.y0)
        if not all(map(math.isfinite, (self.x0, self.x1, self.y0, self.y1, *spans))):
            raise ValueError("grid bounds and their spans x1 - x0 and y1 - y0 must be finite")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid needs at least 1 x 1 poses, got {self.nx} x {self.ny}")
        if self.nx * self.ny > MAX_GRID_POSES:
            raise ValueError(f"a grid has at most {MAX_GRID_POSES} poses, "
                             f"not {self.nx} x {self.ny}")


def grid_axes(grid: GridSpec) -> tuple[list[float], list[float]]:
    """The grid's x and y coordinates.  The grid is walked row-major: cell k
    sits at (xs[k % nx], ys[k // nx]), so x varies fastest."""
    return (np.linspace(grid.x0, grid.x1, grid.nx).tolist(),
            np.linspace(grid.y0, grid.y1, grid.ny).tolist())


def funnel_oracle(kf: Keyframe, world: World, cam: CameraModel, grid: GridSpec) -> list[bool]:
    """Ground-truth membership in the combined funnel lane, by brute force,
    one verdict per grid cell in grid_axes' order.

    Works directly on world geometry (lateral/depth ratios), independent of
    the projection and voting code it is used to check.  A pose is inside iff
    every keyframe landmark is visible from it and satisfies both per-feature
    constraints, strictly.  The whole grid is judged at once: a row of x
    positions broadcasts against a column of y positions, in the arithmetic
    order of a pose-by-pose float loop, so each verdict equals that loop's.
    Each test is negated rather than flipped, so a pose whose geometry
    overflows to NaN fails no test, as in the loop.
    """
    lms = {lm.id: lm for lm in world.landmarks}
    feats = [(lms[i], u_j) for i, u_j in sorted(kf.observations.items())]
    xs, ys = map(np.array, grid_axes(grid))
    ys = ys[:, np.newaxis]
    c, s = math.cos(kf.pose_truth.theta), math.sin(kf.pose_truth.theta)
    f, half_width = cam.focal_length, cam.half_width
    inside = np.ones((grid.ny, grid.nx), dtype=bool)
    with np.errstate(all="ignore"):  # inf and NaN fail or pass tests as in float math
        for lm, u_j in feats:
            dx, dy = lm.x - xs, lm.y - ys
            depth = dx * c + dy * s
            lat_right = dx * s - dy * c
            inside &= ~(depth < cam.min_depth)
            inside &= ~(f * abs(lat_right) > half_width * depth)  # outside the image border
            # |u_c| < |u_j| as a ratio test, avoiding the projection routine
            inside &= ~(abs(lat_right) * f >= abs(u_j) * depth)
            inside &= ~(lat_right * u_j < 0)
    return inside.ravel().tolist()


def controller_inside_grid(
    kf: Keyframe, world: World, cam: CameraModel, grid: GridSpec
) -> list[bool]:
    """The controller's own "inside combined funnel lane" verdict on each grid
    cell, in grid_axes' order: it sees every keyframe landmark, and their
    noise-free pairs are inside."""
    ids, uj = zip(*sorted(kf.observations.items()))  # a tick's ascending id order
    seen = keyframe_world(world, kf)  # only kf's landmarks
    theta = kf.pose_truth.theta  # normalised already, so a Pose per cell would change no bit
    xs, ys = grid_axes(grid)
    return [len(obs := visible_set(seen, x, y, theta, cam)) == len(ids)
            and inside_funnel([obs[i] for i in ids], uj) for y in ys for x in xs]


# --- scenarios ---------------------------------------------------------------

# a controller's records are all held until report, about 1 kB each; the
# largest shipped product is 10 runs * 16,000 ticks
MAX_RUN_TICKS = 1_000_000


@dataclass(frozen=True)
class Scenario:
    name: str
    world: World
    camera: CameraModel
    script: TeachScript
    repeat_start: Pose
    noise: NoiseModel
    navigator: NavigatorConfig
    oracle_keyframe: int  # index into the taught path; negative counts from the end
    oracle_grid: GridSpec
    runs: int
    seed: int
    tolerance: float  # meters, per-run success bound on final error
    repeat_world: World  # world less repeat.remove_landmarks (dynamic scenarios)
    min_teach_features: int

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.runs * self.navigator.max_ticks > MAX_RUN_TICKS:
            raise ValueError(f"repeat.runs * navigator.max_ticks is at most {MAX_RUN_TICKS}, "
                             f"not {self.runs} * {self.navigator.max_ticks}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.tolerance >= 0:
            raise ValueError(f"tolerance must be non-negative, got {self.tolerance}")


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

MAX_DEPTH = 32  # collections nested in a scenario file; the schema nests 5 deep
MAX_LANDMARKS = 10_000  # in one world; the largest shipped world, closed_loop, has 150
# a rejected value as its error shows it: 4 entries of a collection, 2
# collections deep, 24 characters of a scalar, so at most about 1 KB.  Through
# YAML aliases a small file can name a value whose full repr fills the memory
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel = 2
_SHOWN.maxlist = _SHOWN.maxtuple = _SHOWN.maxdict = _SHOWN.maxset = 4
_SHOWN.maxstring = _SHOWN.maxother = _SHOWN.maxlong = 24
_shown = _SHOWN.repr


# libyaml's loader, where PyYAML is built with it, reads the same documents
# several times faster than the pure-Python one
class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """The safe loader, which refuses a mapping key written twice where PyYAML
    would keep the last value; a key after a `<<` merge still overrides the merged key."""

    def construct_document(self, root):
        # each mapping as written, once (an alias shares its anchor's node),
        # before construction flattens merges into the nodes
        stack, visited = [root], set()
        while stack:
            node = stack.pop()
            if isinstance(node, yaml.ScalarNode) or id(node) in visited:
                continue
            visited.add(id(node))
            if isinstance(node, yaml.SequenceNode):
                stack += node.value
                continue
            keys = set()
            for key, value in node.value:
                if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                    if (key.tag, key.value) in keys:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"duplicate key {_shown(key.value)}", key.start_mark)
                    keys.add((key.tag, key.value))
                stack += (key, value)
        return super().construct_document(root)


def _int(value, ctx: str) -> int:
    # a bool is an int to Python, and int() would truncate a fraction
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{ctx}: must be an integer, not {type(value).__name__} {_shown(value)}")
    return value


def _count(value, ctx: str) -> int:
    if _int(value, ctx) < 1:
        raise ConfigError(f"{ctx}: must be at least 1, not {_shown(value)}")
    return value


def _finite(value, ctx: str) -> float:
    # a bool is an int to Python, float() would parse a string, and the bound
    # fails NaN, an infinity and an int too large for a float
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(
            f"{ctx}: must be a finite number, not {type(value).__name__} {_shown(value)}")
    return float(value)


def _list(value, ctx: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{ctx}: must be a list, not {type(value).__name__} {_shown(value)}")
    return value


def _numbers(*names):
    """The reader of a list of len(names) finite numbers, read as a tuple."""
    def read(value, ctx: str) -> tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(names):
            raise ConfigError(f"{ctx}: must be [{', '.join(names)}], not {_shown(value)}")
        return tuple(_finite(v, ctx) for v in value)
    return read


def _rect(value, ctx: str) -> tuple:
    xmin, ymin, xmax, ymax = _numbers("xmin", "ymin", "xmax", "ymax")(value, ctx)
    if xmin > xmax or ymin > ymax:
        raise ConfigError(f"{ctx}: must have xmin <= xmax and ymin <= ymax, not {_shown(value)}")
    return xmin, ymin, xmax, ymax


_GRID = {"x0": _finite, "x1": _finite, "nx": _count, "y0": _finite, "y1": _finite, "ny": _count}

# the scenario schema: each block's keys, each with the reader that _section
# passes its value through; None leaves the value to the block's own code
_KNOWN_KEYS = {
    "scenario": dict.fromkeys(("name", "world", "camera", "teach", "repeat", "noise",
                               "navigator", "controllers", "oracle")),
    "world": {"bounds": _rect, **dict.fromkeys(("landmarks", "generated", "obstacles"), _list)},
    "world.generated": dict.fromkeys(("ring", "line")),
    "world.generated.ring": {**dict.fromkeys(("cx", "cy", "radius", "phase"), _finite),
                             "n": _count},
    "world.generated.line": {**dict.fromkeys(("x0", "y0", "x1", "y1"), _finite), "n": _count},
    "camera": dict.fromkeys(("focal_length", "half_width", "min_depth"), _finite),
    "teach": {"steps": _list, "min_features": _int},  # every drive starts at teach.START
    "teach.steps": dict.fromkeys(("v", "omega", "duration"), _finite),
    "repeat": {"start": _numbers("x", "y", "theta"), "runs": _int, "seed": _int,
               "tolerance": _finite, "remove_landmarks": _list},
    "noise": dict.fromkeys(("dropout_prob", "pixel_sigma"), _finite),  # repeat.seed seeds runs
    "navigator": {"threshold1_ed": _finite, "threshold2_features": _int,
                  "max_ticks": _int},  # `repeat --controller` picks the controller
    "controllers": dict.fromkeys(("standard", "sloped")),
    "controllers.standard": dict.fromkeys(("v0", "omega0"), _finite),
    "controllers.sloped": dict.fromkeys(("v_max", "omega_max"), _finite),
    "oracle": {"keyframe": _int, "grid": None},
    "oracle.grid": _GRID,
}


def _section(value, ctx: str, required=()) -> dict:
    """A config block as a new mapping of its keys to their read values; an
    absent or empty block reads as {}.

    Each value goes through its key's reader in _KNOWN_KEYS, which names the
    key as f"{ctx}.{key}".  Raises ConfigError for a block that is not a
    mapping, a key that _KNOWN_KEYS does not list for it, a value its reader
    rejects, or a missing key of required.
    """
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"{ctx}: must be a mapping, not {type(value).__name__}")
    readers, out = _KNOWN_KEYS[ctx], {}
    for key, item in value.items():
        if key not in readers:
            raise ConfigError(f"{ctx}: unknown key {key!r}")
        out[key] = item if readers[key] is None else readers[key](item, f"{ctx}.{key}")
    for key in required:
        if key not in out:
            raise ConfigError(f"{ctx}: missing required key {key!r}")
    return out


def _build(cls, ctx: str, *args, **kwargs):
    """cls(*args, **kwargs), whose ValueError becomes a ConfigError naming the block ctx."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{ctx}: {e}") from e


def _steps(a: float, b: float, n: int) -> list[float]:
    """n evenly spaced values from a to b, both included; just a when n is 1."""
    return [a + (b - a) * (k / (n - 1) if n > 1 else 0.0) for k in range(n)]


def _ring_points(g):
    n, phase = g["n"], g.get("phase", 0.0)
    for k in range(n):
        a = 2.0 * math.pi * k / n + phase
        yield g["cx"] + g["radius"] * math.cos(a), g["cy"] + g["radius"] * math.sin(a)


def _line_points(g):
    return zip(_steps(g["x0"], g["x1"], g["n"]), _steps(g["y0"], g["y1"], g["n"]))


_GENERATORS = {"ring": _ring_points, "line": _line_points}


def world_from_dict(d: dict) -> World:
    """Build a World from the `world` block of a scenario file.

    Schema::

        bounds: [xmin, ymin, xmax, ymax]
        landmarks: [[id, x, y], ...]            # optional
        generated:                              # optional, ids auto-assigned
          - ring: {cx, cy, radius, n, phase}    # phase optional, radians
          - line: {x0, y0, x1, y1, n}           # n points, endpoints included
        obstacles: [[xmin, ymin, xmax, ymax], ...]   # optional

    A world has at most MAX_LANDMARKS landmarks, explicit and generated.
    _section reads `bounds`, the three lists and the generators' parameters
    through _KNOWN_KEYS; the list entries are read here.  Each `generated`
    entry names one generator; generated ids count up from the largest
    explicit id.
    """
    try:
        d = _section(d, "world", required=("bounds",))
        landmarks = []
        if len(d.get("landmarks", [])) > MAX_LANDMARKS:
            raise ConfigError(f"world.landmarks: a world has at most {MAX_LANDMARKS} landmarks, "
                              f"not {len(d['landmarks'])}")
        for lm in d.get("landmarks", []):
            _, x, y = _numbers("id", "x", "y")(lm, "world.landmarks")  # and an int id
            landmarks.append(Landmark(_int(lm[0], "world.landmarks"), x, y))
        next_id = max((lm.id for lm in landmarks), default=0) + 1
        for entry in d.get("generated", []):
            entry = _section(entry, "world.generated")
            if len(entry) != 1:
                raise ConfigError(f"world.generated: an entry names one generator: {sorted(entry)}")
            ((kind, params),) = entry.items()
            ctx = f"world.generated.{kind}"
            params = _section(params, ctx, required=[k for k in _KNOWN_KEYS[ctx] if k != "phase"])
            if len(landmarks) + params["n"] > MAX_LANDMARKS:  # checked before any is built
                raise ConfigError(f"{ctx}.n: a world has at most {MAX_LANDMARKS} landmarks, "
                                  f"not {len(landmarks)} + {params['n']}")
            for x, y in _GENERATORS[kind](params):
                landmarks.append(Landmark(next_id, x, y))
                next_id += 1
        obstacles = tuple(_rect(r, "world.obstacles") for r in d.get("obstacles", []))
        return World(landmarks=tuple(landmarks), bounds=d["bounds"], obstacles=obstacles)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"world: {e}") from e


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from its YAML file representation."""
    try:
        d = _section(d, "scenario", required=("name", "world", "teach"))
        name = d["name"]
        if not isinstance(name, str):
            raise ConfigError(f"scenario.name: must be a string, not {_shown(name)}")
        world = world_from_dict(d["world"])
        camera = _build(CameraModel, "camera", **_section(d.get("camera"), "camera"))

        t = _section(d["teach"], "teach", required=("steps",))
        raw_steps = [_section(s, "teach.steps", ("v", "omega", "duration")) for s in t["steps"]]
        steps = tuple((_build(MotionCommand, "teach.steps", s["v"], s["omega"]), s["duration"])
                      for s in raw_steps)
        script = _build(TeachScript, "teach", steps=steps)

        r = _section(d.get("repeat"), "repeat")
        repeat_start = Pose(*r["start"]) if "start" in r else START
        noise = _build(NoiseModel, "noise", **_section(d.get("noise"), "noise"))

        nav = _section(d.get("navigator"), "navigator")
        ctrl = _section(d.get("controllers"), "controllers")
        for key, cls, required in (("standard", StandardParams, ("v0", "omega0")),
                                   ("sloped", SlopedParams, ("v_max", "omega_max"))):
            if key in ctrl:
                ctx = f"controllers.{key}"
                nav[key] = _build(cls, ctx, **_section(ctrl[key], ctx, required))
        navigator = _build(NavigatorConfig, "navigator", **nav)

        o = _section(d.get("oracle"), "oracle")
        g = _section(o.get("grid"), "oracle.grid")
        xmin, ymin, xmax, ymax = world.bounds
        grid = _build(GridSpec, "oracle.grid", g.get("x0", xmin), g.get("x1", xmax),
                      g.get("nx", 200), g.get("y0", ymin), g.get("y1", ymax), g.get("ny", 200))

        drop = {_int(i, "repeat.remove_landmarks") for i in r.get("remove_landmarks", [])}
        missing = drop - {lm.id for lm in world.landmarks}
        if missing:
            raise ConfigError(f"repeat.remove_landmarks: no landmark has id {sorted(missing)}")
        kept = tuple(lm for lm in world.landmarks if lm.id not in drop)

        return _build(  # Scenario checks the repeat block's runs, seed and tolerance
            Scenario,
            "repeat",
            name=name,
            world=world,
            camera=camera,
            script=script,
            repeat_start=repeat_start,
            noise=noise,
            navigator=navigator,
            oracle_keyframe=o.get("keyframe", -1),
            oracle_grid=grid,
            runs=r.get("runs", 1),
            seed=r.get("seed", 0),
            tolerance=r.get("tolerance", 0.3),
            repeat_world=replace(world, landmarks=kept),
            min_teach_features=t.get("min_features", 4),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"scenario: {e}") from e


def _yaml_data(text: str, source):
    """The YAML document in text, read by _Loader; source names the text in errors.

    Raises ConfigError for a parse error or a mapping key written twice,
    naming its line, for a value Python refuses (an int of over 4300 digits, a
    date such as 2020-13-45), or for a collection nested more than MAX_DEPTH
    deep.  The nesting is checked on the parse events first: libyaml builds
    the document by recursion in C, which a deep enough nest crashes, and its
    parser slows down on one.
    """
    try:
        depth = 0
        for event in yaml.parse(text, Loader=_Loader):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_DEPTH:
                    raise ConfigError(f"{source}: nested more than {MAX_DEPTH} deep "
                                      f"at line {event.start_mark.line + 1}")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        return yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as e:
        # PyYAML's own str(e) adds the mark's lines, which name "<unicode string>"
        mark = getattr(e, "problem_mark", None)
        what = f" at line {mark.line + 1}: {e.problem}" if mark else f": {e}"
        raise ConfigError(f"{source}: YAML parse error{what}") from e


def load_scenario(path) -> Scenario:
    """Parse a scenario YAML file; an unreadable file, a parse error, a repeated
    mapping key or a collection nested more than MAX_DEPTH (32) deep is a
    ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read: {e}") from e
    return scenario_from_dict(_yaml_data(text, path))
