"""Metrics, funnel-lane oracle and scenario-harness tests."""

import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funnelnav.control_sloped import SlopedParams
from funnelnav.control_standard import StandardParams, feature_vote
from funnelnav.errors import ConfigError
from funnelnav.evaluate import (
    _KNOWN_KEYS,
    MAX_DEPTH,
    MAX_GRID_POSES,
    MAX_LANDMARKS,
    MAX_RUN_TICKS,
    GridSpec,
    Scenario,
    _count,
    _finite,
    _int,
    _Loader,
    _yaml_data,
    accuracy,
    controller_inside_grid,
    funnel_oracle,
    grid_axes,
    load_scenario,
    repeatability,
    run_scenario,
    scenario_from_dict,
    world_from_dict,
)
from funnelnav.features import Keyframe, NoiseModel
from funnelnav.geometry import CameraModel, Landmark, MotionCommand, Pose, World, visible_set
from funnelnav.navigate import NavigatorConfig, navigate
from funnelnav.teach import START, TeachScript, record

from conftest import ALL_SCENARIOS, nest

CAM = CameraModel()


class TestMetrics:
    def test_accuracy_single_point_at_goal(self):
        assert accuracy([(2.0, 3.0)], (2.0, 3.0)) == 0.0

    def test_accuracy_hand_value(self):
        assert accuracy([(1.0, 0.0), (-1.0, 0.0)], (0.0, 0.0)) == pytest.approx(1.0)

    def test_repeatability_identical_points(self):
        assert repeatability([(1.0, 1.0)] * 5) == 0.0

    def test_repeatability_hand_value(self):
        assert repeatability([(0.0, 0.0), (2.0, 0.0)]) == pytest.approx(1.0)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], (0.0, 0.0))
        with pytest.raises(ValueError):
            repeatability([])

    def test_bias_variance_identity(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(0.0, 2.0, size=(20, 2))
        goal = (1.0, -0.5)
        acc = accuracy(pts, goal)
        rep = repeatability(pts)
        mu = pts.mean(axis=0)
        bias = math.hypot(mu[0] - goal[0], mu[1] - goal[1])
        assert acc**2 == pytest.approx(rep**2 + bias**2, abs=1e-9)


class TestGrid:
    @pytest.mark.parametrize("nx, ny", [(0, 5), (5, 0), (-1, -1)])
    def test_empty_grid_rejected(self, nx, ny):
        with pytest.raises(ValueError, match="grid"):
            GridSpec(x0=0.0, x1=1.0, nx=nx, y0=0.0, y1=1.0, ny=ny)

    def test_pose_count_capped(self):
        GridSpec(x0=0.0, x1=1.0, nx=MAX_GRID_POSES, y0=0.0, y1=1.0, ny=1)
        with pytest.raises(ValueError, match="at most"):
            GridSpec(x0=0.0, x1=1.0, nx=MAX_GRID_POSES, y0=0.0, y1=1.0, ny=2)

    @pytest.mark.parametrize(
        "x0, x1, y0, y1", [(-1e308, 1e308, 0.0, 1.0), (0.0, 1.0, 1e308, -1e308)]
    )
    def test_overflowing_span_rejected(self, x0, x1, y0, y1):
        # linspace over an infinite span gives NaN poses
        with pytest.raises(ValueError, match="span"):
            GridSpec(x0=x0, x1=x1, nx=3, y0=y0, y1=y1, ny=3)

    def test_row_major_order_and_heading(self):
        # the axes run from x0 to x1 and y0 to y1, endpoints included, and
        # both verdict walks, at the keyframe's heading, take x fastest
        grid = GridSpec(x0=0.0, x1=2.8, nx=3, y0=-0.6, y1=0.2, ny=2)
        xs, ys = grid_axes(grid)
        assert (xs, ys) == ([0.0, 1.4, 2.8], [-0.6, 0.2])
        world, kf = two_feature_keyframe()
        for walk in (funnel_oracle, controller_inside_grid):
            cells = [walk(kf, world, CAM, GridSpec(x, x, 1, y, y, 1)) for y in ys for x in xs]
            assert walk(kf, world, CAM, grid) == [c for (c,) in cells]
            assert [c for (c,) in cells] == [True, False, False, True, True, False]


def two_feature_world():
    return World(
        landmarks=(Landmark(1, 6.0, 1.0), Landmark(2, 6.0, -1.0)),
        bounds=(-2, -4, 8, 4),
    )


def two_feature_keyframe():
    world = two_feature_world()
    script = TeachScript(steps=((MotionCommand(0.5, 0.0), 6.0),))
    path = record(world, CAM, script, min_features=2)
    return world, path.keyframes[-1]


def reference_poses(grid, theta):
    """The grid's poses at one heading, row-major, built from linspace here
    rather than by the code under test."""
    xs = np.linspace(grid.x0, grid.x1, grid.nx).tolist()
    ys = np.linspace(grid.y0, grid.y1, grid.ny).tolist()
    return [Pose(x, y, theta) for y in ys for x in xs]


def loop_oracle(kf, world, cam, grid):
    """The oracle's pose-by-pose float loop, the reference for its array form."""
    lms = {lm.id: lm for lm in world.landmarks}
    feats = [(lms[i], u_j) for i, u_j in sorted(kf.observations.items())]
    out = []
    for pose in reference_poses(grid, kf.pose_truth.theta):
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
                inside = False
                break
            if abs(lat_right) * cam.focal_length >= abs(u_j) * depth:
                inside = False
                break
            if lat_right * u_j < 0:
                inside = False
                break
        out.append(inside)
    return out


def loop_controller(kf, world, cam, grid):
    """The controller's verdict pose by pose on the whole world, the reference
    for controller_inside_grid's walk over the grid's floats."""
    out = []
    for pose in reference_poses(grid, kf.pose_truth.theta):
        obs = visible_set(world, pose.x, pose.y, pose.theta, cam)
        out.append(all(i in obs for i in kf.observations) and all(
            feature_vote(obs[i], u_j) == "forward" for i, u_j in kf.observations.items()))
    return out


_COORD = st.floats(-10.0, 10.0)


@st.composite
def oracle_cases(draw):
    """A world of 1-9 landmarks, a keyframe at a random pose observing some of
    them at random image coordinates, and a grid of up to 15 x 15 poses."""
    points = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=9))
    world = World(tuple(Landmark(i, x, y) for i, (x, y) in enumerate(points)),
                  bounds=(-10.0, -10.0, 10.0, 10.0))
    seen = draw(st.lists(st.sampled_from(range(len(points))), min_size=1, unique=True))
    u = st.one_of(st.floats(-200.0, 200.0), st.sampled_from([0.0, -0.0]))
    kf = Keyframe(0, Pose(draw(_COORD), draw(_COORD), draw(st.floats(-4.0, 4.0))),
                  {i: draw(u) for i in seen})
    grid = GridSpec(draw(st.floats(-12.0, 12.0)), draw(st.floats(-12.0, 12.0)),
                    draw(st.integers(1, 15)), draw(st.floats(-12.0, 12.0)),
                    draw(st.floats(-12.0, 12.0)), draw(st.integers(1, 15)))
    return world, kf, grid


class TestFunnelOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=oracle_cases())
    def test_array_oracle_equals_pose_loop(self, case):
        world, kf, grid = case
        assert funnel_oracle(kf, world, CAM, grid) == loop_oracle(kf, world, CAM, grid)

    @settings(max_examples=200, deadline=None)
    @given(case=oracle_cases())
    def test_controller_walk_equals_pose_loop(self, case):
        world, kf, grid = case
        assert controller_inside_grid(kf, world, CAM, grid) == loop_controller(kf, world, CAM, grid)

    def test_controller_walk_builds_no_pose(self, monkeypatch):
        world, kf = two_feature_keyframe()
        p = kf.pose_truth
        grid = GridSpec(x0=p.x - 2.0, x1=p.x - 0.01, nx=5, y0=-1.0, y1=1.0, ny=5)
        expected = loop_controller(kf, world, CAM, grid)

        def no_pose(self):
            raise AssertionError("controller_inside_grid built a Pose")

        monkeypatch.setattr(Pose, "__post_init__", no_pose)
        assert controller_inside_grid(kf, world, CAM, grid) == expected
        assert any(expected) and not all(expected)

    def test_overflowing_geometry_is_silent_and_equals_pose_loop(self):
        # dx overflows to inf on the left of the grid, and inf * 0.0 is NaN
        world = World((Landmark(1, 1e308, 0.0),), bounds=(-1e308, -1e308, 1e308, 1e308))
        grid = GridSpec(x0=-8e307, x1=8e307, nx=5, y0=-1.0, y1=1.0, ny=3)
        for theta, u_j in ((0.0, 50.0), (0.0, -50.0), (math.pi / 2, 50.0), (0.3, 0.0)):
            kf = Keyframe(0, Pose(0.0, 0.0, theta), {1: u_j})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert funnel_oracle(kf, world, CAM, grid) == loop_oracle(kf, world, CAM, grid)

    @pytest.mark.parametrize("judge", [funnel_oracle, controller_inside_grid],
                             ids=["funnel_oracle", "controller_inside_grid"])
    def test_shipped_grid_peaks_under_2_mb(self, judge, scenario_dir):
        # judged pose by pose from a list of Pose objects, the 200 x 200 grid
        # peaked at about 7.5 MB
        scn = load_scenario(scenario_dir / "funnel_two_features.yaml")
        path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        kf = path.keyframes[scn.oracle_keyframe]
        tracemalloc.start()
        try:
            verdicts = judge(kf, scn.world, scn.camera, scn.oracle_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(verdicts) == 200 * 200
        assert peak < 2_000_000

    def test_pose_just_behind_keyframe_is_inside(self):
        world, kf = two_feature_keyframe()
        p = kf.pose_truth
        cell = GridSpec(x0=p.x - 0.05, x1=p.x - 0.05, nx=1, y0=p.y, y1=p.y, ny=1)
        assert funnel_oracle(kf, world, CAM, cell) == [True]

    def test_pose_just_past_keyframe_is_outside_by_strictness(self):
        world, kf = two_feature_keyframe()
        p = kf.pose_truth
        cell = GridSpec(x0=p.x + 0.05, x1=p.x + 0.05, nx=1, y0=p.y, y1=p.y, ny=1)
        assert funnel_oracle(kf, world, CAM, cell) == [False]

    def test_laterally_distant_pose_is_outside(self):
        world, kf = two_feature_keyframe()
        cell = GridSpec(x0=0.0, x1=0.0, nx=1, y0=3.0, y1=3.0, ny=1)
        assert funnel_oracle(kf, world, CAM, cell) == [False]

    def test_controller_agrees_on_the_same_cells(self):
        world, kf = two_feature_keyframe()
        p = kf.pose_truth
        grid = GridSpec(x0=p.x - 2.0, x1=p.x - 0.01, nx=5, y0=-1.0, y1=1.0, ny=5)
        assert controller_inside_grid(kf, world, CAM, grid) == funnel_oracle(
            kf, world, CAM, grid
        )


class TestWorldFromDict:
    def test_explicit_landmarks(self):
        w = world_from_dict(
            {"bounds": [-5, -5, 5, 5], "landmarks": [[7, 1.0, 2.0]]}
        )
        assert w.landmarks == (Landmark(7, 1.0, 2.0),)

    def test_ring_generator_with_phase(self):
        w = world_from_dict(
            {
                "bounds": [-5, -5, 5, 5],
                "generated": [{"ring": {"cx": 0, "cy": 0, "radius": 2.0, "n": 4, "phase": 0.5}}],
            }
        )
        assert len(w.landmarks) == 4
        first = w.landmarks[0]
        assert first.x == pytest.approx(2.0 * math.cos(0.5))
        assert first.y == pytest.approx(2.0 * math.sin(0.5))

    def test_line_generator_includes_endpoints(self):
        w = world_from_dict(
            {
                "bounds": [-5, -5, 5, 5],
                "generated": [{"line": {"x0": 0, "y0": 0, "x1": 3, "y1": 0, "n": 4}}],
            }
        )
        xs = [lm.x for lm in w.landmarks]
        assert xs == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_generated_ids_count_up_from_largest_explicit_id(self):
        w = world_from_dict(
            {
                "bounds": [-5, -5, 5, 5],
                "landmarks": [[7, 0.0, 0.0], [3, 1.0, 0.0]],
                "generated": [
                    {"line": {"x0": 0, "y0": 1, "x1": 1, "y1": 1, "n": 2}},
                    {"ring": {"cx": 0, "cy": 0, "radius": 2.0, "n": 2}},
                ],
            }
        )
        assert [lm.id for lm in w.landmarks] == [7, 3, 8, 9, 10, 11]

    def test_unknown_generator_rejected(self):
        # oracle.grid is a block of its own, not a landmark generator
        for kind in ("spiral", "grid"):
            with pytest.raises(ConfigError, match=f"world.generated: unknown key '{kind}'"):
                world_from_dict({"bounds": [-5, -5, 5, 5], "generated": [{kind: {}}]})

    LINE = {"x0": 0, "y0": 0, "x1": 1, "y1": 0, "n": 2}

    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"line": {**LINE, "m": 3}}, "line: unknown key 'm'"),
            ({"line": LINE, "ring": {}}, "'line', 'ring'"),
            ({}, "one generator"),
            ([1], "world.generated: must be a mapping"),
        ],
        ids=["unknown-key", "two-generators", "no-generator", "not-a-mapping"],
    )
    def test_malformed_generated_entry_rejected(self, entry, named):
        with pytest.raises(ConfigError, match=named):
            world_from_dict({"bounds": [-5, -5, 5, 5], "generated": [entry]})

    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"line": {**LINE, "n": 0}}, "world.generated.line.n: must be at least 1, not 0"),
            ({"ring": {"cx": 0, "cy": 0, "radius": 2.0, "n": -3}},
             "world.generated.ring.n: must be at least 1, not -3"),
        ],
        ids=["line-n-0", "ring-n-minus-3"],
    )
    def test_generator_count_below_one_rejected(self, entry, named):
        # a count below 1 would silently add no landmarks
        with pytest.raises(ConfigError, match=named):
            world_from_dict({"bounds": [-5, -5, 5, 5], "generated": [entry]})

    RING = {"cx": 0, "cy": 0, "radius": 2.0}

    @pytest.mark.parametrize(
        "world, named",
        [({"generated": [{"line": {**LINE, "n": MAX_LANDMARKS + 1}}]}, "world.generated.line.n"),
         ({"landmarks": [[1, 0.0, 0.0]], "generated": [{"ring": {**RING, "n": MAX_LANDMARKS}}]},
          "world.generated.ring.n"),
         ({"landmarks": [[i, 0.0, 0.0] for i in range(MAX_LANDMARKS + 1)]}, "world.landmarks")],
        ids=["one-generator", "running-total", "explicit"],
    )
    def test_landmark_count_capped(self, world, named):
        with pytest.raises(ConfigError,
                           match=f"^{named}: a world has at most {MAX_LANDMARKS} landmarks"):
            world_from_dict({"bounds": [-5, -5, 5, 5], **world})

    def test_landmark_cap_admits_its_count(self):
        w = world_from_dict({"bounds": [-5, -5, 5, 5], "landmarks": [[1, 0.0, 0.0]],
                             "generated": [{"ring": {**self.RING, "n": MAX_LANDMARKS - 1}}]})
        assert len(w.landmarks) == MAX_LANDMARKS

    @pytest.mark.parametrize("obstacle", [[0, 0, 1], [], [1.5, 0.5, 1.0, -0.5]])
    def test_obstacle_must_be_four_numbers(self, obstacle):
        # a box with swapped corners would never be hit
        with pytest.raises(ConfigError, match="world.obstacles"):
            world_from_dict({"bounds": [-5, -5, 5, 5], "obstacles": [obstacle]})

    def test_missing_bounds_rejected(self):
        with pytest.raises(ConfigError):
            world_from_dict({"landmarks": []})


# each block of a scenario file whose keys are the fields of one dataclass, and
# the fields that a file cannot set
CONSTRUCTOR_BLOCKS = [
    ("camera", CameraModel, set()),
    ("noise", NoiseModel, {"seed"}),
    ("navigator", NavigatorConfig, {"standard", "sloped", "controller"}),
    ("controllers.standard", StandardParams, set()),
    ("controllers.sloped", SlopedParams, set()),
]


def set_keys(block: dict, ctx="scenario"):
    """The (block, key) pairs of _KNOWN_KEYS that a scenario document sets."""
    for key, value in block.items():
        yield ctx, key
        inner = key if ctx == "scenario" else f"{ctx}.{key}"
        if inner in _KNOWN_KEYS:
            for entry in value if isinstance(value, list) else [value]:
                yield from set_keys(entry, inner)


# the keys that no shipped scenario sets, each kept for a stated reason
UNSET_KEYS = {
    # the simulated sensor, not a lane parameter: a varied camera is what would
    # test the paper's claim that the lanes need no calibration, and
    # perfbench/run.py reads scn.camera
    ("scenario", "camera"),
    *(("camera", key) for key in ("focal_length", "half_width", "min_depth")),
}


class TestKnownKeys:
    def test_every_key_is_set_by_a_shipped_scenario(self):
        # a key that no shipped file sets is config surface that nothing runs
        set_by_files = {pair for f in ALL_SCENARIOS
                        for pair in set_keys(yaml.safe_load(f.read_text()))}
        known = {(block, key) for block, keys in _KNOWN_KEYS.items() for key in keys}
        assert set_by_files <= known
        assert known - set_by_files == UNSET_KEYS

    @pytest.mark.parametrize("block, cls, not_in_files", CONSTRUCTOR_BLOCKS)
    def test_constructor_blocks_list_every_settable_field(self, block, cls, not_in_files):
        # a dataclass field missing from the table could not be set from a file
        assert set(_KNOWN_KEYS[block]) == {f.name for f in fields(cls)} - not_in_files

    @pytest.mark.parametrize(
        "block, cls", [(block, cls) for block, cls, _ in CONSTRUCTOR_BLOCKS]
        + [("oracle.grid", GridSpec)]
    )
    def test_each_key_is_read_as_its_fields_type(self, block, cls):
        # an int field read by _finite would get a float; a float field read by
        # _int or _count would refuse 0.5; a str field has no number reader
        hints = get_type_hints(cls)
        read_as = {_int: int, _count: int, _finite: float, None: None}
        fields_read = {key: read_as[reader] for key, reader in _KNOWN_KEYS[block].items()}
        assert fields_read == {key: hints[key] if hints[key] in (int, float) else None
                               for key in _KNOWN_KEYS[block]}


def minimal_scenario_dict(**overrides):
    d = {
        "name": "unit",
        "world": {
            "bounds": [-5, -5, 20, 5],
            "generated": [
                {"line": {"x0": 0.5, "y0": -2.0, "x1": 12.0, "y1": -2.0, "n": 12}},
                {"line": {"x0": 0.5, "y0": 2.0, "x1": 12.0, "y1": 2.0, "n": 12}},
            ],
        },
        "teach": {"steps": [{"v": 0.5, "omega": 0.0, "duration": 6.0}]},
        "repeat": {"start": [0.0, 0.0, 0.0], "runs": 1, "seed": 0, "tolerance": 0.3},
        "noise": {"dropout_prob": 0.0, "pixel_sigma": 0.0},
    }
    d.update(overrides)
    return d


def tenfold(levels, leaf, as_dict=False):
    """levels nested lists (or mappings), each of ten references to the one
    below, as YAML aliases build them."""
    for _ in range(levels):
        leaf = {f"k{i}": leaf for i in range(10)} if as_dict else [leaf] * 10
    return leaf


# a value of seven tenfold levels at each key whose reader shows it
BOMBS = [
    ("repeat.runs", tenfold(7, 1)),  # _int
    ("repeat.tolerance", tenfold(7, 1.5)),  # _finite
    ("world.landmarks", tenfold(7, 1, as_dict=True)),  # _list
    ("repeat.start", tenfold(7, 0.0)),  # _numbers
    ("world.obstacles", [tenfold(7, 0.0)]),  # _rect
    ("scenario.name", tenfold(7, "x" * 100)),
]


class TestScenarioConfig:
    def test_minimal_dict_parses(self):
        scn = scenario_from_dict(minimal_scenario_dict())
        assert scn.name == "unit"
        assert scn.navigator.controller == "sloped"
        assert scn.tolerance == 0.3

    def test_missing_name_is_config_error(self):
        d = minimal_scenario_dict()
        del d["name"]
        with pytest.raises(ConfigError):
            scenario_from_dict(d)

    def test_bad_navigator_key_is_config_error(self):
        d = minimal_scenario_dict(navigator={"no_such_option": 1})
        with pytest.raises(ConfigError):
            scenario_from_dict(d)

    def test_bad_controller_params_are_config_errors(self):
        d = minimal_scenario_dict(controllers={"sloped": {"v_max": -1.0, "omega_max": 0.5}})
        with pytest.raises(ConfigError):
            scenario_from_dict(d)

    def test_remove_landmarks_and_min_features_parsed(self):
        d = minimal_scenario_dict()
        d["repeat"]["remove_landmarks"] = [3, 4]
        d["teach"]["min_features"] = 2
        scn = scenario_from_dict(d)
        assert scn.min_teach_features == 2
        kept = {lm.id for lm in scn.repeat_world.landmarks}
        assert {lm.id for lm in scn.world.landmarks} - kept == {3, 4}

    def test_remove_landmarks_entries_must_be_ids(self):
        d = minimal_scenario_dict()
        d["repeat"]["remove_landmarks"] = [[3]]
        with pytest.raises(ConfigError, match="list"):
            scenario_from_dict(d)

    def test_remove_landmarks_ids_must_exist(self):
        d = minimal_scenario_dict()
        d["repeat"]["remove_landmarks"] = [3, 998, 999]
        with pytest.raises(ConfigError, match=r"\[998, 999\]"):
            scenario_from_dict(d)

    def test_oracle_block_defaults(self):
        scn = scenario_from_dict(minimal_scenario_dict())
        assert scn.oracle_keyframe == -1
        assert scn.oracle_grid == GridSpec(x0=-5.0, x1=20.0, nx=200, y0=-5.0, y1=5.0, ny=200)

    def test_oracle_block_parsed(self):
        d = minimal_scenario_dict(oracle={"keyframe": 1, "grid": {"x0": 1, "nx": 3, "ny": 4}})
        scn = scenario_from_dict(d)
        assert scn.oracle_keyframe == 1
        assert scn.oracle_grid == GridSpec(x0=1.0, x1=20.0, nx=3, y0=-5.0, y1=5.0, ny=4)

    @pytest.mark.parametrize("oracle", [[1], {"grid": [1]}, {"keyframe": "last"}])
    def test_malformed_oracle_block_is_config_error(self, oracle):
        with pytest.raises(ConfigError, match="oracle|keyframe|last"):
            scenario_from_dict(minimal_scenario_dict(oracle=oracle))

    @pytest.mark.parametrize(
        "section", ["world", "camera", "teach", "repeat", "noise", "navigator", "controllers"]
    )
    def test_non_mapping_section_is_config_error(self, section):
        with pytest.raises(ConfigError, match=section):
            scenario_from_dict(minimal_scenario_dict(**{section: [1]}))

    @pytest.mark.parametrize(
        "path",
        [("navigatr",), ("world", "obstacle"), ("teach", "min_feature"), ("repeat", "seeds"),
         ("controllers", "slopped"), ("oracle", "keyfrmae"), ("oracle", "grid", "nz"),
         ("camera", "focal"), ("noise", "seed"), ("navigator", "sloped"),
         ("controllers", "sloped", "vmax")],
        ids=lambda p: ".".join(p),
    )
    def test_unknown_key_is_config_error_naming_it(self, path):
        d = minimal_scenario_dict(oracle={"grid": {}})
        block = d
        for key in path[:-1]:
            block = block.setdefault(key, {})
        block[path[-1]] = 1
        with pytest.raises(ConfigError, match=repr(path[-1])):
            scenario_from_dict(d)

    def test_unknown_key_in_teach_step_is_config_error_naming_it(self):
        d = minimal_scenario_dict()
        d["teach"]["steps"][0]["durration"] = 9
        with pytest.raises(ConfigError, match="teach.steps.*'durration'"):
            scenario_from_dict(d)

    def test_non_mapping_teach_step_is_config_error(self):
        d = minimal_scenario_dict()
        d["teach"]["steps"].append([0.5, 0.0, 1.0])
        with pytest.raises(ConfigError, match="teach.steps"):
            scenario_from_dict(d)

    def test_negative_seed_is_config_error(self):
        d = minimal_scenario_dict()
        d["repeat"]["seed"] = -2
        with pytest.raises(ConfigError, match="seed"):
            scenario_from_dict(d)

    @pytest.mark.parametrize("named, value", BOMBS, ids=[named for named, _ in BOMBS])
    def test_rejected_value_is_shown_bounded(self, named, value):
        # YAML aliases build such a value from a small file; its full repr has
        # ten million entries
        d = minimal_scenario_dict()
        *block, key = named.removeprefix("scenario.").split(".")
        (d[block[0]] if block else d)[key] = value
        with pytest.raises(ConfigError, match=named) as e:
            scenario_from_dict(d)
        assert len(str(e.value)) < 1000

    def test_run_ticks_capped_at_load(self):
        # a controller's records are all held until report, so runs times
        # max_ticks bounds its memory; the cap admits its own product
        d = minimal_scenario_dict(navigator={"max_ticks": MAX_RUN_TICKS // 10})
        d["repeat"]["runs"] = 10
        scn = scenario_from_dict(d)
        assert scn.runs * scn.navigator.max_ticks == MAX_RUN_TICKS == 10**6
        d["repeat"]["runs"] = 11
        with pytest.raises(ConfigError, match=r"^repeat: repeat\.runs \* navigator\.max_ticks "
                                              r"is at most 1000000, not 11 \* 100000$"):
            scenario_from_dict(d)
        shipped = [load_scenario(f) for f in ALL_SCENARIOS]
        assert max(s.runs * s.navigator.max_ticks for s in shipped) == 10 * 16_000

    def test_empty_optional_blocks_read_as_defaults(self):
        d = minimal_scenario_dict(
            camera=None, repeat=None, noise=None, navigator=None, controllers=None, oracle=None
        )
        scn = scenario_from_dict(d)
        assert scn.camera == CameraModel()
        assert scn.oracle_keyframe == -1
        assert scn.repeat_start == START
        assert (scn.runs, scn.seed, scn.tolerance) == (1, 0, 0.3)
        assert (scn.repeat_world, scn.min_teach_features) == (scn.world, 4)

    def test_yaml_parse_error_carries_line_number(self, tmp_path):
        f = tmp_path / "bad.yaml"
        f.write_text("name: x\nworld: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            load_scenario(f)

    @pytest.mark.parametrize(
        "text",
        ["name: x\nworld: [unclosed\n", "name: x\nworld:\n  - 1\n - 2\n",
         "name: x\nworld: *undefined\n", "name: x\n---\nname: y\n"],
        ids=["unclosed-flow", "bad-indent", "undefined-alias", "two-documents"],
    )
    def test_yaml_parse_error_line_matches_pure_loader(self, tmp_path, text):
        # the line the pure-Python loader reports, whichever loader reads the file
        with pytest.raises(yaml.YAMLError) as pure:
            yaml.safe_load(text)
        f = tmp_path / "bad.yaml"
        f.write_text(text)
        with pytest.raises(ConfigError, match=f"at line {pure.value.problem_mark.line + 1}:"):
            load_scenario(f)

    def test_non_mapping_top_level_rejected(self, tmp_path):
        f = tmp_path / "list.yaml"
        f.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_scenario(f)


SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
           | st.floats(allow_nan=False, allow_infinity=False))


def yaml_values(depth: int):
    """Scalars, and lists and string-keyed dicts of them, at most depth deep."""
    if depth == 0:
        return SCALARS
    inner = yaml_values(depth - 1)
    return SCALARS | st.lists(inner, max_size=2) | st.dictionaries(st.text(), inner, max_size=2)


class TestScenarioYaml:
    """_yaml_data, which load_scenario parses with, reads what yaml.safe_load reads."""

    @pytest.mark.parametrize("f", ALL_SCENARIOS, ids=lambda f: f.stem)
    def test_shipped_file_reads_as_safe_load(self, f):
        text = f.read_text()
        assert _yaml_data(text, f) == yaml.safe_load(text)
        assert load_scenario(f) == scenario_from_dict(yaml.safe_load(text))

    @pytest.mark.parametrize(
        "text, m",
        [("base: &b {x: 1, y: 2}\nm:\n  <<: *b\n  x: 3\n", {"x": 3, "y": 2}),
         # b overrides c's x, and m merges b before b itself is built
         ("c: &c {x: 0, y: 0}\na:\n- k: &b\n    <<: *c\n    x: 1\nm:\n  <<: *b\n",
          {"x": 1, "y": 0})],
        ids=["override", "merge-of-a-merge"],
    )
    def test_key_after_a_merge_overrides_the_merged_key(self, text, m):
        assert _yaml_data(text, "f") == yaml.safe_load(text)
        assert _yaml_data(text, "f")["m"] == m

    @pytest.mark.parametrize(
        "text, key, line",
        [("a: {b: 1, 'b': 2}\n", "b", 1), ("a:\n  <<: {b: 1, b: 2}\n", "b", 2)],
        ids=["quoted", "inside-a-merge"],
    )
    def test_repeated_key_is_config_error_naming_it_and_its_line(self, text, key, line):
        # beside tests/test_cli.py's repeated keys in a scenario file
        with pytest.raises(ConfigError,
                           match=f"^f: YAML parse error at line {line}: duplicate key '{key}'"):
            _yaml_data(text, "f")

    @settings(deadline=None)
    @given(yaml_values(MAX_DEPTH))
    @example(yaml.safe_load(nest(MAX_DEPTH, block=True)))
    @example(yaml.safe_load(nest(MAX_DEPTH, block=False)))
    def test_dumped_data_reads_as_safe_load(self, data):
        text = yaml.safe_dump(data)
        assert _yaml_data(text, "dump") == yaml.safe_load(text) == data

    @pytest.mark.parametrize("block", [True, False], ids=["block", "flow"])
    def test_nesting_past_max_depth_is_config_error(self, block):
        assert _yaml_data(nest(MAX_DEPTH, block), "f") == yaml.safe_load(nest(MAX_DEPTH, block))
        with pytest.raises(ConfigError, match=f"f: nested more than {MAX_DEPTH} deep"):
            _yaml_data(nest(MAX_DEPTH + 1, block), "f")

    def test_parses_with_libyaml_where_pyyaml_has_it(self, monkeypatch):
        # a silent fall back to the pure-Python loader would fail no other test
        loaders = []
        for name in ("parse", "load"):
            def spy(stream, Loader, real=getattr(yaml, name)):
                loaders.append(Loader)
                return real(stream, Loader)
            monkeypatch.setattr(yaml, name, spy)
        load_scenario(ALL_SCENARIOS[0])
        want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert loaders == [_Loader, _Loader] and issubclass(_Loader, want)


class TestRunScenario:
    def _scenario(self, runs=1, noise=None):
        d = minimal_scenario_dict()
        d["repeat"]["runs"] = runs
        if noise:
            d["noise"] = noise
        return scenario_from_dict(d)

    def test_zero_noise_single_run(self):
        m = run_scenario(self._scenario(), controller="sloped").metrics
        assert m["outcomes"] == {"done": 1}
        assert m["accuracy"] < 0.3
        assert m["repeatability"] == 0.0
        assert m["n_within_tolerance"] == 1

    def test_seed_layout_is_base_plus_run_index(self):
        scn = self._scenario(runs=3, noise={"dropout_prob": 0.05, "pixel_sigma": 0.5})
        rep = run_scenario(scn, controller="sloped")
        assert [t.seed for t in rep.traces] == [scn.seed, scn.seed + 1, scn.seed + 2]

    def test_rerun_is_identical(self):
        scn = self._scenario(runs=3, noise={"dropout_prob": 0.1, "pixel_sigma": 1.0})
        a = run_scenario(scn, controller="standard")
        b = run_scenario(scn, controller="standard")
        assert a.metrics == b.metrics

    def test_runs_equal_standalone_navigation(self):
        # how the runs are scheduled must not show: run i is exactly a lone
        # navigate() call with noise seed scenario.seed + i
        scn = self._scenario(runs=3, noise={"dropout_prob": 0.1, "pixel_sigma": 1.0})
        rep = run_scenario(scn)
        path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        for i, trace in enumerate(rep.traces):
            alone = navigate(
                scn.repeat_world,
                scn.camera,
                path,
                scn.repeat_start,
                scn.navigator,
                replace(scn.noise, seed=scn.seed + i),
            )
            assert trace.jsonl_lines() == alone.jsonl_lines()

    def test_report_dict_shape(self):
        rep = run_scenario(self._scenario(), controller="standard")
        d = rep.metrics
        assert d["controller"] == "standard"
        assert d["runs"] == 1
        assert len(d["final_points"]) == 1
        # in sorted order, as metrics.json lists them
        assert list(d) == [
            "accuracy",
            "controller",
            "final_points",
            "goal",
            "n_within_tolerance",
            "outcomes",
            "repeatability",
            "runs",
            "scenario",
        ]
