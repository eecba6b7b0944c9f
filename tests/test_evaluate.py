"""Metrics, funnel-lane oracle and scenario-harness tests."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from funnelnav.control_sloped import SlopedParams
from funnelnav.control_standard import StandardParams
from funnelnav.errors import ConfigError
from funnelnav.evaluate import (
    _KNOWN_KEYS,
    GridSpec,
    Scenario,
    accuracy,
    controller_inside_grid,
    funnel_oracle,
    grid_poses,
    load_scenario,
    repeatability,
    run_scenario,
    scenario_from_dict,
    world_from_dict,
)
from funnelnav.features import NoiseModel
from funnelnav.geometry import CameraModel, Landmark, MotionCommand, Pose, World
from funnelnav.navigate import NavigatorConfig, navigate
from funnelnav.teach import TeachScript, record

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

    def test_row_major_order_and_heading(self):
        grid = GridSpec(x0=0.0, x1=1.0, nx=2, y0=0.0, y1=1.0, ny=2)
        poses = grid_poses(grid, 0.3)
        assert [(p.x, p.y) for p in poses] == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert all(p.theta == pytest.approx(0.3) for p in poses)


def two_feature_world():
    return World(
        landmarks=(Landmark(1, 6.0, 1.0), Landmark(2, 6.0, -1.0)),
        bounds=(-2, -4, 8, 4),
    )


def two_feature_keyframe():
    world = two_feature_world()
    script = TeachScript(
        steps=((MotionCommand(0.5, 0.0), 6.0),), start_pose=Pose(0, 0, 0), dt=0.1
    )
    path = record(world, CAM, script, min_features=2)
    return world, path.keyframes[-1]


class TestFunnelOracle:
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

    def test_grid_generator_count(self):
        w = world_from_dict(
            {
                "bounds": [-5, -5, 5, 5],
                "generated": [{"grid": {"x0": 0, "x1": 2, "nx": 3, "y0": 0, "y1": 1, "ny": 2}}],
            }
        )
        assert len(w.landmarks) == 6
        xs = sorted({lm.x for lm in w.landmarks})
        assert xs == pytest.approx([0.0, 1.0, 2.0])

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
        with pytest.raises(ConfigError, match="'spiral'"):
            world_from_dict({"bounds": [-5, -5, 5, 5], "generated": [{"spiral": {}}]})

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

    @pytest.mark.parametrize("obstacle", [[0, 0, 1], []])
    def test_obstacle_must_be_four_numbers(self, obstacle):
        with pytest.raises(ConfigError, match="world.obstacles"):
            world_from_dict({"bounds": [-5, -5, 5, 5], "obstacles": [obstacle]})

    def test_missing_bounds_rejected(self):
        with pytest.raises(ConfigError):
            world_from_dict({"landmarks": []})


class TestKnownKeys:
    @pytest.mark.parametrize(
        "block, cls, not_in_files",
        [
            ("camera", CameraModel, set()),
            ("noise", NoiseModel, {"seed"}),
            ("navigator", NavigatorConfig, {"standard", "sloped"}),
            ("controllers.standard", StandardParams, set()),
            ("controllers.sloped", SlopedParams, set()),
        ],
    )
    def test_constructor_blocks_list_every_settable_field(self, block, cls, not_in_files):
        # a dataclass field missing from the table could not be set from a file
        assert set(_KNOWN_KEYS[block]) == {f.name for f in fields(cls)} - not_in_files


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
        "teach": {
            "start": [0.0, 0.0, 0.0],
            "dt": 0.1,
            "steps": [{"v": 0.5, "omega": 0.0, "duration": 6.0}],
        },
        "repeat": {"start": [0.0, 0.0, 0.0], "runs": 1, "seed": 0, "tolerance": 0.3},
        "noise": {"dropout_prob": 0.0, "pixel_sigma": 0.0},
    }
    d.update(overrides)
    return d


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
        assert scn.oracle.keyframe == -1
        assert scn.oracle.grid == GridSpec(x0=-5.0, x1=20.0, nx=200, y0=-5.0, y1=5.0, ny=200)

    def test_oracle_block_parsed(self):
        d = minimal_scenario_dict(oracle={"keyframe": 1, "grid": {"x0": 1, "nx": 3, "ny": 4}})
        scn = scenario_from_dict(d)
        assert scn.oracle.keyframe == 1
        assert scn.oracle.grid == GridSpec(x0=1.0, x1=20.0, nx=3, y0=-5.0, y1=5.0, ny=4)

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

    def test_empty_optional_blocks_read_as_defaults(self):
        d = minimal_scenario_dict(
            camera=None, repeat=None, noise=None, navigator=None, controllers=None, oracle=None
        )
        scn = scenario_from_dict(d)
        assert scn.camera == CameraModel()
        assert scn.oracle.keyframe == -1
        assert scn.repeat_start == scn.script.start_pose
        assert (scn.runs, scn.seed, scn.tolerance) == (1, 0, 0.3)
        assert (scn.repeat_world, scn.min_teach_features) == (scn.world, 4)

    def test_yaml_parse_error_carries_line_number(self, tmp_path):
        f = tmp_path / "bad.yaml"
        f.write_text("name: x\nworld: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            load_scenario(f)

    def test_non_mapping_top_level_rejected(self, tmp_path):
        f = tmp_path / "list.yaml"
        f.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_scenario(f)


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
