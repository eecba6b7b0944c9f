"""Repeat-phase navigator tests: switching, recovery, outcomes, determinism."""

import json
import math
import types
from dataclasses import replace

import pytest

import funnelnav
from funnelnav.evaluate import GridSpec, controller_inside_grid, load_scenario, run_scenario
from funnelnav.features import (
    Keyframe,
    NoiseModel,
    VisualPath,
    median_distance,
    mse,
    std_ratio,
)
from funnelnav.geometry import CameraModel, Landmark, MotionCommand, Pose, World, visible_set
from funnelnav.navigate import (
    STOP_LIMIT,
    TERMINAL_EVENTS,
    NavigatorConfig,
    navigate,
    should_switch,
    tick_stats,
)
from funnelnav.teach import TeachScript, record

from conftest import ALL_SCENARIOS, SCENARIO_DIR, cols, match_cols, ms

CAM = CameraModel()
CFG = NavigatorConfig()


def test_package_attribute_is_the_module():
    # the package re-exports nothing, so the submodule is not shadowed by navigate()
    assert isinstance(funnelnav.navigate, types.ModuleType)


def corridor_world():
    lms = []
    nid = 1
    for k in range(30):
        x = 0.5 + 0.5 * k
        for y in (-2.0, 2.0):
            lms.append(Landmark(nid, x, y))
            nid += 1
    return World(landmarks=tuple(lms), bounds=(-5, -5, 20, 5))


def straight_path(world, duration=10.0):
    script = TeachScript(steps=((MotionCommand(0.5, 0.0), duration),))
    return record(world, CAM, script, min_features=4)


class TestTickStats:
    @pytest.mark.parametrize(
        "m",
        [
            (),
            ms((1, 22.0, 20.0)),  # one pair: no spread ratio
            ms((1, 3.0, 5.0), (2, -4.0, 5.0), (3, 9.0, 5.0)),  # no keyframe spread
            ms((1, -21.0, -20.0), (2, 21.0, 20.0), (3, 4.5, 3.0), (4, 7.25, 9.0)),
        ],
        ids=["empty", "one-pair", "zero-keyframe-spread", "four-pairs"],
    )
    def test_equals_the_feature_statistics(self, m):
        uc, uj = cols(m)
        assert tick_stats(uc, uj) == {
            "ed": median_distance(uc, uj), "mse": mse(uc, uj), "nmf": len(m),
            "std_ratio": std_ratio(uc, uj),
        }


class TestShouldSwitch:
    def test_ratio_and_distance_both_met(self):
        cfg = NavigatorConfig(threshold1_ed=5.0)
        m = ms((1, -21.0, -20.0), (2, 21.0, 20.0))  # ratio 1.05, ed 0
        assert should_switch(tick_stats(*cols(m)), cfg)

    def test_ratio_not_crossed(self):
        m = ms((1, -18.0, -20.0), (2, 18.0, 20.0))  # ratio 0.9, ed 0
        assert not should_switch(tick_stats(*cols(m)), CFG)

    def test_distance_too_large(self):
        m = ms((1, -21.0 + 40.0, -20.0), (2, 21.0 + 40.0, 20.0))  # ratio 1.05, ed 40
        assert not should_switch(tick_stats(*cols(m)), CFG)

    def test_degenerate_fallback_uses_half_threshold(self):
        cfg = NavigatorConfig(threshold1_ed=10.0)
        assert should_switch(tick_stats(*cols(ms((1, 22.0, 20.0)))), cfg)  # ed 2 < 5
        assert not should_switch(tick_stats(*cols(ms((1, 27.0, 20.0)))), cfg)  # ed 7 >= 5

    def test_empty_never_switches(self):
        assert not should_switch(tick_stats(*cols(())), CFG)

    def test_exact_keyframe_then_one_tick_past(self):
        world = corridor_world()
        path = straight_path(world)
        kf = path.keyframes[1]
        quiet = NoiseModel()
        from funnelnav.features import match
        from funnelnav.geometry import step, visible_set

        p = kf.pose_truth
        at_kf = match(visible_set(world, p.x, p.y, p.theta, CAM), kf, quiet, quiet.make_rng())
        assert not should_switch(tick_stats(*match_cols(at_kf, kf)), CFG)  # ratio exactly 1 is not past
        past = step(kf.pose_truth, MotionCommand(0.5, 0.0), 0.1)
        past_m = match(visible_set(world, past.x, past.y, past.theta, CAM), kf, quiet,
                       quiet.make_rng())
        assert should_switch(tick_stats(*match_cols(past_m, kf)), CFG)


class TestNavigateOutcomes:
    def test_zero_noise_straight_run_is_done(self):
        world = corridor_world()
        path = straight_path(world)
        goal = path.keyframes[-1].pose_truth
        for controller, tol in (("standard", 1.0), ("sloped", 0.3)):
            cfg = NavigatorConfig(controller=controller)
            tr = navigate(world, CAM, path, Pose(0, 0, 0), cfg, NoiseModel())
            assert tr.outcome == "done"
            err = math.hypot(tr.final_pose.x - goal.x, tr.final_pose.y - goal.y)
            assert err < tol

    def test_lost_after_exactly_threshold3_stopped_ticks(self):
        # the paper's third threshold, the time without features, is STOP_LIMIT ticks
        world = corridor_world()
        # keyframes reference ids that are never visible: every match is empty
        kfs = (
            Keyframe(0, Pose(0, 0, 0), {900: 10.0, 901: -10.0}),
            Keyframe(1, Pose(1, 0, 0), {900: 5.0, 901: -5.0}),
        )
        path = VisualPath(keyframes=kfs)
        tr = navigate(world, CAM, path, Pose(0, 0, 0), NavigatorConfig(), NoiseModel())
        assert STOP_LIMIT == 50
        assert tr.outcome == "lost"
        assert len(tr.records) == STOP_LIMIT
        assert [r["event"] for r in tr.records] == ["stopped"] * (STOP_LIMIT - 1) + ["lost"]
        assert all(r["v"] == 0.0 and r["omega"] == 0.0 for r in tr.records)
        assert tr.final_pose == Pose(0, 0, 0)

    def test_collision_outcome(self):
        world = corridor_world()
        path = straight_path(world)
        blocked = World(
            landmarks=world.landmarks,
            bounds=world.bounds,
            obstacles=((2.0, -0.5, 2.5, 0.5),),
        )
        tr = navigate(blocked, CAM, path, Pose(0, 0, 0), NavigatorConfig(), NoiseModel())
        assert tr.outcome == "collision"
        assert tr.records[-1]["event"] == "collision"
        assert 2.0 <= tr.final_pose.x <= 2.5

    def test_timeout_outcome(self):
        world = corridor_world()
        path = straight_path(world)
        cfg = NavigatorConfig(max_ticks=5)
        tr = navigate(world, CAM, path, Pose(0, 0, 0), cfg, NoiseModel())
        assert tr.outcome == "timeout"
        assert tr.records[-1]["event"] == "timeout"


def navigate_args(run):
    """navigate's arguments for one run that counts the statistics' calls."""
    if run.startswith("sharp_turn"):
        scn = load_scenario(SCENARIO_DIR / "sharp_turn.yaml")
        path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        cfg = replace(scn.navigator, controller=run.split("-")[1])
        return (scn.repeat_world, scn.camera, path, scn.repeat_start, cfg,
                replace(scn.noise, seed=0))
    world = corridor_world()
    path = straight_path(world)
    if run == "timeout":  # as in TestNavigateOutcomes
        return world, CAM, path, Pose(0, 0, 0), NavigatorConfig(max_ticks=5), NoiseModel()
    blocked = World(world.landmarks, world.bounds, obstacles=((2.0, -0.5, 2.5, 0.5),))
    return blocked, CAM, path, Pose(0, 0, 0), NavigatorConfig(), NoiseModel()


class TestStatisticsOncePerTick:
    """Each statistic runs once per tick's match set: once per record, but for
    a collision record, which repeats its tick's statistics.  perfbench's
    calls_per_tick metrics read these calls."""

    @pytest.mark.parametrize(
        "run, outcome",
        [("sharp_turn-sloped", None), ("sharp_turn-standard", None),
         ("timeout", "timeout"), ("collision", "collision")],
    )
    def test_each_statistic_once_per_record(self, monkeypatch, run, outcome):
        calls = dict.fromkeys(("std_ratio", "median_distance", "mse"), 0)
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(funnelnav.navigate, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(funnelnav.navigate, name, counting)
        tr = navigate(*navigate_args(run))
        assert outcome in (None, tr.outcome)
        once = len(tr.records) - (tr.outcome == "collision")
        assert calls == {"std_ratio": once, "median_distance": once, "mse": once}


class TestSensingPerTick:
    """A re-matching tick senses its destination keyframe's landmarks through
    visible_set, and a tracked tick hands sense exactly its tracked landmarks:
    the ids that the previous tick's tracking attrition kept."""

    @pytest.mark.parametrize("run", ["sharp_turn-sloped", "sharp_turn-standard"])
    def test_a_tracked_tick_senses_exactly_its_tracked_landmarks(self, monkeypatch, run):
        args = navigate_args(run)
        world_landmarks = set(args[0].landmarks)
        events = []
        for name, shown in (("visible_set", lambda args, out: None),
                            ("sense", lambda args, out: [lm.id for lm in args[0]]),
                            ("survivors", lambda args, out: list(out))):
            def spying(*args, _name=name, _shown=shown, _fn=getattr(funnelnav.navigate, name)):
                out = _fn(*args)
                events.append((_name, _shown(args, out)))
                if _name == "sense":  # the repeat world's own landmarks
                    assert set(args[0]) <= world_landmarks
                return out
            monkeypatch.setattr(funnelnav.navigate, name, spying)
        tr = navigate(*args)

        sensed = [k for k, (name, _) in enumerate(events) if name == "sense"]
        assert sensed and len(sensed) < len(events)  # both kinds of tick occur
        for k in sensed:
            assert events[k - 1] == ("survivors", events[k][1])
        # one projection per loop tick, of one kind or the other
        ticks = len({r["tick"] for r in tr.records}) - (tr.outcome == "timeout")
        assert sum(name != "survivors" for name, _ in events) == ticks


class TestTraceInvariants:
    def _noisy_trace(self, seed=3):
        world = corridor_world()
        path = straight_path(world)
        noise = NoiseModel(dropout_prob=0.1, pixel_sigma=1.0, seed=seed)
        return navigate(world, CAM, path, Pose(0, 0, 0), NavigatorConfig(), noise)

    def test_byte_identical_reruns(self):
        a = self._noisy_trace()
        b = self._noisy_trace()
        assert "\n".join(a.jsonl_lines()) == "\n".join(b.jsonl_lines())

    def test_different_seed_changes_trace(self):
        a = self._noisy_trace(seed=3)
        b = self._noisy_trace(seed=4)
        assert "\n".join(a.jsonl_lines()) != "\n".join(b.jsonl_lines())

    def test_segment_monotone_and_single_terminal(self):
        tr = self._noisy_trace()
        segs = [r["segment"] for r in tr.records]
        assert segs == sorted(segs)
        terminal = [r for r in tr.records if r["event"] in TERMINAL_EVENTS]
        assert len(terminal) == 1
        assert tr.records[-1]["event"] == tr.outcome

    def test_int_start_writes_the_float_start_bytes(self):
        scn = load_scenario(SCENARIO_DIR / "funnel_two_features.yaml")
        path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)

        def lines(start):
            return navigate(scn.world, scn.camera, path, start, scn.navigator,
                            scn.noise).jsonl_lines()

        assert lines(Pose(0, 0, 0)) == lines(Pose(0.0, 0.0, 0.0))

    def test_summary_record_fields(self):
        tr = self._noisy_trace()
        last = json.loads(tr.jsonl_lines()[-1])
        assert last["summary"] is True
        assert last["outcome"] == tr.outcome
        assert last["ticks"] == len(tr.records)
        assert last["seed"] == 3


class TestSummaryCountsRecords:
    """The summary's "ticks" counts trace records, not loop ticks."""

    def test_timeout_appends_a_record_after_the_last_tick(self):
        world = corridor_world()
        tr = navigate(
            world, CAM, straight_path(world), Pose(0, 0, 0),
            NavigatorConfig(max_ticks=1), NoiseModel(),
        )
        assert [(r["tick"], r["event"]) for r in tr.records] == [(0, ""), (1, "timeout")]
        assert json.loads(tr.jsonl_lines()[-1])["ticks"] == 2

    def test_collision_repeats_the_tick_of_its_command_record(self):
        scn = replace(load_scenario(SCENARIO_DIR / "narrow_room.yaml"), seed=0, runs=1)
        (tr,) = run_scenario(scn, controller="standard").traces
        assert tr.outcome == "collision"
        assert [(r["tick"], r["event"]) for r in tr.records[-2:]] == [(225, ""), (225, "collision")]
        assert json.loads(tr.jsonl_lines()[-1])["ticks"] == len(tr.records) == 227


class TestUnobservedLandmarks:
    """A landmark that no keyframe observed cannot enter a match, so adding it
    to the repeat world changes no record and no oracle-grid verdict."""

    def test_change_no_record_and_no_verdict(self):
        scn = load_scenario(SCENARIO_DIR / "sharp_turn.yaml")
        path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        # a 9 x 9 lattice over the bounds, with ids the teach world never had
        xmin, ymin, xmax, ymax = scn.world.bounds
        first = max(lm.id for lm in scn.world.landmarks) + 1
        extra = tuple(
            Landmark(first + k, xmin + (xmax - xmin) * (k % 9 + 0.5) / 9,
                     ymin + (ymax - ymin) * (k // 9 + 0.5) / 9)
            for k in range(81)
        )
        crowded = replace(scn.repeat_world, landmarks=scn.repeat_world.landmarks + extra)
        lattice = World(landmarks=extra, bounds=scn.world.bounds)

        for controller in ("standard", "sloped"):
            cfg = replace(scn.navigator, controller=controller)
            plain, more = (
                navigate(w, scn.camera, path, scn.repeat_start, cfg, replace(scn.noise, seed=0))
                .records
                for w in (scn.repeat_world, crowded)
            )
            assert more == plain
            # the run saw the lattice, so the check is not vacuous
            assert any(
                visible_set(lattice, r["x"], r["y"], r["theta"], scn.camera) for r in plain
            )

        kf = path.keyframes[scn.oracle_keyframe]
        p = kf.pose_truth
        grid = GridSpec(p.x - 1.0, p.x + 1.0, 20, p.y - 1.0, p.y + 1.0, 20)
        verdicts = controller_inside_grid(kf, scn.repeat_world, scn.camera, grid)
        assert True in verdicts
        assert controller_inside_grid(kf, crowded, scn.camera, grid) == verdicts


class TestZeroNoiseSuiteInvariant:
    @pytest.mark.parametrize("scenario_file", ALL_SCENARIOS, ids=lambda p: p.stem)
    def test_sloped_completes_every_scenario_without_noise(self, scenario_file):
        scn = load_scenario(scenario_file)
        path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        cfg = replace(scn.navigator, controller="sloped")
        tr = navigate(
            scn.repeat_world, scn.camera, path, scn.repeat_start, cfg, NoiseModel()
        )
        assert tr.outcome == "done"


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NavigatorConfig(threshold1_ed=0.0)
        with pytest.raises(ValueError):
            NavigatorConfig(threshold2_features=1)
        with pytest.raises(ValueError):
            NavigatorConfig(controller="magic")
        with pytest.raises(ValueError):
            NavigatorConfig(max_ticks=0)

    @pytest.mark.parametrize("max_ticks", [1.5, 5.0, "5", math.inf])
    def test_max_ticks_must_be_an_integer(self, max_ticks):
        with pytest.raises(ValueError, match="max_ticks"):
            NavigatorConfig(max_ticks=max_ticks)
