"""End-to-end acceptance suite.

Each test class covers one headline capability of the stack: oracle
equivalence of the funnel-lane region, slope arithmetic, ambiguity
resolution, rotation in place, offset recovery, accuracy ordering,
keyframe switching, metric identities, byte-level determinism and the
teach-phase keyframe rule.
"""

import filecmp
import json
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from funnelnav.cli import main
from funnelnav.control_sloped import SlopedParams, radius_policy, sloped_command
from funnelnav.control_standard import standard_command
from funnelnav.errors import TeachDegenerateError
from funnelnav.evaluate import (
    GridSpec,
    accuracy,
    controller_inside_grid,
    funnel_oracle,
    grid_poses,
    load_scenario,
    repeatability,
    run_scenario,
)
from funnelnav.features import Keyframe, NoiseModel, match
from funnelnav.geometry import (
    CameraModel,
    Landmark,
    MotionCommand,
    Pose,
    World,
    step,
    visible_set,
)
from funnelnav.navigate import NavigatorConfig, should_switch, tick_stats
from funnelnav.teach import TeachScript, record

from conftest import SCENARIO_DIR, cols, ms

CAM = CameraModel()


@lru_cache(maxsize=None)
def scenario(name):
    return load_scenario(SCENARIO_DIR / f"{name}.yaml")


@lru_cache(maxsize=None)
def report(name, controller):
    """The scenario's metrics.json object for one controller."""
    return run_scenario(scenario(name), controller=controller).metrics


def final_errors(m):
    gx, gy = m["goal"]
    return [math.hypot(x - gx, y - gy) for x, y in m["final_points"]]


class TestOracleEquivalence:
    """Controller lane membership equals brute-force geometry on a dense grid."""

    def test_two_feature_world_grid_agreement(self):
        t0 = time.perf_counter()
        scn = scenario("funnel_two_features")
        grid = scn.oracle_grid
        assert grid == GridSpec(x0=-2.0, x1=5.5, nx=200, y0=-3.0, y1=3.0, ny=200)
        path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        kf = path.keyframes[scn.oracle_keyframe]
        assert len(kf.observations) == 2

        oracle = funnel_oracle(kf, scn.world, scn.camera, grid)
        claimed = controller_inside_grid(kf, scn.world, scn.camera, grid)
        n = grid.nx * grid.ny
        disagree = [i for i in range(n) if oracle[i] != claimed[i]]
        assert 1.0 - len(disagree) / n >= 0.99
        assert sum(oracle) > 0

        # any disagreement must sit within one grid step of an oracle boundary
        for i in disagree:
            ix, iy = i % grid.nx, i // grid.nx
            near_boundary = False
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    jx, jy = ix + dx, iy + dy
                    if 0 <= jx < grid.nx and 0 <= jy < grid.ny:
                        if oracle[jy * grid.nx + jx] != oracle[i]:
                            near_boundary = True
            assert near_boundary, f"disagreement at cell {i} is not on a lane boundary"
        assert time.perf_counter() - t0 < 10.0

    def test_two_feature_lane_is_intersection_of_per_feature_lanes(self):
        scn = scenario("funnel_two_features")
        path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        kf = path.keyframes[-1]
        grid = GridSpec(x0=-1.0, x1=2.5, nx=40, y0=-2.0, y1=2.0, ny=40)
        combined = funnel_oracle(kf, scn.world, scn.camera, grid)
        singles = []
        for lid, u in kf.observations.items():
            single = Keyframe(kf.index, kf.pose_truth, {lid: u})
            singles.append(funnel_oracle(single, scn.world, scn.camera, grid))
        intersection = [a and b for a, b in zip(*singles)]
        assert combined == intersection


def slopes(m):
    """The sloped controller's (s_x, s_y), with the navigator's spread ratio."""
    uc, uj = cols(m)
    _, s_x, s_y, _ = sloped_command(uc, uj, SlopedParams(0.5, 0.5), tick_stats(uc, uj)["std_ratio"])
    return s_x, s_y


class TestSlopeArithmetic:
    """The two slope statistics and the radius policy match hand values."""

    def test_pitch_slope_values(self):
        assert slopes(ms((1, -20.0, -20.0), (2, 20.0, 20.0)))[1] == 0.0
        assert slopes(ms((1, -20.0, -40.0), (2, 20.0, 40.0)))[1] == 0.5

    def test_roll_slope_values(self):
        assert slopes(ms((1, -10.0, -10.0), (2, 20.0, 20.0)))[0] == 0.0
        assert slopes(ms((1, -5.0, -10.0), (2, 25.0, 20.0)))[0] == 0.75

    def test_radius_policy_values(self):
        p = SlopedParams(0.5, 0.5)
        assert radius_policy(1.0, p) == p.v_max
        assert radius_policy(0.5, p) == 0.5 * p.v_max
        # a turn at pitch slope 0.5 has half the radius v_max / omega_max
        uc, uj = cols(ms((1, -10.0, -40.0), (2, 30.0, 40.0)))
        cmd, _, s_y, _ = sloped_command(uc, uj, p, tick_stats(uc, uj)["std_ratio"])
        assert s_y == 0.5 and abs(cmd.omega) == p.omega_max
        assert cmd.v / abs(cmd.omega) == 0.5 * (p.v_max / p.omega_max)

    def test_pitch_slope_strictly_decreases_on_straight_approach(self):
        world = World(
            landmarks=tuple(
                Landmark(i + 1, 10.0, -1.0 + 2.0 * i / 7) for i in range(8)
            ),
            bounds=(-2, -4, 12, 4),
        )
        kf_pose = Pose(5.0, 0.0, 0.0)
        kf = Keyframe(1, kf_pose, visible_set(world, kf_pose, CAM))
        quiet = NoiseModel()
        values = []
        rng = quiet.make_rng()
        for x in np.linspace(0.0, 4.9, 100):
            m = match(visible_set(world, Pose(float(x), 0.0, 0.0), CAM), kf, quiet, rng)
            values.append(slopes(m)[1])
        assert all(b - a < -1e-9 for a, b in zip(values, values[1:]))


class TestAmbiguityResolution:
    """Rotation and translation destinations that look identical per feature
    are separated by the spread statistic."""

    def test_micro_worlds(self):
        t0 = time.perf_counter()
        commands = {}
        for name in ("ambiguity_rotation", "ambiguity_translation"):
            scn = scenario(name)
            path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
            kf = path.keyframes[-1]
            obs = visible_set(scn.world, scn.repeat_start, scn.camera)
            uc, uj = cols(match(obs, kf, NoiseModel(), NoiseModel().make_rng()))
            std_cmd, _ = standard_command(uc, uj, scn.navigator.standard)
            slo_cmd, *_ = sloped_command(uc, uj, scn.navigator.sloped,
                                         tick_stats(uc, uj)["std_ratio"])
            commands[name] = (std_cmd, slo_cmd)

        std_rot, slo_rot = commands["ambiguity_rotation"]
        std_tr, slo_tr = commands["ambiguity_translation"]

        # the per-feature controller cannot tell the two cases apart
        assert std_rot == std_tr
        assert std_rot.omega == 0.0 and std_rot.v > 0.0

        # the sloped controller turns left in both, much sharper for rotation
        assert slo_rot.omega > 0.0 and slo_tr.omega > 0.0
        radius_rot = slo_rot.v / slo_rot.omega
        radius_tr = slo_tr.v / slo_tr.omega
        assert radius_rot < 0.25 * radius_tr
        assert time.perf_counter() - t0 < 1.0


class TestRotationInPlace:
    """A 90 degree in-place turn in the teach path is followable only by the
    adaptive-radius controller."""

    def test_sloped_completes_all_noisy_runs_within_tolerance(self):
        rep = report("rotation_in_place", "sloped")
        scn = scenario("rotation_in_place")
        assert scn.noise.dropout_prob == 0.1 and scn.noise.pixel_sigma == 1.0
        assert rep["outcomes"] == {"done": 10}
        assert all(e < 0.3 for e in final_errors(rep))

    def test_standard_never_completes(self):
        rep = report("rotation_in_place", "standard")
        assert rep["outcomes"].get("done", 0) == 0


class TestOffsetStart:
    """Repeat started 2 m ahead of the teach start."""

    def test_start_is_two_meters_ahead(self):
        scn = scenario("offset_start")
        assert scn.repeat_start.x - scn.script.start_pose.x == pytest.approx(2.0)
        assert scn.repeat_start.y == scn.script.start_pose.y

    def test_sloped_recovers(self):
        rep = report("offset_start", "sloped")
        assert rep["outcomes"].get("done", 0) >= 8

    def test_standard_fails(self):
        rep = report("offset_start", "standard")
        assert rep["outcomes"].get("done", 0) <= 2


class TestAccuracyOrdering:
    """Sharp turns separate the controllers; near-straight paths do not."""

    def test_sharp_turn_sloped_beats_standard(self):
        slo = report("sharp_turn", "sloped")
        std = report("sharp_turn", "standard")
        assert slo["accuracy"] < std["accuracy"]
        assert slo["outcomes"].get("done", 0) >= 8

    def test_almost_straight_is_a_tie(self):
        slo = report("almost_straight", "sloped")
        std = report("almost_straight", "standard")
        assert slo["outcomes"].get("done", 0) >= 9
        assert std["outcomes"].get("done", 0) >= 9
        hi, lo = max(slo["accuracy"], std["accuracy"]), min(slo["accuracy"], std["accuracy"])
        assert hi < 2.0 * lo


class TestSwitchingCorrectness:
    """The switch statistic fires at the keyframe plane and not before."""

    def test_fifty_sampled_straight_paths(self):
        rng = np.random.default_rng(2024)
        cfg = NavigatorConfig()
        quiet = NoiseModel()
        checked = 0
        while checked < 50:
            length = float(rng.uniform(6.0, 14.0))
            half_gap = float(rng.uniform(1.5, 2.5))
            n = int(rng.integers(18, 30))
            v = float(rng.uniform(0.3, 0.7))
            lms = []
            nid = 1
            for k in range(n):
                x = 0.5 + (length - 0.5) * k / (n - 1)
                for y in (-half_gap, half_gap):
                    lms.append(Landmark(nid, x, y))
                    nid += 1
            world = World(landmarks=tuple(lms), bounds=(-5, -6, length + 5, 6))
            duration = float(rng.uniform(4.0, 8.0))
            script = TeachScript(
                steps=((MotionCommand(v, 0.0), duration),),
                start_pose=Pose(0, 0, 0),
                dt=0.1,
            )
            try:
                path = record(world, CAM, script, min_features=4)
            except TeachDegenerateError:
                continue
            kf = path.keyframes[1]
            poses = script.poses()
            kf_frame = next(
                i for i, p in enumerate(poses) if p == kf.pose_truth
            )
            # extend two ticks beyond the script in case the keyframe is last
            cmd = MotionCommand(v, 0.0)
            extended = poses + [
                step(poses[-1], cmd, 0.1),
                step(step(poses[-1], cmd, 0.1), cmd, 0.1),
            ]
            fired_at = None
            for f, pose in enumerate(extended):
                m = match(visible_set(world, pose, CAM), kf, quiet, quiet.make_rng())
                if should_switch(tick_stats(*cols(m)), cfg):
                    fired_at = f
                    break
            assert fired_at is not None, "switch never fired"
            assert fired_at > kf_frame, "switch fired before the keyframe plane"
            assert fired_at <= kf_frame + 2, "switch fired too late"
            checked += 1


class TestMetricIdentity:
    """accuracy^2 = repeatability^2 + squared bias, for any point set."""

    def test_thousand_random_point_sets(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            pts = rng.normal(0.0, rng.uniform(0.1, 5.0), size=(n, 2))
            goal = rng.normal(0.0, 3.0, size=2)
            acc = accuracy(pts, goal)
            rep = repeatability(pts)
            mu = pts.mean(axis=0)
            bias2 = float(np.sum((mu - goal) ** 2))
            assert abs(acc**2 - (rep**2 + bias2)) < 1e-9


class TestDeterminism:
    """Identical config and seed produce byte-identical outputs."""

    def test_compare_twice_is_byte_identical(self, tmp_path):
        cfg = str(SCENARIO_DIR / "almost_straight.yaml")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["compare", "--config", cfg, "--out", str(out_b)]) == 0
        files_a = sorted(
            p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()
        )
        files_b = sorted(
            p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file()
        )
        assert files_a == files_b
        compared = 0
        for rel in files_a:
            if rel.name == "meta.json":  # the only file allowed to hold wall time
                continue
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), str(rel)
            compared += 1
        assert compared >= 2 * 10 + 2 * 2 + 1  # traces, metrics+csv, path file


class TestTeachRule:
    """A keyframe is cut exactly when tracking first drops below half."""

    @staticmethod
    def _oracle_keyframes(frames):
        """Independent step-by-step replay of the keyframe rule."""
        kfs = [0]
        seen = set(frames[0])
        start_count = len(seen)
        f = 1
        while f < len(frames):
            seen = seen & set(frames[f])
            if len(seen) * 2 < start_count:
                candidate = f - 1
                if candidate <= kfs[-1]:
                    candidate = kfs[-1] + 1
                kfs.append(candidate)
                seen = set(frames[candidate]) & set(frames[f])
                start_count = len(frames[candidate])
            f += 1
        if kfs[-1] != len(frames) - 1:
            kfs.append(len(frames) - 1)
        return kfs

    def test_twenty_randomized_attrition_schedules(self):
        rng = np.random.default_rng(7)
        checked = 0
        attempts = 0
        while checked < 20:
            attempts += 1
            assert attempts < 200, "could not build 20 valid schedules"
            # a cloud of nearby landmarks that attrit as the robot drives by,
            # plus distant anchors that keep every frame above the error floor
            n_cloud = int(rng.integers(6, 16))
            cloud = [
                Landmark(
                    i + 1,
                    float(rng.uniform(1.0, 6.0)),
                    float(rng.uniform(-1.5, 1.5)),
                )
                for i in range(n_cloud)
            ]
            anchors = [
                Landmark(100 + i, 60.0, float(y))
                for i, y in enumerate((-4.0, -1.5, 1.5, 4.0))
            ]
            world = World(
                landmarks=tuple(cloud + anchors), bounds=(-5, -10, 70, 10)
            )
            v = float(rng.uniform(0.4, 1.0))
            omega = float(rng.uniform(-0.05, 0.05))
            script = TeachScript(
                steps=((MotionCommand(v, omega), float(rng.uniform(4.0, 9.0))),),
                start_pose=Pose(0, 0, 0),
                dt=0.1,
            )
            try:
                path = record(world, CAM, script, min_features=4)
            except TeachDegenerateError:
                continue
            poses = script.poses()
            frames = [visible_set(world, p, CAM) for p in poses]
            expected = self._oracle_keyframes(frames)
            got = [
                next(i for i, p in enumerate(poses) if p == kf.pose_truth)
                for kf in path.keyframes
            ]
            assert got == expected
            for kf, fr in zip(path.keyframes, got):
                assert kf.observations == frames[fr]
            checked += 1
        assert checked == 20
