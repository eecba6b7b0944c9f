"""Projection, kinematics and world-model unit tests."""

import ast
import inspect
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funnelnav import navigate, teach
from funnelnav.geometry import (
    CameraModel,
    Landmark,
    MotionCommand,
    Pose,
    World,
    in_collision,
    normalize_angle,
    sense,
    step,
    visible_set,
)

CAM = CameraModel()


class TestNormalizeAngle:
    def test_identity_in_range(self):
        assert normalize_angle(1.0) == pytest.approx(1.0)

    def test_wraps_to_half_open_interval(self):
        assert normalize_angle(-math.pi) == pytest.approx(math.pi)
        assert normalize_angle(math.pi) == pytest.approx(math.pi)
        assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)

    @given(st.floats(-50.0, 50.0))
    def test_period_two_pi(self, a):
        assert normalize_angle(a + 2 * math.pi) == pytest.approx(
            normalize_angle(a), abs=1e-9
        )

    @given(st.floats(-50.0, 50.0))
    def test_range(self, a):
        w = normalize_angle(a)
        assert -math.pi < w <= math.pi

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(math.pi)
    @example(-math.pi)
    @example(math.nextafter(-math.pi, 0.0))
    @example(3 * math.pi)
    def test_idempotent_to_the_bit(self, a):
        # a Pose's theta is normalised already, so code that passes it on
        # without building a Pose hands cos and sin the same float, zero's
        # sign included
        w = normalize_angle(a)
        assert struct.pack("d", normalize_angle(w)) == struct.pack("d", w)


class TestPose:
    @pytest.mark.parametrize("value", [1, True, np.float64(1.0)], ids=["int", "bool", "numpy"])
    def test_fields_are_floats(self, value):
        # an output prints a Pose's fields, so their type must not follow the caller's
        p = Pose(value, value, value)
        assert [type(v) for v in (p.x, p.y, p.theta)] == [float] * 3
        assert (repr(p.x), repr(p.y)) == ("1.0", "1.0")


def project(landmark, pose, cam):
    """One landmark's image coordinate, or None if not visible: the reference
    that visible_set's loop must equal, landmark by landmark."""
    dx = landmark.x - pose.x
    dy = landmark.y - pose.y
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    depth = dx * c + dy * s
    if depth < cam.min_depth:
        return None
    lat_left = -dx * s + dy * c
    u = cam.focal_length * (-lat_left) / depth
    if abs(u) > cam.half_width:
        return None
    return u


def seen_at(x, y, pose=Pose(0, 0, 0), cam=CAM):
    """visible_set's coordinate for a world of one landmark at (x, y), or None."""
    world = World(landmarks=(Landmark(1, x, y),), bounds=(-5, -5, 5, 5))
    return visible_set(world, pose.x, pose.y, pose.theta, cam).get(1)


class TestProjection:
    def test_landmark_dead_ahead_projects_to_center(self):
        assert seen_at(5.0, 0.0) == pytest.approx(0.0)

    def test_mirrored_landmarks_project_to_negatives(self):
        assert seen_at(4.0, 1.0) == pytest.approx(-seen_at(4.0, -1.0))

    def test_right_side_landmark_hand_value(self):
        cam = CameraModel(focal_length=200.0, half_width=160.0)
        # 4 m ahead, 1 m to the robot's right: u = 200 * 1 / 4
        assert seen_at(4.0, -1.0, cam=cam) == pytest.approx(50.0)

    def test_landmark_behind_is_invisible(self):
        assert seen_at(-1.0, 0.0) is None

    def test_landmark_too_close_is_invisible(self):
        assert seen_at(0.05, 0.0) is None

    def test_landmark_outside_border_is_invisible(self):
        # |u| = 277 * 2 / 1 far beyond the 160 px half width
        assert seen_at(1.0, 2.0) is None

    def test_rotated_pose(self):
        # robot facing +y, landmark straight along +y projects to center
        assert seen_at(0.0, 3.0, pose=Pose(0, 0, math.pi / 2)) == pytest.approx(0.0, abs=1e-9)


class TestVisibleSet:
    def test_empty_world(self):
        w = World(landmarks=(), bounds=(-1, -1, 1, 1))
        assert visible_set(w, 0, 0, 0, CAM) == {}

    def test_landmark_behind_robot_excluded(self):
        w = World(landmarks=(Landmark(1, -2.0, 0.0),), bounds=(-5, -5, 5, 5))
        assert visible_set(w, 0, 0, 0, CAM) == {}

    def test_maps_ids_to_coordinates(self):
        w = World(
            landmarks=(Landmark(1, 4.0, -1.0), Landmark(2, -2.0, 0.0)),
            bounds=(-5, -5, 5, 5),
        )
        out = visible_set(w, 0, 0, 0, CAM)
        assert set(out) == {1}
        assert out[1] == pytest.approx(277.0 / 4.0)

    # From the pose (0, 0, 0) these coordinates put landmarks exactly at
    # min_depth (x = 0.5), exactly on the image border (|y| = x / 2, so
    # |u| = 200 * |y| / x = 100), behind the camera and on the optical axis.
    @settings(max_examples=200)
    @given(
        points=st.lists(
            st.tuples(
                st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.5, 1.0, 2.0, -1.0, 0.0])),
                st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.25, -0.25, 0.5, -1.0, 0.0])),
            ),
            max_size=30,
        ),
        pose=st.one_of(
            st.just(Pose(0.0, 0.0, 0.0)),
            st.builds(Pose, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(-4.0, 4.0)),
        ),
    )
    @example(points=[(0.5, 0.0), (0.5, 0.25), (1.0, -0.5), (2.0, 1.0), (-1.0, 0.0)],
             pose=Pose(0.0, 0.0, 0.0))
    def test_equals_project_on_every_landmark(self, points, pose):
        cam = CameraModel(focal_length=200.0, half_width=100.0, min_depth=0.5)
        lms = tuple(Landmark(i, x, y) for i, (x, y) in enumerate(points))
        world = World(landmarks=lms, bounds=(-20, -20, 20, 20))
        expected = [(lm.id, project(lm, pose, cam)) for lm in lms]
        expected = [(i, u) for i, u in expected if u is not None]
        at = (pose.x, pose.y, pose.theta)
        # repr compares ids, order and every float to the bit, signed zeros included
        assert repr(list(visible_set(world, *at, cam).items())) == repr(expected)

    @settings(max_examples=200)
    @given(
        points=st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)), max_size=30),
        keep=st.lists(st.booleans(), min_size=30, max_size=30),
        pose=st.builds(Pose, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(-4.0, 4.0)),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_a_subset_world_sees_the_subset_of_the_whole_world(self, points, keep, pose, shuffle):
        # a repeat tick senses only its keyframe's landmarks, and a tracked
        # frame or tick only its tracked ones; this is why that changes no
        # float of a path or trace
        lms = tuple(Landmark(i, x, y) for i, (x, y) in enumerate(points))
        world = World(landmarks=lms, bounds=(-20, -20, 20, 20))
        subset = World(landmarks=tuple(lm for lm, k in zip(lms, keep) if k), bounds=world.bounds)
        ids = {lm.id for lm in subset.landmarks}
        at = (pose.x, pose.y, pose.theta)
        whole = visible_set(world, *at, CAM)
        expected = [(i, u) for i, u in whole.items() if i in ids]
        assert repr(list(visible_set(subset, *at, CAM).items())) == repr(expected)
        # sense keeps the order it is given
        shuffled = list(subset.landmarks)
        shuffle.shuffle(shuffled)
        expected = [(lm.id, whole[lm.id]) for lm in shuffled if lm.id in whole]
        assert repr(list(sense(shuffled, *at, CAM).items())) == repr(expected)


class TestStep:
    @pytest.mark.parametrize("module", [teach, navigate], ids=lambda m: m.__name__)
    def test_teach_and_navigate_step_by_the_frame_period(self, module):
        # a teach frame and a repeat tick both last geometry.DT
        calls = [node for node in ast.walk(ast.parse(inspect.getsource(module)))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "step"]
        assert calls and [ast.unparse(c.args[2]) for c in calls] == ["DT"] * len(calls)

    def test_zero_command_keeps_pose(self):
        p = Pose(1.0, 2.0, 0.5)
        assert step(p, MotionCommand(0.0, 0.0), 0.1) == p

    def test_rotation_in_place(self):
        p = step(Pose(1.0, 2.0, 0.0), MotionCommand(0.0, math.pi), 1.0)
        assert (p.x, p.y) == (1.0, 2.0)
        assert p.theta == pytest.approx(math.pi)

    def test_quarter_circle_arc(self):
        p = step(Pose(0, 0, 0), MotionCommand(1.0, 1.0), math.pi / 2)
        assert p.x == pytest.approx(1.0)
        assert p.y == pytest.approx(1.0)
        assert p.theta == pytest.approx(math.pi / 2)

    def test_matches_fine_euler_integration(self):
        cmd = MotionCommand(0.7, 0.3)
        dt = 0.5
        exact = step(Pose(0.2, -0.1, 0.4), cmd, dt)
        n = 100000
        x, y, th = 0.2, -0.1, 0.4
        h = dt / n
        for _ in range(n):
            x += cmd.v * h * math.cos(th)
            y += cmd.v * h * math.sin(th)
            th += cmd.omega * h
        assert exact.x == pytest.approx(x, abs=1e-6)
        assert exact.y == pytest.approx(y, abs=1e-6)
        assert exact.theta == pytest.approx(th, abs=1e-9)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            step(Pose(0, 0, 0), MotionCommand(1.0, 0.0), 0.0)

    @settings(max_examples=50)
    @given(
        st.floats(0.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
        st.floats(-3.0, 3.0),
    )
    # A turn rate just above zero: the radius form cancels to ~4e-9 here.
    @example(2.0, 1.192092896e-07, 0.6857451066812823, 0.7174603698611256, 0.5)
    def test_composition(self, v, omega, dt1, dt2, theta):
        cmd = MotionCommand(v, omega)
        p0 = Pose(0.0, 0.0, theta)
        whole = step(p0, cmd, dt1 + dt2)
        parts = step(step(p0, cmd, dt1), cmd, dt2)
        assert whole.x == pytest.approx(parts.x, abs=1e-9)
        assert whole.y == pytest.approx(parts.y, abs=1e-9)
        assert whole.theta == pytest.approx(parts.theta, abs=1e-9)


class TestCommandAndCamera:
    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            MotionCommand(-0.1, 0.0)

    def test_camera_parameters_must_be_positive(self):
        with pytest.raises(ValueError):
            CameraModel(focal_length=0.0)


class TestWorld:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            World(
                landmarks=(Landmark(1, 0, 0), Landmark(1, 1, 1)),
                bounds=(-5, -5, 5, 5),
            )

    def test_landmark_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            World(landmarks=(Landmark(1, 9.0, 0.0),), bounds=(-5, -5, 5, 5))

    def test_in_collision(self):
        w = World(landmarks=(), bounds=(-5, -5, 5, 5), obstacles=((0, 0, 1, 1),))
        assert in_collision(w, Pose(0.5, 0.5, 0.0))
        assert not in_collision(w, Pose(2.0, 0.5, 0.0))

