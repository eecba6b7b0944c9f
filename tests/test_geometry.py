"""Projection, kinematics and world-model unit tests."""

import ast
import inspect
import math
import struct
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funnelnav import geometry, navigate, teach
from funnelnav.geometry import (
    CameraModel,
    Landmark,
    MotionCommand,
    Pose,
    World,
    in_collision,
    normalize_angle,
    project,
    sense_block,
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


def reference_u(landmark, pose, cam):
    """One landmark's image coordinate, or None if not visible: the reference
    that project's loop must equal, landmark by landmark."""
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
        expected = [(lm.id, reference_u(lm, pose, cam)) for lm in lms]
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
        # project keeps the order it is given: it returns the very landmarks
        # it was given, with the same coordinates
        shuffled = list(subset.landmarks)
        shuffle.shuffle(shuffled)
        expected = [(lm.id, whole[lm.id]) for lm in shuffled if lm.id in whole]
        seen, us = project(shuffled, *at, CAM)
        assert [id(lm) for lm in seen] == [id(lm) for lm in shuffled if lm.id in whole]
        assert repr([(lm.id, u) for lm, u in zip(seen, us, strict=True)]) == repr(expected)


# Seen from a grid position whose x is in _AXIS at heading 0 (the two
# subnormals round away in lm.x - x), these coordinates put landmarks exactly
# at min_depth (1.5 from 1.0), a float either side of it, at depth 0 (where u
# would be 0 / 0 or c / 0), behind the camera and exactly on the image border
# (|y| = 1 at depth 2, so |u| = 100).
_AXIS = st.sampled_from([0.0, 1.0, -1.0, 5e-324, -5e-324])
_NEAR = [0.5, 1.5, 0.0, 1.0, 2.0, 3.0, -1.0, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]


# A pose and a landmark on opposite sides of this far overflow dx = lm.x - x,
# or dy, to an infinity.  depth is then infinite, or NaN where dx * c and
# dy * s are infinities of opposite sign; u is NaN either way, and project keeps
# the landmark unless depth is -inf, since NaN fails both of its tests
_FAR = st.sampled_from([1.7e308, -1.7e308])
_CAM = CameraModel(focal_length=200.0, half_width=100.0, min_depth=0.5)


def assert_block_equals_project(lms, seen, u, positions):
    """Each block position's verdicts and visible coordinates, given its
    (x, y, theta) in the block's row-major order, equal project's to the bit."""
    n, m = len(lms), len(positions)
    # as Python values: numpy 2's repr of a float64 is not the float's, and
    # np.bool_ is not bool
    seen, u = seen.reshape(n, m).T.tolist(), u.reshape(n, m).T.tolist()
    for (x, y, theta), vis, col in zip(positions, seen, u, strict=True):
        obs = project(lms, x, y, theta, _CAM)
        # repr compares ids, order and every float to the bit, signed zeros and NaN included
        shown = [(lm.id, c) for lm, v, c in zip(lms, vis, col, strict=True) if v]
        assert repr(shown) == repr([(lm.id, c) for lm, c in zip(*obs, strict=True)])


class TestSenseBlock:
    """sense_block against project, position by position: an equal verdict
    can hide a coordinate that differs but still votes forward, so every
    visible coordinate is compared to the bit.  sense_block takes each
    heading's cos and sin from math, as project does: numpy's float64 sin and
    cos are not guaranteed to round as libm does, so a position computed from
    them could differ from project in the last bit."""

    @settings(max_examples=300)
    @given(
        points=st.lists(
            st.tuples(st.one_of(st.floats(-20.0, 20.0), st.sampled_from(_NEAR)),
                      st.one_of(st.floats(-20.0, 20.0), st.sampled_from([1.0, -1.0, 0.0, 0.25]))),
            max_size=12,
        ),
        xs=st.lists(st.one_of(st.floats(-20.0, 20.0), _AXIS), min_size=1, max_size=12),
        ys=st.lists(st.one_of(st.just(0.0), st.floats(-20.0, 20.0), _AXIS),
                    min_size=1, max_size=4),
        theta=st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
    )
    @example(points=[(0.5, 0.0), (1.5, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, -1.0), (-1.0, 0.0)],
             xs=[0.0, 1.0, -1.0, 5e-324], ys=[0.0], theta=0.0)
    # all seen from x = 0, one at min_depth and two on the border
    @example(points=[(0.5, 0.0), (2.0, 1.0), (2.0, -1.0)], xs=[0.0, 1.0], ys=[0.0], theta=0.0)
    # subnormal rows (they round away in lm.y - y) and a third row: x must run fastest
    @example(points=[(2.0, 1.0), (3.0, 0.5)], xs=[0.0, 0.5, 1.0], ys=[5e-324, -5e-324, 0.25],
             theta=0.0)
    def test_a_grid_block_equals_project_float_for_float(self, points, xs, ys, theta):
        # the grid walk's shape: a row of xs against a column of ys at one heading
        lms = [Landmark(i, x, ly) for i, (x, ly) in enumerate(points)]
        seen, u = sense_block(lms, xs, np.array(ys)[:, np.newaxis], theta, _CAM)
        shape = (len(lms), len(ys), len(xs))
        assert (seen.shape, seen.dtype) == (shape, bool)
        assert (u.shape, u.dtype) == (shape, np.float64)
        # row-major, x fastest: position (r, k) is (xs[k], ys[r])
        assert_block_equals_project(lms, seen, u, [(x, y, theta) for y in ys for x in xs])

    @settings(max_examples=300)
    @given(
        points=st.lists(
            st.tuples(st.one_of(st.floats(-20.0, 20.0), st.sampled_from(_NEAR), _FAR),
                      st.one_of(st.floats(-20.0, 20.0), st.sampled_from([1.0, -1.0, 0.0, 0.25]),
                                _FAR)),
            max_size=12,
        ),
        poses=st.lists(
            st.builds(Pose, st.one_of(st.floats(-20.0, 20.0), _AXIS, _FAR),
                      st.one_of(st.just(0.0), st.floats(-20.0, 20.0), _FAR),
                      st.one_of(st.just(0.0), st.floats(-4.0, 4.0),
                                st.sampled_from([math.pi / 2, math.pi]))),
            max_size=12,
        ),
    )
    # all seen from x = 0, one at min_depth and two on the border
    @example(points=[(0.5, 0.0), (2.0, 1.0), (2.0, -1.0)],
             poses=[Pose(0.0, 0.0, 0.0), Pose(1.0, 0.0, 0.0)])
    # dx overflows to inf, and dy to -inf: depth inf, or NaN at heading 0.3
    @example(points=[(1.7e308, 0.0), (1.7e308, -1.7e308), (2.0, 1.0)],
             poses=[Pose(-1.7e308, 0.0, 0.0), Pose(-1.7e308, 1.7e308, 0.3),
                    Pose(-1.7e308, 0.0, math.pi / 2), Pose(0.0, 0.0, 0.0)])
    def test_a_block_of_poses_equals_project_float_for_float(self, points, poses):
        # teach's shape: one array each of x, y and theta, a heading per pose
        lms = [Landmark(i, x, y) for i, (x, y) in enumerate(points)]
        x, y, theta = np.array([(p.x, p.y, p.theta) for p in poses]).reshape(-1, 3).T
        seen, u = sense_block(lms, x, y, theta, _CAM)
        shape = (len(lms), len(poses))
        assert (seen.shape, seen.dtype) == (shape, bool)
        assert (u.shape, u.dtype) == (shape, np.float64)
        assert_block_equals_project(lms, seen, u, [(p.x, p.y, p.theta) for p in poses])

    @pytest.mark.parametrize("y, theta", [(0.0, 0.0), (0.0, math.pi / 2), (-1.7e308, 0.3)],
                             ids=["depth-inf", "depth-inf-sideways", "depth-nan"])
    def test_an_overflowing_landmark_is_kept_as_project_keeps_it(self, y, theta):
        lm, pose = Landmark(1, 1.7e308, y), Pose(-1.7e308, -y, theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seen, u = sense_block([lm], [pose.x], [pose.y], [pose.theta], CAM)
        assert seen.tolist() == [[True]] and math.isnan(u[0, 0])
        assert project([lm], pose.x, pose.y, pose.theta, CAM)[0] == [lm]

    def test_cos_and_sin_come_from_math(self, monkeypatch):
        # numpy's cos and sin round as libm's on common platforms, so the
        # properties above pass with either.  With math's cos and sin nudged
        # one ulp, project's coordinates move, and sense_block's must move with them
        lms = [Landmark(i, x, y) for i, (x, y) in
               enumerate([(3.0, 0.7), (2.5, -0.4), (1.2, 1.9), (-2.0, 3.0), (-3.0, -1.0)])]
        positions = [(x, y, theta) for theta in (0.0, 0.3, 1.0, -2.5)
                     for y in (0.0, -0.2) for x in (0.0, 0.3)]
        unnudged = [project(lms, *p, _CAM) for p in positions]
        nudged = types.SimpleNamespace(**{
            **vars(math),
            "cos": lambda a: math.nextafter(math.cos(a), math.inf),
            "sin": lambda a: math.nextafter(math.sin(a), math.inf),
        })
        monkeypatch.setattr(geometry, "math", nudged)
        assert [project(lms, *p, _CAM) for p in positions] != unnudged
        x, y, theta = np.array(positions).T
        seen, u = sense_block(lms, x, y, theta, _CAM)
        assert_block_equals_project(lms, seen, u, positions)


class TestStep:
    @pytest.mark.parametrize("module", [teach, navigate], ids=lambda m: m.__name__)
    def test_teach_and_navigate_step_by_the_frame_period(self, module):
        # a teach frame and a repeat tick both last geometry.DT: navigate and
        # teach's float walk both call step, whose last argument is dt
        calls = [node for node in ast.walk(ast.parse(inspect.getsource(module)))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "step"]
        assert calls and [ast.unparse(c.args[-1]) for c in calls] == ["DT"] * len(calls)

    def test_navigate_and_teach_bind_geometry_s_own_functions(self):
        # perfbench's tracer wraps navigate.step and navigate.in_collision as
        # the geometry.step and geometry.in_collision layers
        assert navigate.step is geometry.step and teach.step is geometry.step
        assert navigate.in_collision is geometry.in_collision

    def test_zero_command_keeps_pose(self):
        p = Pose(1.0, 2.0, 0.5)
        assert Pose(*step(p.x, p.y, p.theta, 0.0, 0.0, 0.1)) == p

    def test_rotation_in_place(self):
        p = Pose(*step(1.0, 2.0, 0.0, 0.0, math.pi, 1.0))
        assert (p.x, p.y) == (1.0, 2.0)
        assert p.theta == pytest.approx(math.pi)

    def test_quarter_circle_arc(self):
        x, y, theta = step(0.0, 0.0, 0.0, 1.0, 1.0, math.pi / 2)
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(1.0)
        assert theta == pytest.approx(math.pi / 2)

    def test_matches_fine_euler_integration(self):
        v, omega = 0.7, 0.3
        dt = 0.5
        exact_x, exact_y, exact_theta = step(0.2, -0.1, 0.4, v, omega, dt)
        n = 100000
        x, y, th = 0.2, -0.1, 0.4
        h = dt / n
        for _ in range(n):
            x += v * h * math.cos(th)
            y += v * h * math.sin(th)
            th += omega * h
        assert exact_x == pytest.approx(x, abs=1e-6)
        assert exact_y == pytest.approx(y, abs=1e-6)
        assert exact_theta == pytest.approx(th, abs=1e-9)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf, -math.inf])
    def test_rejects_non_positive_dt(self, dt):
        # a NaN dt would otherwise walk to a NaN pose, and an infinite one
        # fail inside math.sin
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step(0.0, 0.0, 0.0, 1.0, 0.5, dt)

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
        whole = step(0.0, 0.0, theta, v, omega, dt1 + dt2)
        parts = step(*step(0.0, 0.0, theta, v, omega, dt1), v, omega, dt2)
        assert whole == pytest.approx(parts, abs=1e-9)


def _bits3(p) -> bytes:
    return struct.pack("<3d", *p)


# turn rates either side of the chord form's 1e-3 bound, and fast enough to
# wrap the heading across +-pi within a few frames
_OMEGA = st.one_of(st.floats(-1e-3, 1e-3), st.sampled_from([1e-3, -1e-3, 0.0, -0.0]),
                   st.floats(-20.0, 20.0))


class TestFloatWalk:
    """navigate and teach walk (x, y, theta) as floats through step, and a
    Pose is built from them only where one is kept: TeachScript.poses() and
    each Keyframe.pose_truth.  Such a Pose must store step's floats to the bit."""

    @settings(max_examples=200)
    @given(
        start=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                        st.one_of(st.floats(-4.0, 4.0),
                                  st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                                                   math.nextafter(-math.pi, 0.0)]))),
        commands=st.lists(st.tuples(st.floats(0.0, 2.0), _OMEGA), min_size=1, max_size=40),
    )
    @example(start=(0.0, 0.0, math.pi - 0.01), commands=[(0.5, 0.5)] * 3)
    @example(start=(0.0, 0.0, -math.pi + 0.01), commands=[(0.5, -0.5)] * 3)
    @example(start=(1.0, -1.0, math.pi), commands=[(0.5, 5e-4), (0.5, -5e-4), (0.3, 1e-300)])
    def test_a_pose_stores_the_float_walk_bit_for_bit(self, start, commands):
        pose = Pose(*start)
        p = (pose.x, pose.y, pose.theta)
        for v, omega in commands:
            p = step(*p, v, omega, geometry.DT)
            pose = Pose(*p)
            assert _bits3((pose.x, pose.y, pose.theta)) == _bits3(p)

    _RECT = (-1.5, 0.0, 2.0, 0.75)

    @pytest.mark.parametrize("x", [-1.5, 2.0, math.nextafter(-1.5, -2.0),
                                   math.nextafter(2.0, 3.0), 0.25])
    @pytest.mark.parametrize("y", [0.0, -0.0, 0.75, math.nextafter(0.0, -1.0),
                                   math.nextafter(0.75, 1.0), 0.5])
    def test_in_collision_is_the_closed_rectangle_on_its_edges(self, x, y):
        w = World(landmarks=(), bounds=(-5, -5, 5, 5), obstacles=((9.0, 9.0, 9.5, 9.5), self._RECT))
        xmin, ymin, xmax, ymax = self._RECT
        inside = xmin <= x <= xmax and ymin <= y <= ymax
        assert in_collision(w, x, y) is inside


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
        assert in_collision(w, 0.5, 0.5)
        assert not in_collision(w, 2.0, 0.5)

