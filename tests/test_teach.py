"""Teach-phase keyframe selection tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav import teach
from funnelnav.errors import TeachDegenerateError
from funnelnav.features import Keyframe, VisualPath
from funnelnav.geometry import DT, CameraModel, Landmark, MotionCommand, Pose, World, visible_set
from funnelnav.teach import MAX_FRAMES, START, TeachScript, record

CAM = CameraModel()


def straight(duration, v=0.5):
    return TeachScript(steps=((MotionCommand(v, 0.0), duration),))


def corridor(x1=20.0):
    lms = []
    nid = 1
    for k in range(40):
        x = 0.5 + (x1 - 0.5) * k / 39
        for y in (-2.0, 2.0):
            lms.append(Landmark(nid, x, y))
            nid += 1
    return World(landmarks=tuple(lms), bounds=(-5, -5, x1 + 5, 5))


class TestTeachScript:
    def test_pose_count(self):
        script = straight(2.0)
        assert len(script.poses()) == 21

    def test_starts_at_the_origin_one_dt_per_frame(self):
        poses = straight(0.3).poses()
        assert poses[0] == START == Pose(0, 0, 0)
        assert [type(v) for v in (START.x, START.y, START.theta)] == [float] * 3  # output bytes
        assert [p.x for p in poses] == pytest.approx([0.5 * DT * k for k in range(4)])

    def test_rejects_bad_durations(self):
        for duration in (0.0, -1.0):
            with pytest.raises(ValueError, match="durations must be positive"):
                straight(duration)

    def test_rejects_more_than_max_frames(self):
        # 1e300 / DT frames is finite, and poses() would fill memory appending them
        with pytest.raises(ValueError, match="at most 100000 frames"):
            straight(1e300)
        # the bound counts the frames of every step together: two steps of
        # MAX_FRAMES / 2 frames pass, and a one-frame step more fails
        half = (MotionCommand(0.5, 0.0), MAX_FRAMES / 2 * DT)
        assert MAX_FRAMES == 100_000 and round(half[1] / DT) == MAX_FRAMES / 2
        TeachScript(steps=(half, half))
        with pytest.raises(ValueError, match="at most 100000 frames"):
            TeachScript(steps=(half, half, (MotionCommand(0.5, 0.0), DT)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["duration", "v", "omega"])
    def test_rejects_non_finite_values(self, field, bad):
        # each would end in round() or math.sin() on the first teach step
        values = {"duration": 1.0, "v": 0.5, "omega": 0.1, field: bad}
        with pytest.raises(ValueError, match="finite"):
            TeachScript(steps=((MotionCommand(values["v"], values["omega"]), values["duration"]),))


class TestKeyframeSelection:
    def test_short_script_gives_first_and_last_only(self):
        # nothing ever leaves view, so only the boundary keyframes exist
        world = World(
            landmarks=tuple(Landmark(i, 30.0, -2.0 + i) for i in range(5)),
            bounds=(-5, -5, 35, 5),
        )
        path = record(world, CAM, straight(1.0), min_features=4)
        assert len(path.keyframes) == 2
        assert path.keyframes[0].pose_truth == Pose(0, 0, 0)
        assert path.keyframes[-1].pose_truth.x == pytest.approx(0.5)

    def test_attrition_hand_trace(self):
        # Three landmarks stacked at x = 1.05 leave the image between frames 9
        # and 10 (v = 1, dt = 0.1, min_depth = 0.1); two anchors at x = 50 stay
        # visible.  Tracked fraction drops 5 -> 2 at frame 10, so frame 9 is a
        # keyframe; the new segment instantly drops below half again (the
        # keyframe re-sees all five), forcing the never-reselect guard to pick
        # frame 10 itself.
        close = tuple(Landmark(i, 1.05, 0.0) for i in (1, 2, 3))
        anchors = (Landmark(4, 50.0, -0.5), Landmark(5, 50.0, 0.5))
        world = World(landmarks=close + anchors, bounds=(-5, -5, 60, 5))
        script = straight(2.0, v=1.0)
        path = record(world, CAM, script, min_features=4)
        poses = script.poses()
        frame_of = {round(p.x, 6): i for i, p in enumerate(poses)}
        kf_frames = [frame_of[round(kf.pose_truth.x, 6)] for kf in path.keyframes]
        assert kf_frames == [0, 9, 10, 20]
        assert [kf.index for kf in path.keyframes] == [0, 1, 2, 3]

    def test_keyframe_retains_half_of_segment_start(self):
        # the paper's rule: at least half of the features seen at a segment's start
        # keyframe stay in view in every frame up to its end keyframe
        world = corridor()
        script = straight(20.0)
        path = record(world, CAM, script, min_features=4)
        assert len(path.keyframes) >= 3
        poses = script.poses()
        frames = [visible_set(world, p.x, p.y, p.theta, CAM) for p in poses]
        kf_frames = [
            next(i for i, p in enumerate(poses) if p == kf.pose_truth)
            for kf in path.keyframes
        ]
        for kf, (fa, fb) in zip(path.keyframes, zip(kf_frames, kf_frames[1:])):
            surviving = set(frames[fa])
            for f in range(fa + 1, fb + 1):
                surviving &= set(frames[f])
            assert len(surviving) / len(kf.observations) >= 0.5 or len(surviving) >= 2


class TestDegenerateInputs:
    def test_start_pose_needs_min_features(self):
        world = World(
            landmarks=(Landmark(1, 10.0, 0.0), Landmark(2, 10.0, 1.0)),
            bounds=(-5, -5, 15, 5),
        )
        with pytest.raises(TeachDegenerateError):
            record(world, CAM, straight(1.0), min_features=4)

    def test_any_frame_below_two_landmarks(self):
        world = World(
            landmarks=(
                Landmark(1, 1.0, 0.0),
                Landmark(2, 1.0, 0.1),
                Landmark(3, 1.0, -0.1),
                Landmark(4, 1.2, 0.0),
            ),
            bounds=(-5, -5, 15, 5),
        )
        # driving past every landmark leaves later frames with no features
        with pytest.raises(TeachDegenerateError):
            record(world, CAM, straight(5.0), min_features=4)

    def test_determinism(self):
        world = corridor()
        a = record(world, CAM, straight(20.0), min_features=4)
        b = record(world, CAM, straight(20.0), min_features=4)
        assert a == b


def reference_record(world, cam, script, min_features):
    """record as it was written first, projecting the whole world on every
    frame: the reference that record, which projects only the tracked
    landmarks, must equal."""
    poses = script.poses()
    frames = [visible_set(world, p.x, p.y, p.theta, cam) for p in poses]
    for k, obs in enumerate(frames):
        if len(obs) < 2:
            raise TeachDegenerateError(f"frame {k} sees only {len(obs)} landmarks")
    if len(frames[0]) < min_features:
        raise TeachDegenerateError(
            f"start pose sees {len(frames[0])} landmarks, need {min_features}"
        )

    kf_frames = [0]
    tracked = set(frames[0])
    initial = len(tracked)

    for f in range(1, len(frames)):
        new_tracked = tracked & set(frames[f])
        if len(new_tracked) / initial < 0.5:
            kf_frame = max(f - 1, kf_frames[-1] + 1)
            kf_frames.append(kf_frame)
            tracked = set(frames[kf_frame]) & set(frames[f])
            initial = len(set(frames[kf_frame]))
        else:
            tracked = new_tracked

    last = len(frames) - 1
    if kf_frames[-1] != last:
        kf_frames.append(last)

    keyframes = tuple(
        Keyframe(index=j, pose_truth=poses[fr], observations=dict(frames[fr]))
        for j, fr in enumerate(kf_frames)
    )
    return VisualPath(keyframes=keyframes)


def outcome(fn, *args):
    """repr of fn's path, or the text of the TeachDegenerateError it raises."""
    try:
        return repr(fn(*args))
    except TeachDegenerateError as e:
        return f"TeachDegenerateError: {e}"


class TestTrackedProjection:
    @settings(max_examples=100)
    @given(
        # n landmarks evenly spaced in bearing around the start, at random
        # ranges, with shuffled ids, so a set's order is not the world's; the
        # drive turns, so that keyframes are cut
        n=st.integers(2, 30),
        ids=st.permutations(range(30)),
        ranges=st.lists(st.floats(2.0, 8.0), min_size=30, max_size=30),
        steps=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
                                 st.floats(0.1, 3.0)), min_size=1, max_size=4),
        min_features=st.integers(2, 8),
    )
    def test_equals_the_whole_frame_reference(self, n, ids, ranges, steps, min_features):
        world = World(tuple(Landmark(i, r * math.cos(2 * math.pi * k / n),
                                     r * math.sin(2 * math.pi * k / n))
                            for k, (i, r) in enumerate(zip(ids[:n], ranges))),
                      bounds=(-8, -8, 8, 8))
        script = TeachScript(tuple((MotionCommand(v, w), d) for v, w, d in steps))
        args = (world, CAM, script, min_features)
        # repr compares every keyframe's pose and observations, floats to the bit
        assert outcome(record, *args) == outcome(reference_record, *args)

    @pytest.mark.parametrize(
        "world, min_features, error",
        [
            # the start pose sees 4 of min_features 5, and the drive passes
            # all 4, so a later frame sees fewer than 2: the frame's error
            # wins, as in the reference
            (World((Landmark(1, 1.0, 0.0), Landmark(2, 1.0, 0.1), Landmark(3, 1.0, -0.1),
                    Landmark(4, 1.2, 0.0)), (-5, -5, 15, 5)), 5,
             "frame 10 sees only 1 landmarks"),
            # 1 of 2 tracked landmarks leaves view, which is no cut (half
            # stay), yet the frame sees only 1 landmark in all
            (World((Landmark(1, 1.0, 0.0), Landmark(2, 50.0, 0.0)), (-5, -5, 60, 5)), 2,
             "frame 10 sees only 1 landmarks"),
        ],
        ids=["late-frame-and-start-pose", "one-of-two-left-without-a-cut"],
    )
    def test_a_degenerate_frame_raises_as_in_the_reference(self, world, min_features, error):
        args = (world, CAM, straight(5.0, v=1.0), min_features)
        assert outcome(record, *args) == f"TeachDegenerateError: {error}"
        assert outcome(reference_record, *args) == outcome(record, *args)

    def test_projects_the_whole_world_only_where_it_is_read(self, monkeypatch):
        # frame 0, the two frames of each cut and the last frame; the corridor
        # never leaves fewer than 2 tracked landmarks in view
        calls, real = [], teach.sense

        def counting(landmarks, *args):
            calls.append(len(landmarks))
            return real(landmarks, *args)

        monkeypatch.setattr(teach, "sense", counting)
        world = corridor()
        path = record(world, CAM, straight(20.0), min_features=4)
        whole = calls.count(len(world.landmarks))
        assert whole <= 2 * (len(path.keyframes) - 2) + 2
        assert len(calls) - whole == len(straight(20.0).poses()) - 1  # one per later frame
