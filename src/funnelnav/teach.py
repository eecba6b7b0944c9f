"""Teach phase: drive a scripted path and extract keyframes.

A new keyframe is cut whenever fewer than half of the features tracked since
the previous keyframe are still in view; the frame *before* the drop becomes
the keyframe, so every keyframe still holds at least 50% of its segment's
initial feature set.  Teaching is noiseless: a feature is tracked for as long
as it stays inside the image.

A frame projects only the landmarks still tracked, which is all the rule
reads.  The whole world is projected, once per frame, only where it is read:
at the first and last frames, at the two frames of each keyframe cut, and at
a frame where fewer than 2 tracked landmarks stay in view, to tell whether it
sees fewer than 2 at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TeachDegenerateError
from .features import Keyframe, VisualPath
from .geometry import DT, CameraModel, MotionCommand, Pose, World, sense, step

__all__ = ["TeachScript", "record"]

MAX_FRAMES = 100_000  # the longest shipped drive, closed_loop, has 360
START = Pose(0.0, 0.0, 0.0)  # every drive's first pose


@dataclass(frozen=True)
class TeachScript:
    """A scripted teach drive from START: piecewise-constant commands, one frame per DT."""

    steps: tuple[tuple[MotionCommand, float], ...]

    def __post_init__(self):
        for cmd, duration in self.steps:
            # duration / DT is the step's frame count, which must be finite
            if not (duration > 0 and math.isfinite(duration / DT)):
                raise ValueError("step durations must be positive, and duration / DT finite")
            if not (math.isfinite(cmd.v) and math.isfinite(cmd.omega)):
                raise ValueError("step speeds v and omega must be finite")
        # poses() appends one pose per frame, so a finite but huge count would
        # fill memory before the drive ended
        frames = sum(max(1, round(duration / DT)) for _, duration in self.steps)
        if frames > MAX_FRAMES:
            raise ValueError(f"a teach drive has at most {MAX_FRAMES} frames, the sum over "
                             "steps of max(1, round(duration / DT))")

    def poses(self) -> list[Pose]:
        """The full frame-by-frame pose sequence, starting at START."""
        out = [START]
        pose = START
        for cmd, duration in self.steps:
            for _ in range(max(1, round(duration / DT))):
                pose = step(pose, cmd, DT)
                out.append(pose)
        return out


def record(
    world: World,
    cam: CameraModel,
    script: TeachScript,
    min_features: int,
) -> VisualPath:
    """Simulate a teach drive and return the resulting visual path.

    Deterministic: identical (world, cam, script) always yields the same path.
    Raises TeachDegenerateError when any frame sees fewer than 2 landmarks or
    the start pose sees fewer than min_features.
    """
    poses = script.poses()
    lm_of = {lm.id: lm for lm in world.landmarks}
    frames: dict[int, dict[int, float]] = {}  # frame -> the whole world's view

    def whole(k: int) -> dict[int, float]:
        """The whole world seen from frame k, projected once.  Every frame
        before the loop's current one sees 2 or more landmarks, so a frame
        found to see fewer is the first such frame."""
        if k not in frames:
            p = poses[k]
            frames[k] = sense(world.landmarks, p.x, p.y, p.theta, cam)
            if len(frames[k]) < 2:
                raise TeachDegenerateError(f"frame {k} sees only {len(frames[k])} landmarks")
        return frames[k]

    kf_frames = [0]
    tracked = set(whole(0))
    initial = len(tracked)

    for f in range(1, len(poses)):
        p = poses[f]
        new_tracked = set(sense([lm_of[i] for i in tracked], p.x, p.y, p.theta, cam))
        if len(new_tracked) < 2:
            whole(f)  # raises unless untracked landmarks make up the 2
        if len(new_tracked) / initial < 0.5:
            # the previous frame becomes the keyframe; never re-select a frame
            kf_frame = max(f - 1, kf_frames[-1] + 1)
            kf_frames.append(kf_frame)
            tracked = set(whole(kf_frame)) & set(whole(f))
            initial = len(whole(kf_frame))
        else:
            tracked = new_tracked
    if len(whole(0)) < min_features:  # after the loop: a degenerate frame's error wins
        raise TeachDegenerateError(
            f"start pose sees {len(whole(0))} landmarks, need {min_features}"
        )

    last = len(poses) - 1
    if kf_frames[-1] != last:
        kf_frames.append(last)

    keyframes = tuple(
        Keyframe(index=j, pose_truth=poses[fr], observations=dict(whole(fr)))
        for j, fr in enumerate(kf_frames)
    )
    return VisualPath(keyframes=keyframes)
