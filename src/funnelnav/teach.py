"""Teach phase: drive a scripted path and extract keyframes.

A new keyframe is cut whenever fewer than half of the features tracked since
the previous keyframe are still in view; the frame *before* the drop becomes
the keyframe, so every keyframe still holds at least 50% of its segment's
initial feature set.  Teaching is noiseless: a feature is tracked for as long
as it stays inside the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TeachDegenerateError
from .features import Keyframe, VisualPath
from .geometry import DT, CameraModel, MotionCommand, Pose, World, step, visible_set

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
            # the previous frame becomes the keyframe; never re-select a frame
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
