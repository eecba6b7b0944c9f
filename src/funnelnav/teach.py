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
from .geometry import CameraModel, MotionCommand, Pose, World, step, visible_set

__all__ = ["TeachScript", "record"]


@dataclass(frozen=True)
class TeachScript:
    """A scripted teach drive: piecewise-constant commands integrated at fixed dt."""

    steps: tuple[tuple[MotionCommand, float], ...]
    start_pose: Pose
    dt: float

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        for cmd, duration in self.steps:
            # duration / dt is the step's frame count, which must be finite
            if not (duration > 0 and math.isfinite(duration / self.dt)):
                raise ValueError("step durations must be positive, and duration / dt finite")
            if not (math.isfinite(cmd.v) and math.isfinite(cmd.omega)):
                raise ValueError("step speeds v and omega must be finite")

    def poses(self) -> list[Pose]:
        """The full frame-by-frame pose sequence, starting at start_pose."""
        out = [self.start_pose]
        pose = self.start_pose
        for cmd, duration in self.steps:
            n = max(1, round(duration / self.dt))
            for _ in range(n):
                pose = step(pose, cmd, self.dt)
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
    frames = [visible_set(world, p, cam) for p in poses]
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
