"""Teach phase: drive a scripted path and extract keyframes.

A new keyframe is cut whenever fewer than half of the features tracked since
the previous keyframe are still in view; the frame *before* the drop becomes
the keyframe, so every keyframe still holds at least 50% of its segment's
initial feature set.  Teaching is noiseless: a feature is tracked for as long
as it stays inside the image.

The drive is walked as floats: geometry's step advances each frame's
(x, y, theta), and a Pose is built only for a keyframe; TeachScript.poses()
is the same walk as Poses.  The drive is projected in blocks of frames, one
sense_block call over the whole world per block, so no array holds more
than GRID_BLOCK landmark-frame pairs whatever the drive's length.  A landmark tracked since a segment's start stays tracked until its
first hidden frame, so each segment's cut is read off the tracked landmarks'
first hidden frames in the block, with no loop over frames, and each
keyframe's observations are read off the block's columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TeachDegenerateError
from .features import Keyframe, VisualPath
from .geometry import GRID_BLOCK, DT, CameraModel, MotionCommand, Pose, World, sense_block, step

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
        # the walk appends one pose per frame, so a finite but huge count
        # would fill memory before the drive ended
        frames = sum(max(1, round(duration / DT)) for _, duration in self.steps)
        if frames > MAX_FRAMES:
            raise ValueError(f"a teach drive has at most {MAX_FRAMES} frames, the sum over "
                             "steps of max(1, round(duration / DT))")

    def poses(self) -> list[Pose]:
        """The full frame-by-frame pose sequence, starting at START."""
        return [Pose(*p) for p in self._walk()]

    def _walk(self) -> list[tuple[float, float, float]]:
        """Each frame's (x, y, theta) from START, as poses() holds them: step
        advances the floats themselves, one DT per frame."""
        out = [(START.x, START.y, START.theta)]
        for cmd, duration in self.steps:
            for _ in range(max(1, round(duration / DT))):
                out.append(step(*out[-1], cmd.v, cmd.omega, DT))
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
    walk = script._walk()
    px, py, pt = np.array(walk, dtype=float).T
    ids = [lm.id for lm in world.landmarks]
    width = max(1, GRID_BLOCK // max(1, len(ids)))  # frames per block

    def image(seen: np.ndarray, u: np.ndarray) -> dict[int, float]:
        """A frame's column as visible_set returns it: visible id -> u, in world order."""
        idx = np.flatnonzero(seen)
        return dict(zip([ids[i] for i in idx.tolist()], u[idx].tolist()))

    kf_frames: list[int] = []
    images: list[dict[int, float]] = []
    for a in range(0, len(walk), width):
        block = slice(a, a + width)
        seen, u = sense_block(world.landmarks, px[block], py[block], pt[block], cam)
        counts = seen.sum(axis=0)
        if (few := np.flatnonzero(counts < 2)).size:
            raise TeachDegenerateError(f"frame {a + few[0]} sees only {counts[few[0]]} landmarks")
        m = seen.shape[1]
        # first[i, j]: landmark i's first hidden column at or after column j, m if none
        first = np.where(seen, m, np.arange(m))
        first = np.minimum.accumulate(first[:, ::-1], axis=1)[:, ::-1]
        j = 0  # the segment is judged from column j on
        if a == 0:
            kf_frames.append(0)
            images.append(image(seen[:, 0], u[:, 0]))
            tracked, initial, j = np.flatnonzero(seen[:, 0]), len(images[0]), 1
        while j < m:
            # a tracked landmark stays alive until its first hidden frame, and
            # the cut is the first frame where 2 * alive < initial: where the
            # k-th largest first hidden column falls, or at once if fewer are tracked
            k = (initial + 1) // 2
            h = first[tracked, j]
            cut = j if len(h) < k else int(np.partition(h, len(h) - k)[len(h) - k])
            if cut == m:  # no cut in this block
                tracked = tracked[h == m]
                break
            # the previous frame becomes the keyframe; never re-select a frame.
            # It may be the previous block's last frame
            kf = max(a + cut - 1, kf_frames[-1] + 1) - a
            kf_seen, kf_u = (seen[:, kf], u[:, kf]) if kf >= 0 else carry
            kf_frames.append(a + kf)
            images.append(image(kf_seen, kf_u))
            tracked, initial, j = np.flatnonzero(kf_seen & seen[:, cut]), len(images[-1]), cut + 1
        carry = seen[:, -1], u[:, -1]
    if len(images[0]) < min_features:  # after the loop: a degenerate frame's error wins
        raise TeachDegenerateError(
            f"start pose sees {len(images[0])} landmarks, need {min_features}"
        )

    last = len(walk) - 1
    if kf_frames[-1] != last:
        kf_frames.append(last)
        images.append(image(*carry))

    keyframes = tuple(
        Keyframe(index=j, pose_truth=Pose(*walk[fr]), observations=obs)
        for j, (fr, obs) in enumerate(zip(kf_frames, images))
    )
    return VisualPath(keyframes=keyframes)
