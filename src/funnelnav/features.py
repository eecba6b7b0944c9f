"""Keyframes, visual paths, simulated feature matching and match statistics."""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPathError
from .geometry import Pose

__all__ = [
    "Keyframe",
    "VisualPath",
    "MatchSet",
    "NoiseModel",
    "match",
    "std_ratio",
    "median",
    "median_distance",
    "mse",
    "save_visual_path",
]


@dataclass(frozen=True)
class Keyframe:
    """A snapshot of landmark observations (id -> image coordinate) at a teach pose.

    pose_truth is kept for evaluation and oracles only; controllers never read it.
    """

    index: int
    pose_truth: Pose
    observations: dict[int, float]

    def __post_init__(self):
        if not self.observations:
            raise InvalidPathError(f"keyframe {self.index} has no observations")


@dataclass(frozen=True)
class VisualPath:
    """Ordered keyframes; consecutive keyframes share at least one observation."""

    keyframes: tuple[Keyframe, ...]

    def __post_init__(self):
        if len(self.keyframes) < 2:
            raise InvalidPathError("a visual path needs at least 2 keyframes")
        for a, b in zip(self.keyframes, self.keyframes[1:]):
            if not set(a.observations) & set(b.observations):
                raise InvalidPathError(
                    f"keyframes {a.index} and {b.index} share no observation"
                )


@dataclass(frozen=True)
class NoiseModel:
    """Per-run feature noise: matching dropout and additive pixel noise.

    Pixel noise is Gaussian truncated at +/-3 sigma so a single draw can never
    teleport a feature across the image.
    """

    dropout_prob: float = 0.0
    pixel_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.dropout_prob < 1.0):
            raise ValueError("dropout_prob must be in [0, 1)")
        if not 0 <= self.pixel_sigma < math.inf:
            raise ValueError("pixel_sigma must be non-negative and finite")

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


# Feature correspondences between a current image and a keyframe image, as
# (id, u_current, u_keyframe) triples in ascending id order: match's result,
# which the navigator unzips into the tick's ids and two coordinate columns.
MatchSet = tuple[tuple[int, float, float], ...]


def perturb(u: float, noise: NoiseModel, rng: np.random.Generator) -> float:
    """Apply truncated Gaussian pixel noise to one coordinate."""
    if noise.pixel_sigma == 0.0:
        return u
    d = rng.normal(0.0, noise.pixel_sigma)
    lim = 3.0 * noise.pixel_sigma
    return u + (lim if d > lim else -lim if d < -lim else d)


def perturb_all(us: list[float], noise: NoiseModel, rng: np.random.Generator) -> list[float]:
    """perturb() applied to each coordinate in turn, drawn in one call.

    A Generator yields the same doubles from one size-n draw as from n scalar
    draws, so the result and the generator's state equal n perturb() calls.
    """
    if noise.pixel_sigma == 0.0:
        return us
    lim = 3.0 * noise.pixel_sigma
    draws = rng.normal(0.0, noise.pixel_sigma, len(us)).tolist()
    return [u + (lim if d > lim else -lim if d < -lim else d) for u, d in zip(us, draws)]


def survivors(ids: list[int], noise: NoiseModel, rng: np.random.Generator) -> list[int]:
    """The ids that outlive one tick of tracking dropout, one draw per id in order.

    Equal to keeping each id whose scalar rng.random() is at least dropout_prob.
    """
    if noise.dropout_prob == 0.0:
        return ids
    draws = rng.random(len(ids)).tolist()
    return [i for i, r in zip(ids, draws) if r >= noise.dropout_prob]


def match(
    current_obs: dict[int, float],
    kf: Keyframe,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> MatchSet:
    """Simulated feature matching of the current image against a keyframe.

    Common ids survive with probability 1 - dropout_prob; surviving current
    coordinates get pixel noise, keyframe coordinates are taken verbatim.
    An empty result is a legal value (consumed as "lost" upstream).
    """
    common = sorted(set(current_obs) & set(kf.observations))
    pairs = []
    # a pair's dropout draw comes before its pixel-noise draw, so these stay
    # scalar draws, one pair at a time
    noisy = noise.pixel_sigma != 0.0
    for i in common:
        if noise.dropout_prob > 0.0 and rng.random() < noise.dropout_prob:
            continue
        u = perturb(current_obs[i], noise, rng) if noisy else current_obs[i]
        pairs.append((i, u, kf.observations[i]))
    return tuple(pairs)


def _sum(xs: list[float]) -> float:
    """Sum in numpy's float64 add.reduce order (pairwise over blocks of 8),
    so the result equals np.sum bit for bit without numpy's per-call cost."""
    n = len(xs)
    if n < 8:
        s = 0.0
        for x in xs:
            s += x
        return s
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[:8]
        m = n - n % 8
        for i in range(8, m, 8):
            r0 += xs[i]
            r1 += xs[i + 1]
            r2 += xs[i + 2]
            r3 += xs[i + 3]
            r4 += xs[i + 4]
            r5 += xs[i + 5]
            r6 += xs[i + 6]
            r7 += xs[i + 7]
        s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(m, n):
            s += xs[i]
        return s
    half = n // 2
    half -= half % 8
    return _sum(xs[:half]) + _sum(xs[half:])


def _pstd(xs: list[float]) -> float:
    """Population standard deviation, equal to numpy's std() bit for bit."""
    n = len(xs)
    mean = _sum(xs) / n
    return math.sqrt(_sum([(x - mean) * (x - mean) for x in xs]) / n)


def std_ratio(uc: list[float], uj: list[float]) -> float | None:
    """Ratio of the population standard deviations of coordinate columns uc / uj.

    Crosses 1 when the robot passes the keyframe plane.  None where undefined:
    fewer than 2 pairs or zero keyframe spread.
    """
    if len(uc) < 2:
        return None
    sb = _pstd(uj)
    if sb == 0.0:
        return None
    return _pstd(uc) / sb


def median(xs: list[float]) -> float | None:
    """The median of xs, or None when xs is empty."""
    # statistics.median returns numpy's median bit for bit (the middle value,
    # or the two middle values summed and halved) without its per-call cost
    return statistics.median(xs) if xs else None


def median_distance(uc: list[float], uj: list[float]) -> float | None:
    """Absolute difference between the median of the current coordinate column
    and that of the keyframe column; None on an empty match set."""
    return abs(median(uc) - median(uj)) if uc else None


def mse(uc: list[float], uj: list[float]) -> float | None:
    """Mean squared difference of the current and keyframe coordinate columns,
    None on an empty match set; diagnostic trace channel only."""
    if not uc:
        return None
    return _sum([(a - b) * (a - b) for a, b in zip(uc, uj)]) / len(uc)


# --- visual-path file (JSON) ------------------------------------------------

def save_visual_path(path: VisualPath, file) -> None:
    """Write a visual path's keyframes as JSON, byte-stable for a given path."""
    d = {
        "keyframes": [
            {
                "index": kf.index,
                "pose_truth": [kf.pose_truth.x, kf.pose_truth.y, kf.pose_truth.theta],
                "observations": {str(i): u for i, u in kf.observations.items()},
            }
            for kf in path.keyframes
        ],
    }
    with open(file, "w") as fh:
        json.dump(d, fh, indent=1, sort_keys=True)
        fh.write("\n")
