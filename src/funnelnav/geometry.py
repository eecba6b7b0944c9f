"""World model, 1-D pinhole projection and unicycle kinematics.

The camera looks along the robot heading; landmarks project onto a single
horizontal image axis.  Positive image coordinates are on the RIGHT side of
the image, negative on the left.  sense projects any sequence of landmarks,
such as the few a tracked frame still follows; visible_set projects a whole
World.  All functions here are pure and operate on immutable values.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

__all__ = [
    "Pose",
    "Landmark",
    "CameraModel",
    "World",
    "MotionCommand",
    "normalize_angle",
    "sense",
    "visible_set",
    "step",
    "in_collision",
]

_TWO_PI = 2.0 * math.pi
DT = 0.1  # s, the frame period of the camera: one teach frame, one repeat tick


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.remainder(a, _TWO_PI)
    if a <= -math.pi:
        a += _TWO_PI
    return a


@dataclass(frozen=True)
class Pose:
    """Planar robot pose: position in meters, heading in radians (CCW, 0 = +x)."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        # stored as floats, so an output's bytes never depend on the caller's number types
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True)
class Landmark:
    """A fixed, identifiable world point."""

    id: int
    x: float
    y: float


@dataclass(frozen=True)
class CameraModel:
    """Forward-looking 1-D pinhole camera.

    The image spans [-half_width, +half_width] pixels; points closer than
    min_depth along the optical axis are not imaged.
    """

    focal_length: float = 277.0
    half_width: float = 160.0
    min_depth: float = 0.1

    def __post_init__(self):
        for name in ("focal_length", "half_width", "min_depth"):
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be positive and finite, not {v!r}")


@dataclass(frozen=True)
class MotionCommand:
    """Commanded translational (m/s, >= 0) and rotational (rad/s, CCW+) speed."""

    v: float
    omega: float

    def __post_init__(self):
        if self.v < 0:
            raise ValueError("translational speed must be non-negative")


Rect = tuple[float, float, float, float]  # xmin, ymin, xmax, ymax


@dataclass(frozen=True)
class World:
    """A bounded plane with landmarks and optional collision-reporting obstacles.

    Obstacles never affect sensing; they only flag a run as collided.
    """

    landmarks: tuple[Landmark, ...]
    bounds: Rect
    obstacles: tuple[Rect, ...] = field(default=())

    def __post_init__(self):
        ids = [lm.id for lm in self.landmarks]
        if len(ids) != len(set(ids)):
            raise ValueError("landmark ids must be unique within a world")
        xmin, ymin, xmax, ymax = self.bounds
        for lm in self.landmarks:
            if not (xmin <= lm.x <= xmax and ymin <= lm.y <= ymax):
                raise ValueError(f"landmark {lm.id} outside world bounds")


def sense(
    landmarks: Sequence[Landmark], x: float, y: float, theta: float, cam: CameraModel
) -> dict[int, float]:
    """Map of landmark id -> image coordinate for those of landmarks visible
    from position (x, y) at heading theta, in the order given.

    A landmark's coordinate is focal_length * lateral / depth, positive on the
    right side of the image.  It is not visible when it lies closer than
    min_depth along the heading or when |u| exceeds half_width.  Each landmark
    is judged alone, so sensing a subset gives that subset's entries of
    sensing the whole, float for float.
    """
    c, s = math.cos(theta), math.sin(theta)
    f, half_width, min_depth = cam.focal_length, cam.half_width, cam.min_depth
    out = {}
    for lm in landmarks:
        dx = lm.x - x
        dy = lm.y - y
        depth = dx * c + dy * s
        if depth < min_depth:
            continue
        u = f * -(-dx * s + dy * c) / depth
        if abs(u) > half_width:
            continue
        out[lm.id] = u
    return out


def visible_set(
    world: World, x: float, y: float, theta: float, cam: CameraModel
) -> dict[int, float]:
    """sense over all of world's landmarks, in world order."""
    # kept only because perfbench's tracer wraps visible_set by name and
    # counts args[0].landmarks; callers that hold a landmark sequence call sense
    return sense(world.landmarks, x, y, theta, cam)


def step(pose: Pose, cmd: MotionCommand, dt: float) -> Pose:
    """Advance a pose by one command interval using exact unicycle integration."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if abs(cmd.omega) < 1e-3:
        # Chord form: v*dt*sinc(h) along the mid heading, h = omega*dt/2.
        # The radius form below loses about eps*v/|omega| to cancellation,
        # which is no longer small as omega -> 0; this form stays exact.
        h = 0.5 * cmd.omega * dt
        chord = cmd.v * dt * (math.sin(h) / h if h else 1.0)
        return Pose(
            pose.x + chord * math.cos(pose.theta + h),
            pose.y + chord * math.sin(pose.theta + h),
            pose.theta + cmd.omega * dt if h else pose.theta,
        )
    r = cmd.v / cmd.omega
    th1 = pose.theta + cmd.omega * dt
    return Pose(
        pose.x + r * (math.sin(th1) - math.sin(pose.theta)),
        pose.y - r * (math.cos(th1) - math.cos(pose.theta)),
        th1,
    )


def in_collision(world: World, pose: Pose) -> bool:
    """True when the robot position lies inside any obstacle rectangle."""
    for xmin, ymin, xmax, ymax in world.obstacles:
        if xmin <= pose.x <= xmax and ymin <= pose.y <= ymax:
            return True
    return False

