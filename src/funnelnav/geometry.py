"""World model, 1-D pinhole projection and unicycle kinematics.

The camera looks along the robot heading; landmarks project onto a single
horizontal image axis.  Positive image coordinates are on the RIGHT side of
the image, negative on the left.  One loop, project, projects any sequence
of landmarks from one position and heading, such as the few a tracked tick
still follows, and returns the visible landmarks and their coordinates;
visible_set is its result over a whole World as an id -> coordinate map.
sense_block projects landmarks from a whole block of positions and headings
at once, such as a block of oracle grid cells or of teach frames.  step and
in_collision take a position as floats, so a walk of many frames builds no
Pose per frame.  All functions here are pure and operate on immutable values.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Pose",
    "Landmark",
    "CameraModel",
    "World",
    "MotionCommand",
    "normalize_angle",
    "project",
    "sense_block",
    "visible_set",
    "step",
    "in_collision",
]

_TWO_PI = 2.0 * math.pi
DT = 0.1  # s, the frame period of the camera: one teach frame, one repeat tick
# the most landmark-position pairs one sense_block call is given by teach or
# by the oracle grid walk, whose blocks hold at most GRID_BLOCK positions and
# project one landmark per call: each holds one block at a time, so the memory
# held stays bounded whatever the grid's size or the drive's length.  A world
# holds at most evaluate.MAX_LANDMARKS < GRID_BLOCK landmarks, so a teach
# block of one frame always fits.  A block's float arrays are 256 KB each
GRID_BLOCK = 2**15


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


def project(
    landmarks: Sequence[Landmark], x: float, y: float, theta: float, cam: CameraModel
) -> tuple[list[Landmark], list[float]]:
    """Those of landmarks visible from position (x, y) at heading theta, in
    the order given, and their image coordinates, as two lists.

    A landmark's coordinate is focal_length * lateral / depth, positive on the
    right side of the image.  It is not visible when it lies closer than
    min_depth along the heading or when |u| exceeds half_width.  Each landmark
    is judged alone, so projecting a subset gives that subset's entries of
    projecting the whole, float for float.
    """
    c, s = math.cos(theta), math.sin(theta)
    f, half_width, min_depth = cam.focal_length, cam.half_width, cam.min_depth
    seen, us = [], []
    for lm in landmarks:
        dx = lm.x - x
        dy = lm.y - y
        depth = dx * c + dy * s
        if depth < min_depth:
            continue
        u = f * -(-dx * s + dy * c) / depth
        if abs(u) > half_width:
            continue
        seen.append(lm)
        us.append(u)
    return seen, us


def sense_block(
    landmarks: Sequence[Landmark], x: np.typing.ArrayLike, y: np.typing.ArrayLike,
    theta: np.typing.ArrayLike, cam: CameraModel,
) -> tuple[np.ndarray, np.ndarray]:
    """project's verdicts on n landmarks from a whole block of positions
    (x, y) at headings theta, in one numpy pass.  x, y and theta broadcast
    together to the block shape P.  Entry (i, *p) of the (n, *P) bool array
    seen says whether landmark i is visible from position p, and that of the
    (n, *P) float64 array u holds its image coordinate there; the coordinate
    of a hidden landmark means nothing.

    These are project's operations in project's order, elementwise in float64,
    which fuses no operations, so every verdict and visible coordinate equals
    project's bit for bit.  Each heading's cos and sin come from math, as in
    project: numpy's float64 sin and cos are not guaranteed to round as libm
    does.  Each landmark's x terms are computed once per element of x and its
    y terms once per element of y, then broadcast: a row of xs against a
    column of ys at one heading is a grid block.  A block of many positions
    pays numpy's per-call cost once; for one pose, project's loop is faster.
    """
    x, y, theta = (np.asarray(v, dtype=float) for v in (x, y, theta))
    heads = theta.ravel().tolist()
    c = np.fromiter(map(math.cos, heads), float, len(heads)).reshape(theta.shape)
    s = np.fromiter(map(math.sin, heads), float, len(heads)).reshape(theta.shape)
    # a landmark axis in front of the block's axes
    axes = (-1,) + (1,) * max(x.ndim, y.ndim, theta.ndim)
    lx = np.array([lm.x for lm in landmarks], dtype=float).reshape(axes)
    ly = np.array([lm.y for lm in landmarks], dtype=float).reshape(axes)
    with np.errstate(all="ignore"):  # inf and NaN pass or fail the tests as in float math
        dx = lx - x
        dy = ly - y
        depth = dx * c + dy * s
        u = cam.focal_length * -(-dx * s + dy * c) / depth
        seen = ~((depth < cam.min_depth) | (abs(u) > cam.half_width))
    return seen, u


def visible_set(
    world: World, x: float, y: float, theta: float, cam: CameraModel
) -> dict[int, float]:
    """project over all of world's landmarks, in world order, as a map of
    landmark id -> image coordinate."""
    # kept only because perfbench's tracer wraps visible_set by name and
    # counts args[0].landmarks; callers that hold a landmark sequence call
    # project
    seen, us = project(world.landmarks, x, y, theta, cam)
    return {lm.id: u for lm, u in zip(seen, us)}


def step(
    x: float, y: float, theta: float, v: float, omega: float, dt: float
) -> tuple[float, float, float]:
    """(x, y, theta) advanced by the command (v, omega) for dt seconds, by
    exact unicycle integration, as the (x, y, normalize_angle(theta)) a Pose
    would store; dt must be positive and finite."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, not {dt!r}")
    if abs(omega) < 1e-3:
        # Chord form: v*dt*sinc(h) along the mid heading, h = omega*dt/2.
        # The radius form below loses about eps*v/|omega| to cancellation,
        # which is no longer small as omega -> 0; this form stays exact.
        h = 0.5 * omega * dt
        chord = v * dt * (math.sin(h) / h if h else 1.0)
        return (x + chord * math.cos(theta + h), y + chord * math.sin(theta + h),
                normalize_angle(theta + omega * dt if h else theta))
    r = v / omega
    th1 = theta + omega * dt
    return (x + r * (math.sin(th1) - math.sin(theta)),
            y - r * (math.cos(th1) - math.cos(theta)), normalize_angle(th1))


def in_collision(world: World, x: float, y: float) -> bool:
    """Whether (x, y) lies inside any of world's obstacle rectangles, edges included."""
    for xmin, ymin, xmax, ymax in world.obstacles:
        if xmin <= x <= xmax and ymin <= y <= ymax:
            return True
    return False
