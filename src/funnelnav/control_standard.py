"""Baseline funnel-lane controller: per-feature constraints with majority vote.

Each matched feature votes forward/left/right from two qualitative
constraints on its image coordinates, current u_c against keyframe u_j; the
controller takes the tick's two columns uc and uj, paired by position in
ascending id order.  The majority wins and the robot turns at a fixed preset
radius.  The command's rotational speed is always one of
{-omega0, 0, +omega0}: the constant-radius limitation is structural.  One
tally gives both the command and the lane verdict (every vote forward).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyMatchError
from .geometry import MotionCommand

__all__ = ["StandardParams", "feature_vote", "standard_command", "inside_funnel"]

FORWARD = "forward"
LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class StandardParams:
    """Fixed translational and rotational speeds for the whole run."""

    v0: float
    omega0: float

    def __post_init__(self):
        for name in ("v0", "omega0"):
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be positive and finite, not {v!r}")


def feature_vote(u_c: float, u_j: float) -> str:
    """One feature's steering vote.

    For a right-side keyframe feature (u_j >= 0): magnitude no longer smaller
    -> right turn; sign flipped -> left turn; otherwise forward.  Left-side
    features reverse the turn directions.  A zero coordinate matches either
    sign.
    """
    if u_j >= 0:
        if abs(u_c) >= abs(u_j):
            return RIGHT
        if u_c * u_j < 0:
            return LEFT
        return FORWARD
    if abs(u_c) >= abs(u_j):
        return LEFT
    if u_c * u_j < 0:
        return RIGHT
    return FORWARD


def standard_command(
    uc: list[float], uj: list[float], p: StandardParams
) -> tuple[MotionCommand, bool]:
    """Command for the majority direction at the preset speeds, and whether
    the pairs of uc and uj lie inside the funnel lane (every feature votes
    forward).

    Ties break forward, then left.
    """
    if len(uc) == 0:
        raise EmptyMatchError("standard controller needs at least one match")
    tally = Counter(map(feature_vote, uc, uj))
    forward, left, right = tally[FORWARD], tally[LEFT], tally[RIGHT]
    if forward >= max(left, right):
        omega = 0.0
    elif left >= right:
        omega = p.omega0
    else:
        omega = -p.omega0
    return MotionCommand(p.v0, omega), forward == len(uc)


def inside_funnel(uc: list[float], uj: list[float]) -> bool:
    """True when every pair of uc and uj satisfies both funnel constraints."""
    if len(uc) == 0:
        raise EmptyMatchError("inside_funnel on empty match set")
    return all(feature_vote(u_c, u_j) == FORWARD for u_c, u_j in zip(uc, uj))
