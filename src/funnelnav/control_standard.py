"""Baseline funnel-lane controller: per-feature constraints with majority vote.

Each matched feature votes from two qualitative constraints on its image
coordinates, current u_c against keyframe u_j; the controller takes the
tick's two columns uc and uj, paired by position in ascending id order.  A
vote is the sign of the turn it asks for: LEFT +1, RIGHT -1 or FORWARD 0.
The majority wins, and the command is V0 at turn * omega0, so every turn has
the one radius V0 / omega0: the constant-radius limitation is structural.
One count gives both the command and the lane verdict (every vote forward);
inside_funnel gives the same verdict for many poses at once.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import EmptyMatchError
from .geometry import MotionCommand

__all__ = ["feature_vote", "standard_command", "inside_funnel"]

FORWARD, LEFT, RIGHT = 0, 1, -1  # signs of MotionCommand.omega, CCW positive

V0 = 0.5  # m/s, the forward speed of every command


def feature_vote(u_c: float, u_j: float) -> int:
    """One feature's steering vote: +1 turn left, -1 turn right, 0 forward.

    For a right-side keyframe feature (u_j >= 0): magnitude no longer smaller
    -> right turn; sign flipped -> left turn; otherwise forward.  Left-side
    features reverse the turn directions.  A zero coordinate matches either
    sign, and u_j of 0.0 or -0.0 is right-side.
    """
    grew = RIGHT if u_j >= 0 else LEFT
    if abs(u_c) >= abs(u_j):
        return grew
    if u_c * u_j < 0:
        return -grew
    return FORWARD


def standard_command(
    uc: list[float], uj: list[float], omega0: float
) -> tuple[MotionCommand, bool]:
    """Command for the majority vote, V0 at turn * omega0, and whether the
    pairs of uc and uj lie inside the funnel lane (every feature votes
    forward).

    Ties break forward, then left.
    """
    if len(uc) == 0:
        raise EmptyMatchError("standard controller needs at least one match")
    votes = list(map(feature_vote, uc, uj))
    forward, left = votes.count(FORWARD), votes.count(LEFT)
    right = len(votes) - forward - left
    turn = FORWARD if forward >= max(left, right) else LEFT if left >= right else RIGHT
    # omega0 > 0, so FORWARD * omega0 is +0.0: a forward omega is never -0.0
    return MotionCommand(V0, turn * omega0), forward == len(uc)


def inside_funnel(uc: np.ndarray, uj: Sequence[float]) -> np.ndarray:
    """Whether each of m poses lies inside the funnel lane (every feature votes
    forward): row j of the (n, m) array uc holds feature j's current
    coordinate at each pose, and uj holds the n keyframe coordinates.

    The forward test is feature_vote's two tests, |u_c| >= |u_j| and
    u_c * u_j < 0, each negated rather than flipped, so NaN, infinities and
    signed zeros get feature_vote's verdicts.
    """
    uj = np.asarray(uj, dtype=float)
    if len(uj) == 0:
        raise EmptyMatchError("inside_funnel on empty match set")
    uc = np.asarray(uc, dtype=float)
    if uc.ndim != 2 or len(uc) != len(uj):
        # a 1-D column would broadcast against uj's column into n x n verdicts
        raise ValueError(f"uc needs {len(uj)} rows, one per feature, not shape {uc.shape}")
    uj = uj[:, np.newaxis]
    with np.errstate(all="ignore"):  # inf * 0.0 is NaN, which votes forward as in float math
        forward = ~(abs(uc) >= abs(uj)) & ~(uc * uj < 0)
    return forward.all(axis=0)
