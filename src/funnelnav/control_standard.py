"""Baseline funnel-lane controller: per-feature constraints with majority vote.

Each matched feature votes forward/left/right from two qualitative
constraints on its image coordinates, current u_c against keyframe u_j; the
controller takes the tick's two columns uc and uj, paired by position in
ascending id order.  The majority wins, at the forward speed V0 and a turn
rate of -omega0, 0 or +omega0, so every turn has the one radius V0 / omega0:
the constant-radius limitation is structural.  One tally gives both the
command and the lane verdict (every vote forward); inside_funnel gives the
same verdict for many poses at once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from .errors import EmptyMatchError
from .geometry import MotionCommand

__all__ = ["feature_vote", "standard_command", "inside_funnel"]

FORWARD = "forward"
LEFT = "left"
RIGHT = "right"

V0 = 0.5  # m/s, the forward speed of every command


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
    uc: list[float], uj: list[float], omega0: float
) -> tuple[MotionCommand, bool]:
    """Command for the majority direction at V0 and turn rate omega0, and whether
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
        omega = omega0
    else:
        omega = -omega0
    return MotionCommand(V0, omega), forward == len(uc)


def inside_funnel(uc: np.ndarray, uj: Sequence[float]) -> np.ndarray:
    """Whether each of m poses lies inside the funnel lane (every feature votes
    forward): row j of the (n, m) array uc holds feature j's current
    coordinate at each pose, and uj holds the n keyframe coordinates.

    The forward test is feature_vote's two tests, each negated rather than
    flipped, so NaN, infinities and signed zeros get feature_vote's verdicts.
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
