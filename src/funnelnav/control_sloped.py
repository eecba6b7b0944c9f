"""Sloped funnel-lane controller with adaptive radius of rotation.

All matched features are summarized by one lane over each side's median plus
two slopes: a pitch slope (one minus the spread ratio, large when far from the
keyframe) that sets the turning radius, and a roll slope (normalized median
offsets, summed over sides) that steers inside the lane.  Both functions take
the tick's two coordinate columns uc and uj, paired by position in ascending
id order.  evaluate_state computes the roll slope and the lane verdict from
one pass that splits the pairs into sides; sloped_command takes the pitch
slope from the spread ratio the navigator computed for the tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyMatchError
from .features import median
# read only by perfbench/run.py, whose tracer wraps control_sloped.std_ratio
from .features import std_ratio  # noqa: F401
from .geometry import MotionCommand

__all__ = [
    "SlopedParams",
    "radius_policy",
    "evaluate_state",
    "sloped_command",
]


@dataclass(frozen=True)
class SlopedParams:
    v_max: float
    omega_max: float
    sx_epsilon: float = 0.05  # dead-band around roll slope zero
    norm_floor: float = 5.0  # pixels; floors the roll normalizer near image center
    v_floor_frac: float = 0.05  # fraction of v_max kept while turning, for liveness

    def __post_init__(self):
        for name in ("v_max", "omega_max", "sx_epsilon", "norm_floor"):
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be positive and finite, not {v!r}")
        if not 0.0 <= self.v_floor_frac < 1.0:
            raise ValueError("v_floor_frac must lie in [0, 1)")


def radius_policy(s_y: float, p: SlopedParams) -> float:
    """Map the pitch slope to the forward speed of a turn at |omega| = omega_max.

    Linear with clamping: turning radius v/|omega| shrinks with the pitch
    slope, approaching rotation in place at zero.  A small velocity floor
    keeps the robot creeping forward; a pure in-place rotation can otherwise
    lock up when the lateral offset never changes.
    """
    return p.v_max * max(min(max(s_y, 0.0), 1.0), p.v_floor_frac)


def evaluate_state(
    uc: list[float], uj: list[float], p: SlopedParams
) -> tuple[float, tuple[bool, bool, bool, bool]]:
    """The roll slope and the four lane constraints for the pairs of uc and
    uj, as (s_x, constraints): four bools, all True inside the lane.

    The pairs split by the sign of the keyframe coordinate: u_j < 0 is the
    left side, and u_j = 0 counts as right.  The roll slope sums, over sides,
    (median_current - median_keyframe) divided by the keyframe median
    magnitude floored at norm_floor; an absent side adds 0.  Constraint
    order: right magnitude, left magnitude, right sign, left sign.  A missing
    side leaves its two constraints satisfied; a zero coordinate matches
    either sign.
    """
    if len(uc) == 0:
        raise EmptyMatchError("evaluate_state on empty match set")
    left, right = ([], []), ([], [])  # each side's u_current and u_keyframe columns
    for u_c, u_j in zip(uc, uj):
        side_c, side_j = left if u_j < 0 else right
        side_c.append(u_c)
        side_j.append(u_j)
    mu_l_c, mu_l_j, mu_r_c, mu_r_j = map(median, (*left, *right))

    # non-strict at the boundary: landing exactly on the keyframe must read
    # as inside, so the controller drives through it and the switching
    # statistic can cross 1
    c1 = mu_r_c is None or abs(mu_r_c) <= abs(mu_r_j)
    c2 = mu_l_c is None or abs(mu_l_c) <= abs(mu_l_j)
    c3 = mu_r_c is None or mu_r_c * mu_r_j >= 0
    c4 = mu_l_c is None or mu_l_c * mu_l_j >= 0

    s_x = 0.0
    for mu_c, mu_j in ((mu_l_c, mu_l_j), (mu_r_c, mu_r_j)):
        if mu_c is not None:
            s_x += (mu_c - mu_j) / max(abs(mu_j), p.norm_floor)

    return s_x, (c1, c2, c3, c4)


def sloped_command(
    uc: list[float], uj: list[float], p: SlopedParams, ratio: float | None
) -> tuple[MotionCommand, float, float | None, bool]:
    """One control tick, as (cmd, s_x, s_y, inside): the command, the roll
    slope of evaluate_state, the pitch slope 1 - ratio and whether all four
    lane constraints hold.  ratio is the tick's spread ratio, which the
    navigator already has; it and s_y are None where undefined.

    Inside the lane the roll slope steers (dead-band -> forward at full speed).
    Outside, a violated right-side constraint means the robot left the lane on
    its left, so it turns right, and vice versa; when both sides are violated
    the roll slope decides again.  Every turn is at omega_max, with the
    forward speed of the pitch-slope radius policy.
    """
    s_x, (c1, c2, c3, c4) = evaluate_state(uc, uj, p)
    s_y = None if ratio is None else 1.0 - ratio
    inside = c1 and c2 and c3 and c4
    # without a usable spread ratio there is no radius to modulate; inside
    # the lane the conservative fallback is plain forward motion
    if inside and (abs(s_x) <= p.sx_epsilon or s_y is None):
        return MotionCommand(p.v_max, 0.0), s_x, s_y, inside
    drifted_left, drifted_right = not (c1 and c4), not (c2 and c3)
    if drifted_left != drifted_right:
        # direction +1 = left (CCW), -1 = right: turn back toward the lane
        turn = -1 if drifted_left else 1
    else:
        # inside the lane, or both sides complain (large heading offsets
        # shortly after a keyframe switch do this): the roll slope arbitrates
        turn = 1 if s_x < 0 else -1
    v = 0.0 if s_y is None else radius_policy(s_y, p)
    return MotionCommand(v, turn * p.omega_max), s_x, s_y, inside
