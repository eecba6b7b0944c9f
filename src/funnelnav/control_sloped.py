"""Sloped funnel-lane controller with adaptive radius of rotation.

All matched features are summarized by one lane over each side's median plus
two slopes: a pitch slope (one minus the spread ratio, large when far from the
keyframe) that sets the turning radius, and a roll slope (normalized median
offsets, summed over sides) that steers inside the lane.  Both functions take
the tick's two coordinate columns uc and uj, paired by position in ascending
id order.  evaluate_state computes the roll slope and the lane verdict from
one pass that splits the pairs into sides; sloped_command takes the pitch
slope from the spread ratio the navigator computed for the tick.  The turn
rate omega_max is the one setting; the forward speed V_MAX, the roll dead-band
SX_EPSILON, the roll normaliser floor NORM_FLOOR and the turning speed floor
V_FLOOR_FRAC are constants.
"""

from __future__ import annotations

from .errors import EmptyMatchError
from .features import median
# read only by perfbench/run.py, whose tracer wraps control_sloped.std_ratio
from .features import std_ratio  # noqa: F401
from .geometry import MotionCommand

__all__ = [
    "radius_policy",
    "evaluate_state",
    "sloped_command",
]


SX_EPSILON = 0.05  # dead-band around roll slope zero
NORM_FLOOR = 5.0  # pixels; floors the roll normalizer near image center
V_MAX = 0.5  # m/s, the forward speed inside the lane and the top speed of a turn
V_FLOOR_FRAC = 0.05  # fraction of V_MAX kept while turning, for liveness


def radius_policy(s_y: float) -> float:
    """Map the pitch slope to the forward speed of a turn at |omega| = omega_max.

    Linear with clamping: turning radius v/|omega| shrinks with the pitch
    slope, approaching rotation in place at zero.  A small velocity floor
    keeps the robot creeping forward; a pure in-place rotation can otherwise
    lock up when the lateral offset never changes.
    """
    return V_MAX * max(min(max(s_y, 0.0), 1.0), V_FLOOR_FRAC)


def evaluate_state(uc: list[float], uj: list[float]) -> tuple[float, tuple[bool, bool, bool, bool]]:
    """The roll slope and the four lane constraints for the pairs of uc and
    uj, as (s_x, constraints): four bools, all True inside the lane.

    The pairs split by the sign of the keyframe coordinate: u_j < 0 is the
    left side, and u_j = 0 counts as right.  The roll slope sums, over sides,
    (median_current - median_keyframe) divided by the keyframe median
    magnitude floored at NORM_FLOOR; an absent side adds 0.  Constraint
    order: right magnitude, left magnitude, right sign, left sign.  A missing
    side leaves its two constraints satisfied; a zero coordinate matches
    either sign.
    """
    if len(uc) == 0:
        raise EmptyMatchError("evaluate_state on empty match set")
    # each side's u_current and u_keyframe columns; a NaN u_j fails u_j < 0,
    # so it goes right
    l_c, l_j, r_c, r_j = [], [], [], []
    for u_c, u_j in zip(uc, uj):
        if u_j < 0:
            l_c.append(u_c)
            l_j.append(u_j)
        else:
            r_c.append(u_c)
            r_j.append(u_j)
    mu_l_c, mu_l_j, mu_r_c, mu_r_j = median(l_c), median(l_j), median(r_c), median(r_j)

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
            s_x += (mu_c - mu_j) / max(abs(mu_j), NORM_FLOOR)

    return s_x, (c1, c2, c3, c4)


def sloped_command(
    uc: list[float], uj: list[float], omega_max: float, ratio: float | None
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
    s_x, (c1, c2, c3, c4) = evaluate_state(uc, uj)
    s_y = None if ratio is None else 1.0 - ratio
    inside = c1 and c2 and c3 and c4
    # without a usable spread ratio there is no radius to modulate; inside
    # the lane the conservative fallback is plain forward motion
    if inside and (abs(s_x) <= SX_EPSILON or s_y is None):
        return MotionCommand(V_MAX, 0.0), s_x, s_y, inside
    drifted_left, drifted_right = not (c1 and c4), not (c2 and c3)
    if drifted_left != drifted_right:
        # direction +1 = left (CCW), -1 = right: turn back toward the lane
        turn = -1 if drifted_left else 1
    else:
        # inside the lane, or both sides complain (large heading offsets
        # shortly after a keyframe switch do this): the roll slope arbitrates
        turn = 1 if s_x < 0 else -1
    v = 0.0 if s_y is None else radius_policy(s_y)
    return MotionCommand(v, turn * omega_max), s_x, s_y, inside
