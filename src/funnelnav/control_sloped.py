"""Sloped funnel-lane controller with adaptive radius of rotation.

All matched features are summarized by one lane over side medians plus two
slopes: a pitch slope (one minus the spread ratio, large when far from the
keyframe) that sets the turning radius, and a roll slope (normalized median
offsets, summed over sides) that steers inside the lane.  evaluate_state
computes both slopes and the lane verdict from one split into sides; the
pitch slope comes from the spread ratio the navigator computed for the tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

from .errors import EmptyMatchError
from .features import MatchSet, split_sides
# read only by perfbench/run.py, whose tracer wraps control_sloped.std_ratio
from .features import std_ratio  # noqa: F401
from .geometry import MotionCommand

__all__ = [
    "SlopedParams",
    "SlopedState",
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
        if min(self.v_max, self.omega_max, self.sx_epsilon, self.norm_floor) <= 0:
            raise ValueError("all sloped parameters must be strictly positive")
        if not 0.0 <= self.v_floor_frac < 1.0:
            raise ValueError("v_floor_frac must lie in [0, 1)")


@dataclass(frozen=True)
class SlopedState:
    """Per-tick controller internals: the two slopes, which the trace records,
    and the four lane constraints, whose conjunction it records as inside."""

    s_x: float  # roll slope
    s_y: float | None  # pitch slope; None when the spread ratio is unavailable
    constraints: tuple[bool, bool, bool, bool]

    @property
    def inside(self) -> bool:
        return all(self.constraints)


def _medians(pairs):
    if not pairs:
        return None, None
    mu_c = float(median([p[1] for p in pairs]))
    mu_j = float(median([p[2] for p in pairs]))
    return mu_c, mu_j


def radius_policy(s_y: float, p: SlopedParams) -> tuple[float, float]:
    """Map the pitch slope to (v, |omega|).

    Linear with clamping: turning radius v/|omega| shrinks with the pitch
    slope, approaching rotation in place at zero.  A small velocity floor
    keeps the robot creeping forward; a pure in-place rotation can otherwise
    lock up when the lateral offset never changes.
    """
    v = p.v_max * max(min(max(s_y, 0.0), 1.0), p.v_floor_frac)
    return v, p.omega_max


def evaluate_state(m: MatchSet, p: SlopedParams, ratio: float | None) -> SlopedState:
    """Both slopes and the four lane constraints for one match set.

    ratio is the match set's spread ratio, std_ratio(m), or None where that is
    undefined; the navigator passes the one it already computed for the tick.
    The pitch slope is 1 - ratio; the constraints never read it.  The roll
    slope sums, over sides, (median_current - median_keyframe) divided by the
    keyframe median magnitude floored at norm_floor; an absent side adds 0.
    Constraint order: right magnitude, left magnitude, right sign, left sign.
    A missing side leaves its two constraints satisfied; a zero coordinate
    matches either sign.
    """
    if len(m) == 0:
        raise EmptyMatchError("evaluate_state on empty match set")
    left, right = split_sides(m)
    mu_l_c, mu_l_j = _medians(left)
    mu_r_c, mu_r_j = _medians(right)

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

    return SlopedState(
        s_x=s_x,
        s_y=None if ratio is None else 1.0 - ratio,
        constraints=(c1, c2, c3, c4),
    )


def _turn(direction: int, s_y: float | None, p: SlopedParams) -> MotionCommand:
    # direction +1 = left (CCW), -1 = right
    if s_y is None:
        return MotionCommand(0.0, direction * p.omega_max)
    v, omega_mag = radius_policy(s_y, p)
    return MotionCommand(v, direction * omega_mag)


def sloped_command(
    m: MatchSet, p: SlopedParams, ratio: float | None
) -> tuple[MotionCommand, SlopedState]:
    """One control tick: command plus the controller state used to produce it.

    ratio is the spread ratio of m, as for evaluate_state.

    Inside the lane the roll slope steers (dead-band -> forward at full speed);
    outside, a violated right-side constraint means the robot left the lane on
    its left, so it turns right, and vice versa.  All turns use the pitch-slope
    radius policy.
    """
    st = evaluate_state(m, p, ratio)
    c1, c2, c3, c4 = st.constraints
    if st.inside:
        # without a usable spread ratio there is no radius to modulate;
        # inside the lane the conservative fallback is plain forward motion
        if abs(st.s_x) <= p.sx_epsilon or st.s_y is None:
            return MotionCommand(p.v_max, 0.0), st
        if st.s_x < 0:
            return _turn(+1, st.s_y, p), st
        return _turn(-1, st.s_y, p), st
    drifted_left = (not c1) or (not c4)
    drifted_right = (not c2) or (not c3)
    if drifted_left and drifted_right:
        # both sides complain (large heading offsets shortly after a keyframe
        # switch do this); the roll slope is the reliable arbiter then
        return _turn(+1 if st.s_x < 0 else -1, st.s_y, p), st
    if drifted_left:
        return _turn(-1, st.s_y, p), st
    return _turn(+1, st.s_y, p), st
