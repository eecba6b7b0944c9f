"""Sloped-lane controller unit tests: slopes, constraints and commands."""

import math
import statistics

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from funnelnav.control_sloped import (
    SlopedParams,
    evaluate_state,
    radius_policy,
    sloped_command,
)
from funnelnav.errors import EmptyMatchError
from funnelnav.features import std_ratio
from funnelnav.geometry import MotionCommand
from funnelnav.navigate import tick_stats

from conftest import cols, ms

P = SlopedParams(v_max=0.5, omega_max=0.5)


def state(m):
    """evaluate_state's (s_x, constraints)."""
    return evaluate_state(*cols(m), P)


def command(m):
    """sloped_command's (cmd, s_x, s_y, inside) with the spread ratio the
    navigator passes for m."""
    uc, uj = cols(m)
    return sloped_command(uc, uj, P, tick_stats(uc, uj)["std_ratio"])


class TestPitchSlope:
    def test_zero_at_keyframe(self):
        assert command(ms((1, -20.0, -20.0), (2, 20.0, 20.0)))[2] == pytest.approx(0.0)

    def test_half_when_spread_halves(self):
        assert command(ms((1, -20.0, -40.0), (2, 20.0, 40.0)))[2] == pytest.approx(0.5)

    def test_degenerate_spread_propagates(self):
        # the spread ratio is undefined; the navigator's tick stats carry its None
        m = ms((1, 1.0, 5.0))
        assert std_ratio(*cols(m)) is None
        assert tick_stats(*cols(m))["std_ratio"] is None
        assert command(m)[2] is None


class TestRollSlope:
    def test_zero_on_path(self):
        m = ms((1, -10.0, -10.0), (2, 20.0, 20.0))
        assert state(m)[0] == pytest.approx(0.0)

    def test_two_side_hand_value(self):
        # left: (-5 - -10)/10 = 0.5; right: (25 - 20)/20 = 0.25
        m = ms((1, -5.0, -10.0), (2, 25.0, 20.0))
        assert state(m)[0] == pytest.approx(0.75)

    def test_norm_floor_applies_near_center(self):
        m = ms((1, 3.0, 2.0))
        assert state(m)[0] == pytest.approx((3.0 - 2.0) / 5.0)

    def test_absent_side_contributes_zero(self):
        m = ms((1, 25.0, 20.0))
        assert state(m)[0] == pytest.approx(0.25)

    def test_median_per_side(self):
        m = ms((1, 10.0, 10.0), (2, 20.0, 10.0), (3, 30.0, 10.0))
        assert state(m)[0] == pytest.approx((20.0 - 10.0) / 10.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyMatchError):
            state(())


def reference_state(m, p):
    """evaluate_state restated over the two sides as filtered pair lists."""
    sides = []
    for side in ([q for q in m if q[2] < 0], [q for q in m if q[2] >= 0]):
        if side:
            sides.append((statistics.median([q[1] for q in side]),
                          statistics.median([q[2] for q in side])))
        else:
            sides.append((None, None))
    (l_c, l_j), (r_c, r_j) = sides
    s_x = 0.0
    for mu_c, mu_j in sides:
        if mu_c is not None:
            s_x += (mu_c - mu_j) / max(abs(mu_j), p.norm_floor)
    return s_x, (r_c is None or abs(r_c) <= abs(r_j), l_c is None or abs(l_c) <= abs(l_j),
                 r_c is None or r_c * r_j >= 0, l_c is None or l_c * l_j >= 0)


class TestSides:
    """evaluate_state splits the pairs by the sign of the keyframe coordinate."""

    def test_all_positive_keyframe_coords(self):
        # no left side: its two constraints hold and it adds nothing to s_x
        s_x, c = state(ms((1, -1.0, 3.0), (2, 2.0, 5.0)))
        assert c[1] and c[3]
        assert s_x == (0.5 - 4.0) / 5.0

    def test_one_per_side(self):
        s_x, c = state(ms((1, -2.0, -5.0), (2, 8.0, 10.0)))
        assert c == (True, True, True, True)
        assert s_x == (-2.0 + 5.0) / 5.0 + (8.0 - 10.0) / 10.0

    def test_zero_counts_as_right(self):
        # on the right, |1| > |0| breaks the right magnitude constraint; on the
        # left it would have broken the left one
        s_x, c = state(ms((1, 1.0, 0.0)))
        assert c == (False, True, True, True)
        assert s_x == 1.0 / P.norm_floor

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(st.floats(-150.0, 150.0),
                      st.one_of(st.just(0.0), st.floats(-150.0, 150.0))),
            min_size=1,
            max_size=12,
        )
    )
    def test_equals_filtered_reference(self, coords):
        m = tuple((i, a, b) for i, (a, b) in enumerate(coords))
        assert state(m) == reference_state(m, P)


class TestRadiusPolicy:
    def test_max_slope_gives_max_speed(self):
        assert radius_policy(1.0, P) == pytest.approx(P.v_max)

    def test_half_slope_gives_half_speed(self):
        assert radius_policy(0.5, P) == pytest.approx(0.5 * P.v_max)

    def test_zero_slope_keeps_liveness_floor(self):
        assert radius_policy(0.0, P) == pytest.approx(P.v_floor_frac * P.v_max)

    def test_clamped_outside_unit_interval(self):
        assert radius_policy(3.0, P) == pytest.approx(P.v_max)
        assert radius_policy(-2.0, P) == pytest.approx(P.v_floor_frac * P.v_max)


class TestConstraints:
    def test_on_keyframe_boundary_counts_as_inside(self):
        m = ms((1, -10.0, -10.0), (2, 20.0, 20.0))
        assert state(m)[1] == (True, True, True, True)
        assert command(m)[3]
        # the constraints never read the spread ratio
        assert sloped_command(*cols(m), P, None)[3]

    def test_magnitude_violations(self):
        # right median grew: c1 false; left median grew: c2 false
        _, right_bad = state(ms((1, -5.0, -10.0), (2, 25.0, 20.0)))
        assert right_bad == (False, True, True, True)
        _, left_bad = state(ms((1, -15.0, -10.0), (2, 15.0, 20.0)))
        assert left_bad == (True, False, True, True)

    def test_sign_violations(self):
        _, right_flip = state(ms((1, -5.0, -10.0), (2, -1.0, 20.0)))
        assert right_flip[2] is False
        _, left_flip = state(ms((1, 1.0, -10.0), (2, 15.0, 20.0)))
        assert left_flip[3] is False

    def test_missing_side_leaves_constraints_satisfied(self):
        m = ms((1, 15.0, 20.0), (2, 18.0, 22.0))  # no left-side pair
        _, c = state(m)
        assert c[1] and c[3]

    def test_zero_coordinate_matches_either_sign(self):
        _, c = state(ms((1, 0.0, 20.0), (2, -5.0, -10.0)))
        assert c[2] is True

    def test_s_y_is_one_minus_the_ratio_passed_in(self):
        m = ms((1, -20.0, -40.0), (2, 20.0, 40.0))
        assert command(m)[2] == 1.0 - std_ratio(*cols(m)) == 0.5
        assert sloped_command(*cols(m), P, 0.25)[2] == 0.75

    def test_s_y_none_when_spread_degenerate(self):
        assert command(ms((1, 5.0, 10.0)))[2] is None


class TestSlopedCommand:
    def test_inside_with_small_roll_goes_straight(self):
        m = ms((1, -10.0, -10.0), (2, 20.0, 20.0))
        cmd, _, _, inside = command(m)
        assert cmd == MotionCommand(P.v_max, 0.0)
        assert inside

    def test_inside_negative_roll_turns_left(self):
        # right median shrank toward center: still inside, net roll negative
        m = ms((1, -10.0, -10.0), (2, 14.0, 20.0))
        cmd, s_x, _, inside = command(m)
        assert inside
        assert s_x < -P.sx_epsilon
        assert cmd.omega > 0

    def test_inside_positive_roll_turns_right(self):
        # left median shrank toward center: still inside, net roll positive
        m = ms((1, -4.0, -10.0), (2, 20.0, 20.0))
        cmd, s_x, _, inside = command(m)
        assert inside
        assert s_x > P.sx_epsilon
        assert cmd.omega < 0

    def test_right_magnitude_violation_turns_right(self):
        m = ms((1, -5.0, -10.0), (2, 25.0, 20.0))
        cmd, _, _, inside = command(m)
        assert not inside
        assert cmd.omega < 0

    def test_left_magnitude_violation_turns_left(self):
        m = ms((1, -15.0, -10.0), (2, 15.0, 20.0))
        cmd, _, _, inside = command(m)
        assert not inside
        assert cmd.omega > 0

    def test_conflict_resolved_by_roll_sign(self):
        # both sides violated, net roll negative: turn left
        m = ms((1, -40.0, -20.0), (2, 25.0, 20.0))
        cmd, s_x, _, _ = command(m)
        _, c = state(m)
        assert not c[0] and not c[1]
        assert s_x < 0
        assert cmd.omega > 0
        # both sides violated, net roll positive: turn right
        m = ms((1, -25.0, -20.0), (2, 40.0, 20.0))
        cmd, s_x, _, _ = command(m)
        _, c = state(m)
        assert not c[0] and not c[1]
        assert s_x > 0
        assert cmd.omega < 0

    def test_turns_use_radius_policy(self):
        # outside the lane (right magnitude violated) at pitch slope 0
        m = ms((1, -5.0, -10.0), (2, 25.0, 20.0))
        cmd, _, s_y, inside = command(m)
        assert not inside
        assert cmd.v == pytest.approx(radius_policy(s_y, P))
        assert abs(cmd.omega) == pytest.approx(P.omega_max)

    def test_half_slope_turn_has_half_the_max_radius(self):
        # inside the lane, spread halved, roll slope past the dead-band
        m = ms((1, -10.0, -40.0), (2, 30.0, 40.0))
        cmd, _, s_y, inside = command(m)
        assert inside and s_y == pytest.approx(0.5)
        assert cmd.omega == pytest.approx(-P.omega_max)
        assert cmd.v / abs(cmd.omega) == pytest.approx(0.5 * P.v_max / P.omega_max)

    def test_degenerate_spread_outside_rotates_in_place(self):
        m = ms((1, 25.0, 20.0))  # one pair: no spread, c1 violated
        cmd, _, s_y, _ = command(m)
        assert s_y is None
        assert cmd.v == 0.0
        assert abs(cmd.omega) == pytest.approx(P.omega_max)

    def test_degenerate_spread_inside_goes_straight(self):
        m = ms((1, 15.0, 20.0))
        cmd, _, s_y, inside = command(m)
        assert inside and s_y is None
        assert cmd == MotionCommand(P.v_max, 0.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyMatchError):
            command(())

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
            min_size=2,
            max_size=8,
        )
    )
    def test_mirror_symmetry_of_slopes(self, coords):
        assume(all(b != 0.0 for _, b in coords))
        m = tuple((i, a, b) for i, (a, b) in enumerate(coords))
        mirrored = tuple((i, -a, -b) for i, (a, b) in enumerate(coords))
        s_x_a, (c1, c2, c3, c4) = state(m)
        s_x_b, constraints_b = state(mirrored)
        s_y_a, s_y_b = command(m)[2], command(mirrored)[2]
        assert s_x_b == pytest.approx(-s_x_a, abs=1e-9)
        if s_y_a is not None:
            assert s_y_b == pytest.approx(s_y_a, abs=1e-9)
        assert constraints_b == (c2, c1, c4, c3)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlopedParams(v_max=0.0, omega_max=0.5)
        with pytest.raises(ValueError):
            SlopedParams(v_max=0.5, omega_max=0.5, norm_floor=0.0)
        with pytest.raises(ValueError):
            SlopedParams(v_max=0.5, omega_max=0.5, v_floor_frac=1.0)
        with pytest.raises(ValueError, match="finite"):
            SlopedParams(v_max=0.5, omega_max=math.inf)
        with pytest.raises(ValueError):
            SlopedParams(v_max=math.nan, omega_max=0.5)
