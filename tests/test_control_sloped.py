"""Sloped-lane controller unit tests: slopes, constraints and commands."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from funnelnav.control_sloped import (
    SlopedParams,
    evaluate_state,
    radius_policy,
    sloped_command,
)
from funnelnav.errors import DegenerateSpreadError, EmptyMatchError
from funnelnav.features import MatchSet, split_sides, std_ratio
from funnelnav.geometry import MotionCommand
from funnelnav.navigate import tick_stats

from conftest import ms

P = SlopedParams(v_max=0.5, omega_max=0.5)


def state(m):
    """evaluate_state with the spread ratio the navigator passes for m."""
    return evaluate_state(m, P, tick_stats(m).ratio)


def command(m):
    """sloped_command with the spread ratio the navigator passes for m."""
    return sloped_command(m, P, tick_stats(m).ratio)


class TestPitchSlope:
    def test_zero_at_keyframe(self):
        assert state(ms((1, -20.0, -20.0), (2, 20.0, 20.0))).s_y == pytest.approx(0.0)

    def test_half_when_spread_halves(self):
        assert state(ms((1, -20.0, -40.0), (2, 20.0, 40.0))).s_y == pytest.approx(0.5)

    def test_degenerate_spread_propagates(self):
        # the spread ratio raises; the navigator's tick stats carry that as None
        m = ms((1, 1.0, 5.0))
        with pytest.raises(DegenerateSpreadError):
            std_ratio(m)
        assert tick_stats(m).ratio is None
        assert state(m).s_y is None


class TestRollSlope:
    def test_zero_on_path(self):
        m = ms((1, -10.0, -10.0), (2, 20.0, 20.0))
        assert state(m).s_x == pytest.approx(0.0)

    def test_two_side_hand_value(self):
        # left: (-5 - -10)/10 = 0.5; right: (25 - 20)/20 = 0.25
        m = ms((1, -5.0, -10.0), (2, 25.0, 20.0))
        assert state(m).s_x == pytest.approx(0.75)

    def test_norm_floor_applies_near_center(self):
        m = ms((1, 3.0, 2.0))
        assert state(m).s_x == pytest.approx((3.0 - 2.0) / 5.0)

    def test_absent_side_contributes_zero(self):
        m = ms((1, 25.0, 20.0))
        assert state(m).s_x == pytest.approx(0.25)

    def test_median_per_side(self):
        m = ms((1, 10.0, 10.0), (2, 20.0, 10.0), (3, 30.0, 10.0))
        assert state(m).s_x == pytest.approx((20.0 - 10.0) / 10.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyMatchError):
            state(MatchSet())


class TestRadiusPolicy:
    def test_max_slope_gives_max_radius(self):
        v, omega = radius_policy(1.0, P)
        assert v == pytest.approx(P.v_max)
        assert omega == pytest.approx(P.omega_max)
        assert v / omega == pytest.approx(P.v_max / P.omega_max)

    def test_half_slope_gives_half_radius(self):
        v, omega = radius_policy(0.5, P)
        assert v / omega == pytest.approx(0.5 * P.v_max / P.omega_max)

    def test_zero_slope_keeps_liveness_floor(self):
        v, omega = radius_policy(0.0, P)
        assert v == pytest.approx(P.v_floor_frac * P.v_max)
        assert omega == pytest.approx(P.omega_max)

    def test_clamped_outside_unit_interval(self):
        assert radius_policy(3.0, P)[0] == pytest.approx(P.v_max)
        assert radius_policy(-2.0, P)[0] == pytest.approx(P.v_floor_frac * P.v_max)


class TestConstraints:
    def test_on_keyframe_boundary_counts_as_inside(self):
        m = ms((1, -10.0, -10.0), (2, 20.0, 20.0))
        st_ = state(m)
        assert st_.constraints == (True, True, True, True)
        assert st_.inside
        # the constraints never read the spread ratio
        assert evaluate_state(m, P, None).inside

    def test_magnitude_violations(self):
        # right median grew: c1 false; left median grew: c2 false
        right_bad = state(ms((1, -5.0, -10.0), (2, 25.0, 20.0)))
        assert right_bad.constraints == (False, True, True, True)
        left_bad = state(ms((1, -15.0, -10.0), (2, 15.0, 20.0)))
        assert left_bad.constraints == (True, False, True, True)

    def test_sign_violations(self):
        right_flip = state(ms((1, -5.0, -10.0), (2, -1.0, 20.0)))
        assert right_flip.constraints[2] is False
        left_flip = state(ms((1, 1.0, -10.0), (2, 15.0, 20.0)))
        assert left_flip.constraints[3] is False

    def test_missing_side_leaves_constraints_satisfied(self):
        m = ms((1, 15.0, 20.0), (2, 18.0, 22.0))
        st_ = state(m)
        assert split_sides(m)[0] == ()
        assert st_.constraints[1] and st_.constraints[3]

    def test_zero_coordinate_matches_either_sign(self):
        st_ = state(ms((1, 0.0, 20.0), (2, -5.0, -10.0)))
        assert st_.constraints[2] is True

    def test_s_y_is_one_minus_the_ratio_passed_in(self):
        m = ms((1, -20.0, -40.0), (2, 20.0, 40.0))
        assert state(m).s_y == 1.0 - std_ratio(m) == 0.5
        assert evaluate_state(m, P, 0.25).s_y == 0.75

    def test_s_y_none_when_spread_degenerate(self):
        st_ = state(ms((1, 5.0, 10.0)))
        assert st_.s_y is None


class TestSlopedCommand:
    def test_inside_with_small_roll_goes_straight(self):
        m = ms((1, -10.0, -10.0), (2, 20.0, 20.0))
        cmd, st_ = command(m)
        assert cmd == MotionCommand(P.v_max, 0.0)
        assert st_.inside

    def test_inside_negative_roll_turns_left(self):
        # right median shrank toward center: still inside, net roll negative
        m = ms((1, -10.0, -10.0), (2, 14.0, 20.0))
        cmd, st_ = command(m)
        assert st_.inside
        assert st_.s_x < -P.sx_epsilon
        assert cmd.omega > 0

    def test_inside_positive_roll_turns_right(self):
        # left median shrank toward center: still inside, net roll positive
        m = ms((1, -4.0, -10.0), (2, 20.0, 20.0))
        cmd, st_ = command(m)
        assert st_.inside
        assert st_.s_x > P.sx_epsilon
        assert cmd.omega < 0

    def test_right_magnitude_violation_turns_right(self):
        m = ms((1, -5.0, -10.0), (2, 25.0, 20.0))
        cmd, st_ = command(m)
        assert not st_.inside
        assert cmd.omega < 0

    def test_left_magnitude_violation_turns_left(self):
        m = ms((1, -15.0, -10.0), (2, 15.0, 20.0))
        cmd, st_ = command(m)
        assert not st_.inside
        assert cmd.omega > 0

    def test_conflict_resolved_by_roll_sign(self):
        # both sides violated, net roll negative: turn left
        m = ms((1, -40.0, -20.0), (2, 25.0, 20.0))
        cmd, st_ = command(m)
        assert not st_.constraints[0] and not st_.constraints[1]
        assert st_.s_x < 0
        assert cmd.omega > 0
        # both sides violated, net roll positive: turn right
        m = ms((1, -25.0, -20.0), (2, 40.0, 20.0))
        cmd, st_ = command(m)
        assert not st_.constraints[0] and not st_.constraints[1]
        assert st_.s_x > 0
        assert cmd.omega < 0

    def test_turns_use_radius_policy(self):
        m = ms((1, -5.0, -10.0), (2, 25.0, 20.0))
        cmd, st_ = command(m)
        v, omega = radius_policy(st_.s_y, P)
        assert cmd.v == pytest.approx(v)
        assert abs(cmd.omega) == pytest.approx(omega)

    def test_degenerate_spread_outside_rotates_in_place(self):
        m = ms((1, 25.0, 20.0))  # one pair: no spread, c1 violated
        cmd, st_ = command(m)
        assert st_.s_y is None
        assert cmd.v == 0.0
        assert abs(cmd.omega) == pytest.approx(P.omega_max)

    def test_degenerate_spread_inside_goes_straight(self):
        m = ms((1, 15.0, 20.0))
        cmd, st_ = command(m)
        assert st_.inside and st_.s_y is None
        assert cmd == MotionCommand(P.v_max, 0.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyMatchError):
            command(MatchSet())

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
        m = MatchSet(tuple((i, a, b) for i, (a, b) in enumerate(coords)))
        mirrored = MatchSet(tuple((i, -a, -b) for i, (a, b) in enumerate(coords)))
        st_a = state(m)
        st_b = state(mirrored)
        assert st_b.s_x == pytest.approx(-st_a.s_x, abs=1e-9)
        if st_a.s_y is not None:
            assert st_b.s_y == pytest.approx(st_a.s_y, abs=1e-9)
        c1, c2, c3, c4 = st_a.constraints
        assert st_b.constraints == (c2, c1, c4, c3)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlopedParams(v_max=0.0, omega_max=0.5)
        with pytest.raises(ValueError):
            SlopedParams(v_max=0.5, omega_max=0.5, norm_floor=0.0)
        with pytest.raises(ValueError):
            SlopedParams(v_max=0.5, omega_max=0.5, v_floor_frac=1.0)
