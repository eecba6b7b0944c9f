"""Majority-vote controller unit tests."""

import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from funnelnav import control_standard
from funnelnav.control_standard import (
    FORWARD,
    LEFT,
    RIGHT,
    StandardParams,
    feature_vote,
    inside_funnel,
    standard_command,
)
from funnelnav.errors import EmptyMatchError
from funnelnav.evaluate import load_scenario
from funnelnav.geometry import MotionCommand
from funnelnav.navigate import navigate
from funnelnav.teach import record

from conftest import SCENARIO_DIR, cols, ms

P = StandardParams(v0=0.5, omega0=0.4)

# zero coordinates (either sign) and |u_c| == |u_j| ties are the vote's edges
COORD = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-150.0, 150.0))
PAIR = st.one_of(
    st.tuples(COORD, COORD),
    COORD.flatmap(lambda u: st.tuples(st.sampled_from((u, -u)), st.just(u))),
)


class TestFeatureVote:
    @pytest.mark.parametrize(
        "u_c,u_j,expected",
        [
            (5.0, 10.0, FORWARD),  # both constraints hold
            (12.0, 10.0, RIGHT),  # magnitude grew past the keyframe value
            (-2.0, 10.0, LEFT),  # sign flipped
            (10.0, 10.0, RIGHT),  # boundary |u_c| = |u_j| counts as violated
            (-10.0, 10.0, RIGHT),  # magnitude check wins over the sign check
            (0.0, 10.0, FORWARD),  # zero matches either sign
            (-5.0, -10.0, FORWARD),  # mirrored cases reverse directions
            (-12.0, -10.0, LEFT),
            (2.0, -10.0, RIGHT),
            (-10.0, -10.0, LEFT),
        ],
    )
    def test_vote_table(self, u_c, u_j, expected):
        assert feature_vote(u_c, u_j) == expected

    @settings(max_examples=200)
    @given(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0))
    def test_mirror_symmetry(self, u_c, u_j):
        # u_j = 0 is excluded: a centered keyframe feature is right-side by
        # convention, which deliberately breaks the mirror there
        assume(u_j != 0.0)
        swap = {LEFT: RIGHT, RIGHT: LEFT, FORWARD: FORWARD}
        assert feature_vote(-u_c, -u_j) == swap[feature_vote(u_c, u_j)]


class TestMajorityVote:
    def test_majority_right(self):
        m = ms((1, 30.0, 20.0), (2, 25.0, 20.0), (3, 22.0, 20.0), (4, -2.0, 10.0), (5, 5.0, 10.0))
        votes = Counter(feature_vote(ua, ub) for _, ua, ub in m)
        assert votes == {FORWARD: 1, LEFT: 1, RIGHT: 3}
        assert standard_command(*cols(m), P) == (MotionCommand(P.v0, -P.omega0), False)

    def test_tie_breaks_forward_first(self):
        m = ms((1, 5.0, 10.0), (2, -2.0, 10.0))
        assert standard_command(*cols(m), P)[0] == MotionCommand(P.v0, 0.0)

    def test_tie_breaks_left_before_right(self):
        m = ms((1, -2.0, 10.0), (2, 25.0, 20.0))
        assert standard_command(*cols(m), P)[0] == MotionCommand(P.v0, P.omega0)

    def test_empty_raises(self):
        with pytest.raises(EmptyMatchError):
            standard_command(*cols(()), P)


class TestStandardCommand:
    def test_all_forward(self):
        m = ms((1, 5.0, 10.0), (2, -3.0, -10.0))
        assert standard_command(*cols(m), P) == (MotionCommand(P.v0, 0.0), True)

    def test_majority_turns_right(self):
        m = ms(
            (1, 30.0, 20.0),
            (2, 25.0, 20.0),
            (3, 22.0, 20.0),
            (4, -2.0, 10.0),
            (5, 5.0, 10.0),
        )
        assert standard_command(*cols(m), P)[0] == MotionCommand(P.v0, -P.omega0)

    def test_left_turn(self):
        m = ms((1, -2.0, 10.0), (2, -3.0, 10.0), (3, 5.0, 10.0))
        assert standard_command(*cols(m), P)[0] == MotionCommand(P.v0, P.omega0)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
            min_size=1,
            max_size=8,
        )
    )
    def test_omega_is_always_preset(self, coords):
        m = tuple((i, a, b) for i, (a, b) in enumerate(coords))
        cmd, _ = standard_command(*cols(m), P)
        assert cmd.v == P.v0
        assert cmd.omega in (-P.omega0, 0.0, P.omega0)


class TestInsideFunnel:
    def test_all_forward_is_inside(self):
        assert inside_funnel(*cols(ms((1, 5.0, 10.0), (2, -3.0, -10.0))))

    def test_one_violation_is_outside(self):
        assert not inside_funnel(*cols(ms((1, 5.0, 10.0), (2, 30.0, 20.0))))

    def test_empty_raises(self):
        with pytest.raises(EmptyMatchError):
            inside_funnel(*cols(()))

    @settings(max_examples=300)
    @given(st.lists(PAIR, min_size=1, max_size=8))
    def test_command_verdict_equals_inside_funnel(self, coords):
        m = tuple((i, a, b) for i, (a, b) in enumerate(coords))
        assert standard_command(*cols(m), P)[1] == inside_funnel(*cols(m))


class TestOneVotePerPair:
    def test_navigate_votes_once_per_pair_per_driving_tick(self, monkeypatch):
        scn = load_scenario(SCENARIO_DIR / "almost_straight.yaml")
        path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        calls = 0

        def counting_vote(u_c, u_j):
            nonlocal calls
            calls += 1
            return feature_vote(u_c, u_j)

        monkeypatch.setattr(control_standard, "feature_vote", counting_vote)
        cfg = replace(scn.navigator, controller="standard")
        noise = replace(scn.noise, seed=scn.seed)
        tr = navigate(scn.world, scn.camera, path, scn.repeat_start, cfg, noise)
        driving = [r for r in tr.records if r["event"] in ("", "recovered")]
        assert driving
        assert calls == sum(r["nmf"] for r in driving)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            StandardParams(v0=0.0, omega0=0.5)
        with pytest.raises(ValueError):
            StandardParams(v0=0.5, omega0=-0.1)
        with pytest.raises(ValueError, match="finite"):
            StandardParams(v0=0.5, omega0=math.inf)
        with pytest.raises(ValueError):
            StandardParams(v0=math.nan, omega0=0.5)
