"""Majority-vote controller unit tests."""

import itertools
import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from funnelnav import control_standard
from funnelnav.control_standard import (
    FORWARD,
    LEFT,
    RIGHT,
    V0,
    feature_vote,
    inside_funnel,
    standard_command,
)
from funnelnav.errors import EmptyMatchError
from funnelnav.evaluate import load_scenario
from funnelnav.geometry import MotionCommand
from funnelnav.navigate import NavigatorConfig, navigate
from funnelnav.teach import record

from conftest import SCENARIO_DIR, cols, ms

OMEGA0 = 0.4  # rad/s, apart from V0 and the 0.5 default

# zero coordinates (either sign) and |u_c| == |u_j| ties are the vote's edges
COORD = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-150.0, 150.0))

# a vote's name for test ids: a bare 1 or -1 would not say which turn
VOTE_NAME = {FORWARD: "forward", LEFT: "left", RIGHT: "right"}


@st.composite
def poses(draw):
    """n <= 8 keyframe coordinates uj and, for each of m <= 6 poses, the n
    current coordinates there: each one any COORD, or equal in magnitude to
    its keyframe coordinate."""
    uj = draw(st.lists(COORD, min_size=1, max_size=8))
    current = st.tuples(*(st.one_of(COORD, st.sampled_from((u, -u))) for u in uj))
    return [list(c) for c in draw(st.lists(current, min_size=1, max_size=6))], uj


def one_pose(pairs) -> tuple[np.ndarray, list[float]]:
    """The (n, 1) column of current coordinates of (id, u_c, u_j) pairs, and
    their keyframe coordinates: inside_funnel's arguments for one pose."""
    uc, uj = cols(pairs)
    return np.array(uc)[:, np.newaxis], uj


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
        ids=lambda v: VOTE_NAME[v] if type(v) is int else None,
    )
    def test_vote_table(self, u_c, u_j, expected):
        assert feature_vote(u_c, u_j) == expected

    @settings(max_examples=200)
    @given(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0))
    def test_mirror_symmetry(self, u_c, u_j):
        # a vote is a turn's sign, so the mirror negates it.  u_j = 0 is
        # excluded: see test_centred_keyframe_feature_votes_right
        assume(u_j != 0.0)
        assert feature_vote(-u_c, -u_j) == -feature_vote(u_c, u_j)

    @settings(max_examples=200)
    @given(st.floats(allow_nan=False), st.sampled_from((0.0, -0.0)),
           st.lists(st.tuples(COORD, COORD), max_size=7))
    def test_centred_keyframe_feature_votes_right(self, u_c, u_j, others):
        # |u_c| >= |0.0| always holds and u_j >= 0 puts a centred feature on
        # the right, so its mirror votes RIGHT too, not the negation; while
        # it is tracked the lane's verdict is never inside
        assert feature_vote(u_c, u_j) == feature_vote(-u_c, -u_j) == RIGHT
        uc, uj = [u_c, *(a for a, _ in others)], [u_j, *(b for _, b in others)]
        assert standard_command(uc, uj, OMEGA0)[1] is False
        assert inside_funnel(np.array(uc)[:, np.newaxis], uj).tolist() == [False]


class TestMajorityVote:
    def test_majority_right(self):
        m = ms((1, 30.0, 20.0), (2, 25.0, 20.0), (3, 22.0, 20.0), (4, -2.0, 10.0), (5, 5.0, 10.0))
        votes = Counter(feature_vote(ua, ub) for _, ua, ub in m)
        assert votes == {FORWARD: 1, LEFT: 1, RIGHT: 3}
        assert standard_command(*cols(m), OMEGA0) == (MotionCommand(V0, -OMEGA0), False)

    def test_tie_breaks_forward_first(self):
        m = ms((1, 5.0, 10.0), (2, -2.0, 10.0))
        assert standard_command(*cols(m), OMEGA0)[0] == MotionCommand(V0, 0.0)

    def test_tie_breaks_left_before_right(self):
        m = ms((1, -2.0, 10.0), (2, 25.0, 20.0))
        assert standard_command(*cols(m), OMEGA0)[0] == MotionCommand(V0, OMEGA0)

    @pytest.mark.parametrize("m", [
        ms((1, 5.0, 10.0), (2, -3.0, -10.0), (3, 30.0, 20.0)),
        ms((1, 5.0, 10.0), (2, 30.0, 20.0)),
    ], ids=["forward-majority", "forward-wins-tie"])
    def test_forward_omega_is_positive_zero(self, m):
        # a trace record writes omega's repr, so a -0.0 would change its bytes
        cmd, _ = standard_command(*cols(m), OMEGA0)
        assert math.copysign(1.0, cmd.omega) == 1.0
        assert repr(cmd.omega) == "0.0"

    def test_empty_raises(self):
        with pytest.raises(EmptyMatchError):
            standard_command(*cols(()), OMEGA0)


class TestStandardCommand:
    def test_all_forward(self):
        m = ms((1, 5.0, 10.0), (2, -3.0, -10.0))
        assert standard_command(*cols(m), OMEGA0) == (MotionCommand(V0, 0.0), True)

    def test_majority_turns_right(self):
        m = ms(
            (1, 30.0, 20.0),
            (2, 25.0, 20.0),
            (3, 22.0, 20.0),
            (4, -2.0, 10.0),
            (5, 5.0, 10.0),
        )
        assert standard_command(*cols(m), OMEGA0)[0] == MotionCommand(V0, -OMEGA0)

    def test_left_turn(self):
        m = ms((1, -2.0, 10.0), (2, -3.0, 10.0), (3, 5.0, 10.0))
        assert standard_command(*cols(m), OMEGA0)[0] == MotionCommand(V0, OMEGA0)

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
        cmd, _ = standard_command(*cols(m), OMEGA0)
        assert cmd.v == V0
        assert cmd.omega in (-OMEGA0, 0.0, OMEGA0)


class TestInsideFunnel:
    def test_all_forward_is_inside(self):
        assert inside_funnel(*one_pose(ms((1, 5.0, 10.0), (2, -3.0, -10.0)))).tolist() == [True]

    def test_one_violation_is_outside(self):
        assert inside_funnel(*one_pose(ms((1, 5.0, 10.0), (2, 30.0, 20.0)))).tolist() == [False]

    def test_empty_raises(self):
        with pytest.raises(EmptyMatchError):
            inside_funnel(*one_pose(()))

    @pytest.mark.parametrize("uc", [[5.0, -3.0], [[5.0, -3.0]], [[5.0], [-3.0], [1.0]]],
                             ids=["1-D", "one-row", "three-rows"])
    def test_uc_without_one_row_per_feature_raises(self, uc):
        # a 1-D column would broadcast against the two keyframe coordinates
        # into a 2 x 2 matrix and give two verdicts without an error
        with pytest.raises(ValueError, match="one per feature"):
            inside_funnel(np.array(uc), [10.0, -10.0])

    @settings(max_examples=300)
    @given(poses())
    def test_command_verdict_equals_inside_funnel(self, case):
        # the poses stand side by side as the columns of uc; each one's
        # verdict is the tick's verdict on that column
        current, uj = case
        verdicts = inside_funnel(np.array(current).T, uj)
        assert verdicts.shape == (len(current),)
        for inside, uc in zip(verdicts.tolist(), current):
            assert inside is standard_command(uc, uj, OMEGA0)[1]
            assert inside is all(feature_vote(a, b) == FORWARD for a, b in zip(uc, uj))

    def test_nan_and_infinities_vote_as_feature_vote_does(self):
        # every pairing of these values, inf * 0.0 among them, two features
        # at a time: 49 keyframes, each judged at 49 poses
        special = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5.0, -5.0)
        current = list(itertools.product(special, repeat=2))
        uc = np.array(current).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for uj in itertools.product(special, repeat=2):
                expected = [all(feature_vote(a, b) == FORWARD for a, b in zip(col, uj))
                            for col in current]
                assert inside_funnel(uc, uj).tolist() == expected


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
        # the controller's one setting is NavigatorConfig.omega0; V0 is fixed
        for bad in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="omega0 must be positive and finite"):
                NavigatorConfig(omega0=bad)
