"""Match statistics and noise-model unit tests."""

import json
import math
import statistics
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funnelnav import features
from funnelnav.errors import InvalidPathError
from funnelnav.features import (
    Keyframe,
    NoiseModel,
    VisualPath,
    match,
    median,
    median_distance,
    mse,
    perturb,
    perturb_all,
    save_visual_path,
    std_ratio,
    survivors,
)
from funnelnav.geometry import Pose

from conftest import cols, ms

KF = Keyframe(index=0, pose_truth=Pose(0, 0, 0), observations={1: 10.0, 2: -5.0, 3: 40.0})


class TestMatch:
    def test_disjoint_ids_give_empty_set(self):
        m = match({7: 1.0, 8: 2.0}, KF, NoiseModel(), NoiseModel().make_rng())
        assert m == {}

    def test_identity_with_zero_noise(self):
        m = match(dict(KF.observations), KF, NoiseModel(), NoiseModel().make_rng())
        assert m == {1: 10.0, 2: -5.0, 3: 40.0}

    def test_ascending_id_order(self):
        # the current image lists its ids in any order; a match lists them ascending
        obs = {3: 1.0, 1: 2.0, 2: 3.0}
        m = match(obs, KF, NoiseModel(), NoiseModel().make_rng())
        assert m == obs and list(m) == sorted(m)

    def test_noise_free_match_never_calls_perturb(self, monkeypatch):
        calls = 0

        def counting_perturb(u, noise, rng):
            nonlocal calls
            calls += 1
            return perturb(u, noise, rng)

        monkeypatch.setattr(features, "perturb", counting_perturb)
        obs = {i: float(i) for i in range(1, 30)}
        kf = Keyframe(0, Pose(0, 0, 0), dict(obs))
        for noise in (NoiseModel(), NoiseModel(dropout_prob=0.5, seed=3)):
            m = match(obs, kf, noise, noise.make_rng())
            assert all(u_c == kf.observations[i] for i, u_c in m.items())
        assert calls == 0
        noisy = NoiseModel(pixel_sigma=1.0)
        assert len(match(obs, kf, noisy, noisy.make_rng())) == calls == 29

    def test_partial_overlap(self):
        m = match({1: 9.0, 9: 3.0}, KF, NoiseModel(), NoiseModel().make_rng())
        assert m == {1: 9.0}

    def test_seeded_determinism(self):
        noise = NoiseModel(dropout_prob=0.3, pixel_sigma=2.0, seed=42)
        a = match(dict(KF.observations), KF, noise, noise.make_rng())
        b = match(dict(KF.observations), KF, noise, noise.make_rng())
        assert a == b

    def test_different_seeds_differ(self):
        obs = {i: float(i) for i in range(1, 50)}
        kf = Keyframe(0, Pose(0, 0, 0), dict(obs))
        one, two = NoiseModel(dropout_prob=0.5, seed=1), NoiseModel(dropout_prob=0.5, seed=2)
        assert match(obs, kf, one, one.make_rng()) != match(obs, kf, two, two.make_rng())


class _FixedNormalRng:
    """Stub generator whose normal() always returns the same draw."""

    def __init__(self, draw: float = 1000.0):  # default: outside the clip bound
        self.draw = draw

    def normal(self, loc, scale):
        return self.draw


class _ArrayNormalRng:
    """Stub generator whose size-n normal() returns the given draws."""

    def __init__(self, draws: list[float]):
        self.draws = draws

    def normal(self, loc, scale, size):
        assert size == len(self.draws)
        return np.array(self.draws)


class TestPerturb:
    def test_zero_sigma_is_identity(self):
        rng = np.random.default_rng(0)
        assert perturb(5.0, NoiseModel(pixel_sigma=0.0), rng) == 5.0

    def test_clipped_at_three_sigma(self):
        noise = NoiseModel(pixel_sigma=2.0)
        assert perturb(5.0, noise, _FixedNormalRng()) == pytest.approx(5.0 + 6.0)

    @given(
        u=st.floats(-200.0, 200.0),
        sigma=st.floats(0.01, 5.0),
        draw=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_clip_equals_numpy_clip(self, u, sigma, draw):
        lim = 3.0 * sigma
        expected = u + float(np.clip(draw, -lim, lim))
        assert perturb(u, NoiseModel(pixel_sigma=sigma), _FixedNormalRng(draw)) == expected

    @settings(max_examples=300)
    @given(
        u=st.floats(-200.0, 200.0),
        sigma=st.floats(0.01, 5.0),
        draws=st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(["lim", "-lim", 0.0, -0.0])),
            min_size=1, max_size=8,
        ),
    )
    @example(u=-0.0, sigma=1.0, draws=["lim", "-lim", 0.0, -0.0])
    def test_chained_clip_equals_min_max_clip(self, u, sigma, draws):
        # -0.0 + 0.0 is 0.0, so a u of -0.0 shows the sign of a zero clip
        noise, lim = NoiseModel(pixel_sigma=sigma), 3.0 * sigma
        ds = [lim if d == "lim" else -lim if d == "-lim" else d for d in draws]
        expected = [_bits(u + min(max(d, -lim), lim)) for d in ds]
        assert [_bits(perturb(u, noise, _FixedNormalRng(d))) for d in ds] == expected
        batch = perturb_all([u] * len(ds), noise, _ArrayNormalRng(ds))
        assert [_bits(v) for v in batch] == expected

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(dropout_prob=1.0)
        with pytest.raises(ValueError):
            NoiseModel(pixel_sigma=-0.1)


class TestStdRatio:
    def test_identical_lists_give_one(self):
        assert std_ratio(*cols(ms((1, -3.0, -3.0), (2, 8.0, 8.0)))) == pytest.approx(1.0)

    def test_halved_spread(self):
        m = ms((1, -20.0, -40.0), (2, 20.0, 40.0))
        assert std_ratio(*cols(m)) == pytest.approx(0.5)

    def test_single_pair_is_degenerate(self):
        assert std_ratio([1.0], [2.0]) is None

    def test_zero_keyframe_spread_is_degenerate(self):
        assert std_ratio([1.0, 2.0], [5.0, 5.0]) is None

    @pytest.mark.parametrize("uc, uj", [
        # both spreads overflow to inf: inf / inf
        ([1e308, 1e308, -1e308], [1e308, 1e308, 5.0]),
        # the keyframe column's pairwise sum adds +inf to -inf: a NaN mean
        ([1.0, 2.0] * 4, [1.7e308, 1.7e308, -1.7e308, -1.7e308] * 2),
    ], ids=["inf-over-inf", "nan-keyframe-spread"])
    def test_a_nan_quotient_from_overflowing_sums_is_degenerate(self, uc, uj):
        assert std_ratio(uc, uj) is None

    def test_an_infinite_ratio_is_kept(self):
        # only the current spread overflows: the ratio is inf, not undefined
        assert std_ratio([1e308, 1e308, -1e308], [1.0, 2.0, 3.0]) == math.inf

    @settings(max_examples=50)
    @given(st.floats(-50.0, 50.0))
    def test_invariant_to_current_shift(self, c):
        uc, uj = [-20.0, 20.0, 5.0], [-40.0, 40.0, 0.0]
        shifted = [u + c for u in uc]
        assert std_ratio(shifted, uj) == pytest.approx(std_ratio(uc, uj), abs=1e-9)

    @settings(max_examples=50)
    @given(st.floats(0.1, 10.0))
    def test_scales_with_current_spread(self, k):
        uc, uj = [-20.0, 20.0], [-40.0, 40.0]
        scaled = [u * k for u in uc]
        assert std_ratio(scaled, uj) == pytest.approx(k * std_ratio(uc, uj), rel=1e-9)


class TestMedianDistanceAndMse:
    def test_identical_lists_give_zero(self):
        uc, uj = cols(ms((1, 2.0, 2.0), (2, -7.0, -7.0)))
        assert median_distance(uc, uj) == 0.0
        assert mse(uc, uj) == 0.0

    def test_median_distance_hand_value(self):
        assert median_distance([0.0, 10.0], [4.0, 20.0]) == pytest.approx(7.0)

    def test_mse_hand_value(self):
        assert mse([0.0, 2.0], [2.0, 0.0]) == pytest.approx(4.0)

    def test_empty_set_is_none(self):
        assert median_distance([], []) is None
        assert mse([], []) is None
        assert median([]) is None


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# finite doubles of any magnitude; x + 0.0 turns -0.0 into 0.0 (see below)
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)


class TestPythonMedian:
    """features.median, which median_distance and the sloped controller share,
    takes the middle of sorted(xs) itself, as statistics.median does, in place
    of np.median; it must agree with both to the bit."""

    @pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
    @settings(max_examples=300)
    @given(xs=st.lists(_FINITE, min_size=2, max_size=25))
    def test_equals_numpy_median_bit_for_bit(self, parity, xs):
        if len(xs) % 2 != parity:
            xs = xs[1:]
        with np.errstate(over="ignore"):  # two huge middle values sum to inf in both
            theirs = float(np.median(np.array(xs, dtype=float)))
        assert _bits(median(xs)) == _bits(theirs)

    def test_signed_zero_tie_differs_only_in_sign(self):
        # sorted() keeps -0.0 and 0.0 in input order, np.median's partition does
        # not, so a tie of the two zeros may return either sign; no caller's
        # result depends on the sign of a zero median (each takes abs() of it,
        # of a difference, or tests a product >= 0)
        xs = [0.0, -0.0, 0.0]
        assert median(xs) == float(np.median(xs)) == 0.0

    @settings(max_examples=300)
    @given(xs=st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0])),
                       min_size=1, max_size=25))
    @example(xs=[0.0, -0.0])
    @example(xs=[-0.0, 0.0])
    @example(xs=[0.0, -0.0, 0.0])
    @example(xs=[-0.0, 0.0, -0.0, 0.0])
    def test_equals_statistics_median_bit_for_bit(self, xs):
        # the same code, so the same value, signed zero ties included
        assert _bits(median(xs)) == _bits(statistics.median(xs))


def _mixed_pairs(n: int, seed: int) -> tuple:
    """n pairs of finite values of either sign at scales from 1e-4 to 1e5, so
    squares and their sums stay finite."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-4, 6, size=(n, 2))
    return tuple((i, u_c, u_j) for i, (u_c, u_j) in enumerate(a.tolist()))


class TestPythonSums:
    """std_ratio and mse sum in numpy's pairwise order in place of np.std and
    np.mean; the results must agree to the bit.  Lengths reach 300, past the
    8- and 128-element block boundaries of numpy's summation."""

    @settings(max_examples=300)
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
    def test_std_ratio_equals_numpy(self, n, seed):
        uc, uj = cols(_mixed_pairs(n, seed))
        assert _bits(std_ratio(uc, uj)) == _bits(float(np.std(uc)) / float(np.std(uj)))

    @settings(max_examples=300)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_mse_equals_numpy(self, n, seed):
        uc, uj = cols(_mixed_pairs(n, seed))
        d = np.array(uc) - np.array(uj)
        assert _bits(mse(uc, uj)) == _bits(float(np.mean(d * d)))


class TestBatchedDraws:
    """navigate draws a tick's noise in one call per kind; the results and the
    generator's state must equal the scalar draws they replace."""

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 2.0, 7.5])
    @pytest.mark.parametrize("n", [0, 1, 9, 40])
    def test_perturb_all_equals_successive_perturb(self, sigma, n):
        noise = NoiseModel(pixel_sigma=sigma)
        us = [float(u) for u in np.linspace(-120.0, 120.0, n)]
        for seed in range(5):
            one, each = np.random.default_rng(seed), np.random.default_rng(seed)
            assert perturb_all(us, noise, one) == [perturb(u, noise, each) for u in us]
            assert one.random() == each.random()

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("n", [0, 1, 9, 40])
    def test_survivors_equal_scalar_draws(self, p, n):
        noise = NoiseModel(dropout_prob=p)
        ids = list(range(3, 3 + 2 * n, 2))
        for seed in range(5):
            one, each = np.random.default_rng(seed), np.random.default_rng(seed)
            kept = [i for i in ids if p == 0.0 or each.random() >= p]
            assert survivors(ids, noise, one) == kept
            assert one.random() == each.random()


class TestVisualPathValidation:
    def test_keyframe_needs_observations(self):
        with pytest.raises(InvalidPathError):
            Keyframe(index=0, pose_truth=Pose(0, 0, 0), observations={})

    def test_needs_two_keyframes(self):
        with pytest.raises(InvalidPathError):
            VisualPath(keyframes=(KF,))

    def test_consecutive_keyframes_must_overlap(self):
        kf2 = Keyframe(1, Pose(1, 0, 0), {99: 5.0})
        with pytest.raises(InvalidPathError):
            VisualPath(keyframes=(KF, kf2))


class TestSavePath:
    def test_writes_each_keyframe(self, tmp_path):
        kf2 = Keyframe(1, Pose(1.0, 0.5, 0.25), {1: 5.0, 3: -2.5})
        f = tmp_path / "path.json"
        save_visual_path(VisualPath(keyframes=(KF, kf2)), f)
        assert json.loads(f.read_text()) == {
            "keyframes": [
                {"index": 0, "pose_truth": [0.0, 0.0, 0.0],
                 "observations": {"1": 10.0, "2": -5.0, "3": 40.0}},
                {"index": 1, "pose_truth": [1.0, 0.5, 0.25],
                 "observations": {"1": 5.0, "3": -2.5}},
            ]
        }

    def test_save_is_byte_stable(self, tmp_path):
        kf2 = Keyframe(1, Pose(1.0, 0.0, 0.0), {1: 5.0})
        path = VisualPath(keyframes=(KF, kf2))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_visual_path(path, a)
        save_visual_path(path, b)
        assert a.read_bytes() == b.read_bytes()
