from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gasbox.means import PairMeans, arith_mean, geo_mean, log_mean, pair_means, split_average_residual
from gasbox.thermo import GasParams, face_means, primitives

positive_floats = st.floats(min_value=1e-6, max_value=1e6,
                            allow_nan=False, allow_infinity=False)


def log_mean_reference(a, b):
    """Oracle at 40 significant digits."""
    if a == b:
        return float(a)
    with mpmath.workdps(40):
        return float((mpmath.mpf(b) - mpmath.mpf(a))
                     / (mpmath.log(mpmath.mpf(b)) - mpmath.log(mpmath.mpf(a))))


class TestArithMean:
    def test_equal(self):
        assert arith_mean(1.0, 1.0) == 1.0

    def test_simple(self):
        assert arith_mean(1.0, 3.0) == 2.0

    def test_antisymmetric_pair(self):
        assert arith_mean(-2.0, 2.0) == 0.0


class TestLogMean:
    def test_equal_arguments_exact(self):
        assert log_mean(2.0, 2.0) == 2.0

    def test_one_and_e(self):
        # (e - 1)/(ln e - ln 1) = e - 1
        expected = np.e - 1.0
        assert abs(log_mean(1.0, np.e) - expected) <= 1e-15 * expected

    def test_near_equal_matches_arith_mean(self):
        a, b = 1.0, 1.0 + 1e-12
        lm = log_mean(a, b)
        am = arith_mean(a, b)
        assert abs(lm - am) <= 1e-15 * am

    @pytest.mark.parametrize("eps_exp", range(1, 16))
    def test_series_branch_against_high_precision(self, eps_exp):
        # straddles the series switch at zeta^2 = 1e-4 (i.e. b/a - 1 ~ 2e-2)
        a = 1.7
        b = a * (1.0 + 10.0 ** (-eps_exp))
        ref = log_mean_reference(a, b)
        assert abs(log_mean(a, b) - ref) <= 1e-15 * ref

    def test_wide_ratio_sweep_against_high_precision(self, rng):
        # the direct branch (b-a)/(log b - log a) inherits the rounding of
        # the two logs, so its conditioning degrades like |log| / |dlog|;
        # the series branch is pinned at 1e-15
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2000))
        b = a * np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 2000))
        got = log_mean(a, b)
        ref = np.array([log_mean_reference(x, y) for x, y in zip(a, b)])
        dlog = np.abs(np.log(b) - np.log(a))
        log_scale = np.maximum(np.abs(np.log(a)), np.abs(np.log(b)))
        eps = np.finfo(float).eps
        tol = 1e-15 + 4.0 * eps * log_scale / np.maximum(dlog, 2e-2)
        assert np.all(np.abs(got - ref) / ref <= tol)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_mean(-1.0, 2.0)
        with pytest.raises(ValueError):
            log_mean(1.0, 0.0)

    @given(a=positive_floats, b=positive_floats)
    @settings(max_examples=300, deadline=None)
    def test_bitwise_symmetric(self, a, b):
        assert log_mean(a, b) == log_mean(b, a)

    @given(a=positive_floats, b=positive_floats)
    @settings(max_examples=300, deadline=None)
    def test_between_geometric_and_arithmetic(self, a, b):
        am = arith_mean(a, b)
        lm = log_mean(a, b)
        gm = geo_mean(a, b)
        assert gm <= lm + 1e-15 * am
        assert lm <= am + 1e-15 * am


# ratios b/a over 1e-6 .. 1e6, with equal pairs and pairs near enough for
# the series branch of the log mean (zeta^2 < 1e-4 within ~2%)
ratios = st.one_of(st.just(1.0), st.floats(min_value=0.97, max_value=1.03),
                   st.floats(min_value=1e-6, max_value=1e6))


def _same_bits(x, y):
    return np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


class TestPairMeans:
    @given(a=positive_floats, ratio=ratios)
    @settings(max_examples=300, deadline=None)
    def test_log_mean_is_log_mean_bitwise(self, a, ratio):
        b = a * ratio
        assert _same_bits(pair_means(a, b, np.log(a), np.log(b)).ln, log_mean(a, b))

    @given(shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=5),
           seed=st.integers(0, 2**32 - 1), axis=st.integers(0, 2),
           jump_scale=st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 14.0]))
    @settings(max_examples=100, deadline=None)
    def test_face_pairs_are_pair_means_of_the_nodes(self, shape, seed, axis, jump_scale):
        # both log means of a face bundle come from one chain over its
        # stacked rho/beta rows; each row is pair_means of its node values
        gas = GasParams(gamma=1.4, R=1.0)
        rng = np.random.default_rng(seed)
        vel = tuple(np.array(rng.uniform(-1.0, 1.0, shape)) for _ in range(3))
        rho, p = (np.array(np.exp(rng.uniform(-3.0, 3.0, shape))) for _ in range(2))
        rho_r, p_r = (np.array(x * np.exp(jump_scale * rng.uniform(-0.5, 0.5, shape))) for x in (rho, p))
        left, right = primitives(rho, vel, p, gas), primitives(rho_r, vel, p_r, gas)
        face = face_means(axis, left, right)
        for name in ("rho", "beta"):
            log = "log_" + name
            ref = pair_means(getattr(left, name), getattr(right, name), getattr(left, log),
                             getattr(right, log))
            for field in fields(PairMeans):
                assert _same_bits(getattr(getattr(face, name), field.name),
                                  getattr(ref, field.name)), (name, field.name)


class TestGeoMean:
    def test_four_nine(self):
        assert geo_mean(4.0, 9.0) == 6.0

    def test_equal(self):
        assert geo_mean(2.5, 2.5) == 2.5

    def test_zero(self):
        assert geo_mean(0.0, 5.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            geo_mean(-1.0, 4.0)


class TestSplitAverage:
    def test_hand_case_exact(self):
        # mean(ab) = 7 = 2*3 + 2*2/4
        assert split_average_residual((1.0, 3.0), (2.0, 4.0)) == 0.0

    def test_equal_pairs(self):
        assert split_average_residual((5.0, 5.0), (7.0, 7.0)) == 0.0

    def test_randomized_identity(self, rng):
        n = 10**5
        a = (rng.uniform(-1e3, 1e3, n), rng.uniform(-1e3, 1e3, n))
        b = (rng.uniform(-1e3, 1e3, n), rng.uniform(-1e3, 1e3, n))
        resid = split_average_residual(a, b)
        cross = 0.25 * np.abs((a[1] - a[0]) * (b[1] - b[0]))
        means = np.abs(arith_mean(*a) * arith_mean(*b))
        scale = np.maximum.reduce([np.ones(n), np.abs(a[0] * b[0]),
                                   np.abs(a[1] * b[1]), means, cross])
        assert np.max(resid / scale) <= 1e-15


class TestOrderingSweeps:
    """Randomized orderings over pairs spanning ratios 1e-6..1e6."""

    N = 10**5

    @pytest.fixture
    def pairs(self, rng):
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), self.N))
        b = a * np.exp(rng.uniform(np.log(1e-6), np.log(1e6), self.N))
        return a, b

    def test_mean_ordering(self, pairs):
        a, b = pairs
        am, lm, gm = arith_mean(a, b), log_mean(a, b), geo_mean(a, b)
        assert np.all(gm <= lm + 1e-15 * am)
        assert np.all(lm <= am + 1e-15 * am)

    def test_reciprocal_ordering(self, pairs):
        a, b = pairs
        am, lm, gm = arith_mean(a, b), log_mean(a, b), geo_mean(a, b)
        assert np.all(1.0 / gm >= 1.0 / lm - 1e-15 / am)
        assert np.all(1.0 / lm >= 1.0 / am - 1e-15 / am)

    def test_jump_ratio_half_bound(self, pairs):
        a, b = pairs
        keep = a != b
        ratio = np.abs(arith_mean(a, b) - log_mean(a, b))[keep] / np.abs(b - a)[keep]
        assert np.max(ratio) <= 0.5 + 1e-12

    def test_arith_geo_gap_over_jump(self, pairs):
        # (mean - geomean)/jump equals (sqrt(b)-sqrt(a)) / (2(sqrt(b)+sqrt(a)));
        # the subtractive left side loses ~(jump/mean)^-2 digits, so the
        # 1e-13 comparison needs a well-separated pair
        a, b = pairs
        keep = np.abs(b - a) > 0.2 * np.maximum(a, b)
        lhs = (arith_mean(a, b) - geo_mean(a, b))[keep] / (b - a)[keep]
        sa, sb = np.sqrt(a[keep]), np.sqrt(b[keep])
        rhs = (sb - sa) / (2.0 * (sb + sa))
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-13
