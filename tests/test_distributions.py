"""Distribution primitives against frozen high-precision reference values.

The reference numbers were computed with a 50-digit arbitrary-precision
bisection/series evaluation of the normal CDF, independent of scipy, and
are pinned here as literals.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from msprobit.distributions import (
    log_interval_mass,
    sample_truncated_normal_many,
    std_normal_quantile,
)
from msprobit.errors import DegeneracyError
from msprobit.model import ChainConfig, Dataset, Prior, ScaleSpec
from msprobit.sampler import _Fit, _GibbsKernel

# x -> Phi(x), 50-digit reference rounded to double
CDF_REFERENCE = {
    -37.0: 5.7255712225245768e-300,
    -20.0: 2.7536241186062337e-89,
    -10.0: 7.6198530241605261e-24,
    -8.0: 6.2209605742717841e-16,
    -5.0: 2.8665157187919391e-07,
    -3.0: 0.0013498980316300945,
    -2.0: 0.022750131948179207,
    -1.0: 0.15865525393145705,
    -0.5: 0.30853753872598690,
    -0.1: 0.46017216272297102,
    0.0: 0.5,
    0.1: 0.53982783727702898,
    0.5: 0.69146246127401310,
    1.0: 0.84134474606854295,
    1.5: 0.93319279873114193,
    2.0: 0.97724986805182079,
    3.0: 0.99865010196836991,
    5.0: 0.99999971334842812,
    8.0: 0.99999999999999938,
    10.0: 1.0,
    20.0: 1.0,
    37.0: 1.0,
    40.0: 1.0,
}

QUANTILE_REFERENCE = {
    1e-300: -37.047096299361199,
    1e-12: -7.0344838253011319,
    0.25: -0.67448975019608174,
}

# (mean, lower, upper) -> E[TN], same reference apparatus
TN_MEAN_REFERENCE = [
    (0.0, 0.0, math.inf, 0.79788456080286536),
    (2.0, -1.0, 1.0, 0.48995048675601613),
    (0.0, 5.0, 6.0, 5.1831470904771735),
    (0.0, -math.inf, -2.0, -2.3732155328228409),
    (0.0, 2.0, math.inf, 2.3732155328228409),
    (10.0, -math.inf, 0.0, -0.098093233962511963),
]


def _cdf_rtol(x):
    # erfc-based evaluation loses a couple digits deep in the tail
    return 1e-12 if abs(x) > 8 else 1e-14


# log Phi(x) is log_interval_mass(-inf, x). A relative error r in Phi(x) is
# an absolute error of about r in log Phi(x), so _cdf_rtol bounds the
# log-space difference; checking in log space avoids exp's own rounding.
def test_cdf_matches_reference():
    for x, want in CDF_REFERENCE.items():
        got = log_interval_mass(-math.inf, x)
        assert abs(got - math.log(want)) <= _cdf_rtol(x), x


def test_cdf_vectorized():
    xs = np.array(sorted(CDF_REFERENCE))
    got = log_interval_mass(np.full(xs.size, -math.inf), xs)
    for x, g in zip(xs, got):
        assert abs(g - math.log(CDF_REFERENCE[float(x)])) <= _cdf_rtol(x), x


def test_quantile_matches_reference():
    for p, want in QUANTILE_REFERENCE.items():
        assert std_normal_quantile(p) == pytest.approx(want, rel=1e-12)
        if p >= 1e-6:  # upper-tail p is ill-conditioned through rounding of 1-p
            assert std_normal_quantile(1.0 - p) == pytest.approx(-want, rel=1e-9)


def test_cdf_quantile_round_trip():
    for p in [1e-10, 1e-4, 0.2, 0.5, 0.9, 1 - 1e-9]:
        assert stats.norm.cdf(std_normal_quantile(p)) == pytest.approx(p, rel=1e-9)


def test_quantile_domain():
    for bad in [0.0, 1.0, -0.1, 1.1, math.nan]:
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


def _draws(mean, variance, lower, upper, rng, n):
    """n draws on one interval, one vectorized call."""
    full = np.full(n, 1.0)
    return sample_truncated_normal_many(
        mean * full, variance, lower * full, upper * full, rng
    )


def test_interval_validation():
    g = np.random.default_rng(0)
    for lower, upper in [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match="index 1"):
            sample_truncated_normal_many(
                np.zeros(2), 1.0, np.array([0.0, lower]), np.array([1.0, upper]), g
            )
    whole = _draws(0.0, 1.0, -math.inf, math.inf, g, 3)
    assert np.all(np.isfinite(whole))


def test_log_interval_mass_matches_cdf_differences():
    cases = [(-1.0, 1.0), (-math.inf, 0.5), (0.5, math.inf), (-math.inf, math.inf)]
    for a, b in cases:
        hi = stats.norm.cdf(b)
        lo = stats.norm.cdf(a)
        want = math.log(hi - lo) if hi > lo else -math.inf
        assert log_interval_mass(a, b) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_log_interval_mass_far_tail():
    # Phi(-299) - Phi(-300): dominated by the upper endpoint
    got = log_interval_mass(-300.0, -299.0)
    assert math.isfinite(got)
    # log Phi(-299) ~ -299^2/2 - log(299*sqrt(2pi))
    approx = -299.0**2 / 2 - math.log(299.0 * math.sqrt(2 * math.pi))
    assert got == pytest.approx(approx, rel=1e-4)
    # symmetric on the other side
    assert log_interval_mass(299.0, 300.0) == pytest.approx(got, rel=1e-10)


def test_log_interval_mass_no_overflow_at_300():
    # underflow-to-zero is expected and benign; overflow/invalid are not
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        vals = log_interval_mass(
            np.array([-300.0, 250.0, -1.0]), np.array([-250.0, 300.0, 1.0])
        )
    assert np.all(np.isfinite(vals))


def test_log_interval_mass_reversed_interval_is_nan_without_warning():
    # lower far above upper: no interval, and no numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(log_interval_mass(50.0, -50.0))
        assert np.isnan(log_interval_mass(np.array([50.0]), np.array([-50.0]))).all()


def test_log_interval_mass_stays_finite_past_float_floor():
    # the probability e^c underflows to 0 as a double; the log is still exact
    got = log_interval_mass(500.0, 501.0)
    approx = -500.0**2 / 2 - math.log(500.0 * math.sqrt(2 * math.pi))
    assert got == pytest.approx(approx, rel=1e-4)
    assert log_interval_mass(1.0, 1.0) == -math.inf


def test_truncated_normal_reference_means(rng):
    for mean, lo, hi, want in TN_MEAN_REFERENCE:
        draws = _draws(mean, 1.0, lo, hi, rng, 20_000)
        assert np.all(draws > lo) and np.all(draws < hi)
        assert draws.mean() == pytest.approx(want, abs=0.02), (mean, lo, hi)


def test_truncated_normal_ks_central(rng):
    draws = _draws(2.0, 4.0, -1.0, 3.0, rng, 20_000)
    dist = stats.truncnorm((-1 - 2) / 2, (3 - 2) / 2, loc=2.0, scale=2.0)
    stat, _ = stats.kstest(draws, dist.cdf)
    assert stat < 0.02


def test_truncated_normal_far_tail_ks(rng):
    # interval at 8 sigma: inverse-CDF would see mass ~ 6e-16
    draws = _draws(0.0, 1.0, 8.0, 9.0, rng, 5_000)
    assert np.all((draws > 8.0) & (draws < 9.0))

    def cdf(x):
        # conditional CDF in log space, exact in the tail
        num = np.exp(log_interval_mass(8.0, x))
        den = np.exp(log_interval_mass(8.0, 9.0))
        return num / den

    stat, _ = stats.kstest(draws, np.vectorize(cdf))
    assert stat < 0.025


def test_truncated_normal_shifted_tail(rng):
    # mean 10, truncated to the negative axis: 10 sigma from the mean
    draws = _draws(10.0, 1.0, -math.inf, 0.0, rng, 5_000)
    assert np.all(draws < 0.0)
    assert draws.mean() == pytest.approx(-0.098093233962511963, abs=0.02)


def test_truncated_normal_degenerate():
    g = np.random.default_rng(0)
    with pytest.raises(DegeneracyError):
        _draws(0.0, 1.0, 40.0, 41.0, g, 1)


def test_truncated_normal_rejects_bad_moments():
    g = np.random.default_rng(0)
    for mean, variance in [
        (math.nan, 1.0),
        (math.inf, 1.0),
        (0.0, 0.0),
        (0.0, -1.0),
        (0.0, math.inf),
        (0.0, np.array([1.0, math.nan])),
    ]:
        with pytest.raises(ValueError):
            _draws(mean, variance, 0.0, 1.0, g, 2)


def test_vectorized_truncated_normal_matches_marginals(rng):
    n = 30_000
    means = np.tile([0.0, 2.0, -1.0], n // 3)
    lowers = np.tile([-1.0, -math.inf, 5.0], n // 3)
    uppers = np.tile([1.0, 1.5, 6.0], n // 3)
    draws = sample_truncated_normal_many(means, 1.0, lowers, uppers, rng)
    assert np.all(draws > lowers) and np.all(draws < uppers)
    for k, (m, lo, hi) in enumerate([(0.0, -1.0, 1.0), (2.0, -math.inf, 1.5), (-1.0, 5.0, 6.0)]):
        part = draws[k::3]
        a, b = lo - m, hi - m
        dist = stats.truncnorm(a, b, loc=m, scale=1.0)
        stat, _ = stats.kstest(part, dist.cdf)
        assert stat < 0.02, k


def test_vectorized_truncated_normal_names_bad_index():
    g = np.random.default_rng(0)
    means = np.zeros(4)
    lowers = np.array([-1.0, 40.0, -1.0, -1.0])
    uppers = np.array([1.0, 41.0, 1.0, 1.0])
    with pytest.raises(DegeneracyError, match="index 1"):
        sample_truncated_normal_many(means, 1.0, lowers, uppers, g)


def test_per_element_variance_matches_marginals(rng):
    # one call, three interleaved laws that differ only in their variance
    n = 30_000
    variances = np.tile([0.25, 1.0, 9.0], n // 3)
    draws = sample_truncated_normal_many(
        np.full(n, 0.5), variances, np.full(n, -1.0), np.full(n, 2.0), rng
    )
    assert np.all((draws > -1.0) & (draws < 2.0))
    for k, var in enumerate([0.25, 1.0, 9.0]):
        sd = math.sqrt(var)
        dist = stats.truncnorm((-1.0 - 0.5) / sd, (2.0 - 0.5) / sd, loc=0.5, scale=sd)
        stat, _ = stats.kstest(draws[k::3], dist.cdf)
        assert stat < 0.02, var


def test_mvn_from_precision_moments(rng):
    # Posterior precision [[2,1],[1,2]] -> covariance [[2/3,-1/3],[-1/3,2/3]]:
    # X'X = I/2 plus a prior precision of [[1.5,1],[1,1.5]], with the prior
    # mean chosen so that the posterior mean is (1, -2) at zero latents.
    s = math.sqrt(0.5)
    ds = Dataset(
        features=np.array([[s, 0.0], [0.0, s]]),
        labels=np.array([1, 2]),
        scale_ids=np.array([1, 1]),
        scales=(ScaleSpec(1, 2),),
    )
    prior = Prior(mean=np.array([2.4, -3.6]), precision=np.array([[1.5, 1.0], [1.0, 1.5]]))
    kernel = _GibbsKernel([_Fit(ds, ChainConfig(prior=prior))])
    y_star = np.zeros(2)
    draws = np.array(
        [kernel.draw_coefficients(y_star, [rng]) for _ in range(40_000)]
    )
    np.testing.assert_allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.02)
    cov = np.cov(draws.T)
    np.testing.assert_allclose(
        cov, [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], atol=0.02
    )


def test_truncated_normal_draw_is_deterministic():
    a = np.random.default_rng(42)
    b = np.random.default_rng(42)
    xs = _draws(0.5, 2.0, 0.0, 3.0, a, 50)
    ys = _draws(0.5, 2.0, 0.0, 3.0, b, 50)
    np.testing.assert_array_equal(xs, ys)
    # a far-tail element consumes extra stream values in index order
    lowers = np.array([0.0, 8.0, 0.0])
    xs = sample_truncated_normal_many(np.zeros(3), [1.0, 1.0, 2.0], lowers, lowers + 1.0, a)
    ys = sample_truncated_normal_many(np.zeros(3), [1.0, 1.0, 2.0], lowers, lowers + 1.0, b)
    np.testing.assert_array_equal(xs, ys)
    assert a.random() == b.random()


def test_blocks_draw_as_their_lone_calls():
    # three blocks with their own streams: the last one redraws a far-tail
    # element
    means = np.zeros(7)
    lowers = np.array([-1.0, 0.0, -1.0, 0.5, 2.0, 0.0, 8.0])
    uppers = lowers + 1.0
    rngs = [np.random.default_rng(seed) for seed in (1, 2, 3)]
    draws = sample_truncated_normal_many(means, 1.0, lowers, uppers, rngs, [2, 3, 2])
    blocks = (slice(0, 2), slice(2, 5), slice(5, 7))
    for g, seed, block in zip(rngs, (1, 2, 3), blocks):
        lone = np.random.default_rng(seed)
        want = sample_truncated_normal_many(
            means[block], 1.0, lowers[block], uppers[block], lone
        )
        np.testing.assert_array_equal(draws[block], want)
        assert g.bit_generator.state == lone.bit_generator.state
    # a degenerate middle block makes the whole call raise before it
    # touches any stream
    lowers[3:5] = 40.0
    rngs = [np.random.default_rng(seed) for seed in (1, 2, 3)]
    with pytest.raises(DegeneracyError, match="index 3"):
        sample_truncated_normal_many(means, 1.0, lowers, lowers + 1.0, rngs, [2, 3, 2])
    for g, seed in zip(rngs, (1, 2, 3)):
        assert g.bit_generator.state == np.random.default_rng(seed).bit_generator.state
