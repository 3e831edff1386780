"""Sampler blocks against independent numerical oracles.

The MH-ratio oracle below recomputes every factor of the acceptance ratio
by adaptive quadrature over the normal density, sharing no code with the
log-space production path.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from msprobit import distributions, io, sampler
from msprobit.errors import (
    ConfigError,
    DegeneracyError,
    InitializationError,
    SamplerPanicError,
)
from msprobit.model import ChainConfig, Dataset, Prior, ScaleSpec
from msprobit.presets import preset
from msprobit.sampler import (
    DrawSet,
    _Fit,
    _GibbsKernel,
    mcse_mean,
    run_chains,
    tune_proposal,
)
from msprobit.simulate import Design, simulate_dataset
from tests.conftest import make_two_scale_dataset


def _mass(a, b):
    lo = max(a, -9.0) if a != -math.inf else -9.0
    hi = min(b, 9.0) if b != math.inf else 9.0
    if hi <= lo:
        return 0.0
    val, _ = quad(norm.pdf, lo, hi, epsabs=1e-14, limit=200)
    return val


def _oracle_log_ratio(current, proposed, eta, labels, sd):
    def loglik(gamma):
        edges = np.concatenate(([-math.inf], gamma, [math.inf]))
        total = 0.0
        for e, c in zip(eta, labels):
            total += math.log(_mass(edges[c - 1] - e, edges[c] - e))
        return total

    def log_normalizer(center, lo, hi):
        return math.log(_mass((lo - center) / sd, (hi - center) / sd))

    k = len(current)
    fwd = rev = 0.0
    for c in range(k):
        below_prop = proposed[c - 1] if c > 0 else -math.inf
        above_cur = current[c + 1] if c + 1 < k else math.inf
        fwd += log_normalizer(current[c], below_prop, above_cur)
        below_cur = current[c - 1] if c > 0 else -math.inf
        above_prop = proposed[c + 1] if c + 1 < k else math.inf
        # reverse draw of threshold c lives in (below_cur, above_prop);
        # a current value outside it has zero reverse density
        if not (below_cur < current[c] < above_prop):
            return -math.inf
        rev += log_normalizer(proposed[c], below_cur, above_prop)
    return loglik(proposed) - loglik(current) + fwd - rev


def _ratio_kernel(labels, scale_ids, num_classes):
    # the threshold move reads only labels and eta; the features are filler
    n = len(labels)
    ds = Dataset(
        features=np.ones((n, 1)),
        labels=labels,
        scale_ids=scale_ids,
        scales=tuple(ScaleSpec(k + 1, c) for k, c in enumerate(num_classes)),
    )
    return _GibbsKernel([_Fit(ds, ChainConfig())])


def _log_ratio(current, proposed, eta, labels, sd):
    """The scoring method on a one-scale kernel holding exactly these rows."""
    current = np.asarray(current, dtype=float)
    proposed = np.asarray(proposed, dtype=float)
    scale_ids = np.ones(len(labels), dtype=int)
    kernel = _ratio_kernel(labels, scale_ids, (current.size + 1,))
    eta = np.asarray(eta, dtype=float)
    return kernel.log_acceptance_ratios(eta, current, proposed, [sd])[0]


def test_acceptance_ratio_matches_quadrature_oracle():
    g = np.random.default_rng(7)
    current = np.array([-0.8, 0.1, 0.9])
    labels = np.array([1, 2, 2, 3, 4, 1, 3, 4, 2, 4, 1, 3])
    eta = g.normal(scale=1.2, size=labels.size)
    for sd in (0.3, 0.8):
        for _ in range(6):
            proposed = np.sort(current + g.normal(scale=0.25, size=3))
            if np.any(np.diff(proposed) <= 1e-6):
                continue
            got = _log_ratio(current, proposed, eta, labels, sd)
            want = _oracle_log_ratio(current, proposed, eta, labels, sd)
            assert got == pytest.approx(want, abs=1e-8), (sd, proposed)


def test_acceptance_ratio_reverse_infeasible_move_rejected():
    # proposal slid entirely below the current vector: the reverse move
    # cannot regenerate the current state, so the ratio must be -inf
    eta = np.array([0.1, -0.2])
    labels = np.array([1, 3])
    current = np.array([0.0, 0.1])
    proposed = np.array([-2.0, -1.0])
    assert _log_ratio(current, proposed, eta, labels, 0.5) == -math.inf
    # the mirrored move is fine: every current threshold sits inside its
    # reverse window
    assert math.isfinite(_log_ratio(proposed, current, eta, labels, 0.5))


def test_acceptance_ratio_shifted_block_matches_oracle():
    g = np.random.default_rng(19)
    current = np.array([-0.8, 0.1, 0.9])
    labels = np.array([1, 2, 3, 4, 2, 4])
    eta = g.normal(size=labels.size)
    hit_infeasible = 0
    for _ in range(60):
        proposed = np.sort(current + g.normal(scale=1.0, size=3))
        if np.any(np.diff(proposed) <= 1e-6):
            continue
        got = _log_ratio(current, proposed, eta, labels, 0.7)
        want = _oracle_log_ratio(current, proposed, eta, labels, 0.7)
        if want == -math.inf:
            hit_infeasible += 1
            assert got == -math.inf
        else:
            assert got == pytest.approx(want, abs=1e-8)
    assert hit_infeasible > 0  # the adversarial region was actually sampled


def test_acceptance_ratio_identity_move_is_zero():
    current = np.array([-0.5, 0.4])
    eta = np.array([0.1, -0.2, 0.5])
    labels = np.array([1, 2, 3])
    assert _log_ratio(current, current, eta, labels, 0.5) == 0.0


def test_acceptance_ratio_binary_scale_has_no_correction():
    # one threshold: both proposal normalizers are 1, only likelihood remains
    g = np.random.default_rng(1)
    eta = g.normal(size=10)
    labels = 1 + (g.uniform(size=10) > 0.4).astype(int)
    cur, prop = np.array([0.2]), np.array([-0.3])
    got = _log_ratio(cur, prop, eta, labels, 0.7)

    def ll(gam):
        p2 = 1.0 - norm.cdf(gam - eta)
        p = np.where(labels == 2, p2, 1.0 - p2)
        return np.sum(np.log(p))

    assert got == pytest.approx(ll(prop[0]) - ll(cur[0]), abs=1e-10)


def test_acceptance_ratio_finite_at_extreme_eta():
    current = np.array([-1.0, 1.0])
    proposed = np.array([-0.9, 1.1])
    eta = np.array([300.0, -300.0, 250.0])
    labels = np.array([1, 3, 2])
    val = _log_ratio(current, proposed, eta, labels, 0.5)
    assert math.isfinite(val)


def test_acceptance_ratios_of_interleaved_scales_match_oracle():
    # three scales whose rows interleave: each scale's ratio must come from
    # its own rows, thresholds and proposal sd only
    g = np.random.default_rng(29)
    num_classes = (2, 4, 3)
    scale_ids = g.permutation(np.repeat([1, 2, 3], [7, 9, 8]))
    labels = np.array([1 + g.integers(num_classes[s - 1]) for s in scale_ids])
    kernel = _ratio_kernel(labels, scale_ids, num_classes)
    eta = g.normal(scale=1.2, size=labels.size)
    current = [np.array([0.3]), np.array([-0.8, 0.1, 0.9]), np.array([-0.4, 0.5])]
    sds = [0.9, 0.7, 0.4]

    def check(proposed):
        got = kernel.log_acceptance_ratios(
            eta, np.concatenate(current), np.concatenate(proposed), sds
        )
        for k in range(3):
            rows = scale_ids == k + 1
            want = _oracle_log_ratio(
                current[k], proposed[k], eta[rows], labels[rows], sds[k]
            )
            if want == -math.inf:
                assert got[k] == -math.inf, k
            else:
                assert got[k] == pytest.approx(want, abs=1e-8), k
        return got

    # scale 2 slid below its current thresholds (reverse-infeasible) while
    # its neighbours in the flat edge array make finite moves
    got = check(
        [np.array([0.1]), np.array([-3.0, -2.0, -1.0]), np.array([-0.3, 0.6])]
    )
    assert got[1] == -math.inf and math.isfinite(got[0]) and math.isfinite(got[2])
    for _ in range(8):
        proposed = [np.sort(c + g.normal(scale=0.6, size=c.size)) for c in current]
        if any(np.any(np.diff(p) <= 1e-6) for p in proposed):
            continue
        check(proposed)


def test_mh_update_moves_toward_data(two_scale_dataset):
    # with beta fixed at truth-ish values the thresholds should drift toward
    # the label boundaries and keep ordering at every step
    ds = two_scale_dataset.restrict_to_scale(2)
    kernel = _GibbsKernel([_Fit(ds, ChainConfig())])
    g = np.random.default_rng(5)
    thresholds = np.array([-2.5, 2.5])
    eta = np.zeros(ds.num_obs)
    accepted = 0
    for _ in range(400):
        thresholds, accepts = kernel.update_thresholds(eta, thresholds, [0.4], [g], kernel.uniforms([g]))
        accepted += accepts[0]
        assert thresholds[0] < thresholds[1]
    assert 0 < accepted < 400
    assert abs(thresholds[0]) < 1.5 and abs(thresholds[1]) < 1.5


def test_proposals_are_drawn_position_major_inside_their_bounds(monkeypatch):
    # three scales with 1, 3 and 2 thresholds on interleaved rows; wide
    # proposal sds make the truncation bounds bind often
    g = np.random.default_rng(41)
    num_classes = (2, 4, 3)
    scale_ids = g.permutation(np.repeat([1, 2, 3], [10, 16, 12]))
    labels = np.array([1 + g.integers(num_classes[s - 1]) for s in scale_ids])
    kernel = _ratio_kernel(labels, scale_ids, num_classes)
    eta = g.normal(size=labels.size)
    thresholds = np.array([0.2, -1.0, 0.1, 0.3, -0.4, 0.5])
    sds = [2.0, 1.5, 3.0]
    seen = []
    score = kernel.log_acceptance_ratios

    def record(eta, current, proposed, proposal_sds):
        split = [1, 4]
        seen.append((np.split(current.copy(), split), np.split(proposed.copy(), split)))
        return score(eta, current, proposed, proposal_sds)

    kernel.log_acceptance_ratios = record
    sizes = []
    draw = sampler.sample_truncated_normal_many

    def counted(means, *args):
        sizes.append(means.size)
        return draw(means, *args)

    monkeypatch.setattr(sampler, "sample_truncated_normal_many", counted)
    for _ in range(300):
        thresholds, _ = kernel.update_thresholds(eta, thresholds, sds, [g], kernel.uniforms([g]))
    assert len(seen) == 300
    # threshold c of every scale that has one, in one call per position
    assert sizes == [3, 2, 1] * 300
    for current, proposed in seen:
        for cur, prop in zip(current, proposed):
            assert prop.shape == cur.shape
            assert np.all(np.isfinite(prop))
            assert np.all(prop[1:] > prop[:-1])
            # threshold c lies inside (proposed c-1, current c+1)
            assert np.all(prop[:-1] < cur[1:])


def test_inverse_factor_gives_posterior_covariance(two_scale_dataset):
    prior = Prior(mean=0.0, precision=np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]]))
    fit = _Fit(two_scale_dataset, ChainConfig(prior=prior))
    X = two_scale_dataset.features
    want = np.linalg.inv(prior.precision_matrix(3) + X.T @ X)
    np.testing.assert_allclose(fit.chol_inv.T @ fit.chol_inv, want, rtol=0, atol=1e-12)
    assert np.allclose(np.triu(fit.chol_inv, 1), 0.0)


def _one_feature_kernel(features, prior):
    # coefficient block of a single-scale kernel; labels do not enter it
    n = len(features)
    ds = Dataset(
        features=np.asarray(features, dtype=float).reshape(n, 1),
        labels=1 + np.arange(n) % 2,
        scale_ids=np.ones(n, dtype=int),
        scales=(ScaleSpec(1, 2),),
    )
    return _GibbsKernel([_Fit(ds, ChainConfig(prior=prior))])


def test_draw_beta_hand_computed_posterior(rng):
    # X=[1,2]', y*=[1,2], unit prior: posterior N(5/6, 1/6)
    kernel = _one_feature_kernel([1.0, 2.0], Prior())
    y_star = np.array([1.0, 2.0])
    draws = np.array(
        [kernel.draw_coefficients(y_star, [rng])[0] for _ in range(20_000)]
    )
    assert draws.mean() == pytest.approx(5.0 / 6.0, abs=0.01)
    assert draws.var() == pytest.approx(1.0 / 6.0, rel=0.05)


def test_draw_beta_flat_prior_hits_sample_mean(rng):
    n = 100
    kernel = _one_feature_kernel(np.ones(n), Prior(precision=1e-8))
    y_star = np.full(n, 3.0)
    draws = np.array(
        [kernel.draw_coefficients(y_star, [rng])[0] for _ in range(10_000)]
    )
    assert draws.mean() == pytest.approx(3.0, abs=0.01)


def test_draw_beta_dominating_prior(rng):
    kernel = _one_feature_kernel([1.0, 2.0], Prior(precision=1e12))
    y_star = np.array([5.0, 5.0])
    for _ in range(50):
        b = kernel.draw_coefficients(y_star, [rng])
        assert abs(b[0]) < 1e-4


def test_draw_latents_respects_intervals(two_scale_dataset, rng):
    # rows of the two scales interleaved, so each row's edge index matters
    order = np.random.default_rng(8).permutation(two_scale_dataset.num_obs)
    ds = two_scale_dataset.subset(order)
    kernel = _GibbsKernel([_Fit(ds, ChainConfig())])
    beta = np.array([0.3, -0.2, 0.1])
    gammas = [np.array([0.0]), np.array([-0.7, 0.7])]
    y, lowers, uppers = kernel.draw_latents(
        ds.features @ beta, np.concatenate(gammas), [rng], kernel.uniforms([rng])
    )
    for k, s in enumerate(ds.scales):
        rows = ds.rows_for_scale(s.scale_id)
        edges = np.concatenate(([-np.inf], gammas[k], [np.inf]))
        labels = ds.labels[rows]
        np.testing.assert_array_equal(lowers[rows], edges[labels - 1])
        np.testing.assert_array_equal(uppers[rows], edges[labels])
        assert np.all(y[rows] > edges[labels - 1])
        assert np.all(y[rows] < edges[labels])


def test_run_chain_deterministic_and_bookkept(two_scale_dataset):
    cfg = ChainConfig(burn_in=40, thinning=3, stored_draws=30, seed=99)
    a = run_chains(two_scale_dataset, cfg)
    b = run_chains(two_scale_dataset, cfg)
    np.testing.assert_array_equal(a.beta_draws, b.beta_draws)
    np.testing.assert_array_equal(a.threshold_draws, b.threshold_draws)
    assert len(a) == 30
    assert a.iteration_ids[0] == 43
    assert a.iteration_ids[-1] == 40 + 3 * 30
    assert np.all(np.diff(a.iteration_ids) == 3)
    assert a.proposal_counts == {1: 130, 2: 130}
    total = a.accept_counts[1] + a.accept_counts[2]
    assert 0 < total <= 260
    # reported rate is exactly the counts quotient
    for sid in (1, 2):
        assert a.accept_rate[sid] == a.accept_counts[sid] / a.proposal_counts[sid]


def test_every_stored_draw_is_ordered(two_scale_dataset):
    cfg = ChainConfig(burn_in=20, thinning=1, stored_draws=120, seed=5)
    draws = run_chains(two_scale_dataset, cfg)
    for s in draws.scales:
        assert np.all(np.diff(draws.gamma_draws_for(s.scale_id), axis=1) > 0)


def test_run_chains_default_is_one_chain(two_scale_dataset):
    cfg = ChainConfig(burn_in=30, thinning=2, stored_draws=20, seed=17)
    one = run_chains(two_scale_dataset, cfg)
    multi = run_chains(two_scale_dataset, replace(cfg, num_chains=1))
    np.testing.assert_array_equal(one.beta_draws, multi.beta_draws)
    np.testing.assert_array_equal(one.iteration_ids, multi.iteration_ids)


@pytest.mark.parametrize("k", [1, 2])
def test_run_chains_leading_chains_do_not_depend_on_chain_count(two_scale_dataset, k):
    cfg = ChainConfig(burn_in=30, thinning=2, stored_draws=20, seed=17)
    fewer = run_chains(two_scale_dataset, replace(cfg, num_chains=k))
    more = run_chains(two_scale_dataset, replace(cfg, num_chains=k + 1))
    lead = slice(0, len(fewer))
    np.testing.assert_array_equal(more.beta_draws[lead], fewer.beta_draws)
    np.testing.assert_array_equal(more.threshold_draws[lead], fewer.threshold_draws)
    np.testing.assert_array_equal(more.chain_ids[lead], fewer.chain_ids)
    np.testing.assert_array_equal(more.iteration_ids[lead], fewer.iteration_ids)
    assert np.all(more.chain_ids[len(fewer):] == k)


def test_run_chains_concatenation(two_scale_dataset):
    cfg = ChainConfig(burn_in=30, thinning=2, stored_draws=20, seed=17)
    draws = run_chains(two_scale_dataset, replace(cfg, num_chains=3))
    assert len(draws) == 60
    assert set(draws.chain_ids.tolist()) == {0, 1, 2}
    # chains differ
    c0 = draws.beta_draws[draws.chain_ids == 0]
    c1 = draws.beta_draws[draws.chain_ids == 1]
    assert not np.allclose(c0, c1)
    assert draws.proposal_counts == {1: 3 * 70, 2: 3 * 70}


def test_run_chain_recovers_coefficients():
    ds, beta_true = make_two_scale_dataset(seed=12, n_per=150)
    cfg = ChainConfig(burn_in=400, thinning=2, stored_draws=300, seed=2)
    draws = run_chains(ds, cfg)
    est = draws.beta_draws.mean(axis=0)
    assert np.corrcoef(est, beta_true)[0, 1] > 0.9


def test_chain_rejects_empty_scale():
    ds = Dataset(
        features=np.ones((3, 1)),
        labels=np.array([1, 2, 1]),
        scale_ids=np.array([1, 1, 1]),
        scales=(ScaleSpec(1, 2), ScaleSpec(2, 3)),
    )
    with pytest.raises((ConfigError, InitializationError)):
        run_chains(ds, ChainConfig(burn_in=1, thinning=1, stored_draws=1))


# -- lockstep batches -----------------------------------------------------------

_SCHEDULE = {"burn_in": 20, "thinning": 2, "stored_draws": 15}


def _tail_dataset(n=30):
    # labels that fall with the feature, against a prior that holds beta
    # near 4: many latent intervals keep a mass below 1e-10
    g = np.random.default_rng(0)
    x = g.normal(size=(n, 1))
    labels = np.where(-x[:, 0] + g.normal(size=n) > 0, 2, 1)
    return Dataset(
        features=x, labels=labels, scale_ids=np.ones(n, dtype=int), scales=(ScaleSpec(1, 2),)
    )


def _ragged_fits():
    """Fits that differ in rows, features, scales, thresholds, seed and
    chain count; the last one draws latents in the far tail."""
    two, _ = make_two_scale_dataset(seed=3, n_per=45)
    wide = simulate_dataset(Design(3, 20, 5, (1, 3, 2)), np.random.default_rng(9)).dataset
    return [
        (two, ChainConfig(**_SCHEDULE, seed=1, num_chains=2)),
        (wide, ChainConfig(**_SCHEDULE, seed=2, proposal_sd={1: 1.0, 2: 0.5, 3: 0.4})),
        (wide.restrict_to_scale(2), ChainConfig(**_SCHEDULE, seed=3)),
        (_tail_dataset(), ChainConfig(**_SCHEDULE, seed=4, prior=Prior(mean=4.0, precision=100.0))),
    ]


@pytest.fixture
def sweeps(monkeypatch):
    """The generators of every sweep's members, in batch order, for the
    last batch run through run_fits_seen."""
    seen = []
    sweep = sampler._GibbsKernel.sweep

    def recording(self, coefs, thresholds, sds, rngs):
        seen.append(list(rngs))
        return sweep(self, coefs, thresholds, sds, rngs)

    monkeypatch.setattr(sampler._GibbsKernel, "sweep", recording)
    return seen


def run_fits_seen(fits, seen):
    """run_fits(fits) and the generator of each chain, fit by fit and chain
    by chain: a chain is known by its SeedSequence, since run_fits orders
    the batch by feature shape."""
    seen.clear()
    results = sampler.run_fits(fits)
    by_seed = {}
    for g in seen[0]:
        seq = g.bit_generator.seed_seq
        by_seed[(seq.entropy, *seq.spawn_key)] = g
    return results, [by_seed[config.seed, i] for _, config in fits for i in range(config.num_chains)]


def _assert_same_fit(got, want):
    for name in ("beta_draws", "threshold_draws", "chain_ids", "iteration_ids"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.accept_counts == want.accept_counts
    assert got.proposal_counts == want.proposal_counts


def test_batch_draws_are_each_fits_lone_draws(monkeypatch, sweeps):
    tails = []
    tail_draw = distributions._tail_draw

    def counted(a, b, rng):
        tails.append(rng)
        return tail_draw(a, b, rng)

    monkeypatch.setattr(distributions, "_tail_draw", counted)
    fits = _ragged_fits()
    batch, batch_rngs = run_fits_seen(fits, sweeps)
    # the tail fit redrew latents by rejection, from its own stream, in the batch
    assert any(g is batch_rngs[-1] for g in tails)
    assert all(g is batch_rngs[-1] for g in tails)
    start = 0
    for fit, got in zip(fits, batch):
        (want,), rngs = run_fits_seen([fit], sweeps)
        _assert_same_fit(got, want)
        _assert_same_fit(sampler.run_chains(*fit), want)
        for g, h in zip(batch_rngs[start:], rngs):
            assert g.bit_generator.state == h.bit_generator.state
        start += len(rngs)
    assert start == len(batch_rngs)


def _assert_batch_is_lone_runs(fits, sweeps):
    """Each fit's draws in one run_fits batch, and its chains' generator end
    states, equal those of its lone run."""
    batch, batch_rngs = run_fits_seen(fits, sweeps)
    start = 0
    for fit, got in zip(fits, batch):
        (want,), rngs = run_fits_seen([fit], sweeps)
        assert isinstance(got, DrawSet), got
        _assert_same_fit(got, want)
        for g, h in zip(batch_rngs[start:], rngs):
            assert g.bit_generator.state == h.bit_generator.state
        start += len(rngs)
    assert start == len(batch_rngs)


def test_tail_redraws_follow_each_chains_uniform_block(monkeypatch, sweeps):
    # with the inverse-CDF cutoff raised, many proposal and latent intervals
    # redraw by rejection, from their chain's stream after its block
    monkeypatch.setattr(distributions, "_INVERSE_CDF_MASS_CUTOFF", 0.5)
    monkeypatch.setattr(distributions, "_LOG_INVERSE_CDF_CUTOFF", math.log(0.5))
    monkeypatch.setattr(distributions, "_SCREEN_MASS", 0.9)
    calls, tails = [], []  # the kind of each sampler call and tail redraw
    draw, tail_draw = sampler.sample_truncated_normal_many, distributions._tail_draw

    def tagged(means, variance, *args):
        calls.append("latent" if np.ndim(variance) == 0 else "proposal")
        return draw(means, variance, *args)

    def counted(a, b, rng):
        tails.append(calls[-1])
        return tail_draw(a, b, rng)

    monkeypatch.setattr(sampler, "sample_truncated_normal_many", tagged)
    monkeypatch.setattr(distributions, "_tail_draw", counted)
    fits = [(dataset, replace(config, proposal_sd=10.0)) for dataset, config in _ragged_fits()]
    # a fit whose features have the second fit's shape, so that run_fits
    # moves it next to the second fit, and whose middle thresholds follow a
    # member without any in the same proposal step
    fits.append((fits[1][0], replace(fits[1][1], seed=5)))
    _assert_batch_is_lone_runs(fits, sweeps)
    assert tails.count("proposal") > 100 and tails.count("latent") > 100


class _CountingGenerator:
    """A generator that counts the calls of each of its methods."""

    def __init__(self, seed):
        self._generator = np.random.default_rng(seed)
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self._generator, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


def test_each_chain_calls_its_generator_twice_per_sweep(monkeypatch):
    tails = []
    monkeypatch.setattr(distributions, "_tail_draw", lambda *args: tails.append(args))
    members, coefs, thresholds = [], [], []
    for dataset, config in _ragged_fits()[:3]:
        beta, gammas = sampler.initial_state(dataset, config)
        fit = _Fit(dataset, config)
        members += [fit] * config.num_chains
        coefs += [beta] * config.num_chains
        thresholds += [gammas] * config.num_chains
    kernel = _GibbsKernel(members)
    rngs = [_CountingGenerator(seed) for seed in range(len(members))]
    coefs, thresholds = np.concatenate(coefs), np.concatenate(thresholds)
    for _ in range(30):
        coefs, thresholds, _ = kernel.sweep(coefs, thresholds, kernel.proposal_sds(), rngs)
    assert tails == []
    for g in rngs:
        assert g.calls == {"random": 30, "standard_normal": 30}


def test_run_fits_stacks_one_group_per_feature_shape(monkeypatch):
    # three replications' model grids, each a pooled fit then one fit per
    # scale: 12 fits whose 2 feature shapes alternate in fit order
    kernels = []
    init = sampler._GibbsKernel.__init__

    def recording(self, fits):
        kernels.append(self)
        init(self, fits)

    monkeypatch.setattr(sampler._GibbsKernel, "__init__", recording)
    design = Design(3, 20, 5, (1, 3, 2))
    fits = [
        (data, ChainConfig(**_SCHEDULE, seed=10 * r + j))
        for r in range(3)
        for j, (_, data) in enumerate(
            simulate_dataset(design, np.random.default_rng(r)).dataset.model_grid()
        )
    ]
    assert all(isinstance(result, DrawSet) for result in sampler.run_fits(fits))
    (kernel,) = kernels
    assert [X.shape for X, *_ in kernel._groups] == [(9, 20, 5), (3, 60, 5)]


def _inject_panics(monkeypatch, faults):
    """Make a sweep raise when it is sweep m of the chain drawing from
    SeedSequence(seed) child i, for every (seed, i, m) in faults. A chain is
    known by its SeedSequence and counts its own sweeps, since every run of
    a batch makes new generators."""
    sweep = sampler._GibbsKernel.sweep
    counts = {}  # generator -> sweeps it took part in

    def failing(self, coefs, thresholds, sds, rngs):
        out = sweep(self, coefs, thresholds, sds, rngs)
        for g in rngs:
            counts[g] = counts.get(g, 0) + 1
            seq = g.bit_generator.seed_seq
            if (seq.entropy, *seq.spawn_key, counts[g]) in faults:
                raise SamplerPanicError("injected panic")
        return out

    monkeypatch.setattr(sampler._GibbsKernel, "sweep", failing)


def test_failed_chains_leave_the_rest_of_the_batch_as_run_alone(monkeypatch, sweeps):
    fits = _ragged_fits()
    # a latent interval far below 1e-300 at the first sweep
    fits.append((_tail_dataset(), ChainConfig(**_SCHEDULE, prior=Prior(mean=40.0, precision=1e4))))
    alone = [sampler.run_fits([fit])[0] for fit in fits]
    assert isinstance(alone[4], DegeneracyError)
    # fit 0 (seed 1) chain 1 at sweep 5 and chain 0 at sweep 30, fit 2
    # (seed 3) chain 0 at sweep 3
    _inject_panics(monkeypatch, {(1, 1, 5), (1, 0, 30), (3, 0, 3)})
    batch, _ = run_fits_seen(fits, sweeps)

    # the lowest failed chain names the fit's error, not the earliest one
    assert type(batch[0]) is SamplerPanicError
    assert str(batch[0]) == "chain 0: sweep 30: injected panic"
    assert str(batch[2]) == "chain 0: sweep 3: injected panic"
    # a sampler error reads as in the lone run, its index counted in the fit
    assert type(batch[4]) is DegeneracyError
    assert str(batch[4]) == str(alone[4])
    assert str(batch[4]).startswith("chain 0: sweep 1: interval probability mass underflow")
    for k in (1, 3):
        _assert_same_fit(batch[k], alone[k])

    # run_chains raises the lowest chain's error
    sweeps.clear()
    with pytest.raises(SamplerPanicError) as raised:
        sampler.run_chains(*fits[0])
    assert str(raised.value) == "chain 0: sweep 30: injected panic"


def test_batch_fits_share_one_schedule(two_scale_dataset):
    # no fits share every schedule: an empty batch runs nothing
    assert sampler.run_fits([]) == []
    with pytest.raises(ValueError, match="schedule"):
        sampler.run_fits([
            (two_scale_dataset, ChainConfig(**_SCHEDULE)),
            (two_scale_dataset, ChainConfig(**{**_SCHEDULE, "thinning": 1})),
        ])


def test_mcse_mean_scaling(rng):
    x = rng.normal(size=10_000)
    est = mcse_mean(x)
    assert est == pytest.approx(1.0 / math.sqrt(10_000), rel=0.2)
    with pytest.raises(ValueError):
        mcse_mean(np.array([1.0, 2.0, 3.0]))


def test_tune_proposal_reaches_band(two_scale_dataset):
    cfg = ChainConfig(proposal_sd=4.0, burn_in=0, seed=21)
    tuned = tune_proposal(two_scale_dataset, cfg, target_rate=0.3)
    assert set(tuned) == {1, 2}
    assert all(sd > 0 for sd in tuned.values())
    check = ChainConfig(
        proposal_sd=tuned, burn_in=500, thinning=1, stored_draws=2500, seed=4
    )
    rates = run_chains(two_scale_dataset, check).accept_rate
    for sid, rate in rates.items():
        assert 0.18 <= rate <= 0.42, (sid, rate, tuned)


@pytest.mark.parametrize("seed", [3, 6, 7])
def test_tune_proposal_settles_at_p_above_n(seed):
    # the experiment2 design, 3 x 40 rows of 48 features: without a burn-in
    # before the first window, the start's transient rate closed a bracket
    # that later windows contradicted, and tuning never settled
    sim = simulate_dataset(Design(3, 40, 48, (1, 3, 3), 1), np.random.default_rng(seed))
    config = io.chain_config_from_dict(preset("experiment2-desk")["chain"])
    tuned = tune_proposal(sim.dataset, config, target_rate=0.234)
    assert set(tuned) == {1, 2, 3}


def test_tune_proposal_validates_target(two_scale_dataset):
    with pytest.raises(ConfigError):
        tune_proposal(two_scale_dataset, ChainConfig(), target_rate=1.5)


def test_drawset_shape_validation():
    with pytest.raises(ValueError):
        DrawSet(
            beta_draws=np.zeros((3, 2)),
            threshold_draws=np.zeros((4, 1)),
            scales=(ScaleSpec(1, 2),),
            chain_ids=np.zeros(3, dtype=int),
            iteration_ids=np.zeros(3, dtype=int),
            accept_counts={1: 0},
            proposal_counts={1: 0},
        )
