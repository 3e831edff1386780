"""Three-block Gibbs sampler for multi-scale ordinal probit.

The sampler state is the coefficient vector beta (p,) and one flat vector
of thresholds (T,): every scale's thresholds, scale by scale in scale
order, the column order of a draws file. Each sweep updates, in order: the
thresholds (one blocked random-walk Metropolis-Hastings move per scale
with sequential truncated-normal proposals), the augmented latents (exact
truncated-normal conditionals), and the shared coefficients (conjugate
Gaussian). The threshold move integrates the latents out, so its
acceptance ratio depends only on the observed labels; the latent block
immediately afterwards redraws every latent under the accepted
thresholds. Both blocks read a row's class interval from one flat array
of the class edges of all scales, and the proposal is drawn into the same
array position by position: threshold c of every scale in one vector
call, for c = 1, 2, .... The coefficient draw multiplies by the inverse
Cholesky factor of the posterior precision, computed once per dataset.
Every truncated-normal draw goes through ``sample_truncated_normal_many``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .distributions import log_interval_mass, sample_truncated_normal_many
from .errors import (
    ConfigError,
    LinearAlgebraError,
    MsprobitError,
    SamplerPanicError,
    TuningError,
)
from .model import (
    ChainConfig,
    Dataset,
    ScaleSpec,
    default_init,
    validate_dataset,
)

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class DrawSet:
    """Stored posterior draws from one or more chains.

    beta_draws has shape (M, p) and threshold_draws (M, T): row m holds the
    thresholds of every scale, scale by scale in the order of scales, as
    in the sampler state and the draws file. chain_ids and iteration_ids
    record provenance per stored draw. Acceptance bookkeeping keeps raw
    counts so the reported rate is exactly accepted / proposed.
    """

    beta_draws: np.ndarray
    threshold_draws: np.ndarray
    scales: tuple[ScaleSpec, ...]
    chain_ids: np.ndarray
    iteration_ids: np.ndarray
    accept_counts: dict[int, int]
    proposal_counts: dict[int, int]

    def __post_init__(self):
        m = self.beta_draws.shape[0]
        t = sum(s.num_thresholds for s in self.scales)
        got = (self.threshold_draws.shape, self.chain_ids.shape, self.iteration_ids.shape)
        if got != ((m, t), (m,), (m,)):
            raise ValueError(
                f"threshold, chain and iteration arrays of shapes {got} do not "
                f"fit {m} draws of {t} thresholds"
            )

    def __len__(self) -> int:
        return self.beta_draws.shape[0]

    @property
    def accept_rate(self) -> dict[int, float]:
        # nan when no proposals happened, e.g. draws reloaded from disk
        return {
            sid: (
                self.accept_counts[sid] / self.proposal_counts[sid]
                if self.proposal_counts[sid] > 0
                else float("nan")
            )
            for sid in self.proposal_counts
        }

    def gamma_draws_for(self, scale_id: int) -> np.ndarray:
        """The (M, C_k - 1) threshold draws of one scale, a contiguous copy."""
        start = 0
        for s in self.scales:
            if s.scale_id == scale_id:
                return np.ascontiguousarray(
                    self.threshold_draws[:, start : start + s.num_thresholds]
                )
            start += s.num_thresholds
        raise KeyError(f"no scale with id {scale_id}")


class _GibbsKernel:
    """The Gibbs sampler for one dataset: run_chains, the tuner and the
    acceptance gate all step it. It trusts its dataset: run_chains and the
    tuner check that with initial_state before they build one.

    The state is beta (p,) plus thresholds (T,), every scale's thresholds
    in one flat vector, scale by scale. A sweep is three blocks, each a
    method: the thresholds of every scale, the latents, the coefficients.
    The posterior precision of the coefficients never changes across
    sweeps, so the inverse of its Cholesky factor is computed once and a
    draw is two small products. The class edges of all scales live in one
    flat array, (-inf, thresholds, +inf) per scale, followed by the same
    layout for a proposal, and each row holds the index of its lower and
    upper edge in it. The threshold proposal is drawn position by position
    into the proposal half, threshold c of every scale in one call. The
    latent draw reads a row's interval from the array, and the threshold
    move reads both the current and the proposed intervals of all rows,
    and every threshold's neighbours, from it too.
    """

    def __init__(self, dataset: Dataset, config: ChainConfig):
        self.dataset = dataset
        self.config = config
        X = dataset.features
        p = dataset.num_features
        self.prior_mean = config.prior.mean_vector(p)
        prior_prec = config.prior.precision_matrix(p)
        try:
            chol = np.linalg.cholesky(prior_prec + X.T @ X)
        except np.linalg.LinAlgError as exc:
            raise LinearAlgebraError(
                "posterior precision factorization failed; prior precision "
                "must be symmetric positive definite"
            ) from exc
        # the posterior covariance is chol_inv.T @ chol_inv
        self.chol_inv = solve_triangular(chol, np.eye(p), lower=True)
        self.lam_mu = prior_prec @ self.prior_mean
        self.scale_rows = [
            dataset.rows_for_scale(s.scale_id) for s in dataset.scales
        ]
        num_thresholds = [s.num_thresholds for s in dataset.scales]
        # the scale index of every threshold of the flat state
        self._threshold_scale = np.repeat(np.arange(len(dataset.scales)), num_thresholds)
        # True between neighbouring thresholds of different scales
        self._scale_breaks = np.diff(self._threshold_scale) != 0
        offsets = np.cumsum([0] + [s.num_classes + 1 for s in dataset.scales])
        width = offsets[-1]
        # the current edges fill [0, width), a proposal's [width, 2 * width)
        starts = offsets[:-1]
        self._edges = np.full(2 * width, np.inf)
        self._edges[np.concatenate((starts, starts + width))] = _NEG_INF
        self._threshold_pos = np.concatenate(
            [np.arange(o + 1, o + s.num_classes) for o, s in zip(offsets, dataset.scales)]
        )
        # Proposal step c draws threshold c of every scale that has one,
        # around its current edge, inside (proposed c-1, current c+1).
        self._proposal_steps = []
        for c in range(1, max(num_thresholds) + 1):
            scales = np.flatnonzero(np.array(num_thresholds) >= c)
            current = starts[scales] + c
            self._proposal_steps.append(
                (current, current + width - 1, current + 1, current + width, scales)
            )
        self._lower_pos = np.empty(dataset.num_obs, dtype=np.intp)
        for o, rows in zip(offsets, self.scale_rows):
            self._lower_pos[rows] = o + dataset.labels[rows] - 1
        self._upper_pos = self._lower_pos + 1

        # The threshold move takes the rows grouped by scale, so that each
        # scale's rows, like its thresholds, are one contiguous slice.
        order = np.concatenate(self.scale_rows)
        self._grouping = None if np.all(np.diff(order) > 0) else order
        both = np.array([[0], [width]])  # current, proposed
        self._label_lower = self._lower_pos[order] + both
        self._label_upper = self._label_lower + 1
        tpos = self._threshold_pos
        self._threshold_slots = tpos + both
        # threshold t is proposed inside (proposed t-1, current t+1) and
        # would be drawn back inside (current t-1, proposed t+1)
        self._below = tpos - 1 + both[::-1]
        self._above = tpos + 1 + both
        self._row_starts = np.cumsum([0] + [rows.size for rows in self.scale_rows[:-1]])
        self._threshold_starts = np.cumsum([0] + num_thresholds[:-1])

    def _per_scale(self, thresholds) -> list:
        """The flat thresholds as one list per scale, for messages."""
        return [g.tolist() for g in np.split(thresholds, self._threshold_starts[1:])]

    def sweep(self, beta, thresholds, proposal_sds, rng):
        """One full sweep; returns (beta, thresholds, accepts)."""
        eta = self.dataset.features @ beta
        thresholds, accepts = self.update_thresholds(eta, thresholds, proposal_sds, rng)
        y_star, lowers, uppers = self.draw_latents(eta, thresholds, rng)
        beta = self.draw_coefficients(y_star, rng)
        self._check_state(beta, thresholds, y_star, lowers, uppers)
        return beta, thresholds, accepts

    def update_thresholds(self, eta, thresholds, proposal_sds, rng):
        """One blocked MH move per scale given the linear predictor eta;
        returns the new thresholds and the accept flags. The move
        integrates the latents out, so it sees only the labels.

        Threshold c is proposed from a normal around its current value
        truncated to (proposed c-1, current c+1), so the proposal is
        ordered by construction (Cowles 1996). One call draws threshold c
        of every scale, for c = 1, 2, ..., which keeps each scale's
        proposal sequential; then one call draws every accept uniform.
        """
        edges = self._edges
        edges[self._threshold_pos] = thresholds
        variances = np.square(proposal_sds)
        for current, below, above, slots, scales in self._proposal_steps:
            edges[slots] = sample_truncated_normal_many(
                edges[current], variances[scales], edges[below], edges[above], rng
            )
        uniforms = rng.random(len(self.dataset.scales)).tolist()
        proposed = edges[self._threshold_slots[1]]
        log_ratios = self.log_acceptance_ratios(eta, thresholds, proposed, proposal_sds)
        accepts = []
        for k, (log_ratio, u) in enumerate(zip(log_ratios.tolist(), uniforms)):
            if math.isnan(log_ratio) or log_ratio == math.inf:
                eta_k = eta[self.scale_rows[k]]
                raise SamplerPanicError(
                    "zero-probability or undefined state in threshold update: "
                    f"scale={self.dataset.scales[k].scale_id} "
                    f"current={self._per_scale(thresholds)[k]} "
                    f"proposed={self._per_scale(proposed)[k]} log_ratio={log_ratio} "
                    f"eta_range=({eta_k.min()}, {eta_k.max()})"
                )
            accepts.append(
                log_ratio >= 0.0
                or (log_ratio > _NEG_INF and u > 0.0 and math.log(u) <= log_ratio)
            )
        taken = np.array(accepts)[self._threshold_scale]
        return np.where(taken, proposed, thresholds), accepts

    def log_acceptance_ratios(self, eta, thresholds, proposed, proposal_sds) -> np.ndarray:
        """Log MH ratio of the blocked threshold move of every scale, given
        the linear predictor eta of all rows and the current and proposed
        flat thresholds.

        A ratio is the label-likelihood ratio times the correction for the
        sequential truncated-normal proposal: the normal kernels cancel,
        leaving the forward over reverse truncation normalizers. It is -inf
        for a zero-density proposal and +inf for a zero-density current
        state (update_thresholds treats that as a panic).

        The reverse move redraws threshold c inside (current c-1, proposed
        c+1), so a proposal with proposed c+1 <= current c cannot be undone;
        its reverse density is zero and the move must be rejected.
        """
        edges = self._edges
        centre = np.array((thresholds, proposed), dtype=float)
        edges[self._threshold_slots] = centre
        if self._grouping is not None:
            eta = eta[self._grouping]
        # rows 0 and 1: the labels' log-likelihood under current and proposed
        loglik = log_interval_mass(
            edges[self._label_lower] - eta, edges[self._label_upper] - eta
        )
        above = edges[self._above]
        sds = np.asarray(proposal_sds, dtype=float)[self._threshold_scale]
        # rows 0 and 1: forward and reverse proposal normalizers
        log_norm = log_interval_mass(
            (edges[self._below] - centre) / sds, (above - centre) / sds
        )
        ll = np.add.reduceat(loglik, self._row_starts, axis=1)
        norm = np.add.reduceat(log_norm, self._threshold_starts, axis=1)
        with np.errstate(invalid="ignore"):
            ratios = ll[1] - ll[0] + norm[0] - norm[1]
        irreversible = centre[0] >= above[1]
        ratios[np.logical_or.reduceat(irreversible, self._threshold_starts)] = _NEG_INF
        ratios[ll[0] == _NEG_INF] = np.inf
        return ratios

    def draw_latents(self, eta, thresholds, rng):
        """Redraw every latent from its truncated-normal conditional;
        returns the latents and their lower and upper bounds."""
        edges = self._edges
        edges[self._threshold_pos] = thresholds
        lowers = edges[self._lower_pos]
        uppers = edges[self._upper_pos]
        y_star = sample_truncated_normal_many(eta, 1.0, lowers, uppers, rng)
        return y_star, lowers, uppers

    def draw_coefficients(self, y_star, rng) -> np.ndarray:
        """Exact conjugate draw of the shared coefficients given the latents."""
        b = self.lam_mu + self.dataset.features.T @ y_star
        z = rng.standard_normal(b.size)
        return self.chol_inv.T @ (self.chol_inv @ b + z)

    def _check_state(self, beta, thresholds, y_star, lowers, uppers):
        ok = (
            np.isfinite(beta).all()
            and ((thresholds[1:] > thresholds[:-1]) | self._scale_breaks).all()
            and ((y_star > lowers) & (y_star < uppers)).all()
        )
        if not ok:
            raise SamplerPanicError(
                f"post-sweep invariant violated: beta={np.asarray(beta).tolist()} "
                f"gammas={self._per_scale(thresholds)} "
                f"latent_range=({y_star.min()}, {y_star.max()})"
            )

    def proposal_sds(self) -> list[float]:
        return [
            self.config.proposal_sd_for(s.scale_id) for s in self.dataset.scales
        ]


def initial_state(dataset: Dataset, config: ChainConfig):
    """(beta, thresholds) that every chain of a fit starts from: default_init
    with the per-scale thresholds flattened.

    It validates the dataset first and costs O(n log n) whatever the
    declared class counts, so a fit calls it before it builds anything
    sized by a class count.
    """
    validate_dataset(dataset, allow_zero_columns=True)
    for s in dataset.scales:
        if not np.any(dataset.scale_ids == s.scale_id):
            raise ConfigError(f"scale {s.scale_id} declared but has no observations")
    beta, gammas = default_init(dataset, config.prior)
    return beta, np.concatenate(gammas)


# the most values one fit may store, num_chains x stored_draws x (p + T)
MAX_STORED_VALUES = 2**31  # 16 GiB of float64


def check_draw_store(num_chains: int, stored_draws: int, width: int):
    """Raise ConfigError if num_chains x stored_draws draws of width values
    each exceed MAX_STORED_VALUES."""
    if num_chains * stored_draws * width > MAX_STORED_VALUES:
        raise ConfigError(
            f"{num_chains} chains x {stored_draws} stored draws x {width} "
            f"parameters exceed the {MAX_STORED_VALUES} stored values (16 GiB) "
            "one fit may hold"
        )


def run_chains(dataset: Dataset, config: ChainConfig) -> DrawSet:
    """Run config.num_chains independent chains of burn_in + thinning *
    stored_draws sweeps, keeping every thinning-th post-burn-in state,
    chain after chain.

    Chain i consumes child i of SeedSequence(seed), so the result is
    deterministic given config.seed, and the first K chains of a run do not
    depend on how many chains follow them. All chains step one kernel.
    """
    num_chains = config.num_chains
    beta0, thresholds0 = initial_state(dataset, config)
    check_draw_store(num_chains, config.stored_draws, beta0.size + thresholds0.size)
    kernel = _GibbsKernel(dataset, config)
    sds = kernel.proposal_sds()

    sweeps, burn_in, thinning = config.chain_sweeps, config.burn_in, config.thinning
    size = num_chains * config.stored_draws

    beta_draws = np.empty((size, dataset.num_features))
    threshold_draws = np.empty((size, thresholds0.size))
    iteration_ids = np.empty(size, dtype=int)
    acc_counts = {s.scale_id: 0 for s in dataset.scales}

    out = 0
    children = np.random.SeedSequence(config.seed).spawn(num_chains)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        beta, thresholds = beta0, thresholds0
        for m in range(1, sweeps + 1):
            try:
                beta, thresholds, accepts = kernel.sweep(beta, thresholds, sds, rng)
            except MsprobitError as exc:
                raise type(exc)(f"chain {i}: sweep {m}: {exc}") from exc
            for s, acc in zip(dataset.scales, accepts):
                acc_counts[s.scale_id] += int(acc)
            if m > burn_in and (m - burn_in) % thinning == 0:
                beta_draws[out] = beta
                threshold_draws[out] = thresholds
                iteration_ids[out] = m
                out += 1

    return DrawSet(
        beta_draws=beta_draws,
        threshold_draws=threshold_draws,
        scales=dataset.scales,
        chain_ids=np.repeat(np.arange(num_chains), config.stored_draws),
        iteration_ids=iteration_ids,
        accept_counts=acc_counts,
        proposal_counts={s.scale_id: config.total_sweeps for s in dataset.scales},
    )


def mcse_mean(samples: np.ndarray) -> float:
    """Monte Carlo standard error of the sample mean via batch means."""
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size < 4:
        raise ValueError("need at least 4 samples for a batch-means MCSE")
    batch = int(math.sqrt(x.size))
    nb = x.size // batch
    means = x[: nb * batch].reshape(nb, batch).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(nb))


_BRACKET_WINDOW = 200
_CONFIRM_WINDOW = 1000
_RATE_TOLERANCE = 0.03
_MAX_WINDOWS = 20


def tune_proposal(
    dataset: Dataset, config: ChainConfig, target_rate: float = 0.234
) -> dict[int, float]:
    """Pilot-tune the per-scale proposal sd toward a target acceptance rate.

    After config.burn_in sweeps at the starting sds, so that no window sees
    the transient of the starting state, doubles or halves each scale's sd
    per 200-sweep window until the target is bracketed, then bisects
    geometrically, confirming with 1000-sweep windows; a scale is done when
    a confirmation window lands within 0.03 of the target. Pilot sweeps are
    never stored. Raises TuningError with the full rate trajectory if any
    scale is still unsettled after 20 windows.
    """
    if not 0.0 < float(target_rate) < 1.0:
        raise ConfigError(f"target_rate must be in (0,1), got {target_rate}")
    target = float(target_rate)
    beta, thresholds = initial_state(dataset, config)
    kernel = _GibbsKernel(dataset, config)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7459]))
    sds = kernel.proposal_sds()
    for _ in range(config.burn_in):
        beta, thresholds, _ = kernel.sweep(beta, thresholds, sds, rng)

    n_scales = len(dataset.scales)
    lo = [None] * n_scales  # largest sd seen with rate above target
    hi = [None] * n_scales  # smallest sd seen with rate below target
    done = [False] * n_scales
    in_band = [False] * n_scales  # last window landed within tolerance
    trajectory: list[dict] = []

    for window in range(_MAX_WINDOWS):
        # Short windows while some scale still hunts for a bracket; long
        # confirmation windows once every open scale is bracketed or sitting
        # in band, so the stopping decision has a usefully small rate SE.
        bracketing = any(
            not done[k] and not in_band[k] and (lo[k] is None or hi[k] is None)
            for k in range(n_scales)
        )
        size = _BRACKET_WINDOW if bracketing else _CONFIRM_WINDOW
        acc = np.zeros(n_scales)
        for _ in range(size):
            beta, thresholds, accepts = kernel.sweep(beta, thresholds, sds, rng)
            acc += accepts
        rates = acc / size
        trajectory.append(
            {
                "window": window,
                "size": size,
                "sds": list(sds),
                "rates": rates.tolist(),
            }
        )
        for k in range(n_scales):
            if done[k]:
                continue
            rate = rates[k]
            if abs(rate - target) <= _RATE_TOLERANCE:
                in_band[k] = True
                if size >= _CONFIRM_WINDOW:
                    done[k] = True
                continue
            in_band[k] = False
            if rate > target:
                lo[k] = sds[k] if lo[k] is None else max(lo[k], sds[k])
                sds[k] = (
                    math.sqrt(lo[k] * hi[k]) if hi[k] is not None else sds[k] * 2.0
                )
            else:
                hi[k] = sds[k] if hi[k] is None else min(hi[k], sds[k])
                sds[k] = (
                    math.sqrt(lo[k] * hi[k]) if lo[k] is not None else sds[k] / 2.0
                )
        if all(done):
            break
    if not all(done):
        stuck = [
            dataset.scales[k].scale_id for k in range(n_scales) if not done[k]
        ]
        raise TuningError(
            f"proposal tuning did not settle for scales {stuck} within "
            f"{_MAX_WINDOWS} windows; trajectory: {trajectory}"
        )
    return {s.scale_id: sds[k] for k, s in enumerate(dataset.scales)}
