"""Three-block Gibbs sampler for multi-scale ordinal probit.

Each sweep updates, in order: the per-scale thresholds (blocked random-walk
Metropolis-Hastings with sequential truncated-normal proposals), the
augmented latents (exact truncated-normal conditionals), and the shared
coefficients (conjugate Gaussian). The threshold move integrates the
latents out, so its acceptance ratio depends only on the observed labels;
the latent block immediately afterwards redraws every latent under the
accepted thresholds. Both blocks read a row's class interval from one flat
array of the class edges of all scales, and the proposal is drawn into
the same array position by position: threshold c of every scale in one
vector call, for c = 1, 2, .... The coefficient draw multiplies by the
inverse Cholesky factor of the posterior precision, computed once per
dataset. Every truncated-normal draw goes through
``sample_truncated_normal_many``.
"""

from __future__ import annotations

import math
import warnings
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

    beta_draws has shape (M, p); gamma_draws[k] has shape (M, C_k - 1) and
    belongs to scales[k]. chain_ids and iteration_ids record provenance per
    stored draw. Acceptance bookkeeping keeps raw counts so the reported
    rate is exactly accepted / proposed.
    """

    beta_draws: np.ndarray
    gamma_draws: tuple[np.ndarray, ...]
    scales: tuple[ScaleSpec, ...]
    chain_ids: np.ndarray
    iteration_ids: np.ndarray
    accept_counts: dict[int, int]
    proposal_counts: dict[int, int]

    def __post_init__(self):
        m = self.beta_draws.shape[0]
        if len(self.gamma_draws) != len(self.scales):
            raise ValueError("gamma_draws and scales disagree on scale count")
        for g, s in zip(self.gamma_draws, self.scales):
            if g.shape != (m, s.num_thresholds):
                raise ValueError(
                    f"gamma draws for scale {s.scale_id} have shape {g.shape}, "
                    f"expected ({m}, {s.num_thresholds})"
                )
        if self.chain_ids.shape != (m,) or self.iteration_ids.shape != (m,):
            raise ValueError("provenance arrays must have one entry per draw")

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
        for g, s in zip(self.gamma_draws, self.scales):
            if s.scale_id == scale_id:
                return g
        raise KeyError(f"no scale with id {scale_id}")

    @staticmethod
    def concatenate(parts: list["DrawSet"]) -> "DrawSet":
        first = parts[0]
        for part in parts[1:]:
            if part.scales != first.scales:
                raise ValueError("cannot concatenate DrawSets with different scales")
        acc: dict[int, int] = {}
        prop: dict[int, int] = {}
        for part in parts:
            for sid in part.proposal_counts:
                acc[sid] = acc.get(sid, 0) + part.accept_counts[sid]
                prop[sid] = prop.get(sid, 0) + part.proposal_counts[sid]
        return DrawSet(
            beta_draws=np.concatenate([p.beta_draws for p in parts]),
            gamma_draws=tuple(
                np.concatenate([p.gamma_draws[k] for p in parts])
                for k in range(len(first.scales))
            ),
            scales=first.scales,
            chain_ids=np.concatenate([p.chain_ids for p in parts]),
            iteration_ids=np.concatenate([p.iteration_ids for p in parts]),
            accept_counts=acc,
            proposal_counts=prop,
        )


class _GibbsKernel:
    """The Gibbs sampler for one dataset: run_chain, the tuner and the
    acceptance gate all step it.

    A sweep is three blocks, each a method: the thresholds of every scale,
    the latents, the coefficients. The posterior precision of the
    coefficients never changes across sweeps, so the inverse of its
    Cholesky factor is computed once and a draw is two small products.
    The class edges of all scales live in one flat array, (-inf,
    thresholds, +inf) per scale, followed by the same layout for a
    proposal, and each row holds the index of its lower and upper edge in
    it. The threshold proposal is drawn position by position into the
    proposal half, threshold c of every scale in one call. The latent
    draw reads a row's interval from the array, and the threshold move
    reads both the current and the proposed intervals of all rows, and
    every threshold's neighbours, from it too.
    """

    def __init__(self, dataset: Dataset, config: ChainConfig):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            validate_dataset(dataset, allow_zero_columns=True)
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
        for s, rows in zip(dataset.scales, self.scale_rows):
            if rows.size == 0:
                raise ConfigError(
                    f"scale {s.scale_id} declared but has no observations"
                )
        self._num_thresholds = [s.num_thresholds for s in dataset.scales]
        offsets = np.cumsum([0] + [s.num_classes + 1 for s in dataset.scales])
        width = offsets[-1]
        # the current edges fill [0, width), a proposal's [width, 2 * width)
        starts = offsets[:-1]
        self._edges = np.full(2 * width, np.inf)
        self._edges[np.concatenate((starts, starts + width))] = _NEG_INF
        self._threshold_pos = np.concatenate(
            [np.arange(o + 1, o + s.num_classes) for o, s in zip(offsets, dataset.scales)]
        )
        self._proposed_slices = [
            slice(width + o + 1, width + o + k + 1)
            for o, k in zip(starts, self._num_thresholds)
        ]
        # Proposal step c draws threshold c of every scale that has one,
        # around its current edge, inside (proposed c-1, current c+1).
        self._proposal_steps = []
        for c in range(1, max(self._num_thresholds) + 1):
            scales = np.flatnonzero(np.array(self._num_thresholds) >= c)
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
        self._threshold_slots = (tpos + both).ravel()
        # threshold t is proposed inside (proposed t-1, current t+1) and
        # would be drawn back inside (current t-1, proposed t+1)
        self._below = tpos - 1 + both[::-1]
        self._above = tpos + 1 + both
        self._row_starts = np.cumsum([0] + [rows.size for rows in self.scale_rows[:-1]])
        self._threshold_starts = np.cumsum([0] + self._num_thresholds[:-1])

    def initial_state(self):
        config, dataset = self.config, self.dataset
        if config.init_beta is not None:
            beta = np.asarray(config.init_beta, dtype=float).copy()
            if beta.shape != (dataset.num_features,):
                raise ConfigError(
                    f"init_beta shape {beta.shape} does not match "
                    f"p={dataset.num_features}"
                )
        else:
            beta = default_init(dataset, config.prior)[0]
        if config.init_gammas is not None:
            gammas = [np.asarray(g, dtype=float).copy() for g in config.init_gammas]
            if len(gammas) != len(dataset.scales):
                raise ConfigError(
                    f"init_gammas has {len(gammas)} vectors for "
                    f"{len(dataset.scales)} scales"
                )
            for g, s in zip(gammas, dataset.scales):
                if g.shape != (s.num_thresholds,):
                    raise ConfigError(
                        f"init_gammas for scale {s.scale_id} has shape "
                        f"{g.shape}, expected ({s.num_thresholds},)"
                    )
        else:
            gammas = [g.copy() for g in default_init(dataset, config.prior)[1]]
        return beta, gammas

    def sweep(self, beta, gammas, proposal_sds, rng):
        """One full sweep; mutates gammas in place, returns (beta, accepts)."""
        eta = self.dataset.features @ beta
        accepts = self.update_thresholds(eta, gammas, proposal_sds, rng)
        y_star, lowers, uppers = self.draw_latents(eta, gammas, rng)
        beta = self.draw_coefficients(y_star, rng)
        self._check_state(beta, gammas, y_star, lowers, uppers)
        return beta, accepts

    def update_thresholds(self, eta, gammas, proposal_sds, rng) -> list[bool]:
        """One blocked MH move per scale given the linear predictor eta;
        replaces gammas[k] in place and returns the accept flags. The move
        integrates the latents out, so it sees only the labels.

        Threshold c is proposed from a normal around its current value
        truncated to (proposed c-1, current c+1), so the proposal is
        ordered by construction (Cowles 1996). One call draws threshold c
        of every scale, for c = 1, 2, ..., which keeps each scale's
        proposal sequential; then one call draws every accept uniform.
        """
        edges = self._edges
        edges[self._threshold_pos] = np.concatenate(gammas)
        variances = np.square(proposal_sds)
        for current, below, above, slots, scales in self._proposal_steps:
            edges[slots] = sample_truncated_normal_many(
                edges[current], variances[scales], edges[below], edges[above], rng
            )
        uniforms = rng.random(len(gammas)).tolist()
        proposed = [edges[s] for s in self._proposed_slices]
        log_ratios = self.log_acceptance_ratios(eta, gammas, proposed, proposal_sds)
        accepts = []
        for k, (log_ratio, u) in enumerate(zip(log_ratios.tolist(), uniforms)):
            if math.isnan(log_ratio) or log_ratio == math.inf:
                eta_k = eta[self.scale_rows[k]]
                raise SamplerPanicError(
                    "zero-probability or undefined state in threshold update: "
                    f"scale={self.dataset.scales[k].scale_id} "
                    f"current={gammas[k].tolist()} "
                    f"proposed={proposed[k].tolist()} log_ratio={log_ratio} "
                    f"eta_range=({eta_k.min()}, {eta_k.max()})"
                )
            accepted = log_ratio >= 0.0 or (
                log_ratio > _NEG_INF and u > 0.0 and math.log(u) <= log_ratio
            )
            if accepted:
                gammas[k] = proposed[k].copy()
            accepts.append(accepted)
        return accepts

    def log_acceptance_ratios(self, eta, gammas, proposed, proposal_sds) -> np.ndarray:
        """Log MH ratio of the blocked threshold move of every scale, given
        the linear predictor eta of all rows.

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
        thresholds = np.concatenate((*gammas, *proposed))
        edges[self._threshold_slots] = thresholds
        if self._grouping is not None:
            eta = eta[self._grouping]
        # rows 0 and 1: the labels' log-likelihood under current and proposed
        loglik = log_interval_mass(
            edges[self._label_lower] - eta, edges[self._label_upper] - eta
        )
        centre = thresholds.reshape(2, -1)
        above = edges[self._above]
        sds = np.repeat(proposal_sds, self._num_thresholds)
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

    def draw_latents(self, eta, gammas, rng):
        """Redraw every latent from its truncated-normal conditional;
        returns the latents and their lower and upper bounds."""
        edges = self._edges
        edges[self._threshold_pos] = np.concatenate(gammas)
        lowers = edges[self._lower_pos]
        uppers = edges[self._upper_pos]
        y_star = sample_truncated_normal_many(eta, 1.0, lowers, uppers, rng)
        return y_star, lowers, uppers

    def draw_coefficients(self, y_star, rng) -> np.ndarray:
        """Exact conjugate draw of the shared coefficients given the latents."""
        b = self.lam_mu + self.dataset.features.T @ y_star
        z = rng.standard_normal(b.size)
        return self.chol_inv.T @ (self.chol_inv @ b + z)

    def _check_state(self, beta, gammas, y_star, lowers, uppers):
        ok = (
            np.isfinite(beta).all()
            and all((g[1:] > g[:-1]).all() for g in gammas)
            and ((y_star > lowers) & (y_star < uppers)).all()
        )
        if not ok:
            raise SamplerPanicError(
                f"post-sweep invariant violated: beta={np.asarray(beta).tolist()} "
                f"gammas={[g.tolist() for g in gammas]} "
                f"latent_range=({y_star.min()}, {y_star.max()})"
            )

    def proposal_sds(self) -> list[float]:
        return [
            self.config.proposal_sd_for(s.scale_id) for s in self.dataset.scales
        ]


def _run_single_chain(
    dataset: Dataset, config: ChainConfig, chain_id: int, seed_seq
) -> DrawSet:
    kernel = _GibbsKernel(dataset, config)
    rng = np.random.default_rng(seed_seq)
    beta, gammas = kernel.initial_state()
    sds = kernel.proposal_sds()

    total = config.total_sweeps
    burn_in = int(config.burn_in)
    thinning = int(config.thinning)
    stored = int(config.stored_draws)
    p = dataset.num_features

    beta_draws = np.empty((stored, p))
    gamma_draws = [
        np.empty((stored, s.num_thresholds)) for s in dataset.scales
    ]
    iteration_ids = np.empty(stored, dtype=int)
    acc_counts = {s.scale_id: 0 for s in dataset.scales}
    prop_counts = {s.scale_id: 0 for s in dataset.scales}

    out = 0
    for m in range(1, total + 1):
        try:
            beta, accepts = kernel.sweep(beta, gammas, sds, rng)
        except MsprobitError as exc:
            raise type(exc)(f"sweep {m}: {exc}") from exc
        for s, acc in zip(dataset.scales, accepts):
            prop_counts[s.scale_id] += 1
            acc_counts[s.scale_id] += int(acc)
        if m > burn_in and (m - burn_in) % thinning == 0:
            beta_draws[out] = beta
            for k in range(len(gammas)):
                gamma_draws[k][out] = gammas[k]
            iteration_ids[out] = m
            out += 1

    return DrawSet(
        beta_draws=beta_draws,
        gamma_draws=tuple(gamma_draws),
        scales=dataset.scales,
        chain_ids=np.full(stored, chain_id, dtype=int),
        iteration_ids=iteration_ids,
        accept_counts=acc_counts,
        proposal_counts=prop_counts,
    )


def run_chain(dataset: Dataset, config: ChainConfig) -> DrawSet:
    """Run one chain: burn_in + thinning * stored_draws sweeps, keeping
    every thinning-th post-burn-in state. Deterministic given config.seed.
    """
    seed_seq = np.random.SeedSequence(int(config.seed)).spawn(1)[0]
    return _run_single_chain(dataset, config, chain_id=0, seed_seq=seed_seq)


def run_chains(dataset: Dataset, config: ChainConfig, num_chains: int) -> DrawSet:
    """Run independent chains on split sub-streams and concatenate them.

    Chain i consumes child i of SeedSequence(seed), so a single chain here
    is bit-identical to run_chain with the same config.
    """
    if int(num_chains) < 1:
        raise ConfigError(f"num_chains must be >= 1, got {num_chains}")
    children = np.random.SeedSequence(int(config.seed)).spawn(int(num_chains))
    parts = []
    for i, child in enumerate(children):
        try:
            parts.append(_run_single_chain(dataset, config, i, child))
        except MsprobitError as exc:
            raise type(exc)(f"chain {i}: {exc}") from exc
    return DrawSet.concatenate(parts)


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

    Doubles or halves each scale's sd per 200-sweep window until the target
    is bracketed, then bisects geometrically, confirming with 1000-sweep
    windows; a scale is done when a confirmation window lands within 0.03
    of the target. Pilot sweeps are never stored. Raises TuningError with
    the full rate trajectory if any scale is still unsettled after 20
    windows.
    """
    if not 0.0 < float(target_rate) < 1.0:
        raise ConfigError(f"target_rate must be in (0,1), got {target_rate}")
    target = float(target_rate)
    kernel = _GibbsKernel(dataset, config)
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 0x7459]))
    beta, gammas = kernel.initial_state()
    sds = kernel.proposal_sds()

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
            beta, accepts = kernel.sweep(beta, gammas, sds, rng)
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
