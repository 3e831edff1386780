"""Three-block Gibbs sampler for multi-scale ordinal probit.

The sampler state of a chain is the coefficient vector beta (p,) and one
flat vector of thresholds (T,): every scale's thresholds, scale by scale
in scale order, the column order of a draws file. Each sweep updates, in
order: the thresholds (one blocked random-walk Metropolis-Hastings move
per scale with sequential truncated-normal proposals), the augmented
latents (exact truncated-normal conditionals), and the shared
coefficients (conjugate Gaussian). The threshold move integrates the
latents out, so its acceptance ratio depends only on the observed labels;
the latent block immediately afterwards redraws every latent under the
accepted thresholds. The proposal draws threshold c of every scale in
one vector call, for c = 1, 2, .... The coefficient draw multiplies by the
inverse Cholesky factor of the posterior precision, computed once per
dataset. Every truncated-normal draw goes through
``sample_truncated_normal_many``. docs/sampler.md states the model, each
block's conditional and the exact ratio of the threshold move.

One kernel steps a batch of chains, of one fit or of several, in
lockstep and in one order: the batch state is two flat vectors, every
chain's coefficients end to end and every chain's thresholds end to end,
and the rows run chain by chain as well. Each vector call above serves
the whole batch, and each product with the features or inverse factors is
one stacked matmul per run of chains of one feature shape; run_fits sorts
its chains by shape, so each shape is one run. Each chain keeps its own
generator and draws the values it would draw alone, in this order each
sweep: one block of uniforms (its proposal values position by position,
one accept uniform per scale, one per latent row), then the rejection
redraws of intervals too thin for the inverse CDF (the proposals', then
the latents'), then the normals of its coefficient draw. A block raises
the first error it finds in any chain of the batch; run_fits then runs
the batch again in halves, down to lone chains, so every error names its
chain and reads as that chain's lone run gives it. run_in_chunks steps
many jobs' fits (the model grids of an experiment's replications or of
evaluate's splits) in chunks of consecutive jobs, one run_fits batch per
chunk, with at most CHUNK_ROWS member-rows in a chunk of several jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, groupby

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
    config_number,
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


class _Fit:
    """What every chain of one fit shares: the dataset, the proposal sd of
    each scale, and the coefficient draw's constants. The posterior
    precision of the coefficients never changes across sweeps, so the
    inverse of its Cholesky factor is computed once and a draw is two small
    products. It trusts its dataset: run_fits and the tuner check that
    with initial_state first.
    """

    def __init__(self, dataset: Dataset, config: ChainConfig):
        self.dataset = dataset
        X = dataset.features
        p = dataset.num_features
        prior_mean = config.prior.mean_vector(p)
        prior_prec = config.prior.precision_matrix(p)
        with np.errstate(over="ignore", invalid="ignore"):
            precision = prior_prec + X.T @ X
        if not np.isfinite(precision).all():
            raise LinearAlgebraError(
                "posterior precision overflows; the features are too large"
            )
        try:
            chol = np.linalg.cholesky(precision)
        except np.linalg.LinAlgError as exc:
            raise LinearAlgebraError(
                "posterior precision factorization failed; prior precision "
                "must be symmetric positive definite"
            ) from exc
        # the posterior covariance is chol_inv.T @ chol_inv; Fortran order,
        # as solve_triangular gives it, so chol_inv.T is in C order
        self.chol_inv = np.asfortranarray(solve_triangular(chol, np.eye(p), lower=True))
        self.lam_mu = prior_prec @ prior_mean
        self.proposal_sds = [config.proposal_sd_for(s.scale_id) for s in dataset.scales]
        # the position of each row's scale in dataset.scales
        self.scale_index = np.empty(dataset.num_obs, dtype=np.intp)
        for i, s in enumerate(dataset.scales):
            self.scale_index[dataset.scale_ids == s.scale_id] = i


def _slices(sizes: list[int]) -> list[slice]:
    """Consecutive slices of the given sizes, from 0."""
    return [slice(end - size, end) for size, end in zip(sizes, accumulate(sizes))]


def _stacked(arrays: list, shared: bool) -> np.ndarray:
    """C-ordered arrays of one shape on a new first axis, each slice in its
    array's layout: a view if they are one array (shared), else a copy."""
    if shared:
        first = arrays[0][np.newaxis]
        return first if len(arrays) == 1 else np.broadcast_to(first, (len(arrays),) + first.shape[1:])
    return np.stack(arrays)


class _GibbsKernel:
    """The Gibbs sampler for a batch of members, each one chain of one fit
    (a _Fit per member; the chains of a fit share it). run_fits, the tuner
    and the acceptance gate all step it, and one sweep steps every member.

    The members may differ in rows, features, scales and thresholds, and
    everything runs in member order: the batch state is two flat vectors,
    every member's coefficients end to end (coef_slices) and every
    member's thresholds end to end, scale by scale (threshold_slices), and
    the rows run member by member (row_slices). Both the threshold move
    and the latent draw read class intervals from one flat array of the
    class edges of every member-scale (one scale of one member); the
    worked batch in docs/sampler.md shows that layout and its index arrays.

    A sweep draws every member's block of uniforms first (uniforms), then
    computes the linear predictor (linear_predictor) and runs the three
    blocks, each a method that takes its part of that block: the
    thresholds, the latents, the coefficients. The threshold proposal is
    drawn position by position into the proposal half, threshold c of
    every member-scale in one call; the threshold move's ratios and the
    latent draw are one call each for the whole batch. A run of
    consecutive members whose features have one shape is a group, with
    its features, inverse factors and prior terms stacked: each product is
    one matmul per group, slice by slice the member's own, and a lone
    chain is a group of one. Each member draws from its own generator, in
    the module's stream order, the values its lone chain would draw.

    A block that finds an error in any member raises it, as a lone chain's
    block would; run_fits reruns a failed batch in halves to find the
    member it belongs to.
    """

    def __init__(self, fits: list[_Fit]):
        self.fits = fits
        num_members = len(fits)
        self._scales = scales = [s for f in fits for s in f.dataset.scales]
        scale_counts = [len(f.dataset.scales) for f in fits]
        self._row_counts = row_counts = [f.dataset.num_obs for f in fits]
        # each member's slice of the member-scales, the flat thresholds, the
        # rows and the flat coefficients
        self.scale_slices = _slices(scale_counts)
        num_thresholds = [s.num_thresholds for s in scales]
        self.threshold_slices = _slices([sum(num_thresholds[own]) for own in self.scale_slices])
        self.row_slices = _slices(row_counts)
        self.coef_slices = _slices([f.dataset.num_features for f in fits])
        # the member of every member-scale, and the member-scale of every
        # threshold of the flat state
        scale_member = np.repeat(np.arange(num_members), scale_counts)
        self._threshold_scale = k = np.repeat(np.arange(len(scales)), num_thresholds)
        # True between neighbouring thresholds of different member-scales
        self._scale_breaks = k[1:] != k[:-1]
        self._threshold_bounds = np.array([0, *accumulate(num_thresholds)])

        offsets = np.array([0, *accumulate(t + 2 for t in num_thresholds)])
        width = int(offsets[-1])
        # the current edges fill [0, width), a proposal's [width, 2 * width)
        starts = offsets[:-1]
        self._edges = np.full(2 * width, np.inf)
        self._edges[starts] = self._edges[starts + width] = _NEG_INF
        position = np.arange(k.size) - self._threshold_bounds[k]  # c - 1
        tpos = starts[k] + position + 1
        # Proposal step c draws threshold c of every member-scale that has
        # one, inside (proposed c-1, current c+1): its values, in the order
        # of the member-scales, and their count per member.
        by_step = np.argsort(position, kind="stable")
        self._step_pos = tpos[by_step]
        self._step_scale = k[by_step]
        step_owner = scale_member[self._step_scale]
        step_sizes = np.bincount(position).tolist()
        counts = np.bincount(
            position[by_step] * num_members + step_owner, minlength=len(step_sizes) * num_members
        ).reshape(-1, num_members)
        self._steps = [
            (step, self._step_pos[step] + width - 1, self._step_pos[step] + width, owned)
            for step, owned in zip(_slices(step_sizes), counts.tolist())
        ]

        # the groups, runs of consecutive members with one feature shape:
        # their members, rows and coefficients are one slice each
        self._groups, end = [], 0
        for _, run in groupby(fits, key=lambda f: f.dataset.features.shape):
            group = list(run)
            first, end = end, end + len(group)
            shared = all(f is group[0] for f in group)
            self._groups.append((  # the factors' transposes are C ordered
                _stacked([f.dataset.features for f in group], shared),
                _stacked([f.chol_inv.T for f in group], shared),
                _stacked([f.lam_mu for f in group], shared)[..., None],
                slice(first, end),
                slice(self.row_slices[first].start, self.row_slices[end - 1].stop),
                slice(self.coef_slices[first].start, self.coef_slices[end - 1].stop),
            ))

        # the member-scale of every row; the threshold move groups the rows'
        # log-likelihoods by member-scale (None if the rows already are), so
        # that each member-scale's rows, like its thresholds, are one slice
        first_scale = [s.start for s in self.scale_slices]
        row_scale = np.concatenate([first + f.scale_index for first, f in zip(first_scale, fits)])
        labels = np.concatenate([f.dataset.labels for f in fits])
        order = np.argsort(row_scale, kind="stable")
        self._grouping = None if (row_scale[1:] >= row_scale[:-1]).all() else order
        both = np.array([[0], [width]])  # current, proposed
        # each row's lower and upper edge slot, in row order
        self._label_lower = starts[row_scale] + labels - 1 + both
        self._label_upper = self._label_lower + 1
        self._threshold_slots = tpos + both
        # threshold t is proposed inside (proposed t-1, current t+1) and
        # would be drawn back inside (current t-1, proposed t+1)
        self._below = tpos - 1 + both[::-1]
        self._above = tpos + 1 + both
        # where each member-scale's rows start, and end
        self._row_bounds = np.cumsum([0, *np.bincount(row_scale, minlength=len(scales))])

        # A sweep's uniforms, in the order the blocks take them: proposal
        # values step by step, then the accept and latent parts, one value
        # per member-scale and per row. Each member draws its own in that
        # order, so only the proposal values interleave members; the order
        # indexes the members' draws end to end.
        owner = np.concatenate((step_owner, scale_member, np.repeat(np.arange(num_members), row_counts)))
        self._uniform_counts = np.bincount(owner, minlength=num_members).tolist()
        self._uniform_order = np.argsort(np.argsort(owner, kind="stable"))
        self._accept_part = slice(k.size, k.size + len(scales))
        self._latent_part = slice(k.size + len(scales), None)

    def uniforms(self, rngs) -> np.ndarray:
        """A sweep's block of uniforms: one g.random call per member, the
        values in the order the block methods take them."""
        u = np.concatenate([g.random(n) for g, n in zip(rngs, self._uniform_counts)])
        return u[self._uniform_order]

    def linear_predictor(self, coefs) -> np.ndarray:
        """The linear predictor of every row given the flat coefficients."""
        eta = np.empty(self.row_slices[-1].stop)
        for X, _, _, _, rows, cols in self._groups:
            k, n, p = X.shape
            np.matmul(X, coefs[cols].reshape(k, p, 1), out=eta[rows].reshape(k, n, 1))
        return eta

    def _per_scale(self, thresholds, k) -> list:
        """The flat thresholds of member-scale k as a list, for messages."""
        return thresholds[self._threshold_bounds[k] : self._threshold_bounds[k + 1]].tolist()

    def sweep(self, coefs, thresholds, proposal_sds, rngs):
        """One full sweep of every member; returns (coefs, thresholds,
        accepts)."""
        u = self.uniforms(rngs)
        eta = self.linear_predictor(coefs)
        thresholds, accepts = self.update_thresholds(eta, thresholds, proposal_sds, rngs, u)
        y_star, lowers, uppers = self.draw_latents(eta, thresholds, rngs, u)
        coefs = self.draw_coefficients(y_star, rngs)
        self._check_state(coefs, thresholds, y_star, lowers, uppers)
        return coefs, thresholds, accepts

    def update_thresholds(self, eta, thresholds, proposal_sds, rngs, uniforms):
        """One blocked MH move per member-scale given the linear predictor
        eta; returns the new thresholds and the accept flags. The move
        integrates the latents out, so it sees only the labels.

        Threshold c is proposed from a normal around its current value
        truncated to (proposed c-1, current c+1), so the proposal is
        ordered by construction (Cowles 1996). One call draws threshold c
        of every member-scale, for c = 1, 2, ..., which keeps each scale's
        proposal sequential. uniforms is the sweep's block; the move takes
        its proposal values, then its accept uniforms.
        """
        edges = self._edges
        edges[self._threshold_slots[0]] = thresholds
        sds = np.asarray(proposal_sds, dtype=float)
        variances = np.square(sds)[self._step_scale]
        # each step's means and upper bounds are current thresholds; only
        # its lower bounds, the previous step's draws, wait for it
        means = edges[self._step_pos]
        uppers = edges[self._step_pos + 1]
        for step, below, slots, counts in self._steps:
            edges[slots] = sample_truncated_normal_many(
                means[step], variances[step], edges[below], uppers[step], rngs, counts, uniforms[step]
            )
        proposed = edges[self._threshold_slots[1]]
        log_ratios = self.log_acceptance_ratios(eta, thresholds, proposed, sds)
        if not np.maximum.reduce(log_ratios) < np.inf:  # a NaN or +inf ratio
            k = int(np.flatnonzero(~(log_ratios < np.inf))[0])
            rows = slice(self._row_bounds[k], self._row_bounds[k + 1])
            eta_k = eta[rows if self._grouping is None else self._grouping[rows]]
            raise SamplerPanicError(
                "zero-probability or undefined state in threshold update: "
                f"scale={self._scales[k].scale_id} "
                f"current={self._per_scale(thresholds, k)} "
                f"proposed={self._per_scale(proposed, k)} log_ratio={log_ratios[k]} "
                f"eta_range=({eta_k.min()}, {eta_k.max()})"
            )
        accepts = [
            log_ratio >= 0.0 or (log_ratio > _NEG_INF and u > 0.0 and math.log(u) <= log_ratio)
            for log_ratio, u in zip(log_ratios.tolist(), uniforms[self._accept_part].tolist())
        ]
        taken = np.array(accepts)[self._threshold_scale]
        return np.where(taken, proposed, thresholds), accepts

    def log_acceptance_ratios(self, eta, thresholds, proposed, proposal_sds) -> np.ndarray:
        """Log MH ratio of the blocked threshold move of every member-scale,
        given the linear predictor eta of all rows and the current and
        proposed flat thresholds.

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
        # rows 0 and 1: the labels' log-likelihood under current and proposed
        loglik = log_interval_mass(
            edges[self._label_lower] - eta, edges[self._label_upper] - eta
        )
        if self._grouping is not None:
            loglik = loglik[:, self._grouping]
        above = edges[self._above]
        sds = np.asarray(proposal_sds, dtype=float)[self._threshold_scale]
        # rows 0 and 1: forward and reverse proposal normalizers
        log_norm = log_interval_mass(
            (edges[self._below] - centre) / sds, (above - centre) / sds
        )
        ll = np.add.reduceat(loglik, self._row_bounds[:-1], axis=1)
        norm = np.add.reduceat(log_norm, self._threshold_bounds[:-1], axis=1)
        with np.errstate(invalid="ignore"):
            ratios = ll[1] - ll[0] + norm[0] - norm[1]
        irreversible = centre[0] >= above[1]
        ratios[np.logical_or.reduceat(irreversible, self._threshold_bounds[:-1])] = _NEG_INF
        ratios[ll[0] == _NEG_INF] = np.inf
        return ratios

    def draw_latents(self, eta, thresholds, rngs, uniforms):
        """Redraw every latent from its truncated-normal conditional, each
        member's from its own generator; returns the latents and their
        lower and upper bounds. uniforms is the sweep's block; the rows
        take its last part."""
        edges = self._edges
        edges[self._threshold_slots[0]] = thresholds
        lowers = edges[self._label_lower[0]]
        uppers = edges[self._label_upper[0]]
        y_star = sample_truncated_normal_many(
            eta, 1.0, lowers, uppers, rngs, self._row_counts, uniforms[self._latent_part]
        )
        return y_star, lowers, uppers

    def draw_coefficients(self, y_star, rngs) -> np.ndarray:
        """Exact conjugate draw of every member's coefficients given the
        latents, as one flat vector."""
        coefs = np.empty(self.coef_slices[-1].stop)
        for X, Ct, lam_mu, members, rows, cols in self._groups:
            k, n, p = X.shape
            out = coefs[cols].reshape(k, p, 1)
            for g, z in zip(rngs[members], out):
                g.standard_normal(out=z[:, 0])
            b = np.matmul(X.transpose(0, 2, 1), y_star[rows].reshape(k, n, 1))
            b += lam_mu
            w = np.matmul(Ct.transpose(0, 2, 1), b)
            w += out
            np.matmul(Ct, w, out=out)
        return coefs

    def _check_state(self, coefs, thresholds, y_star, lowers, uppers):
        inside = (y_star > lowers) & (y_star < uppers)
        ordered = (thresholds[1:] > thresholds[:-1]) | self._scale_breaks
        if inside.all() and ordered.all() and np.isfinite(coefs).all():
            return
        for own_coefs, rows, scales, own in zip(
            self.coef_slices, self.row_slices, self.scale_slices, self.threshold_slices
        ):
            beta = coefs[own_coefs]
            if not (np.isfinite(beta).all() and ordered[own].all() and inside[rows].all()):
                gammas = [self._per_scale(thresholds, k) for k in range(scales.start, scales.stop)]
                raise SamplerPanicError(
                    f"post-sweep invariant violated: beta={beta.tolist()} "
                    f"gammas={gammas} "
                    f"latent_range=({y_star[rows].min()}, {y_star[rows].max()})"
                )

    def proposal_sds(self) -> list[float]:
        """The proposal sd of every member-scale."""
        return [sd for f in self.fits for sd in f.proposal_sds]


def initial_state(dataset: Dataset, config: ChainConfig):
    """(beta, thresholds) that every chain of a fit starts from: default_init
    with the per-scale thresholds flattened.

    It validates the dataset first and costs O(n log n) whatever the
    declared class counts, so a fit calls it before it builds anything
    sized by a class count.
    """
    validate_dataset(dataset, allow_zero_columns=True)
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


def _with_prefix(exc: Exception, prefix: str) -> Exception:
    """exc of the same type with prefix before its message, caused by exc."""
    prefixed = type(exc)(f"{prefix}{exc}")
    prefixed.__cause__ = exc
    return prefixed


def run_fits(fits: list[tuple[Dataset, ChainConfig]]) -> list:
    """Run every chain of every (dataset, config) fit in lockstep, one
    sweep of one kernel for all of them at a time, and return, in order,
    each fit's DrawSet or the error it failed with.

    The fits share one schedule: burn_in + thinning * stored_draws sweeps
    per chain, keeping every thinning-th post-burn-in state. Chain i of a
    fit draws from child i of SeedSequence(config.seed), exactly the values
    it would draw alone, so a fit's draws do not depend on the fits or
    chains it runs beside; its chains write into its DrawSet as they run.
    A batch that raises is run again in halves, down to lone chains, so a
    failed fit's entry is the error of its lowest failed chain, "chain i:
    sweep m: " before the message of a sampler error, or the error its
    set-up raised. No fits give [].
    """
    if not fits:
        return []
    schedules = {(c.burn_in, c.thinning, c.stored_draws) for _, c in fits}
    if len(schedules) != 1:
        raise ValueError(f"fits of one batch must share one schedule, got {sorted(schedules)}")
    ((burn_in, thinning, stored),) = schedules

    results = []  # per fit: its DrawSet, or the error it failed with
    members = []  # per chain: fit index, chain index, DrawSet, _Fit, start state, seed
    for k, (dataset, config) in enumerate(fits):
        try:
            beta0, thresholds0 = initial_state(dataset, config)
            check_draw_store(config.num_chains, stored, beta0.size + thresholds0.size)
            fit = _Fit(dataset, config)
        except MsprobitError as exc:
            results.append(exc)
            continue
        size = config.num_chains * stored
        draws = DrawSet(
            beta_draws=np.empty((size, beta0.size)),
            threshold_draws=np.empty((size, thresholds0.size)),
            scales=dataset.scales,
            chain_ids=np.repeat(np.arange(config.num_chains), stored),
            iteration_ids=np.tile(
                burn_in + thinning * np.arange(1, stored + 1), config.num_chains
            ),
            accept_counts={s.scale_id: 0 for s in dataset.scales},
            proposal_counts={s.scale_id: config.total_sweeps for s in dataset.scales},
        )
        results.append(draws)
        for i, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.num_chains)):
            members.append((k, i, draws, fit, beta0, thresholds0, child))
    if members:
        # members of one feature shape next to each other: one group each;
        # the sort is stable, so each fit's chains stay in chain order
        members.sort(key=lambda member: member[3].dataset.features.shape)
        _run_batch(members, (burn_in, thinning, stored), results)
    return results


def _run_batch(members: list, schedule: tuple, results: list):
    """Run run_fits' members (chains) as one batch from their start states,
    writing their draws into their fits' DrawSets as they go, and add their
    accept counts once the batch finishes. A batch that raises is run again
    in halves, the first half first, so lone chains fail in member order;
    a lone chain's error replaces its fit's DrawSet in results unless an
    earlier chain's error has."""
    burn_in, thinning, stored = schedule
    fit_ids, chain_ids, drawsets, member_fits, betas, thresholds, seeds = zip(*members)
    kernel = _GibbsKernel(list(member_fits))
    coefs = np.concatenate(betas)
    thresholds = np.concatenate(thresholds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    sds = kernel.proposal_sds()
    accepted = np.zeros(len(sds), dtype=int)  # per member-scale
    for m in range(1, burn_in + thinning * stored + 1):
        try:
            coefs, thresholds, accepts = kernel.sweep(coefs, thresholds, sds, rngs)
        except (MsprobitError, ValueError) as exc:
            if len(members) == 1:
                if isinstance(exc, MsprobitError):
                    exc = _with_prefix(exc, f"chain {chain_ids[0]}: sweep {m}: ")
                if results[fit_ids[0]] is drawsets[0]:
                    results[fit_ids[0]] = exc
                return
            half = len(members) // 2
            _run_batch(members[:half], schedule, results)
            _run_batch(members[half:], schedule, results)
            return
        accepted += accepts
        if m > burn_in and (m - burn_in) % thinning == 0:
            row = (m - burn_in) // thinning - 1
            for draws, i, cols, own in zip(
                drawsets, chain_ids, kernel.coef_slices, kernel.threshold_slices
            ):
                draws.beta_draws[i * stored + row] = coefs[cols]
                draws.threshold_draws[i * stored + row] = thresholds[own]
    for draws, own in zip(drawsets, kernel.scale_slices):
        for s, count in zip(draws.scales, accepted[own].tolist()):
            draws.accept_counts[s.scale_id] += count


# The most member-rows, num_obs x num_chains summed over its fits, that one
# run_fits batch of run_in_chunks holds. A batch's sweep cost is mostly
# per-call overhead while it is small, and grows with its rows once large;
# BENCH_16.json has the measurement behind the value.
CHUNK_ROWS = 8_000


def run_in_chunks(jobs):
    """Run the fits of consecutive jobs in lockstep chunks and yield each
    job's (key, results) in job order.

    jobs is an iterable of (key, fits) pairs, fits a list of (dataset,
    config) fits of one schedule (possibly empty); results is run_fits' list
    for them. A chunk takes consecutive jobs while their member-rows stay
    within CHUNK_ROWS, and always at least one, so no job's fits are split,
    and runs all their fits as one run_fits call; each fit's draws are those
    of its lone run. jobs is read lazily, at most one job past the chunk
    that runs, and a chunk's jobs and results are released before more jobs
    are read, so memory is bounded per chunk.
    """
    chunk, rows = [], 0
    for key, fits in jobs:
        size = sum(dataset.num_obs * config.num_chains for dataset, config in fits)
        if chunk and rows + size > CHUNK_ROWS:
            yield from _run_chunk(chunk)
            chunk, rows = [], 0
        chunk.append((key, fits))
        rows += size
    if chunk:
        yield from _run_chunk(chunk)


def _run_chunk(chunk: list):
    """Run a chunk's fits as one run_fits batch; yield each job's (key,
    results)."""
    every_fit = [fit for _, fits in chunk for fit in fits]
    results = iter(run_fits(every_fit))
    for key, fits in chunk:
        yield key, [next(results) for _ in fits]


def run_chains(dataset: Dataset, config: ChainConfig) -> DrawSet:
    """Run config.num_chains independent chains of one fit in lockstep (see
    run_fits); raises the error of the lowest failed chain."""
    (result,) = run_fits([(dataset, config)])
    if isinstance(result, Exception):
        raise result
    return result


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
    target = config_number(target_rate, "target_rate")
    if not 0.0 < target < 1.0:
        raise ConfigError(f"target_rate must be in (0,1), got {target_rate}")
    coefs, thresholds = initial_state(dataset, config)
    kernel = _GibbsKernel([_Fit(dataset, config)])
    rngs = [np.random.default_rng(np.random.SeedSequence([config.seed, 0x7459]))]
    sds = kernel.proposal_sds()
    for _ in range(config.burn_in):
        coefs, thresholds, _ = kernel.sweep(coefs, thresholds, sds, rngs)

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
            coefs, thresholds, accepts = kernel.sweep(coefs, thresholds, sds, rngs)
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
