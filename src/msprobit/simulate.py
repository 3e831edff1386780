"""Synthetic data generation and the parameter-recovery experiment driver.

The generator draws one shared coefficient vector, then per-scale feature
matrices, thresholds, and latent responses, resampling thresholds and
responses together until every class on every scale is populated. The
experiment driver fits per-scale single-scale models plus one multi-scale
model per replication and reports RMSE against the simulation truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, MsprobitError, SimulationError
from .model import ChainConfig, Dataset, ScaleSpec
from .sampler import MAX_STORED_VALUES, DrawSet, check_draw_store, run_in_chunks

_MAX_REDRAWS = 10_000
_THRESHOLD_VARIANCE = 5.0


@dataclass(frozen=True)
class SimTruth:
    """Ground truth and data from one simulation run.

    dataset holds every scale's rows, scale by scale in scale order.
    gammas_true[k] holds the thresholds of dataset.scales[k], and
    y_star_true the latent value of every dataset row; a row's label is the
    interval lookup of its latent value against its scale's thresholds.
    """

    dataset: Dataset
    beta_true: np.ndarray
    gammas_true: tuple[np.ndarray, ...]
    y_star_true: np.ndarray


def labels_from_latent(y_star: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """1-based interval lookup of latent values against sorted thresholds."""
    return 1 + np.searchsorted(gamma, y_star, side="left")


def _is_count(value) -> bool:
    """True for an int or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Design:
    """A simulation design: num_scales scales of obs_per_scale rows over
    num_features shared features. num_thresholds is one count for every
    scale or a list of one count per scale, each an int or numpy integer
    (not a bool), and every class of every scale gets at least
    min_per_class rows.

    Counts become ints and num_thresholds a tuple of S counts here; a design
    simulate_dataset cannot draw raises ConfigError. The size is checked
    before anything is allocated.
    """

    num_scales: int
    obs_per_scale: int
    num_features: int
    num_thresholds: int | tuple[int, ...]
    min_per_class: int = 1

    def __post_init__(self):
        for name in ("num_scales", "obs_per_scale", "num_features", "min_per_class"):
            object.__setattr__(self, name, int(getattr(self, name)))
        S, n, p = self.num_scales, self.obs_per_scale, self.num_features
        k = self.min_per_class
        if min(S, n, p) >= 1 and S * n * p > MAX_STORED_VALUES:
            raise ConfigError(
                f"{S} scales x {n} rows x {p} features exceed the "
                f"{MAX_STORED_VALUES} feature values (16 GiB) one dataset may hold"
            )
        num_thresholds = self.num_thresholds
        if _is_count(num_thresholds):
            num_thresholds = (num_thresholds,) * S
        if not isinstance(num_thresholds, (list, tuple, np.ndarray)) or not all(
            _is_count(t) for t in num_thresholds
        ):
            raise ConfigError(
                "num_thresholds must be an integer or a list of integers, "
                f"got {num_thresholds!r}"
            )
        num_thresholds = tuple(int(t) for t in num_thresholds)
        object.__setattr__(self, "num_thresholds", num_thresholds)
        if len(num_thresholds) != S:
            raise ConfigError(
                f"num_thresholds has {len(num_thresholds)} entries for S={S}"
            )
        if S < 1 or n < 1 or p < 1 or k < 1 or any(t < 1 for t in num_thresholds):
            raise ConfigError(
                f"invalid simulation shape: S={S}, n={n}, p={p}, "
                f"num_thresholds={num_thresholds}, k={k}"
            )
        if any(n < k * (t + 1) for t in num_thresholds):
            raise ConfigError(
                f"n={n} cannot hold {k} instances of every class for "
                f"num_thresholds={num_thresholds}"
            )


def simulate_dataset(design: Design, rng: np.random.Generator) -> SimTruth:
    """Generate multi-scale ordinal data from the model's own assumptions.

    Shared coefficients ~ N_p(0, I) drawn once. Per scale: an (n, p)
    standard-normal feature matrix, then repeatedly: thresholds as sorted
    iid Normal(0, variance 5) values, latents ~ N(x.beta, 1), labels by
    interval lookup, until every class has at least min_per_class
    observations.
    """
    n, k = design.obs_per_scale, design.min_per_class
    beta = rng.standard_normal(design.num_features)
    gammas, y_stars, features, labels, scales = [], [], [], [], []
    for s_index, num_thresholds in enumerate(design.num_thresholds):
        num_classes = num_thresholds + 1
        X = rng.standard_normal((n, design.num_features))
        eta = X @ beta
        for attempt in range(_MAX_REDRAWS):
            gamma = np.sort(
                rng.normal(0.0, math.sqrt(_THRESHOLD_VARIANCE), num_thresholds)
            )
            if gamma.size > 1 and not np.all(np.diff(gamma) > 0):
                continue
            y_star = eta + rng.standard_normal(n)
            y = labels_from_latent(y_star, gamma)
            counts = np.bincount(y, minlength=num_classes + 1)[1:]
            if np.all(counts >= k):
                break
        else:
            raise SimulationError(
                f"scale {s_index + 1}: {_MAX_REDRAWS} consecutive threshold "
                f"draws left some class below {k} instances; increase n or "
                "reduce the number of classes"
            )
        gammas.append(gamma)
        y_stars.append(y_star)
        features.append(X)
        labels.append(y)
        scales.append(ScaleSpec(scale_id=s_index + 1, num_classes=num_classes))

    return SimTruth(
        dataset=Dataset(
            features=np.concatenate(features),
            labels=np.concatenate(labels),
            scale_ids=np.repeat([s.scale_id for s in scales], n),
            scales=scales,
        ),
        beta_true=beta,
        gammas_true=tuple(gammas),
        y_star_true=np.concatenate(y_stars),
    )


def rmse(estimate, truth) -> float:
    """Root mean squared componentwise difference of two equal-length vectors."""
    a = np.asarray(estimate, dtype=float).reshape(-1)
    b = np.asarray(truth, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def per_draw_rmse(draw_matrix: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """rmse of every row of an (M, d) draw matrix against one truth vector."""
    truth = np.asarray(truth, dtype=float).reshape(1, -1)
    if draw_matrix.shape[1] != truth.shape[1]:
        raise ValueError(
            f"draw matrix width {draw_matrix.shape[1]} vs truth "
            f"length {truth.shape[1]}"
        )
    return np.sqrt(np.mean((draw_matrix - truth) ** 2, axis=1))


@dataclass(frozen=True)
class ExperimentConfig:
    """Descriptor for a replication experiment.

    chain_config.seed is ignored; every fit gets its own seed derived from
    `seed` and the replication index, so replications are independent and
    the whole experiment is reproducible from one number. The design is
    checked when it is built and the chain config here, before any
    replication runs; errors raise ConfigError.
    """

    design: Design
    replications: int
    chain_config: ChainConfig = field(default_factory=ChainConfig)
    seed: int = 0

    def __post_init__(self):
        # counts and the seed become ints here, so no reader converts them
        for name, least in (("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, int(getattr(self, name)))
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        p, chain = self.design.num_features, self.chain_config
        for scale_id in range(1, self.design.num_scales + 1):
            chain.proposal_sd_for(scale_id)
        chain.prior.mean_vector(p)
        chain.prior.precision_matrix(p)
        # the multi-scale fit stores the most: p coefficients, every threshold
        check_draw_store(
            chain.num_chains, chain.stored_draws, p + sum(self.design.num_thresholds)
        )


@dataclass(frozen=True)
class ReplicationFailure:
    replication: int
    stage: str
    message: str


@dataclass(frozen=True)
class ExperimentReport:
    """Long-format experiment results.

    summary_rows: (replication, model, scale_id, metric, value) over the
      full model x scale grid; gamma_rmse is NaN where a single-scale model
      has no thresholds for that scale.
    ratio_rows: (replication, scale_id, metric, single, multi, multi/single).
    draw_rows: (replication, model, scale_id, metric, draw_id, value) for
      every defined model/scale combination, one row per stored draw.
    """

    config: ExperimentConfig
    summary_rows: list[tuple]
    ratio_rows: list[tuple]
    draw_rows: list[tuple]
    failures: list[ReplicationFailure]

    @property
    def completed_replications(self) -> int:
        failed = {f.replication for f in self.failures}
        return self.config.replications - len(failed)


def _fit_seed(child: np.random.SeedSequence) -> int:
    return int(child.generate_state(1, np.uint64)[0])


def _replication_fits(config: ExperimentConfig):
    """(key, fits) of every replication in order, for run_in_chunks: key is
    (r, the SimTruth or the error simulating it, the model names), fits the
    model grid with each fit's seed, or no fits if the simulation failed."""
    for r in range(1, config.replications + 1):
        children = np.random.SeedSequence([config.seed, r]).spawn(
            2 + config.design.num_scales
        )
        try:
            sim = simulate_dataset(config.design, np.random.default_rng(children[0]))
        except MsprobitError as exc:
            yield (r, exc, []), []
            continue
        grid = sim.dataset.model_grid()
        yield (r, sim, [name for name, _ in grid]), [
            (data, replace(config.chain_config, seed=_fit_seed(child)))
            for (_, data), child in zip(grid, children[1:])
        ]


def run_experiment(config: ExperimentConfig, progress=None) -> ExperimentReport:
    """Simulate/fit/score `replications` times and collect RMSE comparisons.

    Per replication: one multi-scale fit on the pooled data and one
    single-scale fit per scale on that scale's data, all against the same
    simulation truth. The replications run in chunks (sampler.run_in_chunks):
    all the grids of a chunk's replications step in one lockstep batch, each
    fit drawing what its lone run draws, and a chunk's data and draws are
    dropped once it is scored. Replications are scored, reported to
    progress and appended in order. A failed replication is recorded in the
    failure census and skipped; its rows are absent from the report.
    """
    summary_rows: list[tuple] = []
    ratio_rows: list[tuple] = []
    draw_rows: list[tuple] = []
    failures: list[ReplicationFailure] = []

    for (r, sim, names), results in run_in_chunks(_replication_fits(config)):
        stage = "simulate"
        try:
            if isinstance(sim, Exception):
                raise sim
            fits: dict[str, DrawSet] = {}
            for name, result in zip(names, results):
                stage = f"fit-{name}"
                if isinstance(result, Exception):
                    raise result
                fits[name] = result
            stage = "metrics"
            rep_summary, rep_ratios, rep_draws = _score_replication(r, sim, fits)
        except MsprobitError as exc:
            failures.append(ReplicationFailure(r, stage, str(exc)))
            continue
        summary_rows.extend(rep_summary)
        ratio_rows.extend(rep_ratios)
        draw_rows.extend(rep_draws)
        if progress is not None:
            progress(r, config.replications)

    return ExperimentReport(
        config=config,
        summary_rows=summary_rows,
        ratio_rows=ratio_rows,
        draw_rows=draw_rows,
        failures=failures,
    )


def _score_replication(r: int, sim: SimTruth, fits: dict[str, DrawSet]):
    """RMSE rows for one replication; see ExperimentReport for layouts."""
    scales = sim.dataset.scales
    gammas_true = {s.scale_id: g for s, g in zip(scales, sim.gammas_true)}
    # the mean over draws of every (model, scale_id, metric) cell, in summary
    # row order; gamma_rmse stays NaN on a scale the model does not fit
    means: dict[tuple[str, int, str], float] = {}
    draws = []
    for model, drawset in fits.items():
        beta_rmse = per_draw_rmse(drawset.beta_draws, sim.beta_true)
        beta_mean = float(beta_rmse.mean())
        for s in scales:
            means[model, s.scale_id, "beta_rmse"] = beta_mean
            means[model, s.scale_id, "gamma_rmse"] = float("nan")
        for s in drawset.scales:
            gamma_rmse = per_draw_rmse(
                drawset.gamma_draws_for(s.scale_id), gammas_true[s.scale_id]
            )
            means[model, s.scale_id, "gamma_rmse"] = float(gamma_rmse.mean())
            for metric, values in (("gamma_rmse", gamma_rmse), ("beta_rmse", beta_rmse)):
                draws.extend(
                    (r, model, s.scale_id, metric, d, v)
                    for d, v in enumerate(values.tolist())
                )

    summary = [(r, *cell, value) for cell, value in means.items()]
    ratios = []
    for s in scales:
        for metric in ("beta_rmse", "gamma_rmse"):
            single = means[f"single-{s.scale_id}", s.scale_id, metric]
            multi = means["multi", s.scale_id, metric]
            ratios.append((r, s.scale_id, metric, single, multi, multi / single))
    return summary, ratios, draws
