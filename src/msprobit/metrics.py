"""Classification and ranking metrics, posterior prediction, and the
train/test split evaluation protocol.

Metrics are computed once per posterior draw, so every reported quantity
is a distribution over draws rather than a single number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, StratificationError, UndefinedCorrelationError
from .model import ChainConfig, Dataset, ScaleSpec
from .sampler import DrawSet, run_chains

HEADLINE_METRICS = ("f1_macro", "tau_b", "harmonic")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with actual classes on rows and predicted classes on columns."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=int)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"confusion counts must be square, got {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("confusion counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @staticmethod
    def from_labels(pred, actual, num_classes: int) -> "ConfusionMatrix":
        pred = np.asarray(pred, dtype=int)
        actual = np.asarray(actual, dtype=int)
        if pred.shape != actual.shape or pred.ndim != 1:
            raise ValueError("pred and actual must be equal-length vectors")
        if pred.size == 0:
            raise ValueError("empty label vectors")
        for name, v in (("pred", pred), ("actual", actual)):
            if np.any((v < 1) | (v > num_classes)):
                raise ValueError(f"{name} labels outside 1..{num_classes}")
        flat = np.bincount(
            (actual - 1) * num_classes + (pred - 1), minlength=num_classes**2
        )
        return ConfusionMatrix(flat.reshape(num_classes, num_classes))


@dataclass(frozen=True)
class F1Result:
    """Per-class F1 with the macro average.

    degenerate flags classes scored 0 by convention because they never
    appear in predictions (precision undefined) or in the actuals (recall
    undefined).
    """

    per_class: np.ndarray
    macro: float
    degenerate: np.ndarray
    confusion: ConfusionMatrix


def f1_scores(pred, actual, num_classes: int) -> F1Result:
    """Per-class and macro F1 under the zero-for-degenerate convention.

    A class with no predicted instances or no actual instances gets F1 = 0
    and is flagged; the macro average is the unweighted mean over all
    classes.
    """
    cm = ConfusionMatrix.from_labels(pred, actual, num_classes)
    counts = cm.counts
    tp = np.diag(counts).astype(float)
    pred_totals = counts.sum(axis=0).astype(float)
    actual_totals = counts.sum(axis=1).astype(float)
    degenerate = (pred_totals == 0) | (actual_totals == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_totals > 0, tp / pred_totals, 0.0)
        recall = np.where(actual_totals > 0, tp / actual_totals, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2.0 * precision * recall / denom, 0.0)
    f1 = np.where(degenerate, 0.0, f1)
    return F1Result(
        per_class=f1,
        macro=float(f1.mean()),
        degenerate=degenerate,
        confusion=cm,
    )


def kendall_tau_b(a, b) -> float:
    """Tie-adjusted rank correlation from exact all-pairs counts.

    (concordant - discordant) / sqrt((n0 - ties_a)(n0 - ties_b)) with n0
    the number of pairs; counts are accumulated exactly, so the result is
    bit-identical to a brute-force pair enumeration.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 observations")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("inputs must be finite")

    nc = nd = n1 = n2 = 0
    for i in range(n - 1):
        da = np.sign(a[i + 1 :] - a[i])
        db = np.sign(b[i + 1 :] - b[i])
        prod = da * db
        nc += int(np.count_nonzero(prod > 0))
        nd += int(np.count_nonzero(prod < 0))
        n1 += int(np.count_nonzero(da == 0))
        n2 += int(np.count_nonzero(db == 0))

    n0 = n * (n - 1) // 2
    if n0 == n1 or n0 == n2:
        which = "first" if n0 == n1 else "second"
        raise UndefinedCorrelationError(
            f"all values tied in the {which} vector; tau_b undefined"
        )
    return (nc - nd) / math.sqrt((n0 - n1) * (n0 - n2))


def harmonic_mean(a: float, b: float) -> float:
    """2ab/(a+b) for nonnegative inputs, 0 when both are 0."""
    a = float(a)
    b = float(b)
    if a < 0 or b < 0:
        raise ValueError(f"harmonic_mean requires nonnegative inputs, got ({a}, {b})")
    if a + b == 0:
        return 0.0
    return 2.0 * a * b / (a + b)


def _nanmean(vec: np.ndarray) -> float:
    finite = vec[~np.isnan(vec)]
    return float(finite.mean()) if finite.size else float("nan")


def latent_scores(beta_draws: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Latent mean X[i] @ beta_draws[m] of every row under every draw, shape
    (n, M); its mean over draws is the model's ranking score."""
    return X @ beta_draws.T


def class_probabilities(
    beta_draws: np.ndarray, gamma_draws: np.ndarray, X: np.ndarray
) -> np.ndarray:
    """Class probabilities of every row of X under every draw, shape (n, C, M).

    Under draw m the latent mean of row i is X[i] @ beta_draws[m]; class c
    gets the normal mass between thresholds c-1 and c of gamma_draws[m],
    with -inf and +inf closing the ends, so each (i, :, m) sums to 1.
    """
    scores = latent_scores(beta_draws, X)
    n, m = scores.shape
    num_classes = gamma_draws.shape[1] + 1
    cdf = np.empty((n, num_classes + 1, m))
    cdf[:, 0, :] = 0.0
    cdf[:, -1, :] = 1.0
    for c in range(num_classes - 1):
        cdf[:, c + 1, :] = ndtr(gamma_draws[:, c][None, :] - scores)
    return np.diff(cdf, axis=1)


def classify_draws(
    beta_draws: np.ndarray, gamma_draws: np.ndarray, X: np.ndarray
) -> np.ndarray:
    """Most probable class of every row of X under every draw, as an (n, M)
    matrix of 1-based labels; ties go to the lower class."""
    return np.argmax(class_probabilities(beta_draws, gamma_draws, X), axis=1) + 1


def fit_standardizer(X_train: np.ndarray):
    """Column means and scales from training rows only; zero-spread columns
    keep scale 1 so they pass through unchanged."""
    mean = X_train.mean(axis=0)
    sd = X_train.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return mean, sd


@dataclass(frozen=True)
class EvaluationReport:
    """Split-protocol results in long format.

    long_rows: (split_id, model, scale_id, metric, draw_id, value) where
      metric is one of f1_macro/tau_b/harmonic/f1_class_<c> suffixed with
      _in (training side) or _out (held-out side).
    diff_rows: (split_id, scale_id, metric, mean_multi, mean_single, diff)
      for the headline metrics, means taken over draws ignoring undefined
      (NaN) values, diff = multi - single.
    """

    long_rows: list[tuple]
    diff_rows: list[tuple]
    num_splits: int
    scales: tuple[ScaleSpec, ...]
    draws_per_fit: int

    def expected_long_rows(self) -> int:
        per_split = sum(
            2 * 2 * (len(HEADLINE_METRICS) + s.num_classes) * self.draws_per_fit
            for s in self.scales
        )
        return self.num_splits * per_split

    def expected_diff_rows(self) -> int:
        return self.num_splits * len(self.scales) * 2 * len(HEADLINE_METRICS)


def _side_metric_rows(
    split_id: int,
    model: str,
    scale: ScaleSpec,
    side: str,
    drawset: DrawSet,
    X: np.ndarray,
    labels: np.ndarray,
):
    """Per-draw metric rows for one (model, scale, side) cell.

    An empty side yields NaN for every metric so report shapes stay exact.
    Returns the rows plus the per-draw headline vectors for aggregation.
    """
    m = len(drawset)
    names = list(HEADLINE_METRICS) + [
        f"f1_class_{c}" for c in range(1, scale.num_classes + 1)
    ]
    if labels.size == 0:
        values = {name: np.full(m, np.nan) for name in names}
    else:
        gamma_draws = drawset.gamma_draws_for(scale.scale_id)
        pred = classify_draws(drawset.beta_draws, gamma_draws, X)
        scores = latent_scores(drawset.beta_draws, X)
        f1_macro = np.empty(m)
        f1_class = np.empty((m, scale.num_classes))
        tau = np.empty(m)
        harm = np.empty(m)
        all_tied = labels.min() == labels.max()
        for d in range(m):
            res = f1_scores(pred[:, d], labels, scale.num_classes)
            f1_macro[d] = res.macro
            f1_class[d] = res.per_class
            if all_tied or labels.size < 2:
                tau[d] = np.nan
                harm[d] = np.nan
            else:
                tau[d] = kendall_tau_b(scores[:, d], labels)
                harm[d] = harmonic_mean(f1_macro[d], max(tau[d], 0.0))
        values = {"f1_macro": f1_macro, "tau_b": tau, "harmonic": harm}
        for c in range(scale.num_classes):
            values[f"f1_class_{c + 1}"] = f1_class[:, c]

    rows = []
    for name in names:
        vec = values[name]
        rows.extend(
            (split_id, model, scale.scale_id, f"{name}_{side}", d, float(vec[d]))
            for d in range(m)
        )
    headline = {name: values[name] for name in HEADLINE_METRICS}
    return rows, headline


def _stratified_split(
    dataset: Dataset, split_fraction: float, rng: np.random.Generator
):
    """Random train/test split whose training side covers every
    (scale, class) cell, retried up to 100 times."""
    n = dataset.num_obs
    train_size = int(round(split_fraction * n))
    train_size = min(max(train_size, 1), n - 1)

    # A cell empty in the full data can never be covered; name it up front.
    for s in dataset.scales:
        rows = dataset.rows_for_scale(s.scale_id)
        present = set(dataset.labels[rows].tolist())
        missing = [c for c in range(1, s.num_classes + 1) if c not in present]
        if missing:
            raise StratificationError(
                f"scale {s.scale_id} class(es) {missing} absent from the "
                "dataset; no training split can cover them"
            )

    for _ in range(100):
        perm = rng.permutation(n)
        train = np.sort(perm[:train_size])
        ok = True
        for s in dataset.scales:
            mask = dataset.scale_ids[train] == s.scale_id
            covered = set(dataset.labels[train[mask]].tolist())
            if len(covered) < s.num_classes:
                starved = sorted(
                    set(range(1, s.num_classes + 1)) - covered
                )
                last_starved = (s.scale_id, starved)
                ok = False
                break
        if ok:
            return train, np.sort(perm[train_size:])
    raise StratificationError(
        f"no training split covered scale {last_starved[0]} class(es) "
        f"{last_starved[1]} in 100 attempts"
    )


def evaluate_splits(
    dataset: Dataset,
    split_fraction: float,
    num_splits: int,
    chain_config: ChainConfig,
    rng: np.random.Generator,
    num_chains: int = 1,
    standardize: bool = False,
) -> EvaluationReport:
    """Repeated random-split comparison of multi-scale vs single-scale fits.

    For each split: fit one multi-scale model on the training rows and one
    single-scale model per scale on that scale's training rows, then score
    both in-sample and out-of-sample per draw. With standardize=True the
    feature transform is computed from training rows only and applied to
    both sides.
    """
    if not 0.0 < float(split_fraction) < 1.0:
        raise ConfigError(f"split_fraction must be in (0,1), got {split_fraction}")
    if int(num_splits) < 1:
        raise ConfigError(f"num_splits must be >= 1, got {num_splits}")

    long_rows: list[tuple] = []
    diff_rows: list[tuple] = []
    draws_per_fit = int(chain_config.stored_draws) * int(num_chains)

    for split_id in range(1, int(num_splits) + 1):
        train_rows, test_rows = _stratified_split(dataset, split_fraction, rng)
        train = dataset.subset(train_rows)
        test = dataset.subset(test_rows)
        if standardize:
            mean, sd = fit_standardizer(train.features)
            train = replace(train, features=(train.features - mean) / sd)
            test = replace(test, features=(test.features - mean) / sd)

        fits: dict[str, DrawSet] = {}
        fits["multi"] = run_chains(
            train,
            replace(chain_config, seed=int(rng.integers(2**63))),
            num_chains,
        )
        for s in dataset.scales:
            fits[f"single-{s.scale_id}"] = run_chains(
                train.restrict_to_scale(s.scale_id),
                replace(chain_config, seed=int(rng.integers(2**63))),
                num_chains,
            )

        for s in dataset.scales:
            headline: dict[tuple[str, str], dict[str, np.ndarray]] = {}
            for model_name, model_key in (("multi", "multi"), ("single", f"single-{s.scale_id}")):
                drawset = fits[model_key]
                for side, part in (("in", train), ("out", test)):
                    rows_s = part.rows_for_scale(s.scale_id)
                    cell_rows, cell_headline = _side_metric_rows(
                        split_id,
                        model_name,
                        s,
                        side,
                        drawset,
                        part.features[rows_s],
                        part.labels[rows_s],
                    )
                    long_rows.extend(cell_rows)
                    headline[(model_name, side)] = cell_headline
            for side in ("in", "out"):
                for name in HEADLINE_METRICS:
                    mean_multi = _nanmean(headline[("multi", side)][name])
                    mean_single = _nanmean(headline[("single", side)][name])
                    diff_rows.append(
                        (
                            split_id,
                            s.scale_id,
                            f"{name}_{side}",
                            mean_multi,
                            mean_single,
                            mean_multi - mean_single,
                        )
                    )

    return EvaluationReport(
        long_rows=long_rows,
        diff_rows=diff_rows,
        num_splits=int(num_splits),
        scales=dataset.scales,
        draws_per_fit=draws_per_fit,
    )
