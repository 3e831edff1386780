"""Classification and ranking metrics, posterior prediction, and the
train/test split evaluation protocol.

Metrics are computed per posterior draw, so every reported quantity is a
distribution over draws rather than a single number; each metric is
computed for all draws at once, from an (n, M) matrix of per-draw
predictions or scores. The per-draw class probabilities, (n, C, M), are
only ever built in row blocks of at most BLOCK_VALUES values, which
posterior_class_probabilities and classify_draws reduce as they go.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, StratificationError
from .model import ChainConfig, Dataset, ScaleSpec, missing_classes
from .sampler import DrawSet, initial_state, run_in_chunks

HEADLINE_METRICS = ("f1_macro", "tau_b", "harmonic")


def confusion_counts(pred, actual, num_classes: int) -> np.ndarray:
    """Confusion counts of every column of pred (n, M) against one actual
    vector (n,), shape (M, C, C): draw, actual class, predicted class.

    All M matrices come from one bincount over (draw, actual, predicted).
    """
    pred = np.asarray(pred, dtype=int)
    actual = np.asarray(actual, dtype=int)
    if pred.ndim != 2 or actual.ndim != 1 or pred.shape[0] != actual.size:
        raise ValueError("pred and actual must be equal-length vectors")
    if actual.size == 0:
        raise ValueError("empty label vectors")
    for name, v in (("pred", pred), ("actual", actual)):
        if np.any((v < 1) | (v > num_classes)):
            raise ValueError(f"{name} labels outside 1..{num_classes}")
    m = pred.shape[1]
    draw = np.arange(m)
    cells = (draw * num_classes + actual[:, None] - 1) * num_classes + pred - 1
    flat = np.bincount(cells.ravel(), minlength=m * num_classes**2)
    return flat.reshape(m, num_classes, num_classes)


def f1_from_counts(counts: np.ndarray):
    """Per-class F1 (M, C), macro F1 (M,) and the degenerate flags (M, C) of
    a stack of confusion matrices (M, C, C).

    A class with no predicted instances (precision undefined) or no actual
    instances (recall undefined) gets F1 = 0 and is flagged; the macro
    average is the unweighted mean over all classes.
    """
    tp = np.diagonal(counts, axis1=1, axis2=2).astype(float)
    pred_totals = counts.sum(axis=1).astype(float)
    actual_totals = counts.sum(axis=2).astype(float)
    degenerate = (pred_totals == 0) | (actual_totals == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_totals > 0, tp / pred_totals, 0.0)
        recall = np.where(actual_totals > 0, tp / actual_totals, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2.0 * precision * recall / denom, 0.0)
    f1 = np.where(degenerate, 0.0, f1)
    return f1, f1.mean(axis=1), degenerate


def kendall_tau_b_columns(scores, labels) -> np.ndarray:
    """Tau-b of every column of scores (n, M) against one label vector (n,),
    shape (M,), NaN where it is undefined: fewer than 2 rows, all labels
    tied, or all scores of the column tied. Over the n0 row pairs, n1 of
    them tied in score and n2 in label, tau-b is (concordant - discordant)
    / sqrt((n0 - n1)(n0 - n2)).

    Pair counts are exact int64 sums, so each value is bit-identical to a
    brute-force pair enumeration, in O(n log n + C n) per column for C
    distinct labels: one stable sort per column finds the runs of tied
    scores, and one cumulative count per label value gives, at every row,
    the rows of that label scored strictly below and strictly above it.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).reshape(-1)
    if scores.ndim != 2 or scores.shape[0] != labels.size:
        raise ValueError(
            f"length mismatch: scores {scores.shape} vs labels {labels.shape}"
        )
    if not (np.all(np.isfinite(scores)) and np.all(np.isfinite(labels))):
        raise ValueError("inputs must be finite")
    n, m = scores.shape
    tau = np.full(m, np.nan)
    values, codes = np.unique(labels, return_inverse=True)
    sizes = np.bincount(codes)
    n0 = n * (n - 1) // 2
    n2 = int((sizes * (sizes - 1) // 2).sum())
    if n0 == n2:
        return tau

    order = np.argsort(scores, axis=0, kind="stable")
    ranked = np.take_along_axis(scores, order, axis=0)
    ranked_codes = codes[order]
    pos = np.arange(n)[:, None]
    first = np.ones((n, m), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    last = np.ones((n, m), dtype=bool)
    last[:-1] = first[1:]
    run_start = np.maximum.accumulate(np.where(first, pos, 0), axis=0)
    run_end = np.minimum.accumulate(np.where(last, pos, n - 1)[::-1], axis=0)[::-1]
    n1 = (pos - run_start).sum(axis=0, dtype=np.int64)

    # below[k] counts the rows of label value c among the k lowest-ranked.
    # Read at a row's run start it counts those scored strictly lower, read
    # one past its run end those scored no higher. Against a row with a
    # larger label the former pairs are concordant, the rest discordant.
    net = np.zeros(m, dtype=np.int64)
    below = np.zeros((n + 1, m), dtype=np.int64)
    for c in range(values.size - 1):
        np.cumsum(ranked_codes == c, axis=0, out=below[1:])
        lower = np.take_along_axis(below, run_start, axis=0)
        higher = sizes[c] - np.take_along_axis(below, run_end + 1, axis=0)
        net += np.where(ranked_codes > c, lower - higher, 0).sum(axis=0)

    defined = n1 < n0
    # Python ints, so the product is exact at any n, as in the pair loop.
    pairs = (n0 - n1[defined]).astype(object) * (n0 - n2)
    tau[defined] = net[defined] / np.sqrt(pairs.astype(float))
    return tau


def harmonic_mean(a, b):
    """2ab/(a+b) elementwise for nonnegative inputs, 0 where both are 0 and
    NaN where either is NaN; a float for scalar inputs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError(f"harmonic_mean requires nonnegative inputs, got ({a}, {b})")
    total = a + b
    with np.errstate(invalid="ignore"):
        h = np.where(total == 0, 0.0, 2.0 * a * b / total)
    return float(h) if h.ndim == 0 else h


def _nanmean(vec: np.ndarray) -> float:
    finite = vec[~np.isnan(vec)]
    return float(finite.mean()) if finite.size else float("nan")


# the most float64 values one row block of class probabilities holds: an
# (n, C, M) tensor is built block by block, so memory stays at the (n, M)
# scores plus one block whatever the row and class counts
BLOCK_VALUES = 2**17


def class_probabilities(scores: np.ndarray, gamma_draws: np.ndarray) -> np.ndarray:
    """Class probabilities of every row under every draw, shape (n, C, M),
    from the (n, M) latent means X @ beta_draws.T and the (M, C - 1)
    threshold draws.

    Under draw m class c gets the normal mass around scores[i, m] between
    thresholds c-1 and c of gamma_draws[m], with -inf and +inf closing the
    ends, so each (i, :, m) sums to 1. The callers below step it in row
    blocks; every value is elementwise in its row, so a row's values do not
    depend on the block it is computed in.
    """
    n, m = scores.shape
    num_classes = gamma_draws.shape[1] + 1
    probs = np.empty((n, num_classes, m))
    below = 0.0  # the normal mass below the lower threshold of class c
    for c in range(num_classes - 1):
        upto = ndtr(gamma_draws[:, c] - scores)
        probs[:, c, :] = upto - below
        below = upto
    probs[:, -1, :] = 1.0 - below
    return probs


def _row_blocks(scores: np.ndarray, gamma_draws: np.ndarray):
    """(rows, class_probabilities of those rows) for consecutive row slices
    whose (rows, C, M) block holds at most BLOCK_VALUES values, and at
    least one row."""
    n, m = scores.shape
    step = max(1, BLOCK_VALUES // ((gamma_draws.shape[1] + 1) * m))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        yield rows, class_probabilities(scores[rows], gamma_draws)


def posterior_class_probabilities(scores: np.ndarray, gamma_draws: np.ndarray) -> np.ndarray:
    """Class probabilities of every row averaged over the draws, shape
    (n, C), from the (n, M) latent means and the (M, C - 1) threshold
    draws. Each (row, class) mean reduces its own contiguous run of M
    values, so the result is bit-identical to
    class_probabilities(scores, gamma_draws).mean(axis=2)."""
    probs = np.empty((scores.shape[0], gamma_draws.shape[1] + 1))
    for rows, block in _row_blocks(scores, gamma_draws):
        probs[rows] = block.mean(axis=2)
    return probs


def classify_draws(scores: np.ndarray, gamma_draws: np.ndarray) -> np.ndarray:
    """Most probable class of every row under every draw, from the (n, M)
    latent means, as an (n, M) matrix of 1-based labels; ties go to the
    lower class. Computed in row blocks of class_probabilities."""
    pred = np.empty(scores.shape, dtype=np.intp)
    for rows, block in _row_blocks(scores, gamma_draws):
        pred[rows] = np.argmax(block, axis=1) + 1
    return pred


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

    Every metric is computed for all draws at once. An empty side yields NaN
    for every metric so report shapes stay exact; tau_b and harmonic are NaN
    in a draw where tau_b is undefined. Returns the rows plus the per-draw
    headline vectors for aggregation.
    """
    m = len(drawset)
    names = list(HEADLINE_METRICS) + [
        f"f1_class_{c}" for c in range(1, scale.num_classes + 1)
    ]
    if labels.size == 0:
        values = {name: np.full(m, np.nan) for name in names}
    else:
        scores = X @ drawset.beta_draws.T
        pred = classify_draws(scores, drawset.gamma_draws_for(scale.scale_id))
        f1_class, f1_macro, _ = f1_from_counts(
            confusion_counts(pred, labels, scale.num_classes)
        )
        tau = kendall_tau_b_columns(scores, labels)
        harm = harmonic_mean(f1_macro, np.where(tau < 0, 0.0, tau))
        values = {"f1_macro": f1_macro, "tau_b": tau, "harmonic": harm}
        for c in range(scale.num_classes):
            values[f"f1_class_{c + 1}"] = f1_class[:, c]

    rows = []
    for name in names:
        rows.extend(
            zip(
                repeat(split_id),
                repeat(model),
                repeat(scale.scale_id),
                repeat(f"{name}_{side}"),
                range(m),
                values[name].tolist(),
            )
        )
    headline = {name: values[name] for name in HEADLINE_METRICS}
    return rows, headline


def _stratified_split(
    dataset: Dataset, split_fraction: float, rng: np.random.Generator
):
    """Random train/test split whose training side covers every
    (scale, class) cell, retried up to 100 times. Every cell must hold a
    row of the full dataset; evaluate_splits checks that first."""
    n = dataset.num_obs
    train_size = int(round(split_fraction * n))
    train_size = min(max(train_size, 1), n - 1)
    for _ in range(100):
        perm = rng.permutation(n)
        train = np.sort(perm[:train_size])
        for s in dataset.scales:
            labels = dataset.labels[train[dataset.scale_ids[train] == s.scale_id]]
            starved = missing_classes(labels, s.num_classes)
            if starved:
                break
        else:
            return train, np.sort(perm[train_size:])
    raise StratificationError(
        f"no training split covered scale {s.scale_id} class(es) "
        f"{starved} in 100 attempts"
    )


def evaluate_splits(
    dataset: Dataset,
    split_fraction: float,
    num_splits: int,
    chain_config: ChainConfig,
    rng: np.random.Generator,
    standardize: bool = False,
) -> EvaluationReport:
    """Repeated random-split comparison of multi-scale vs single-scale fits.

    For each split: fit one multi-scale model on the training rows and one
    single-scale model per scale on that scale's training rows, then score
    both in-sample and out-of-sample per draw. With standardize=True the
    feature transform is computed from training rows only and applied to
    both sides.

    The dataset is checked first as a fit checks it, so a class no row
    takes is the fit's error. Every split's partition and fit seeds are
    then drawn from rng, split by split; the fits never touch rng. The
    splits' grids run in chunks (sampler.run_in_chunks), all the grids of a
    chunk in one lockstep batch, each fit drawing what its lone run draws;
    the first failed fit in split order is raised.
    """
    if not 0.0 < float(split_fraction) < 1.0:
        raise ConfigError(f"split_fraction must be in (0,1), got {split_fraction}")
    if int(num_splits) < 1:
        raise ConfigError(f"num_splits must be >= 1, got {num_splits}")
    initial_state(dataset, chain_config)

    splits = []
    for _ in range(int(num_splits)):
        train_rows, test_rows = _stratified_split(dataset, split_fraction, rng)
        seeds = [int(rng.integers(2**63)) for _ in range(1 + len(dataset.scales))]
        splits.append((train_rows, test_rows, seeds))

    def split_fits():
        for split_id, (train_rows, test_rows, seeds) in enumerate(splits, start=1):
            train = dataset.subset(train_rows)
            test = dataset.subset(test_rows)
            if standardize:
                mean, sd = fit_standardizer(train.features)
                train = replace(train, features=(train.features - mean) / sd)
                test = replace(test, features=(test.features - mean) / sd)
            yield (split_id, train, test), [
                (data, replace(chain_config, seed=seed))
                for (_, data), seed in zip(train.model_grid(), seeds)
            ]

    long_rows: list[tuple] = []
    diff_rows: list[tuple] = []

    for (split_id, train, test), results in run_in_chunks(split_fits()):
        for result in results:
            if isinstance(result, Exception):
                raise result
        multi, *singles = results

        for s, single in zip(dataset.scales, singles):
            headline: dict[tuple[str, str], dict[str, np.ndarray]] = {}
            for model_name, drawset in (("multi", multi), ("single", single)):
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
    )
