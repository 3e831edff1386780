"""Metrics against brute-force oracles, exact to the last bit where the
acceptance contract demands it."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from msprobit.errors import StratificationError, UndefinedCorrelationError
from msprobit.metrics import (
    ConfusionMatrix,
    class_probabilities,
    classify_draws,
    evaluate_splits,
    f1_scores,
    fit_standardizer,
    harmonic_mean,
    kendall_tau_b,
    latent_scores,
    _stratified_split,
)
from msprobit.model import ChainConfig, Dataset, ScaleSpec
from msprobit.sampler import DrawSet
from tests.conftest import make_two_scale_dataset


def oracle_f1(pred, actual, num_classes):
    """Hand-counted confusion-matrix F1 with the same zero conventions."""
    per_class = []
    for c in range(1, num_classes + 1):
        tp = sum(1 for p, a in zip(pred, actual) if p == c and a == c)
        fp = sum(1 for p, a in zip(pred, actual) if p == c and a != c)
        fn = sum(1 for p, a in zip(pred, actual) if p != c and a == c)
        if tp + fp == 0 or tp + fn == 0:
            per_class.append(0.0)
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        if precision + recall == 0:
            per_class.append(0.0)
        else:
            per_class.append(2.0 * precision * recall / (precision + recall))
    return per_class, np.mean(np.array(per_class))


def oracle_tau_b(a, b):
    """All-pairs double loop; final arithmetic mirrors the production
    formula so agreement is bitwise."""
    n = len(a)
    nc = nd = n1 = n2 = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            da = (a[i] > a[j]) - (a[i] < a[j])
            db = (b[i] > b[j]) - (b[i] < b[j])
            if da == 0:
                n1 += 1
            if db == 0:
                n2 += 1
            if da * db > 0:
                nc += 1
            elif da * db < 0:
                nd += 1
    n0 = n * (n - 1) // 2
    if n0 == n1 or n0 == n2:
        return None
    return (nc - nd) / math.sqrt((n0 - n1) * (n0 - n2))


def test_f1_matches_oracle_exactly():
    g = np.random.default_rng(101)
    for _ in range(300):
        c = int(g.integers(2, 6))
        n = int(g.integers(1, 60))
        pred = g.integers(1, c + 1, size=n)
        actual = g.integers(1, c + 1, size=n)
        res = f1_scores(pred, actual, c)
        want_per_class, want_macro = oracle_f1(pred.tolist(), actual.tolist(), c)
        assert res.per_class.tolist() == want_per_class
        assert res.macro == want_macro


def test_f1_degenerate_flags():
    res = f1_scores([1, 1, 1], [1, 1, 2], 3)
    assert res.degenerate.tolist() == [False, True, True]
    assert res.per_class[1] == 0.0 and res.per_class[2] == 0.0
    assert res.confusion.total == 3


def test_f1_perfect_prediction():
    res = f1_scores([1, 2, 3], [1, 2, 3], 3)
    assert res.macro == 1.0
    assert not res.degenerate.any()


def test_confusion_matrix_layout():
    cm = ConfusionMatrix.from_labels([2, 2, 1], [1, 2, 1], 2)
    # rows actual, cols predicted
    np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        ConfusionMatrix.from_labels([3], [1], 2)
    with pytest.raises(ValueError):
        ConfusionMatrix.from_labels([], [], 2)


def test_kendall_matches_oracle_exactly():
    g = np.random.default_rng(55)
    for _ in range(80):
        n = int(g.integers(2, 60))
        a = g.integers(0, 6, size=n).astype(float)
        b = g.integers(0, 6, size=n).astype(float)
        want = oracle_tau_b(a.tolist(), b.tolist())
        if want is None:
            with pytest.raises(UndefinedCorrelationError):
                kendall_tau_b(a, b)
            continue
        assert kendall_tau_b(a, b) == want


def test_kendall_hand_cases():
    assert kendall_tau_b([1, 2, 3], [1, 2, 3]) == 1.0
    assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == -1.0
    with pytest.raises(ValueError):
        kendall_tau_b([1.0], [2.0])
    with pytest.raises(ValueError):
        kendall_tau_b([1.0, np.nan], [1.0, 2.0])
    with pytest.raises(UndefinedCorrelationError):
        kendall_tau_b([1, 1, 1], [1, 2, 3])


def test_harmonic_mean_hand_cases():
    assert harmonic_mean(0.5, 0.5) == 0.5
    assert harmonic_mean(1.0, 0.0) == 0.0
    assert harmonic_mean(0.0, 0.0) == 0.0
    assert harmonic_mean(0.2, 0.8) == pytest.approx(0.32, rel=1e-15)
    with pytest.raises(ValueError):
        harmonic_mean(-0.1, 0.5)


def test_predict_class_probs_reference():
    probs = class_probabilities(
        np.array([[0.7]]), np.array([[-1.0, 1.0]]), np.array([[0.0]])
    )
    assert probs.shape == (1, 3, 1)
    np.testing.assert_allclose(
        probs[0, :, 0],
        [0.15865525393145705, 0.68268949213708590, 0.15865525393145705],
        rtol=1e-12,
    )
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_predict_class_probs_shifts_with_eta():
    probs = class_probabilities(
        np.array([[1.0]]), np.array([[0.0]]), np.array([[-2.0], [2.0]])
    )
    low, high = probs[0, :, 0], probs[1, :, 0]
    assert low[0] > 0.9 and high[1] > 0.9


def _drawset_from(betas, gammas_list, scales):
    m = len(betas)
    return DrawSet(
        beta_draws=np.asarray(betas, dtype=float),
        gamma_draws=tuple(np.asarray(g, dtype=float) for g in gammas_list),
        scales=scales,
        chain_ids=np.zeros(m, dtype=int),
        iteration_ids=np.arange(m),
        accept_counts={s.scale_id: 0 for s in scales},
        proposal_counts={s.scale_id: 0 for s in scales},
    )


def test_predict_class_probs_ambiguous_scale_needs_index():
    # two scales with the same class count: the scale is picked by its id,
    # never guessed from the threshold count
    scales = (ScaleSpec(1, 2), ScaleSpec(2, 2))
    draws = _drawset_from([[0.0]], [[[0.0]], [[1.0]]], scales)
    X = np.array([[0.0]])
    first = class_probabilities(draws.beta_draws, draws.gamma_draws_for(1), X)
    second = class_probabilities(draws.beta_draws, draws.gamma_draws_for(2), X)
    assert first[0, 0, 0] == pytest.approx(0.5, rel=1e-12)
    assert second[0, 0, 0] == pytest.approx(0.84134474606854295, rel=1e-12)


def test_classify_tie_goes_to_lower_class():
    pred = classify_draws(np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]))
    assert pred.tolist() == [[1]]


def test_classify_monotone_in_latent_score():
    g = np.random.default_rng(9)
    for _ in range(30):
        k = int(g.integers(1, 5))
        gamma = np.sort(g.normal(scale=1.5, size=k))
        if k > 1 and np.any(np.diff(gamma) <= 0):
            continue
        etas = np.linspace(-6, 6, 61)
        labels = classify_draws(
            np.array([[1.0]]), gamma[None, :], etas[:, None]
        )[:, 0]
        assert np.all(np.diff(labels) >= 0)


def test_classify_draws_matches_pointwise():
    g = np.random.default_rng(77)
    m = 20
    gammas = np.sort(g.normal(size=(m, 3)), axis=1)
    betas = g.normal(size=(m, 2))
    X = g.normal(size=(15, 2))
    mat = classify_draws(betas, gammas, X)
    probs = class_probabilities(betas, gammas, X)
    for i in range(15):
        for d in range(m):
            edges = np.concatenate(([-np.inf], gammas[d], [np.inf]))
            want = np.diff(norm.cdf(edges - X[i] @ betas[d]))
            np.testing.assert_allclose(probs[i, :, d], want, rtol=1e-12, atol=1e-15)
            assert mat[i, d] == np.argmax(want) + 1


def test_rank_score_is_posterior_mean_score():
    betas = np.array([[1.0, 0.0], [3.0, 0.0]])
    x = np.array([[2.0, 5.0]])
    scores = latent_scores(betas, x)
    np.testing.assert_allclose(scores, [[2.0, 6.0]])
    assert scores.mean(axis=1)[0] == pytest.approx(4.0, rel=1e-15)


def test_fit_standardizer_zero_spread_column():
    X = np.array([[1.0, 5.0], [3.0, 5.0]])
    mean, sd = fit_standardizer(X)
    np.testing.assert_allclose(mean, [2.0, 5.0])
    np.testing.assert_allclose(sd, [1.0, 1.0])


def _eval_config():
    return ChainConfig(burn_in=30, thinning=1, stored_draws=15, seed=0)


def test_evaluate_splits_shapes_and_names():
    ds, _ = make_two_scale_dataset(seed=31, n_per=42)
    report = evaluate_splits(
        ds, 2 / 3, 2, _eval_config(), np.random.default_rng(12)
    )
    assert len(report.long_rows) == report.expected_long_rows()
    assert len(report.diff_rows) == report.expected_diff_rows()
    # scale 1 binary, scale 2 3-class: per split 2*2*(3+2)*15 + 2*2*(3+3)*15
    assert report.expected_long_rows() == 2 * (2 * 2 * 5 * 15 + 2 * 2 * 6 * 15)
    metrics = {row[3] for row in report.long_rows}
    assert "f1_macro_in" in metrics and "tau_b_out" in metrics
    assert "harmonic_in" in metrics and "f1_class_3_out" in metrics
    models = {row[1] for row in report.long_rows}
    assert models == {"multi", "single"}
    for row in report.diff_rows:
        _, _, _, mean_multi, mean_single, diff = row
        if not (math.isnan(mean_multi) or math.isnan(mean_single)):
            assert diff == pytest.approx(mean_multi - mean_single, abs=1e-12)


def test_evaluate_splits_deterministic():
    ds, _ = make_two_scale_dataset(seed=31, n_per=42)
    a = evaluate_splits(ds, 2 / 3, 2, _eval_config(), np.random.default_rng(4))
    b = evaluate_splits(ds, 2 / 3, 2, _eval_config(), np.random.default_rng(4))
    assert a.long_rows == b.long_rows


def test_evaluate_splits_missing_class_names_culprit():
    ds = Dataset(
        features=np.random.default_rng(1).normal(size=(30, 2)),
        labels=np.array([1, 2] * 15),  # class 3 never observed
        scale_ids=np.ones(30, dtype=int),
        scales=(ScaleSpec(1, 3),),
    )
    with pytest.raises(StratificationError, match=r"class\(es\) \[3\]"):
        evaluate_splits(ds, 0.5, 1, _eval_config(), np.random.default_rng(0))


def test_evaluate_splits_empty_test_side_yields_nan_rows():
    # scale 2 has one row per class; stratification forces them all into
    # training, so the held-out side of scale 2 is always empty
    base, _ = make_two_scale_dataset(seed=31, n_per=42)
    keep = np.concatenate(
        [
            base.rows_for_scale(1),
            [base.rows_for_scale(2)[np.flatnonzero(base.labels[base.rows_for_scale(2)] == c)[0]] for c in (1, 2, 3)],
        ]
    )
    ds = base.subset(keep)
    report = evaluate_splits(ds, 0.9, 1, _eval_config(), np.random.default_rng(2))
    assert len(report.long_rows) == report.expected_long_rows()
    out_rows_s2 = [
        row for row in report.long_rows if row[2] == 2 and row[3].endswith("_out")
    ]
    assert out_rows_s2 and all(math.isnan(row[5]) for row in out_rows_s2)


def test_evaluate_standardization_never_leaks_test_rows():
    ds, _ = make_two_scale_dataset(seed=31, n_per=42)
    # replay the split draw to learn which rows land in the held-out side
    probe = np.random.default_rng(6)
    train_rows, test_rows = _stratified_split(ds, 2 / 3, probe)

    tampered = ds.features.copy()
    tampered[test_rows[0]] += 500.0  # held-out outlier must not move the transform
    ds2 = Dataset(
        features=tampered, labels=ds.labels, scale_ids=ds.scale_ids, scales=ds.scales
    )

    a = evaluate_splits(
        ds, 2 / 3, 1, _eval_config(), np.random.default_rng(6), standardize=True
    )
    b = evaluate_splits(
        ds2, 2 / 3, 1, _eval_config(), np.random.default_rng(6), standardize=True
    )
    a_in = [r for r in a.long_rows if r[3].endswith("_in")]
    b_in = [r for r in b.long_rows if r[3].endswith("_in")]
    assert a_in == b_in
    assert a.long_rows != b.long_rows
