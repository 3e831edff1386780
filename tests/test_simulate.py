import math

import numpy as np
import pytest

import msprobit.simulate as sim_mod
from msprobit import sampler
from msprobit.errors import ConfigError, SamplerPanicError, SimulationError
from msprobit.model import ChainConfig
from msprobit.simulate import (
    Design,
    ExperimentConfig,
    labels_from_latent,
    per_draw_rmse,
    rmse,
    run_experiment,
    simulate_dataset,
)
from tests.conftest import count_kernel_builds


def test_simulated_shapes_and_invariants(rng):
    sim = simulate_dataset(Design(3, 50, 4, (1, 3, 3), 2), rng)
    assert sim.beta_true.shape == (4,)
    assert len(sim.gammas_true) == 3
    assert [g.size for g in sim.gammas_true] == [1, 3, 3]
    for g in sim.gammas_true:
        if g.size > 1:
            assert np.all(np.diff(g) > 0)
    pooled = sim.dataset
    assert pooled.num_obs == 150
    assert pooled.num_features == 4
    assert sim.y_star_true.shape == (150,)
    # rows come scale by scale
    np.testing.assert_array_equal(pooled.scale_ids, np.repeat([1, 2, 3], 50))
    assert [s.num_classes for s in pooled.scales] == [2, 4, 4]
    for k, s in enumerate(pooled.scales):
        rows = pooled.rows_for_scale(s.scale_id)
        assert rows.size == 50
        labels = pooled.labels[rows]
        # every class has at least min_per_class instances
        counts = np.bincount(labels, minlength=s.num_classes + 1)[1:]
        assert np.all(counts >= 2)
        # labels agree with interval lookup of the stored latents
        np.testing.assert_array_equal(
            labels, labels_from_latent(sim.y_star_true[rows], sim.gammas_true[k])
        )


def test_labels_from_latent_boundaries():
    gamma = np.array([-1.0, 1.0])
    y = np.array([-5.0, -1.0, -0.999, 1.0, 1.001, 8.0])
    np.testing.assert_array_equal(labels_from_latent(y, gamma), [1, 1, 2, 2, 3, 3])


def test_binary_threshold_symmetry(rng):
    y = rng.normal(size=20_000)
    labels = labels_from_latent(y, np.array([0.0]))
    frac2 = np.mean(labels == 2)
    assert frac2 == pytest.approx(0.5, abs=0.02)


def test_simulate_deterministic():
    a = simulate_dataset(Design(2, 30, 3, (1, 2), 1), np.random.default_rng(8))
    b = simulate_dataset(Design(2, 30, 3, (1, 2), 1), np.random.default_rng(8))
    np.testing.assert_array_equal(a.beta_true, b.beta_true)
    np.testing.assert_array_equal(a.dataset.features, b.dataset.features)
    np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)


def test_simulate_validates_parameters():
    with pytest.raises(ConfigError):
        Design(0, 10, 2, (), 1)
    with pytest.raises(ConfigError):
        Design(1, 10, 0, (1,), 1)
    with pytest.raises(ConfigError):
        Design(2, 10, 2, (1,), 1)  # thresholds per scale
    with pytest.raises(ConfigError):
        # n too small to ever hold k of each class
        Design(1, 5, 2, (2,), 2)


@pytest.mark.parametrize(
    "value",
    [np.int64(2), 1.5, 2.0, None, "12", True, [1.5, 2]],
    ids=["int64", "1.5", "2.0", "None", "str", "True", "list-with-float"],
)
def test_design_takes_integer_threshold_counts_only(value):
    if value == 2:  # np.int64(2) and 2.0 are counts
        assert Design(2, 30, 3, value).num_thresholds == (2, 2)
        return
    with pytest.raises(ConfigError, match="^num_thresholds [^\n]*$"):
        Design(2, 30, 3, value)


def test_simulate_redraw_cap(monkeypatch, rng):
    monkeypatch.setattr(sim_mod, "_MAX_REDRAWS", 2)
    with pytest.raises(SimulationError, match="increase n or reduce"):
        # demanding balance on a tiny sample exhausts 2 redraws immediately
        simulate_dataset(Design(1, 6, 2, (2,), 2), np.random.default_rng(123))


def test_rmse_reference_values():
    assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
        math.sqrt(12.5), rel=1e-15
    )
    with pytest.raises(ValueError):
        rmse(np.zeros(2), np.zeros(3))


def test_per_draw_rmse_matrix():
    draws = np.array([[0.0, 0.0], [3.0, 4.0]])
    truth = np.array([3.0, 4.0])
    np.testing.assert_allclose(
        per_draw_rmse(draws, truth), [math.sqrt(12.5), 0.0], rtol=1e-15
    )


def _tiny_experiment(replications=1, seed=0):
    return ExperimentConfig(
        Design(2, 60, 3, (1, 2), 2),
        replications,
        chain_config=ChainConfig(burn_in=60, thinning=1, stored_draws=40, seed=0),
        seed=seed,
    )


def test_experiment_smoke_shapes():
    report = run_experiment(_tiny_experiment())
    assert report.completed_replications == 1
    models = {row[1] for row in report.summary_rows}
    assert models == {"multi", "single-1", "single-2"}
    # grid: models x scales x (beta_rmse, gamma_rmse)
    assert len(report.summary_rows) == 3 * 2 * 2
    assert len(report.ratio_rows) == 2 * 2
    # draw rows only exist where the model owns the scale
    per_rep = (2 * 2 + 1 * 2 + 1 * 2) * 40
    assert len(report.draw_rows) == per_rep
    # single-scale models carry no thresholds for the other scale
    nan_rows = [
        row
        for row in report.summary_rows
        if row[1] == "single-1" and row[2] == 2 and row[3] == "gamma_rmse"
    ]
    assert len(nan_rows) == 1 and math.isnan(nan_rows[0][4])


def test_experiment_summary_equals_draw_mean():
    report = run_experiment(_tiny_experiment())
    by_key = {}
    for row in report.draw_rows:
        by_key.setdefault(row[:4], []).append(row[5])
    checked = 0
    for rep, model, sid, metric, value in report.summary_rows:
        key = (rep, model, sid, metric)
        owns_scale = model == "multi" or model == f"single-{sid}"
        if metric == "gamma_rmse" and not owns_scale:
            assert math.isnan(value) and key not in by_key
            continue
        if not owns_scale:
            # beta is shared, so its rmse repeats across scales but per-draw
            # rows live only under the model's own scale
            assert key not in by_key
            continue
        assert value == pytest.approx(float(np.mean(by_key[key])), abs=1e-12)
        checked += 1
    assert checked == 2 * 2 + 2 + 2  # multi on both scales + each single on its own


def test_experiment_ratio_rows_consistent():
    report = run_experiment(_tiny_experiment())
    summary = {(m, s, met): v for _, m, s, met, v in report.summary_rows}
    for rep, sid, metric, single, multi, ratio in report.ratio_rows:
        assert single == summary[(f"single-{sid}", sid, metric)]
        assert multi == summary[("multi", sid, metric)]
        assert ratio == pytest.approx(multi / single, rel=1e-15)


def _rows_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for va, vb in zip(ra, rb):
            both_nan = (
                isinstance(va, float)
                and isinstance(vb, float)
                and math.isnan(va)
                and math.isnan(vb)
            )
            if not both_nan and va != vb:
                return False
    return True


def test_experiment_deterministic():
    a = run_experiment(_tiny_experiment(replications=2, seed=5))
    b = run_experiment(_tiny_experiment(replications=2, seed=5))
    assert _rows_equal(a.summary_rows, b.summary_rows)
    assert _rows_equal(a.ratio_rows, b.ratio_rows)
    assert _rows_equal(a.draw_rows, b.draw_rows)


def test_experiment_failure_census(monkeypatch):
    monkeypatch.setattr(sim_mod, "_MAX_REDRAWS", 1)
    config = ExperimentConfig(
        Design(1, 6, 2, (2,), 2),
        3,
        chain_config=ChainConfig(burn_in=5, thinning=1, stored_draws=5, seed=0),
        seed=1,
    )
    report = run_experiment(config)
    assert len(report.failures) > 0
    assert all(f.stage == "simulate" for f in report.failures)
    assert report.completed_replications == 3 - len(report.failures)
    failed = {f.replication for f in report.failures}
    present = {row[0] for row in report.summary_rows}
    assert failed.isdisjoint(present)


@pytest.mark.parametrize("failing", ["multi", "single-2"])
def test_experiment_failure_census_names_the_failed_fit(monkeypatch, failing):
    # the failure is injected into one fit's set-up inside the batch
    real_initial_state = sampler.initial_state

    def initial_state(dataset, config):
        scale_ids = [s.scale_id for s in dataset.scales]
        if failing == ("multi" if len(scale_ids) > 1 else f"single-{scale_ids[0]}"):
            raise SamplerPanicError("injected failure")
        return real_initial_state(dataset, config)

    monkeypatch.setattr(sampler, "initial_state", initial_state)
    report = run_experiment(_tiny_experiment(replications=2))
    assert [(f.replication, f.stage, f.message) for f in report.failures] == [
        (1, f"fit-{failing}", "injected failure"),
        (2, f"fit-{failing}", "injected failure"),
    ]
    assert report.completed_replications == 0
    assert report.summary_rows == report.ratio_rows == report.draw_rows == []


@pytest.mark.parametrize("budget, kernels", [(1, 4), (480, 2), (10**9, 1)])
def test_experiment_chunks_change_nothing_but_the_kernel_builds(
    monkeypatch, budget, kernels
):
    # 5 replications of 240 member-rows each: with a budget of 1 every chunk
    # holds one replication, with 480 two (the chunk that reaches the failed
    # simulation holds it as well), and with 10**9 all of them
    monkeypatch.setattr(sim_mod, "_MAX_REDRAWS", 2)  # replication 4 fails to simulate
    real_initial_state = sampler.initial_state
    single_2_set_ups = []

    def initial_state(dataset, config):
        if [s.scale_id for s in dataset.scales] == [2]:
            single_2_set_ups.append(dataset)
            if len(single_2_set_ups) == 2:  # replication 2's, at any budget
                raise SamplerPanicError("injected failure")
        return real_initial_state(dataset, config)

    def run(chunk_rows):
        monkeypatch.setattr(sampler, "CHUNK_ROWS", chunk_rows)
        single_2_set_ups.clear()
        calls = []
        report = run_experiment(
            _tiny_experiment(replications=5, seed=2),
            progress=lambda r, total: calls.append((r, total)),
        )
        return report, calls

    monkeypatch.setattr(sampler, "initial_state", initial_state)
    reference, reference_calls = run(10**9)
    builds = count_kernel_builds(monkeypatch)
    report, calls = run(budget)

    assert [(f.replication, f.stage) for f in report.failures] == [
        (2, "fit-single-2"), (4, "simulate")
    ]
    assert report.failures == reference.failures
    assert _rows_equal(report.summary_rows, reference.summary_rows)
    assert _rows_equal(report.ratio_rows, reference.ratio_rows)
    assert _rows_equal(report.draw_rows, reference.draw_rows)
    assert calls == reference_calls == [(1, 5), (3, 5), (5, 5)]
    # one kernel per chunk that has fits, not one per replication
    assert len(builds) == kernels

