"""Acceptance gate.

One test per numbered criterion, each with its tolerance pinned and its
runtime budget enforced. Run with -v to get one pass/fail line per
criterion. Budgets are wall-clock upper bounds, generous on purpose."""

import csv
import json
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest, norm, truncnorm

from msprobit import io
from msprobit.cli import main
from msprobit.distributions import sample_truncated_normal_many
from msprobit.metrics import (
    confusion_counts,
    f1_from_counts,
    harmonic_mean,
    kendall_tau_b_columns,
)
from msprobit.model import ChainConfig, Dataset, Prior, ScaleSpec
from msprobit.presets import preset
from msprobit.sampler import _Fit, _GibbsKernel, mcse_mean, run_chains, tune_proposal
from msprobit.simulate import (
    Design,
    labels_from_latent,
    run_experiment,
    simulate_dataset,
)
from tests.reference_binary_probit import reference_binary_fit
from tests.test_metrics import oracle_f1, oracle_tau_b


class _Timer:
    def __enter__(self):
        self._t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self._t0


def _report(num, name, detail, timer, budget):
    assert timer.elapsed < budget, (
        f"criterion {num} exceeded its runtime budget: "
        f"{timer.elapsed:.1f}s >= {budget}s"
    )
    print(f"criterion {num} ({name}): PASS {detail} [{timer.elapsed:.1f}s < {budget}s]")


# -- 1: joint-distribution check of the full sweep -------------------------


def test_criterion_01_sweep_kernel_preserves_prior():
    """Successive-conditional simulation: alternate label regeneration with
    one sweep of the production Gibbs kernel under a proper prior;
    parameter marginals must stay at the prior, checked by KS at
    alpha=0.01."""
    BOX = 3.0
    with _Timer() as t:
        rng = np.random.default_rng(np.random.SeedSequence([20260822, 1]))
        n_half, p = 10, 2
        X = rng.normal(size=(2 * n_half, p))
        scales = (ScaleSpec(1, 2), ScaleSpec(2, 3))
        scale_ids = np.repeat([1, 2], n_half)
        config = ChainConfig(prior=Prior(mean=0.0, precision=1.0))
        sds = [0.6, 0.6]

        beta = rng.normal(size=p)
        thresholds = np.concatenate(
            [rng.uniform(-BOX, BOX, size=1), np.sort(rng.uniform(-BOX, BOX, size=2))]
        )
        scale_slices = (slice(0, 1), slice(1, 3))

        iters, thin = 50_000, 50
        kept = {key: [] for key in ("b1", "b2", "g1", "g2lo", "g2hi")}
        for it in range(iters):
            y_star = X @ beta + rng.normal(size=2 * n_half)
            labels = np.concatenate(
                [
                    labels_from_latent(y_star[:n_half], thresholds[scale_slices[0]]),
                    labels_from_latent(y_star[n_half:], thresholds[scale_slices[1]]),
                ]
            )
            kernel = _GibbsKernel([_Fit(
                Dataset(features=X, labels=labels, scale_ids=scale_ids, scales=scales),
                config,
            )])
            eta = kernel.linear_predictor(beta)
            u = kernel.uniforms([rng])
            moved, _ = kernel.update_thresholds(eta, thresholds, sds, [rng], u)
            for sl in scale_slices:
                # flat-prior move corrected to the box prior: zero density
                # outside the box means the move is rejected after the fact
                if np.all(np.abs(moved[sl]) <= BOX):
                    thresholds[sl] = moved[sl]
            latents, _, _ = kernel.draw_latents(eta, thresholds, [rng], u)
            beta = kernel.draw_coefficients(latents, [rng])
            if it % thin == thin - 1:
                kept["b1"].append(beta[0])
                kept["b2"].append(beta[1])
                kept["g1"].append(thresholds[0])
                kept["g2lo"].append(thresholds[1])
                kept["g2hi"].append(thresholds[2])

        def box_u(x):
            return np.clip((np.asarray(x) + BOX) / (2 * BOX), 0.0, 1.0)

        cdfs = {
            "b1": norm.cdf,
            "b2": norm.cdf,
            "g1": box_u,
            "g2lo": lambda x: 1.0 - (1.0 - box_u(x)) ** 2,
            "g2hi": lambda x: box_u(x) ** 2,
        }
        pvals = {
            key: kstest(np.array(vals), cdfs[key]).pvalue
            for key, vals in kept.items()
        }
        for key, pv in pvals.items():
            assert pv > 0.01, f"marginal {key} off the prior: KS p={pv:.4f}"
    detail = "KS p-values " + ", ".join(
        f"{key}={pv:.3f}" for key, pv in pvals.items()
    )
    _report(1, "sweep kernel preserves the prior", detail, t, 120)


# -- 2: conjugate coefficient update ----------------------------------------


def test_criterion_02_coefficient_update_oracle():
    """One-feature case with a worked closed form: posterior N(5/6, 1/6)."""
    with _Timer() as t:
        rng = np.random.default_rng(np.random.SeedSequence([20260822, 2]))
        ds = Dataset(
            features=np.array([[1.0], [2.0]]),
            labels=np.array([1, 2]),
            scale_ids=np.array([1, 1]),
            scales=(ScaleSpec(1, 2),),
        )
        kernel = _GibbsKernel([_Fit(ds, ChainConfig(prior=Prior(mean=0.0, precision=1.0)))])
        latents = np.array([1.0, 2.0])
        draws = np.array(
            [kernel.draw_coefficients(latents, [rng])[0] for _ in range(100_000)]
        )
        mean_err = abs(draws.mean() - 5.0 / 6.0) / (5.0 / 6.0)
        var_err = abs(draws.var() - 1.0 / 6.0) / (1.0 / 6.0)
        assert mean_err < 0.01, f"posterior mean off by {mean_err:.2%}"
        assert var_err < 0.01, f"posterior variance off by {var_err:.2%}"
    _report(
        2,
        "conjugate coefficient update",
        f"mean err {mean_err:.2%}, var err {var_err:.2%}",
        t,
        10,
    )


# -- 3: truncated-normal sampler --------------------------------------------

_TN_INTERVALS = [
    (0.0, 0.0, math.inf),
    (2.0, -1.0, 1.0),
    (0.0, 5.0, 6.0),  # far tail
    (0.0, -math.inf, -2.0),
    (10.0, -math.inf, 0.0),
]


def test_criterion_03_truncated_normal_oracle():
    with _Timer() as t:
        rng = np.random.default_rng(np.random.SeedSequence([20260822, 3]))
        n = 20_000
        details = []
        for mu, lo, hi in _TN_INTERVALS:
            samples = sample_truncated_normal_many(
                np.full(n, mu), 1.0, np.full(n, lo), np.full(n, hi), rng
            )
            ks = kstest(
                samples, lambda x: truncnorm.cdf(x, lo - mu, hi - mu, loc=mu)
            ).statistic
            mean_err = abs(samples.mean() - truncnorm.mean(lo - mu, hi - mu, loc=mu))
            assert ks < 0.02, f"KS {ks:.4f} on interval {(mu, lo, hi)}"
            assert mean_err < 0.02, f"mean off by {mean_err:.4f} on {(mu, lo, hi)}"
            details.append(f"({mu},{lo},{hi}): ks={ks:.4f}")
    _report(3, "truncated-normal sampler", "; ".join(details), t, 30)


# -- 4 and 5: synthetic recovery studies ------------------------------------


def _ratio_by_scale(report, metric):
    out = {}
    for row in report.ratio_rows:
        _, sid, name, _, _, ratio = row
        if name == metric:
            out.setdefault(sid, []).append(ratio)
    return out


def test_criterion_04_shared_fit_beats_separate_fits_small_p():
    with _Timer() as t:
        report = run_experiment(
            io.experiment_config_from_dict(preset("experiment1-desk"))
        )
        assert report.completed_replications == 20, report.failures
        fracs = {}
        for sid, ratios in _ratio_by_scale(report, "beta_rmse").items():
            wins = sum(1 for r in ratios if r < 1.0)
            fracs[sid] = wins / 20
            assert fracs[sid] >= 0.70, (
                f"scale {sid}: shared fit better on only {fracs[sid]:.0%}"
            )
    detail = ", ".join(f"scale {sid}: {f:.0%}" for sid, f in sorted(fracs.items()))
    _report(4, "coefficient recovery, 8 features", detail, t, 600)


def test_criterion_05_shared_fit_beats_separate_fits_wide_p():
    with _Timer() as t:
        report = run_experiment(
            io.experiment_config_from_dict(preset("experiment2-desk"))
        )
        assert report.completed_replications == 20, report.failures
        beta_means, gamma_means = {}, {}
        for sid, ratios in _ratio_by_scale(report, "beta_rmse").items():
            beta_means[sid] = statistics.fmean(ratios)
            assert beta_means[sid] < 1.0, (
                f"scale {sid}: mean coefficient-RMSE ratio {beta_means[sid]:.3f}"
            )
        for sid, ratios in _ratio_by_scale(report, "gamma_rmse").items():
            gamma_means[sid] = statistics.fmean(ratios)
            assert 0.75 <= gamma_means[sid] <= 1.25, (
                f"scale {sid}: threshold-RMSE ratio {gamma_means[sid]:.3f} "
                "outside [0.75, 1.25]"
            )
    detail = "beta " + ", ".join(
        f"s{sid}={v:.3f}" for sid, v in sorted(beta_means.items())
    ) + "; gamma " + ", ".join(
        f"s{sid}={v:.3f}" for sid, v in sorted(gamma_means.items())
    )
    _report(5, "coefficient recovery, 48 features", detail, t, 1200)


# -- 6: proposal tuning ------------------------------------------------------


def test_criterion_06_tuned_acceptance_rates():
    with _Timer() as t:
        config = io.experiment_config_from_dict(preset("experiment1-desk"))
        sim = simulate_dataset(
            config.design, np.random.default_rng(np.random.SeedSequence([20260822, 6]))
        )
        ds = sim.dataset
        base = config.chain_config
        tuned = tune_proposal(ds, replace(base, seed=60), target_rate=0.234)
        check = replace(
            base,
            proposal_sd=tuned,
            burn_in=1000,
            thinning=2,
            stored_draws=500,
            seed=61,
        )
        rates = run_chains(ds, check).accept_rate
        for sid, rate in rates.items():
            assert 0.18 <= rate <= 0.29, f"scale {sid}: realized rate {rate:.3f}"
    detail = ", ".join(f"scale {sid}: {r:.3f}" for sid, r in sorted(rates.items()))
    _report(6, "proposal tuning toward 0.234", detail, t, 300)


# -- 7: metric oracles -------------------------------------------------------


def test_criterion_07_metric_oracles_exact():
    with _Timer() as t:
        g = np.random.default_rng(np.random.SeedSequence([20260822, 7]))
        for _ in range(1000):
            c = int(g.integers(2, 7))
            n = int(g.integers(1, 101))
            pred = g.integers(1, c + 1, size=n)
            actual = g.integers(1, c + 1, size=n)
            per_class, macro, _ = f1_from_counts(
                confusion_counts(pred[:, None], actual, c)
            )
            want_per_class, want_macro = oracle_f1(pred.tolist(), actual.tolist(), c)
            assert per_class[0].tolist() == want_per_class
            assert macro[0] == want_macro

        defined = 0
        for _ in range(1000):
            n = int(g.integers(2, 201))
            a = g.integers(0, 8, size=n).astype(float)
            b = g.integers(0, 8, size=n).astype(float)
            want = oracle_tau_b(a.tolist(), b.tolist())
            tau = kendall_tau_b_columns(a[:, None], b)[0]
            if want is None:
                assert math.isnan(tau)
                continue
            assert tau == want
            defined += 1

        assert harmonic_mean(0.5, 0.5) == 0.5
        assert harmonic_mean(1.0, 0.0) == 0.0
        assert harmonic_mean(0.0, 0.0) == 0.0
        assert harmonic_mean(0.25, 0.75) == 2 * 0.25 * 0.75 / (0.25 + 0.75)
    _report(
        7,
        "metric oracles bitwise",
        f"1000 F1 cases, 1000 rank-correlation cases ({defined} defined)",
        t,
        30,
    )


# -- 8: agreement with an independent binary sampler -------------------------


def test_criterion_08_binary_reduction_matches_reference():
    with _Timer() as t:
        rng = np.random.default_rng(np.random.SeedSequence([20260822, 8]))
        n, p = 60, 3
        X = rng.normal(size=(n, p))
        beta_true = np.array([0.8, -0.5, 0.3])
        gamma_true = np.array([0.2])
        y = X @ beta_true + rng.normal(size=n)
        labels = labels_from_latent(y, gamma_true)
        assert set(np.unique(labels)) == {1, 2}

        ds = Dataset(
            features=X,
            labels=labels,
            scale_ids=np.ones(n, dtype=int),
            scales=(ScaleSpec(1, 2),),
        )
        prod = run_chains(
            ds,
            ChainConfig(
                prior=Prior(mean=0.0, precision=1.0),
                proposal_sd=0.5,
                burn_in=2000,
                thinning=1,
                stored_draws=10_000,
                seed=80,
            ),
        )
        ref_beta, _ = reference_binary_fit(
            X, labels, np.zeros(p), np.eye(p), burn_in=2000, kept=10_000, seed=81
        )
        margins = []
        for j in range(p):
            gap = abs(prod.beta_draws[:, j].mean() - ref_beta[:, j].mean())
            tol = 3.0 * math.hypot(
                mcse_mean(prod.beta_draws[:, j]), mcse_mean(ref_beta[:, j])
            )
            assert gap <= tol, f"beta_{j + 1}: gap {gap:.4f} > 3x combined MCSE {tol:.4f}"
            margins.append(f"b{j + 1}: {gap:.4f}<={tol:.4f}")
    _report(8, "binary reduction vs independent sampler", "; ".join(margins), t, 120)


# -- 9: command-line determinism ---------------------------------------------

_SIM_DOC = {
    "num_scales": 2,
    "obs_per_scale": 30,
    "num_features": 3,
    "num_thresholds": [1, 2],
    "seed": 11,
}
_CHAIN_DOC = {
    "burn_in": 50,
    "thinning": 1,
    "stored_draws": 25,
    "seed": 5,
    "proposal_sd": {"1": 0.8, "2": 0.8},
}


def _run_cli(args):
    rc = main(args)
    assert rc == 0, f"command failed with exit code {rc}: {args}"


def _tree(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_criterion_09_cli_byte_determinism(tmp_path):
    with _Timer() as t:
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps(_SIM_DOC))
        chain_cfg = tmp_path / "chain.json"
        chain_cfg.write_text(json.dumps(_CHAIN_DOC))
        eval_cfg = tmp_path / "eval.json"
        eval_cfg.write_text(
            json.dumps({**_CHAIN_DOC, "num_splits": 2, "split_fraction": 0.6})
        )
        exp_cfg = tmp_path / "exp.json"
        exp_cfg.write_text(
            json.dumps(
                {
                    "replications": 2,
                    "num_scales": 2,
                    "obs_per_scale": 30,
                    "num_features": 3,
                    "num_thresholds": [1, 2],
                    "seed": 7,
                    "chain": _CHAIN_DOC,
                }
            )
        )

        pairs = []
        for run in ("a", "b"):
            sim_out = tmp_path / f"sim_{run}"
            fit_out = tmp_path / f"fit_{run}"
            pred_out = tmp_path / f"pred_{run}"
            ev_out = tmp_path / f"ev_{run}"
            exp_out = tmp_path / f"exp_{run}"
            sum_out = tmp_path / f"sum_{run}"
            for d in (sim_out, fit_out, pred_out, ev_out, exp_out, sum_out):
                d.mkdir()
            dataset = str(sim_out / "dataset.csv")
            _run_cli(["simulate", "--config", str(sim_cfg), "--out", str(sim_out)])
            _run_cli(
                ["fit", dataset, "--config", str(chain_cfg), "--out", str(fit_out)]
            )
            _run_cli(
                [
                    "predict",
                    str(fit_out / "draws.csv"),
                    dataset,
                    "--scale",
                    "2",
                    "--out",
                    str(pred_out),
                ]
            )
            _run_cli(
                ["evaluate", dataset, "--config", str(eval_cfg), "--out", str(ev_out)]
            )
            _run_cli(
                ["experiment", "--config", str(exp_cfg), "--out", str(exp_out)]
            )
            _run_cli(
                ["summarize", str(fit_out / "draws.csv"), "--out", str(sum_out)]
            )
            pairs.append(
                {d.name.rsplit("_", 1)[0]: _tree(d) for d in
                 (sim_out, fit_out, pred_out, ev_out, exp_out, sum_out)}
            )
        checked = 0
        for name in pairs[0]:
            assert pairs[0][name].keys() == pairs[1][name].keys()
            for fname, blob in pairs[0][name].items():
                assert blob == pairs[1][name][fname], (
                    f"{name}/{fname} differs between identical runs"
                )
                checked += 1
    _report(9, "command-line determinism", f"{checked} files byte-identical", t, 300)


# -- 10: split-protocol output shape -----------------------------------------


def test_criterion_10_split_protocol_shape(tmp_path):
    with _Timer() as t:
        sim = simulate_dataset(
            Design(3, 45, 4, (1, 2, 3), 1),
            np.random.default_rng(np.random.SeedSequence([20260822, 10])),
        )
        ds = sim.dataset
        data_path = str(tmp_path / "dataset.csv")
        io.write_dataset(data_path, str(tmp_path / "dataset.scales.json"), ds)
        cfg = tmp_path / "eval.json"
        cfg.write_text(
            json.dumps(
                {
                    "burn_in": 150,
                    "thinning": 1,
                    "stored_draws": 60,
                    "seed": 100,
                    "split_fraction": 2 / 3,
                    "num_splits": 10,
                }
            )
        )
        out = tmp_path / "ev"
        out.mkdir()
        _run_cli(["evaluate", data_path, "--config", str(cfg), "--out", str(out)])

        with open(out / "eval_long.csv", newline="") as fh:
            long_rows = list(csv.DictReader(fh))
        with open(out / "eval_diff.csv", newline="") as fh:
            diff_rows = list(csv.DictReader(fh))

        # classes per scale are 2, 3, 4 so the per-split long block is
        # 2 models x 2 sides x (3 + C) metrics x 60 draws summed over scales
        want_long = 10 * (2 * 2 * 60) * (5 + 6 + 7)
        assert len(long_rows) == want_long, (len(long_rows), want_long)
        assert len(diff_rows) == 10 * 3 * 6

        # rebuild every difference row from the long file with stdlib means
        groups: dict[tuple, list] = {}
        for row in long_rows:
            key = (row["split_id"], row["scale_id"], row["metric"], row["model"])
            if row["value"] != "":
                groups.setdefault(key, []).append(float(row["value"]))
        for row in diff_rows:
            key = (row["split_id"], row["scale_id"], row["metric"])
            for model, col in (("multi", "mean_multi"), ("single", "mean_single")):
                vals = groups.get((*key, model))
                want = statistics.fmean(vals) if vals else float("nan")
                got = io.parse_float(row[col])
                if math.isnan(want):
                    assert math.isnan(got), (key, model)
                else:
                    assert got == pytest.approx(want, abs=1e-12), (key, model)
            got_diff = io.parse_float(row["diff"])
            lhs = io.parse_float(row["mean_multi"])
            rhs = io.parse_float(row["mean_single"])
            if math.isnan(lhs) or math.isnan(rhs):
                assert math.isnan(got_diff)
            else:
                assert got_diff == pytest.approx(lhs - rhs, abs=1e-12)
    _report(
        10,
        "split-protocol output shape",
        f"{len(long_rows)} long rows, {len(diff_rows)} difference rows rebuilt",
        t,
        600,
    )
