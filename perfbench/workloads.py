"""The three workloads: their inputs, the CLI commands of one unit, and the
checks on every unit's outputs.

A unit is one user session with the CLI. Its inputs come from the unit's
own seed; the datasets are drawn here with numpy from the model's
definition (shared coefficients, per-scale thresholds, probit latents), so
the checks know the generating parameters. Checks run outside the timed
sections and recompute every checked quantity independently of the
package.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict

import numpy as np
from scipy.stats import norm

from ess import bulk_ess

# Threshold random-walk proposal sds of the paper's two designs, the same
# values the package's experiment1 and experiment2 presets carry.
PROPOSAL_SD_EXP1 = {"1": 1.0, "2": math.sqrt(0.3), "3": math.sqrt(0.3)}
PROPOSAL_SD_EXP2 = {"1": math.sqrt(5.0), "2": math.sqrt(1.9), "3": math.sqrt(1.9)}
THRESHOLDS = (1, 3, 3)
THRESHOLD_VARIANCE = 5.0


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def unit_seeds(run_seed: int, unit: int) -> tuple[np.random.Generator, int]:
    """The unit's input generator and its CLI --seed, both from the run seed."""
    data, cli = np.random.SeedSequence([run_seed, unit]).spawn(2)
    return np.random.default_rng(data), int(cli.generate_state(1)[0] >> 1)


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def write_model_dataset(rng, directory, obs_per_scale, num_features):
    """Draw a multi-scale ordinal dataset from the model and write it in the
    CLI's CSV format with its scale sidecar; return the truth.

    beta ~ N(0, I); per scale X ~ N(0, 1), thresholds sorted iid
    N(0, 5), latents ~ N(X beta, 1); thresholds and latents are redrawn
    until every class holds a row.
    """
    beta = rng.standard_normal(num_features)
    rows, gammas = [], []
    for k, t in enumerate(THRESHOLDS, start=1):
        X = rng.standard_normal((obs_per_scale, num_features))
        eta = X @ beta
        while True:
            gamma = np.sort(rng.normal(0.0, math.sqrt(THRESHOLD_VARIANCE), t))
            labels = 1 + np.searchsorted(gamma, eta + rng.standard_normal(eta.size))
            if np.all(np.bincount(labels, minlength=t + 2)[1:] > 0):
                break
        gammas.append(gamma)
        rows.extend((k, y, x) for y, x in zip(labels, X))
    path = os.path.join(directory, "data.csv")
    with open(path, "w") as fh:
        fh.write(",".join(["scale_id", "label"] + [f"f{j}" for j in range(1, num_features + 1)]) + "\n")
        for k, y, x in rows:
            fh.write(f"{k},{y}," + ",".join("%.17g" % v for v in x) + "\n")
    write_json(
        os.path.join(directory, "data.scales.json"),
        {"scales": {str(k): t + 1 for k, t in enumerate(THRESHOLDS, start=1)}},
    )
    return path, beta, gammas


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def number(cell: str) -> float:
    """A CSV cell as the package writes it: empty means NaN."""
    return float(cell) if cell else math.nan


def nanmean(values) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else math.nan


def close(a, b, tol=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all((np.isnan(a) & np.isnan(b)) | (np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))
    )


class FitPaper:
    """`fit` with two chains, `predict` on every scale, then `summarize`, on
    the paper's experiment1 design (3 scales x 400 rows, 48 features)."""

    name = "fit-paper"
    obs_per_scale, num_features = 400, 48
    chains, burn_in, stored = 2, 200, 300

    def prepare(self, directory, rng, cli_seed):
        data, beta, gammas = write_model_dataset(
            rng, directory, self.obs_per_scale, self.num_features
        )
        config = os.path.join(directory, "chain.json")
        write_json(config, {
            "prior": {"mean": 0.0, "precision": 1.0},
            "proposal_sd": PROPOSAL_SD_EXP1,
            "burn_in": self.burn_in, "thinning": 1, "stored_draws": self.stored,
        })
        fit = os.path.join(directory, "fit")
        draws = os.path.join(fit, "draws.csv")
        commands = [["fit", data, "--config", config, "--chains", str(self.chains),
                     "--seed", str(cli_seed), "--out", fit]]
        commands += [["predict", draws, data, "--scale", str(s), "--out",
                      os.path.join(directory, f"predict{s}")] for s in (1, 2, 3)]
        commands.append(["summarize", draws, "--out", os.path.join(directory, "summary")])
        return commands, {"data": data, "beta": beta, "gammas": gammas}

    def check(self, directory, truth):
        header, rows = read_csv(os.path.join(directory, "fit", "draws.csv"))
        draws = np.array(rows, dtype=float)
        p = self.num_features
        require(header[2 : 2 + p] == [f"beta_{j}" for j in range(1, p + 1)], "draws header")
        require(draws.shape == (self.chains * self.stored, len(header)),
                f"draws shape {draws.shape}")
        require(bool(np.all(np.isfinite(draws))), "non-finite draw")
        require(np.array_equal(draws[:, 0], np.repeat(np.arange(self.chains), self.stored)),
                "rows per chain")
        beta = draws[:, 2 : 2 + p]
        gammas, off = [], 2 + p
        for t in THRESHOLDS:
            gammas.append(draws[:, off : off + t])
            off += t
        for g in gammas:
            require(bool(np.all(np.diff(g, axis=1) > 0)), "thresholds not increasing")

        with open(os.path.join(directory, "fit", "fit_summary.json")) as fh:
            summary = json.load(fh)
        require(summary["num_draws"] == len(draws) and summary["num_chains"] == self.chains,
                "summary counts")
        require(close(summary["beta"]["mean"], beta.mean(axis=0)), "summary beta mean")
        require(close(summary["beta"]["sd"], beta.std(axis=0)), "summary beta sd")
        for k, g in enumerate(gammas, start=1):
            require(close(summary["gamma"][str(k)]["mean"], g.mean(axis=0)), "summary gamma mean")
            require(close(summary["gamma"][str(k)]["sd"], g.std(axis=0)), "summary gamma sd")

        _, data_rows = read_csv(truth["data"])
        # Every 12th row (100 rows over all scales) is recomputed; every row
        # must be a distribution.
        sample = slice(None, None, 12)
        X = np.array([r[2:] for r in data_rows[sample]], dtype=float)
        # P(label <= c) for every sampled row, threshold and draw
        below = norm.cdf(draws[:, 2 + p :].T[None, :, :] - (X @ beta.T)[:, None, :])
        off = 0
        for k, t in enumerate(THRESHOLDS, start=1):
            _, pred_rows = read_csv(os.path.join(directory, f"predict{k}", "predictions.csv"))
            probs = np.array([r[5:] for r in pred_rows], dtype=float)
            require(probs.shape == (len(data_rows), t + 1), f"predictions shape {probs.shape}")
            require(bool(np.all(probs >= 0)) and close(probs.sum(axis=1), np.ones(len(probs))),
                    f"scale {k} probabilities are not a distribution")
            cdf = np.pad(below[:, off : off + t], ((0, 0), (1, 0), (0, 0)))
            cdf = np.pad(cdf, ((0, 0), (0, 1), (0, 0)), constant_values=1.0)
            expect = np.diff(cdf, axis=1).mean(axis=2)
            require(bool(np.all(np.abs(probs[sample] - expect) <= 1e-12)), f"scale {k} probabilities")
            off += t

        # Recovery of the generating parameters. The chains are short and
        # mix slowly at this scale, so the test is loose: the posterior
        # means must line up with the truth, not sit within a few sds of it.
        b_hat = beta.mean(axis=0)
        require(np.corrcoef(b_hat, truth["beta"])[0, 1] > 0.9, "beta not recovered: correlation")
        require(np.linalg.norm(b_hat - truth["beta"]) < 0.5 * np.linalg.norm(truth["beta"]),
                "beta not recovered: error")
        g_hat = np.concatenate([g.mean(axis=0) for g in gammas])
        require(np.corrcoef(g_hat, np.concatenate(truth["gammas"]))[0, 1] > 0.7,
                "gamma not recovered: correlation")

    def ess_rates(self, directory, fit_seconds):
        """Median bulk ESS over beta and over gamma coordinates of the
        unit's draws, per second of its fit command."""
        _, rows = read_csv(os.path.join(directory, "fit", "draws.csv"))
        draws = np.array(rows, dtype=float)[:, 2:].T.reshape(-1, self.chains, self.stored)
        ess = [bulk_ess(chains) for chains in draws]
        p = self.num_features
        return {
            "ess_beta_per_s": float(np.median(ess[:p])) / fit_seconds,
            "ess_gamma_per_s": float(np.median(ess[p:])) / fit_seconds,
        }


class EvaluateSplits:
    """`evaluate` with repeated splits and short chains on the
    experiment1-desk shape (3 scales x 120 rows, 8 features)."""

    name = "evaluate-splits"
    obs_per_scale, num_features = 120, 8
    splits, burn_in, stored = 2, 100, 40

    def prepare(self, directory, rng, cli_seed):
        data, _, _ = write_model_dataset(rng, directory, self.obs_per_scale, self.num_features)
        config = os.path.join(directory, "eval.json")
        write_json(config, {
            "prior": {"mean": 0.0, "precision": 1.0},
            "proposal_sd": PROPOSAL_SD_EXP1,
            "burn_in": self.burn_in, "thinning": 1, "stored_draws": self.stored,
            "split_fraction": 2.0 / 3.0, "num_splits": self.splits,
        })
        out = os.path.join(directory, "eval")
        return [["evaluate", data, "--config", config, "--seed", str(cli_seed), "--out", out]], {}

    def check(self, directory, truth):
        header, rows = read_csv(os.path.join(directory, "eval", "eval_long.csv"))
        require(header == ["split_id", "model", "scale_id", "metric", "draw_id", "value"], "long header")
        classes = [t + 1 for t in THRESHOLDS]
        expect = self.splits * sum(2 * 2 * (3 + c) * self.stored for c in classes)
        require(len(rows) == expect, f"{len(rows)} long rows, expected {expect}")
        cells = defaultdict(dict)  # (split, model, scale, side) -> metric -> values by draw
        for split, model, scale, metric, draw, value in rows:
            name, side = metric.rsplit("_", 1)
            values = cells[(int(split), model, int(scale), side)].setdefault(name, [None] * self.stored)
            values[int(draw)] = number(value)
        require(len(cells) == self.splits * len(classes) * 2 * 2, "long table cells")

        for (split, model, scale, side), metrics in cells.items():
            f1 = np.array(metrics["f1_macro"])
            tau = np.array(metrics["tau_b"])
            per_class = np.array([metrics[f"f1_class_{c}"] for c in range(1, classes[scale - 1] + 1)])
            require(close(f1, per_class.mean(axis=0)), "f1_macro is not the mean of per-class F1")
            a, b = f1, np.maximum(tau, 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                harmonic = np.where(a + b > 0, 2 * a * b / (a + b), 0.0)
            harmonic[np.isnan(tau)] = math.nan
            require(close(metrics["harmonic"], harmonic), "harmonic mean")

        _, rows = read_csv(os.path.join(directory, "eval", "eval_diff.csv"))
        require(len(rows) == self.splits * len(classes) * 6, f"{len(rows)} diff rows")
        for split, scale, metric, mean_multi, mean_single, diff in rows:
            name, side = metric.rsplit("_", 1)
            multi = nanmean(cells[(int(split), "multi", int(scale), side)][name])
            single = nanmean(cells[(int(split), "single", int(scale), side)][name])
            require(close([number(mean_multi), number(mean_single), number(diff)],
                          [multi, single, multi - single]), "diff row is not the mean of its long rows")

        for scale in range(1, len(classes) + 1):
            tau_out = [v for split in range(1, self.splits + 1)
                       for v in cells[(split, "multi", scale, "out")]["tau_b"]]
            # tau_b is undefined (NaN) when every held-out label ties
            require(not nanmean(tau_out) <= 0, f"joint out-of-sample tau_b <= 0 on scale {scale}")


class ExperimentWide:
    """`experiment` on the experiment2 design (3 scales x 40 rows, 48
    features, prior precision 0.1): the paper's p > n case."""

    name = "experiment-wide"
    replications, burn_in, stored = 2, 200, 100

    def prepare(self, directory, rng, cli_seed):
        config = os.path.join(directory, "experiment.json")
        write_json(config, {
            "replications": self.replications, "num_scales": 3, "obs_per_scale": 40,
            "num_features": 48, "num_thresholds": list(THRESHOLDS), "min_per_class": 1,
            "chain": {
                "prior": {"mean": 0.0, "precision": 0.1},
                "proposal_sd": PROPOSAL_SD_EXP2,
                "burn_in": self.burn_in, "thinning": 1, "stored_draws": self.stored,
            },
        })
        out = os.path.join(directory, "experiment")
        return [["experiment", "--config", config, "--seed", str(cli_seed), "--out", out]], {}

    def check(self, directory, truth):
        out = os.path.join(directory, "experiment")
        with open(os.path.join(out, "experiment_failures.json")) as fh:
            require(json.load(fh) == [], "a replication failed")
        models = ["multi"] + [f"single-{k}" for k in range(1, len(THRESHOLDS) + 1)]
        _, rows = read_csv(os.path.join(out, "experiment_summary.csv"))
        summary = {(int(r), m, int(s), metric): number(v) for r, m, s, metric, v in rows}
        require(len(rows) == len(summary) == self.replications * len(models) * len(THRESHOLDS) * 2,
                f"{len(rows)} summary rows")
        require({key[0] for key in summary} == set(range(1, self.replications + 1)), "replications")

        _, rows = read_csv(os.path.join(out, "experiment_draws.csv"))
        draws = defaultdict(list)
        for r, m, s, metric, d, v in rows:
            draws[(int(r), m, int(s), metric)].append(number(v))
        for (r, m, s, metric), value in summary.items():
            own = m == "multi" or m == f"single-{s}"
            if metric == "beta_rmse":
                own_scale = s if own else int(m.split("-")[1])
                values = draws[(r, m, own_scale, metric)]
                require(len(values) == self.stored, "beta_rmse draw rows")
                require(close(value, np.mean(values)), "summary beta_rmse is not the draw mean")
            elif own:
                values = draws[(r, m, s, metric)]
                require(len(values) == self.stored, "gamma_rmse draw rows")
                require(close(value, np.mean(values)), "summary gamma_rmse is not the draw mean")
            else:
                require(math.isnan(value), "gamma_rmse for a scale the model did not fit")

        _, rows = read_csv(os.path.join(out, "experiment_ratios.csv"))
        require(len(rows) == self.replications * len(THRESHOLDS) * 2, f"{len(rows)} ratio rows")
        beta_ratios = defaultdict(list)
        for r, s, metric, single, multi, ratio in rows:
            r, s = int(r), int(s)
            require(close([number(single), number(multi), number(ratio)],
                          [summary[(r, f"single-{s}", s, metric)], summary[(r, "multi", s, metric)],
                           summary[(r, "multi", s, metric)] / summary[(r, f"single-{s}", s, metric)]]),
                    "ratio row")
            if metric == "beta_rmse":
                beta_ratios[s].append(number(ratio))
        for s, ratios in beta_ratios.items():
            require(np.mean(ratios) < 1.0, f"joint beta RMSE not below single on scale {s}")


WORKLOADS = {w.name: w for w in (FitPaper(), EvaluateSplits(), ExperimentWide())}
