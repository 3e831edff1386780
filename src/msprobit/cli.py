"""Command-line interface.

Subcommands: simulate | fit | predict | evaluate | experiment | summarize.
Every command with a --seed flag is end-to-end deterministic: the same
inputs and seed produce byte-identical output files. Timing goes to
stderr so it never perturbs the artifacts.

A flag beats the config document (--config or --preset), which beats
the defaults: _config_doc writes each flag given over its key of the
document, and the io readers check every value, flags included.

Exit codes: 0 success, 1 validation/config error, 2 sampler or numerical
error, 3 filesystem error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import io
from .errors import ConfigError, MsprobitError
from .metrics import (
    class_probabilities,
    evaluate_splits,
    fit_standardizer,
    latent_scores,
)
from .model import Dataset
from .presets import preset
from .sampler import DrawSet, mcse_mean, run_chains
from .simulate import run_experiment, simulate_dataset


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def _default_scales_path(dataset_path: str) -> str:
    root, _ = os.path.splitext(dataset_path)
    return root + ".scales.json"


def _load_dataset(args) -> Dataset:
    scales_path = args.scales or _default_scales_path(args.dataset)
    return io.read_dataset(args.dataset, scales_path)


def _json_value(x):
    x = float(x)
    return x if np.isfinite(x) else None


def _mcse(x: np.ndarray):
    # batch means needs at least 4 draws; with fewer the MCSE is unknown
    return _json_value(mcse_mean(x)) if x.size >= 4 else None


# each flag and the config key it is written over
_FLAG_KEYS = {"seed": "seed", "chains": "num_chains",
              "fraction": "split_fraction", "splits": "num_splits"}


def _config_doc(args, part=lambda doc: doc) -> dict:
    """The --config file as a dict, or part of the --preset document (an
    experiment config), or {} when there is neither, with each flag given
    written over its key: a flag beats the document, which beats the
    defaults, and the io readers check every value, flags included."""
    if args.preset and args.config:
        raise ConfigError("pass either --preset or --config, not both")
    if args.preset:
        doc = part(preset(args.preset))
    else:
        doc = io.read_json_object(args.config) if args.config else {}
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            doc[key] = value
    return doc


def _chain_part(doc: dict) -> dict:
    return doc["chain"]


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# -- simulate --------------------------------------------------------------


def _design_part(doc: dict) -> dict:
    return {key: doc[key] for key in io.DESIGN_KEYS}


def cmd_simulate(args):
    if not (args.preset or args.config):
        raise ConfigError("simulate needs --preset or --config")
    doc = _config_doc(args, _design_part)
    seed = io.config_number(doc.pop("seed", 0), "seed", integer=True, minimum=0)
    design = io.design_from_dict(doc, "simulate")
    sim = simulate_dataset(design, np.random.default_rng(np.random.SeedSequence(seed)))

    dataset = sim.dataset
    io.write_dataset(
        _out_path(args, "dataset.csv"), _out_path(args, "dataset.scales.json"), dataset
    )
    io.write_truth(
        _out_path(args, "truth.json"),
        sim.beta_true,
        {s.scale_id: g for s, g in zip(dataset.scales, sim.gammas_true)},
        y_star=sim.y_star_true,
    )
    print(
        f"wrote {dataset.num_obs} observations on {len(dataset.scales)} scales "
        f"to {args.out}"
    )


# -- fit -------------------------------------------------------------------


def _moments(draws: np.ndarray) -> dict:
    return {"mean": draws.mean(axis=0).tolist(), "sd": draws.std(axis=0).tolist()}


def _summary_doc(draws: DrawSet, acceptance: bool) -> dict:
    beta = draws.beta_draws
    doc = {
        "num_draws": len(draws),
        "num_chains": int(np.unique(draws.chain_ids).size),
        "beta": {
            **_moments(beta),
            "mcse": [_mcse(beta[:, j]) for j in range(beta.shape[1])],
        },
        "gamma": {
            str(s.scale_id): _moments(draws.gamma_draws_for(s.scale_id))
            for s in draws.scales
        },
        # 1-based coefficient indices from most to least certain
        "beta_by_sd": [
            int(j) + 1 for j in np.argsort(beta.std(axis=0), kind="stable")
        ],
    }
    if acceptance:
        doc["acceptance_rates"] = {
            str(sid): _json_value(rate) for sid, rate in draws.accept_rate.items()
        }
    return doc


def cmd_fit(args):
    dataset = _load_dataset(args)
    config = io.chain_config_from_dict(_config_doc(args, _chain_part))
    if args.standardize:
        mean, sd = fit_standardizer(dataset.features)
        dataset = replace(dataset, features=(dataset.features - mean) / sd)

    t0 = time.monotonic()
    draws = run_chains(dataset, config)
    elapsed = time.monotonic() - t0
    print(f"sampling took {elapsed:.1f}s", file=sys.stderr)

    if args.standardize:  # only a fit that succeeded leaves its transform
        io.write_standardizer(_out_path(args, "standardization.json"), mean, sd)

    io.write_draws(_out_path(args, "draws.csv"), draws)
    io.write_json(
        _out_path(args, "fit_summary.json"), _summary_doc(draws, acceptance=True)
    )
    rates = ", ".join(
        f"scale {sid}: {rate:.3f}" for sid, rate in sorted(draws.accept_rate.items())
    )
    print(f"stored {len(draws)} draws; acceptance {rates}")


# -- predict ---------------------------------------------------------------


def cmd_predict(args):
    draws = io.read_draws(args.draws)
    dataset = _load_dataset(args)
    target = int(args.scale)
    if all(s.scale_id != target for s in draws.scales):
        raise ConfigError(
            f"draws cover scales {[s.scale_id for s in draws.scales]}, "
            f"not target scale {target}"
        )
    scale = next(s for s in draws.scales if s.scale_id == target)

    X = dataset.features
    if draws.beta_draws.shape[1] != X.shape[1]:
        raise ConfigError(
            f"draws have {draws.beta_draws.shape[1]} coefficients, "
            f"dataset has {X.shape[1]} features"
        )
    if args.transform:
        mean, sd = io.read_standardizer(args.transform)
        if mean.size != X.shape[1]:
            raise ConfigError(
                f"standardizer has {mean.size} columns, dataset has {X.shape[1]}"
            )
        X = (X - mean) / sd

    scores = latent_scores(draws.beta_draws, X)
    # posterior-averaged (n, C)
    probs = class_probabilities(scores, draws.gamma_draws_for(target)).mean(axis=2)
    map_class = np.argmax(probs, axis=1) + 1
    rank = scores.mean(axis=1)
    n = X.shape[0]

    header = ["row", "scale_id", "label", "rank_score", "map_class"] + [
        f"prob_{c}" for c in range(1, scale.num_classes + 1)
    ]
    rows = (
        (i + 1, sid, label, score, best, *prob)
        for i, (sid, label, score, best, prob) in enumerate(
            zip(dataset.scale_ids, dataset.labels, rank, map_class, probs)
        )
    )
    io.write_table(_out_path(args, "predictions.csv"), header, rows)
    print(f"wrote {n} predictions on scale {target}")


# -- evaluate --------------------------------------------------------------


def cmd_evaluate(args):
    dataset = _load_dataset(args)
    doc = _config_doc(args, _chain_part)
    fraction = io.config_number(doc.pop("split_fraction", 2.0 / 3.0), "split_fraction")
    splits = io.config_number(doc.pop("num_splits", 10), "num_splits", integer=True)
    config = io.chain_config_from_dict(doc)

    report = evaluate_splits(
        dataset,
        fraction,
        splits,
        config,
        np.random.default_rng(np.random.SeedSequence(config.seed)),
        standardize=bool(args.standardize),
    )
    io.write_table(_out_path(args, "eval_long.csv"), io.LONG_HEADER, report.long_rows)
    io.write_table(_out_path(args, "eval_diff.csv"), io.DIFF_HEADER, report.diff_rows)
    print(
        f"evaluated {report.num_splits} splits: "
        f"{len(report.long_rows)} metric rows, {len(report.diff_rows)} diff rows"
    )


# -- experiment ------------------------------------------------------------


def cmd_experiment(args):
    if not (args.preset or args.config):
        raise ConfigError("experiment needs --preset or --config")
    config = io.experiment_config_from_dict(_config_doc(args))

    def progress(r, total):
        print(f"replication {r}/{total} done", file=sys.stderr)

    t0 = time.monotonic()
    report = run_experiment(config, progress=progress)
    print(f"experiment took {time.monotonic() - t0:.1f}s", file=sys.stderr)

    io.write_table(
        _out_path(args, "experiment_summary.csv"), io.SUMMARY_HEADER, report.summary_rows
    )
    io.write_table(
        _out_path(args, "experiment_ratios.csv"), io.RATIO_HEADER, report.ratio_rows
    )
    io.write_table(
        _out_path(args, "experiment_draws.csv"), io.DRAW_HEADER, report.draw_rows
    )
    failures = [
        {"replication": f.replication, "stage": f.stage, "message": f.message}
        for f in report.failures
    ]
    io.write_json(_out_path(args, "experiment_failures.json"), failures)
    print(
        f"{report.completed_replications}/{config.replications} replications "
        f"completed, {len(report.failures)} failed"
    )


# -- summarize -------------------------------------------------------------


def cmd_summarize(args):
    draws = io.read_draws(args.draws)
    doc = _summary_doc(draws, acceptance=False)
    lines = [f"{'parameter':<14} {'mean':>14} {'sd':>14}"]
    beta = doc["beta"]
    for j, (m, s) in enumerate(zip(beta["mean"], beta["sd"]), start=1):
        lines.append(f"{'beta_' + str(j):<14} {m:>14.6g} {s:>14.6g}")
    for sid in sorted(doc["gamma"], key=int):
        g = doc["gamma"][sid]
        for j, (m, s) in enumerate(zip(g["mean"], g["sd"]), start=1):
            name = f"gamma_{sid}_{j}"
            lines.append(f"{name:<14} {m:>14.6g} {s:>14.6g}")
    lines.append(
        "beta by increasing posterior sd: "
        + ", ".join(str(j) for j in doc["beta_by_sd"])
    )
    print("\n".join(lines))
    if args.out is not None:
        io.write_json(_out_path(args, "summary.json"), doc)


# -- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="msprobit", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, *, dataset=False, chain=False, preset=True):
        if dataset:
            p.add_argument("dataset", help="dataset CSV path")
            p.add_argument(
                "--scales",
                default=None,
                help="scale sidecar JSON (default: <dataset>.scales.json)",
            )
        if preset:
            p.add_argument("--preset", default=None, help="named configuration")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="random seed override")
        if chain:
            p.add_argument("--chains", type=int, default=None, help="chain count")
        p.add_argument("--out", default=".", help="output directory")
        return p

    p = common(sub.add_parser("simulate", help="generate a synthetic dataset"))
    p.set_defaults(func=cmd_simulate)

    p = common(
        sub.add_parser("fit", help="run the Gibbs sampler"), dataset=True, chain=True
    )
    p.add_argument(
        "--standardize",
        action="store_true",
        help="standardize features before fitting; writes standardization.json",
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="posterior class probabilities on a scale")
    p.add_argument("draws", help="draws CSV from fit")
    p.add_argument("dataset", help="dataset CSV path")
    p.add_argument("--scales", default=None, help="scale sidecar JSON")
    p.add_argument("--scale", type=int, required=True, help="target scale id")
    p.add_argument(
        "--transform",
        default=None,
        help="standardization.json from a fit run to apply to features",
    )
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_predict)

    p = common(
        sub.add_parser("evaluate", help="repeated train/test split comparison"),
        dataset=True,
        chain=True,
    )
    p.add_argument("--fraction", type=float, default=None, help="training fraction")
    p.add_argument("--splits", type=int, default=None, help="number of splits")
    p.add_argument(
        "--standardize",
        action="store_true",
        help="standardize features per split from training rows only",
    )
    p.set_defaults(func=cmd_evaluate)

    p = common(sub.add_parser("experiment", help="replication study on synthetic data"))
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("summarize", help="posterior summary of a draws file")
    p.add_argument("draws", help="draws CSV from fit")
    p.add_argument("--out", default=None, help="also write summary.json here")
    p.set_defaults(func=cmd_summarize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except MsprobitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
