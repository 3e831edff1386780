"""File formats and the command-line entry points."""

import csv
import json
import math
import os

import contextlib
import io as stdio
import pathlib
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from msprobit import io, metrics
from msprobit.cli import main
from msprobit.errors import ConfigError, DatasetValidationError, MsprobitError
from msprobit.model import ChainConfig, Dataset, Prior, ScaleSpec
from msprobit.presets import preset
from msprobit.sampler import MAX_STORED_VALUES, DrawSet, check_draw_store, run_chains
from msprobit.simulate import Design, ExperimentConfig, _fit_seed, simulate_dataset
from tests.files import read_table, read_truth


# -- float formatting ------------------------------------------------------


def test_format_float_round_trips_exactly():
    g = np.random.default_rng(17)
    values = list(g.normal(size=50)) + [1e-300, 1e300, 0.0, -0.0, 2.0 / 3.0]
    for v in values:
        assert float(io.format_float(v)) == v


def test_format_float_nan_is_empty_cell():
    assert io.format_float(float("nan")) == ""
    assert math.isnan(io.parse_float(""))
    assert io.parse_float("1.5") == 1.5


# -- dataset files ---------------------------------------------------------


def test_dataset_round_trip(tmp_path, two_scale_dataset):
    ds = two_scale_dataset
    path = str(tmp_path / "d.csv")
    side = str(tmp_path / "d.scales.json")
    io.write_dataset(path, side, ds)
    back = io.read_dataset(path, side)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.scale_ids, ds.scale_ids)
    assert back.scales == ds.scales


def test_dataset_read_rejects_bad_label(tmp_path, two_scale_dataset):
    ds = two_scale_dataset
    path = str(tmp_path / "d.csv")
    side = str(tmp_path / "d.scales.json")
    io.write_dataset(path, side, ds)
    lines = open(path).read().splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[1], "9", 1)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(DatasetValidationError):
        io.read_dataset(path, side)


# -- draws files -----------------------------------------------------------


def _tiny_draws(two_scale_dataset):
    ds = two_scale_dataset
    config = ChainConfig(burn_in=20, thinning=1, stored_draws=12, seed=3)
    return run_chains(ds, config)


def test_draws_round_trip_and_stability(tmp_path, two_scale_dataset):
    draws = _tiny_draws(two_scale_dataset)
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    io.write_draws(p1, draws)
    back = io.read_draws(p1)
    np.testing.assert_array_equal(back.beta_draws, draws.beta_draws)
    np.testing.assert_array_equal(back.threshold_draws, draws.threshold_draws)
    np.testing.assert_array_equal(back.iteration_ids, draws.iteration_ids)
    assert back.scales == draws.scales
    # counters are not serialized
    assert back.proposal_counts == {1: 0, 2: 0}
    assert math.isnan(back.accept_rate[1])
    # a rewrite of the reloaded set is byte identical
    io.write_draws(p2, back)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_gamma_column_names_layout():
    scales = (ScaleSpec(1, 2), ScaleSpec(4, 4))
    assert io.gamma_column_names(scales) == [
        "gamma_1_1",
        "gamma_4_1",
        "gamma_4_2",
        "gamma_4_3",
    ]


def test_read_draws_rejects_foreign_header(tmp_path):
    path = str(tmp_path / "x.csv")
    open(path, "w").write("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        io.read_draws(path)


# -- config parsing --------------------------------------------------------


def test_chain_config_from_dict():
    config = io.chain_config_from_dict(
        {
            "burn_in": 100,
            "thinning": 2,
            "stored_draws": 30,
            "seed": 9,
            "proposal_sd": {"1": 0.5, "2": 1.5},
            "prior": {"mean": 0.0, "precision": 2.0},
            "num_chains": 3,
        }
    )
    assert config.num_chains == 3
    assert config.burn_in == 100
    assert config.proposal_sd_for(2) == 1.5
    assert config.prior.precision == 2.0


def test_chain_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="proposal_scale"):
        io.chain_config_from_dict({"proposal_scale": 1.0})


def test_standardizer_round_trip(tmp_path):
    path = str(tmp_path / "s.json")
    io.write_standardizer(path, np.array([1.0, -2.0]), np.array([3.0, 0.5]))
    mean, sd = io.read_standardizer(path)
    np.testing.assert_array_equal(mean, [1.0, -2.0])
    np.testing.assert_array_equal(sd, [3.0, 0.5])


def test_truth_round_trip(tmp_path):
    path = str(tmp_path / "t.json")
    io.write_truth(path, np.array([0.5, -1.0]), {2: np.array([-1.0, 1.0])})
    beta, gammas = read_truth(path)
    np.testing.assert_array_equal(beta, [0.5, -1.0])
    np.testing.assert_array_equal(gammas[2], [-1.0, 1.0])


def test_table_round_trip_with_nan(tmp_path):
    path = str(tmp_path / "t.csv")
    io.write_table(path, ["a", "b"], [(1, float("nan")), (2, 0.5)])
    header, rows = read_table(path)
    assert header == ["a", "b"]
    assert rows[0][1] == "" and rows[1][1] == "0.5"


def test_write_table_that_raises_partway_leaves_no_trace(tmp_path):
    path = str(tmp_path / "t.csv")
    io.write_table(path, ["a"], [(1,)])

    def rows():
        yield (2,)
        raise RuntimeError("row 3 failed")

    with pytest.raises(RuntimeError, match="row 3 failed"):
        io.write_table(path, ["a"], rows())
    with pytest.raises(TypeError):  # a cell that does not format
        io.write_table(path, ["a"], [(2,), (object(),)])
    with pytest.raises(RuntimeError, match="row 3 failed"):
        io.write_table(str(tmp_path / "new.csv"), ["a"], rows())
    # the old file is untouched, and no temp file or new file is left
    assert os.listdir(tmp_path) == ["t.csv"]
    assert (tmp_path / "t.csv").read_text() == "a\n1\n"


# -- command line ----------------------------------------------------------


SIM_CONFIG = {
    "num_scales": 2,
    "obs_per_scale": 30,
    "num_features": 3,
    "num_thresholds": [1, 2],
    "seed": 11,
}

FIT_CONFIG = {
    "burn_in": 20,
    "thinning": 1,
    "stored_draws": 10,
    "seed": 5,
    "proposal_sd": {"1": 0.8, "2": 0.8},
}


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture()
def sim_dir(tmp_path):
    config = _write_json(tmp_path / "sim.json", SIM_CONFIG)
    out = tmp_path / "sim"
    out.mkdir()
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    return out


def test_cli_simulate_outputs(sim_dir):
    assert {p.name for p in sim_dir.iterdir()} == {
        "dataset.csv",
        "dataset.scales.json",
        "truth.json",
    }
    ds = io.read_dataset(
        str(sim_dir / "dataset.csv"), str(sim_dir / "dataset.scales.json")
    )
    assert ds.num_obs == 60 and len(ds.scales) == 2
    beta, gammas = read_truth(str(sim_dir / "truth.json"))
    assert beta.shape == (3,) and set(gammas) == {1, 2}


def test_cli_fit_predict_summarize(sim_dir, tmp_path, capsys):
    fit_config = _write_json(tmp_path / "fit.json", FIT_CONFIG)
    fit_out = tmp_path / "fit"
    fit_out.mkdir()
    rc = main(
        [
            "fit",
            str(sim_dir / "dataset.csv"),
            "--config",
            fit_config,
            "--out",
            str(fit_out),
        ]
    )
    assert rc == 0
    summary = json.load(open(fit_out / "fit_summary.json"))
    assert len(summary["beta"]["mean"]) == 3
    assert set(summary["acceptance_rates"]) == {"1", "2"}

    draws_path = str(fit_out / "draws.csv")
    pred_out = tmp_path / "pred"
    pred_out.mkdir()
    rc = main(
        [
            "predict",
            draws_path,
            str(sim_dir / "dataset.csv"),
            "--scale",
            "2",
            "--out",
            str(pred_out),
        ]
    )
    assert rc == 0
    with open(pred_out / "predictions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    for row in rows:
        total = sum(float(row[f"prob_{c}"]) for c in (1, 2, 3))
        assert total == pytest.approx(1.0, abs=1e-9)

    # spot-check the first row against a per-draw average of normal masses
    # and its rank score against the posterior mean of the latent mean
    draws = io.read_draws(draws_path)
    ds = io.read_dataset(
        str(sim_dir / "dataset.csv"), str(sim_dir / "dataset.scales.json")
    )
    eta = draws.beta_draws @ ds.features[0]
    gam = draws.gamma_draws_for(2)
    inf = np.full((len(draws), 1), np.inf)
    edges = np.hstack([-inf, gam, inf])
    want = np.diff(norm.cdf(edges - eta[:, None]), axis=1).mean(axis=0)
    got = [float(rows[0][f"prob_{c}"]) for c in (1, 2, 3)]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert float(rows[0]["rank_score"]) == pytest.approx(eta.mean(), rel=1e-12)

    capsys.readouterr()
    assert main(["summarize", draws_path, "--out", str(tmp_path / "sum")]) in (0,)
    out = capsys.readouterr().out
    assert "beta" in out
    assert os.path.exists(tmp_path / "sum" / "summary.json")


def test_cli_predict_unknown_scale_fails(sim_dir, tmp_path):
    fit_config = _write_json(tmp_path / "fit.json", FIT_CONFIG)
    fit_out = tmp_path / "fit"
    fit_out.mkdir()
    main(
        [
            "fit",
            str(sim_dir / "dataset.csv"),
            "--config",
            fit_config,
            "--out",
            str(fit_out),
        ]
    )
    rc = main(
        [
            "predict",
            str(fit_out / "draws.csv"),
            str(sim_dir / "dataset.csv"),
            "--scale",
            "7",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1


def test_cli_evaluate_row_counts(sim_dir, tmp_path):
    config = _write_json(
        tmp_path / "ev.json", {**FIT_CONFIG, "num_splits": 2, "split_fraction": 0.6}
    )
    out = tmp_path / "ev"
    out.mkdir()
    rc = main(
        [
            "evaluate",
            str(sim_dir / "dataset.csv"),
            "--config",
            config,
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    _, long_rows = read_table(str(out / "eval_long.csv"))
    _, diff_rows = read_table(str(out / "eval_diff.csv"))
    # 2 splits x [2 models x 2 sides x (3 + C_s) metrics x 10 draws]
    assert len(long_rows) == 2 * (2 * 2 * 5 * 10 + 2 * 2 * 6 * 10)
    assert len(diff_rows) == 2 * 2 * 6


@pytest.mark.parametrize("rows_per_block", [1, 59])
def test_cli_predict_row_blocks_change_no_byte(
    sim_dir, draws_path, tmp_path, monkeypatch, rows_per_block
):
    # 60 rows, 10 draws and 3 classes on scale 2: blocks of 1 row, or of 59
    # rows and a 1-row remainder, against one block of every row
    def predict(block_values, out):
        monkeypatch.setattr(metrics, "BLOCK_VALUES", block_values)
        assert main(["predict", draws_path, str(sim_dir / "dataset.csv"),
                     "--scale", "2", "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "predictions.csv").read_bytes()

    assert predict(rows_per_block * 3 * 10, "blocks") == predict(10**9, "whole")


def test_cli_predict_memory_is_the_scores_plus_one_block(tmp_path):
    # 3,000 rows under 800 draws on a 4-class scale: the (n, C, M) class
    # probabilities alone would take 77 MB, the (n, M) scores take 19 MB
    n, m, p = 3000, 800, 3
    g = np.random.default_rng(18)
    scale = ScaleSpec(1, 4)
    dataset = Dataset(features=g.normal(size=(n, p)), labels=1 + np.arange(n) % 4,
                      scale_ids=np.ones(n, dtype=int), scales=(scale,))
    draws = DrawSet(
        beta_draws=g.normal(size=(m, p)),
        threshold_draws=np.sort(g.normal(size=(m, 3)), axis=1),
        scales=(scale,),
        chain_ids=np.zeros(m, dtype=int),
        iteration_ids=np.arange(1, m + 1),
        accept_counts={1: 0},
        proposal_counts={1: 0},
    )
    data = str(tmp_path / "dataset.csv")
    io.write_dataset(data, str(tmp_path / "dataset.scales.json"), dataset)
    io.write_draws(str(tmp_path / "draws.csv"), draws)

    tracemalloc.start()
    try:
        code = main(["predict", str(tmp_path / "draws.csv"), data, "--scale", "1",
                     "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2.5 * n * m * 8, f"traced peak {peak / 2**20:.1f} MiB"


def test_cli_exit_codes(tmp_path):
    assert main(["simulate", "--preset", "no-such-preset", "--out", str(tmp_path)]) == 1
    # usage error is reported as a config error, not argparse's exit 2
    assert main(["fit"]) == 1
    assert main(["no-such-command"]) == 1
    missing = str(tmp_path / "missing.csv")
    assert main(["summarize", missing]) == 3


def test_cli_seed_override_changes_data(tmp_path):
    config = _write_json(tmp_path / "sim.json", SIM_CONFIG)
    outs = []
    for name, seed in (("a", "11"), ("b", "12"), ("c", "12")):
        out = tmp_path / name
        out.mkdir()
        rc = main(
            ["simulate", "--config", config, "--seed", seed, "--out", str(out)]
        )
        assert rc == 0
        outs.append(open(out / "dataset.csv", "rb").read())
    assert outs[0] != outs[1]
    assert outs[1] == outs[2]


def test_cli_fit_standardize_writes_transform(sim_dir, tmp_path):
    fit_config = _write_json(tmp_path / "fit.json", FIT_CONFIG)
    out = tmp_path / "fit_std"
    out.mkdir()
    rc = main(
        [
            "fit",
            str(sim_dir / "dataset.csv"),
            "--config",
            fit_config,
            "--standardize",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    mean, sd = io.read_standardizer(str(out / "standardization.json"))
    ds = io.read_dataset(
        str(sim_dir / "dataset.csv"), str(sim_dir / "dataset.scales.json")
    )
    np.testing.assert_allclose(mean, ds.features.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(sd, ds.features.std(axis=0), rtol=1e-12)


def test_cli_failed_fit_leaves_no_transform(sim_dir, tmp_path, capsys):
    config = _write_json(tmp_path / "fit.json", {**FIT_CONFIG, "prior": {"precision": -1}})
    out = tmp_path / "fit_std"
    _fails_with_one_line(
        capsys,
        ["fit", str(sim_dir / "dataset.csv"), "--config", config, "--standardize",
         "--out", str(out)],
        "scalar prior precision must be finite and > 0",
    )
    assert not out.exists()


# -- malformed inputs end in one line and exit 1 ---------------------------


@pytest.fixture()
def draws_path(sim_dir, tmp_path):
    fit_config = _write_json(tmp_path / "fit.json", FIT_CONFIG)
    out = tmp_path / "fit"
    assert main(["fit", str(sim_dir / "dataset.csv"), "--config", fit_config,
                 "--out", str(out)]) == 0
    return str(out / "draws.csv")


def _fails_with_one_line(capsys, argv, match):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert match in err


@pytest.mark.parametrize(
    "text, match",
    [
        ("{bad", "invalid JSON"),
        ('{"scales": {"1": Infinity, "2": 3}}', "{path} scale 1 class count must be an"),
        ('{"scales": {"1": 1e400, "2": 3}}', "{path} scale 1 class count must be an"),
        ('{"scales": {"1": 2.7, "2": 3}}', "{path} scale 1 class count must be an"),
        ('{"scales": {"1": 2, "2": 1}}', "{path} scale 2 class count must be >= 2"),
        ('{"scales": {"1": 99999999999999999999, "2": 3}}',
         "{path} scale 1 class count must be <= 9223372036854775807"),
    ],
    ids=["invalid-json", "infinite", "overflow", "fractional", "one-class", "beyond-int64"],
)
def test_cli_fit_rejects_malformed_scale_sidecar(sim_dir, tmp_path, capsys, text, match):
    bad = tmp_path / "bad.scales.json"
    bad.write_text(text)
    _fails_with_one_line(
        capsys,
        ["fit", str(sim_dir / "dataset.csv"), "--scales", str(bad),
         "--out", str(tmp_path / "o")],
        match.format(path=bad),
    )


@pytest.mark.parametrize("command", ["fit", "evaluate", "predict"])
def test_cli_names_a_constant_zero_column_as_its_header_does(
    sim_dir, draws_path, tmp_path, capsys, command
):
    # f3, the last column, set to zero on every row
    lines = (sim_dir / "dataset.csv").read_text().splitlines()
    data = tmp_path / "zero.csv"
    data.write_text("\n".join(
        [lines[0]] + [line.rsplit(",", 1)[0] + ",0" for line in lines[1:]]
    ) + "\n")
    argv = {"fit": ["fit", str(data)], "evaluate": ["evaluate", str(data)],
            "predict": ["predict", draws_path, str(data), "--scale", "1"]}[command]
    capsys.readouterr()
    assert main(argv + ["--scales", str(sim_dir / "dataset.scales.json"),
                        "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "feature columns f3 are constant zero" in err, err
    assert "allow_zero_columns" not in err, err


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_cli_rejects_dataset_without_scales(tmp_path, capsys, command):
    (tmp_path / "empty.csv").write_text("scale_id,label,f1\n")
    _write_json(tmp_path / "empty.scales.json", {"scales": {}})
    capsys.readouterr()
    assert main([command, str(tmp_path / "empty.csv"), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no scales declared" in err, err
    assert "Traceback" not in err


def test_cli_predict_rejects_malformed_transform(sim_dir, draws_path, tmp_path, capsys):
    bad = tmp_path / "standardization.json"
    bad.write_text('{"mean": [0, 0, 0], ')
    _fails_with_one_line(
        capsys,
        ["predict", draws_path, str(sim_dir / "dataset.csv"), "--scale", "1",
         "--transform", str(bad), "--out", str(tmp_path / "o")],
        "invalid JSON",
    )


@pytest.mark.parametrize(
    "text",
    [
        '{"mean": [NaN, 0, 0], "scale": [1, 1, 1]}',
        '{"mean": [0, 0, 0], "scale": [1, Infinity, 1]}',
        pytest.param(
            '{"mean": [1%s, 0, 0], "scale": [1, 1, 1]}' % ("0" * 400),
            id="beyond-float-range",
        ),
    ],
)
def test_cli_predict_rejects_non_finite_transform(
    sim_dir, draws_path, tmp_path, capsys, text
):
    bad = tmp_path / "standardization.json"
    bad.write_text(text)
    out = tmp_path / "o"
    _fails_with_one_line(
        capsys,
        ["predict", draws_path, str(sim_dir / "dataset.csv"), "--scale", "1",
         "--transform", str(bad), "--out", str(out)],
        "must be finite",
    )
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize(
    "command, sources, match",
    [
        ("simulate", [], "simulate needs --preset or --config"),
        ("experiment", [], "experiment needs --preset or --config"),
        ("simulate", ["--preset", "experiment1-desk", "--config", "{whole}"],
         "pass either --preset or --config, not both"),
        ("simulate", ["--config", "{partial}"],
         "simulate config is missing key 'num_features'"),
    ],
    ids=["simulate-neither", "experiment-neither", "both", "missing-key"],
)
def test_cli_needs_one_whole_config_document(tmp_path, capsys, command, sources, match):
    paths = {
        "whole": _write_json(tmp_path / "whole.json", SIM_CONFIG),
        "partial": _write_json(
            tmp_path / "partial.json",
            {k: v for k, v in SIM_CONFIG.items() if k != "num_features"},
        ),
    }
    out = tmp_path / "o"
    argv = [command, *(source.format(**paths) for source in sources), "--out", str(out)]
    _fails_with_one_line(capsys, argv, match)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, columns, value, code, match",
    [
        ("fit", ["f1"], "1e155", 2,
         "posterior precision overflows; the features are too large"),
        ("evaluate", ["f1"], "1e155", 2,
         "posterior precision overflows; the features are too large"),
        ("fit --standardize", ["f1"], "1e300", 1,
         "feature columns f1 are too large to standardize"),
        ("predict", ["f1", "f2", "f3"], "1.7e308", 2,
         "latent scores of 3 of 60 rows overflow"),
    ],
    ids=["fit", "evaluate", "fit-standardize", "predict"],
)
def test_cli_rejects_large_finite_features_in_one_line(
    sim_dir, draws_path, tmp_path, capsys, command, columns, value, code, match
):
    # the first three rows' cells of columns set to value: finite, but
    # too large for a product or a sum of squares
    header, rows = read_table(str(sim_dir / "dataset.csv"))
    for row in rows[:3]:
        for column in columns:
            row[header.index(column)] = value
    data = str(tmp_path / "large.csv")
    io.write_table(data, header, rows)
    config = _write_json(tmp_path / "fit.json", FIT_CONFIG)
    ev_config = _write_json(tmp_path / "ev.json", EVALUATE_CONFIG)
    argv = {
        "fit": ["fit", data, "--config", config],
        "evaluate": ["evaluate", data, "--config", ev_config],
        "fit --standardize": ["fit", data, "--config", config, "--standardize"],
        "predict": ["predict", draws_path, data, "--scale", "1"],
    }[command]
    out = tmp_path / "o"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--scales", str(sim_dir / "dataset.scales.json"),
                            "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and match in err, err
    assert not out.exists()


def test_cli_summarize_writes_null_for_a_moment_that_overflows(draws_path, tmp_path, capsys):
    header, rows = read_table(draws_path)
    rows[0][header.index("beta_1")] = "1e300"
    draws = str(tmp_path / "large.csv")
    io.write_table(draws, header, rows)
    out = tmp_path / "o"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["summarize", draws, "--out", str(out)]) == 0
    beta = json.loads((out / "summary.json").read_text())["beta"]
    assert beta["mean"][0] == pytest.approx(1e299)
    assert beta["sd"][0] is None and beta["mcse"][0] is None
    assert all(isinstance(v, float) for v in beta["sd"][1:] + beta["mcse"][1:])
    assert capsys.readouterr().out.splitlines()[1].split() == ["beta_1", "1e+299", "null"]


def test_cli_evaluate_reports_a_split_it_cannot_stratify(sim_dir, tmp_path, capsys):
    # one training row cannot cover every class
    config = _write_json(tmp_path / "c.json", EVALUATE_CONFIG)
    capsys.readouterr()
    assert main(["evaluate", str(sim_dir / "dataset.csv"), "--config", config,
                 "--fraction", "0.01", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no training split covered scale ") and err.count("\n") == 1
    assert err.endswith(" in 100 attempts\n"), err


_BEYOND_INT64 = "99999999999999999999"


@pytest.mark.parametrize(
    "command, column",
    [("fit", "scale_id"), ("fit", "label"), ("predict", "scale_id"), ("predict", "label"),
     ("predict", "chain_id"), ("summarize", "chain_id")],
)
def test_cli_rejects_integer_cells_beyond_int64(
    sim_dir, draws_path, tmp_path, capsys, command, column
):
    data, draws = str(sim_dir / "dataset.csv"), draws_path
    source = draws if column == "chain_id" else data
    header, rows = read_table(source)
    rows[0][header.index(column)] = _BEYOND_INT64
    bad = str(tmp_path / os.path.basename(source))
    io.write_table(bad, header, rows)
    if column == "chain_id":
        draws = bad
    else:
        data = bad
        (tmp_path / "dataset.scales.json").write_text(
            (sim_dir / "dataset.scales.json").read_text()
        )
    argv = {
        "fit": ["fit", data],
        "predict": ["predict", draws, data, "--scale", "1"],
        "summarize": ["summarize", draws],
    }[command]
    _fails_with_one_line(capsys, argv + ["--out", str(tmp_path / "o")], f"{bad} line 2: ")


def test_preset_lookup_returns_a_fresh_copy():
    doc = preset("experiment1-desk")
    doc["replications"] = 1
    doc["num_thresholds"].append(9)
    doc["chain"]["proposal_sd"]["1"] = 99.0
    again = preset("experiment1-desk")
    assert again["replications"] == 20
    assert again["num_thresholds"] == [1, 3, 3]
    assert again["chain"]["proposal_sd"]["1"] == 1.0
    with pytest.raises(ConfigError, match="choose from experiment1, experiment1-desk"):
        preset("no-such-preset")


def test_cli_preset_is_config_with_its_document(sim_dir, tmp_path):
    doc = preset("experiment1-desk")
    design = {key: doc[key] for key in io.DESIGN_KEYS}
    runs = {
        "simulate": (["simulate"], design),
        "fit": (["fit", str(sim_dir / "dataset.csv")], doc["chain"]),
    }
    for command, (argv, part) in runs.items():
        config = _write_json(tmp_path / f"{command}.json", part)
        by_preset = tmp_path / f"{command}-preset"
        by_config = tmp_path / f"{command}-config"
        assert main(argv + ["--preset", "experiment1-desk", "--out", str(by_preset)]) == 0
        assert main(argv + ["--config", config, "--out", str(by_config)]) == 0
        for path in sorted(by_preset.iterdir()):
            assert path.read_bytes() == (by_config / path.name).read_bytes(), path.name


def test_cli_simulate_rejects_non_object_config(tmp_path, capsys):
    config = _write_json(tmp_path / "sim.json", [1])
    _fails_with_one_line(
        capsys,
        ["simulate", "--config", config, "--out", str(tmp_path / "o")],
        "expected a JSON object",
    )


def test_cli_predict_rejects_unordered_thresholds(sim_dir, draws_path, tmp_path, capsys):
    header, rows = read_table(draws_path)
    lo, hi = header.index("gamma_2_1"), header.index("gamma_2_2")
    rows[3][lo], rows[3][hi] = rows[3][hi], rows[3][lo]
    bad = tmp_path / "swapped.csv"
    io.write_table(str(bad), header, rows)
    _fails_with_one_line(
        capsys,
        ["predict", str(bad), str(sim_dir / "dataset.csv"), "--scale", "2",
         "--out", str(tmp_path / "o")],
        "line 5: thresholds of scale 2 are not strictly increasing",
    )
    assert not (tmp_path / "o" / "predictions.csv").exists()


def test_cli_summarize_rejects_draws_without_rows(draws_path, tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text(open(draws_path).readline())
    _fails_with_one_line(capsys, ["summarize", str(bad)], "no draw rows")


def test_cli_predict_rejects_feature_count_mismatch(draws_path, tmp_path, capsys):
    other = tmp_path / "wide"
    config = _write_json(tmp_path / "wide.json", {**SIM_CONFIG, "num_features": 4})
    assert main(["simulate", "--config", config, "--out", str(other)]) == 0
    _fails_with_one_line(
        capsys,
        ["predict", draws_path, str(other / "dataset.csv"), "--scale", "1",
         "--out", str(tmp_path / "o")],
        "draws have 3 coefficients, dataset has 4 features",
    )


def test_cli_fit_rejects_asymmetric_prior_precision(sim_dir, tmp_path, capsys):
    config = _write_json(
        tmp_path / "fit.json",
        {**FIT_CONFIG, "prior": {"precision": [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]}},
    )
    _fails_with_one_line(
        capsys,
        ["fit", str(sim_dir / "dataset.csv"), "--config", config,
         "--out", str(tmp_path / "o")],
        "not symmetric",
    )


def test_cli_fit_rejects_a_proposal_sd_whose_square_overflows(sim_dir, tmp_path, capsys):
    config = _write_json(
        tmp_path / "fit.json", {**FIT_CONFIG, "proposal_sd": {"1": 0.8, "2": 1e200}}
    )
    _fails_with_one_line(
        capsys,
        ["fit", str(sim_dir / "dataset.csv"), "--config", config,
         "--out", str(tmp_path / "o")],
        "proposal_sd for scale 2 must be > 0 and its square positive and finite, got 1e+200",
    )


def test_cli_fit_rejects_a_declared_scale_without_rows(sim_dir, tmp_path, capsys):
    sidecar = json.loads((sim_dir / "dataset.scales.json").read_text())
    sidecar["scales"]["3"] = 3
    side = tmp_path / "more.scales.json"
    side.write_text(json.dumps(sidecar))
    _fails_with_one_line(
        capsys,
        ["fit", str(sim_dir / "dataset.csv"), "--scales", str(side),
         "--out", str(tmp_path / "o")],
        "scale 3 has empty classes [1, 2, 3]; every class needs at least one observation",
    )


def test_cli_fit_and_evaluate_give_a_scale_without_rows_one_error(sim_dir, tmp_path, capsys):
    sidecar = json.loads((sim_dir / "dataset.scales.json").read_text())
    sidecar["scales"]["4"] = 3
    side = _write_json(tmp_path / "more.scales.json", sidecar)
    errors = []
    for command in ("fit", "evaluate"):
        capsys.readouterr()
        assert main([command, str(sim_dir / "dataset.csv"), "--scales", side,
                     "--out", str(tmp_path / command)]) == 1, command
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: scale 4 has empty classes [1, 2, 3]; every class needs at least "
        "one observation\n"
    )


def test_cli_fit_with_three_draws_writes_null_mcse(sim_dir, tmp_path):
    dataset = str(sim_dir / "dataset.csv")
    out = tmp_path / "fit"
    three = _write_json(tmp_path / "three.json", {**FIT_CONFIG, "stored_draws": 3})
    assert main(["fit", dataset, "--config", three, "--out", str(out)]) == 0
    summary = json.load(open(out / "fit_summary.json"))
    assert summary["num_draws"] == 3
    assert summary["beta"]["mcse"] == [None, None, None]
    # two chains of two draws pool to four: enough for batch means
    two = _write_json(tmp_path / "two.json", {**FIT_CONFIG, "stored_draws": 2})
    argv = ["fit", dataset, "--config", two, "--chains", "2", "--out", str(out)]
    assert main(argv) == 0
    summary = json.load(open(out / "fit_summary.json"))
    assert all(isinstance(v, float) for v in summary["beta"]["mcse"])


def test_read_draws_rejects_malformed_rows(tmp_path, two_scale_dataset):
    good = str(tmp_path / "good.csv")
    io.write_draws(good, _tiny_draws(two_scale_dataset))
    header, rows = read_table(good)
    cases = {
        "line 4: empty or non-finite value": rows[:2] + [rows[2][:-1] + [""]],
        "line 4: expected 8 fields, got 7": rows[:2] + [rows[2][:-1]],
        "line 2: invalid literal": [["x"] + rows[0][1:]],
        "line 3: Python int too large": rows[:1] + [[_BEYOND_INT64] + rows[1][1:]],
    }
    for message, body in cases.items():
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(",".join(r) for r in [header] + body) + "\n")
        with pytest.raises(ConfigError, match=message):
            io.read_draws(str(bad))
    # a scale's columns must be contiguous and numbered from 1
    bad.write_text(",".join(header[:-2] + [header[-1], header[-2]]) + "\n")
    with pytest.raises(ConfigError, match="header must be"):
        io.read_draws(str(bad))


def test_cli_evaluate_with_tied_scores_reports_nan_tau(tmp_path):
    # constant features give every row of a side the same latent score
    # under every draw, so tau-b is undefined there
    lines = ["scale_id,label,f1"]
    for scale, classes in ((1, 2), (2, 3)):
        lines += [f"{scale},{1 + i % classes},1" for i in range(12)]
    (tmp_path / "flat.csv").write_text("\n".join(lines) + "\n")
    _write_json(tmp_path / "flat.scales.json", {"scales": {"1": 2, "2": 3}})
    config = _write_json(
        tmp_path / "ev.json",
        {"burn_in": 10, "thinning": 1, "stored_draws": 5, "seed": 3, "num_splits": 1},
    )
    out = tmp_path / "ev"
    assert main(["evaluate", str(tmp_path / "flat.csv"), "--config", config,
                 "--out", str(out)]) == 0
    _, long_rows = read_table(str(out / "eval_long.csv"))
    undefined = [r for r in long_rows if r[3].startswith(("tau_b_", "harmonic_"))]
    assert len(undefined) == 2 * 2 * 2 * 2 * 5
    assert all(r[5] == "" for r in undefined)
    assert all(r[5] != "" for r in long_rows if r[3].startswith("f1_"))
    _, diff_rows = read_table(str(out / "eval_diff.csv"))
    for row in diff_rows:
        empty = row[2].startswith(("tau_b_", "harmonic_"))
        assert (row[3:] == ["", "", ""]) == empty, row


def test_cli_simulate_broadcasts_one_threshold_count(tmp_path):
    config = _write_json(tmp_path / "sim.json", {**SIM_CONFIG, "num_thresholds": 3})
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    ds = io.read_dataset(str(out / "dataset.csv"), str(out / "dataset.scales.json"))
    assert [s.num_classes for s in ds.scales] == [4, 4]


def test_cli_experiment_census_gives_each_failed_fits_lone_error(tmp_path):
    # a prior that holds beta near 40 puts the multi-scale fit's latent
    # intervals far below 1e-300, in both chains, at the first sweep
    doc = {
        "num_scales": 2, "obs_per_scale": 30, "num_features": 3, "num_thresholds": [1, 3],
        "replications": 3, "seed": 2, "num_chains": 2,
        "chain": {"burn_in": 50, "thinning": 1, "stored_draws": 40,
                  "prior": {"mean": 40.0, "precision": 10000.0}},
    }
    out = tmp_path / "o"
    assert main(["experiment", "--config", _write_json(tmp_path / "exp.json", doc),
                 "--out", str(out)]) == 0
    failures = json.loads((out / "experiment_failures.json").read_text())
    assert [(f["replication"], f["stage"]) for f in failures] == [
        (r, "fit-multi") for r in (1, 2, 3)
    ]
    config = io.experiment_config_from_dict(doc)
    for f in failures:
        # the replication's multi fit, rebuilt as run_experiment seeds it
        children = np.random.SeedSequence([config.seed, f["replication"]]).spawn(4)
        sim = simulate_dataset(config.design, np.random.default_rng(children[0]))
        (_, multi), *_ = sim.dataset.model_grid()
        with pytest.raises(MsprobitError) as alone:
            run_chains(multi, replace(config.chain_config, seed=_fit_seed(children[1])))
        assert f["message"] == str(alone.value)
        assert f["message"].startswith("chain 0: sweep 1: interval probability mass underflow")


def test_cli_experiment_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the experiment2 shape (p = 48), whose stacked products go through
    # BLAS; each run in its own process, since OpenBLAS reads its thread
    # count when it loads
    doc = preset("experiment2-desk")
    doc["replications"] = 2
    doc["chain"].update(burn_in=15, thinning=1, stored_draws=15)
    config = _write_json(tmp_path / "exp.json", doc)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    files = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        done = subprocess.run(
            [sys.executable, "-m", "msprobit.cli", "experiment", "--config", config,
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
        )
        assert done.returncode == 0, done.stderr
        files.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert len(files[0]) >= 3 and files[0] == files[1]


def test_cli_experiment_rejects_non_integer_threshold_count(tmp_path, capsys):
    config = _write_json(
        tmp_path / "exp.json",
        {**SIM_CONFIG, "num_thresholds": "a", "replications": 1, "chain": FIT_CONFIG},
    )
    _fails_with_one_line(
        capsys,
        ["experiment", "--config", config, "--out", str(tmp_path / "o")],
        'num_thresholds must be an integer, got "a"',
    )


@pytest.mark.parametrize(
    "changes, match",
    [
        ({"num_thresholds": [1]}, "num_thresholds has 1 entries for S=2"),
        ({"num_scales": -1, "num_thresholds": [1]}, "for S=-1"),
        (
            {"chain": {**FIT_CONFIG, "proposal_sd": -1}},
            "proposal_sd for scale 1 must be > 0",
        ),
        # proposal variances of inf and 0
        (
            {"chain": {**FIT_CONFIG, "proposal_sd": 1e200}},
            "proposal_sd for scale 1 must be > 0 and its square positive and finite",
        ),
        (
            {"chain": {**FIT_CONFIG, "proposal_sd": 1e-200}},
            "proposal_sd for scale 1 must be > 0 and its square positive and finite",
        ),
        ({"chain": 3}, "chain must be an object"),
        ({"chain": {**FIT_CONFIG, "prior": [1]}}, "prior must be an object"),
        (
            {"chain": {**FIT_CONFIG, "prior": {"precision": [[1, 0], [0, 1]]}}},
            "prior precision has shape (2, 2), expected (3, 3)",
        ),
    ],
)
def test_cli_experiment_rejects_invalid_design_before_replicating(
    tmp_path, capsys, changes, match
):
    doc = {**SIM_CONFIG, "replications": 2, "chain": FIT_CONFIG, **changes}
    config = _write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "o"
    _fails_with_one_line(
        capsys, ["experiment", "--config", config, "--out", str(out)], match
    )
    assert not (out / "experiment_summary.csv").exists()
    assert not (out.exists() and any(out.iterdir()))


def test_cli_fit_rejects_non_integer_chain_count(sim_dir, tmp_path, capsys):
    config = _write_json(tmp_path / "fit.json", {**FIT_CONFIG, "num_chains": "x"})
    _fails_with_one_line(
        capsys,
        ["fit", str(sim_dir / "dataset.csv"), "--config", config,
         "--out", str(tmp_path / "o")],
        'num_chains must be an integer, got "x"',
    )


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("split_fraction", "abc", 'split_fraction must be a number, got "abc"'),
        ("num_splits", 1.5, "num_splits must be an integer, got 1.5"),
        ("split_fraction", 1.5, "split_fraction must be in (0,1), got 1.5"),
    ],
)
def test_cli_evaluate_rejects_wrong_typed_split_settings(
    sim_dir, tmp_path, capsys, key, value, match
):
    config = _write_json(tmp_path / "ev.json", {**FIT_CONFIG, key: value})
    _fails_with_one_line(
        capsys,
        ["evaluate", str(sim_dir / "dataset.csv"), "--config", config,
         "--out", str(tmp_path / "o")],
        match,
    )


def test_cli_rejects_negative_seed(sim_dir, tmp_path, capsys):
    _fails_with_one_line(
        capsys,
        ["fit", str(sim_dir / "dataset.csv"), "--seed", "-1",
         "--out", str(tmp_path / "o")],
        "seed must be >= 0, got -1",
    )


# -- a flag is an edit of its config key ------------------------------------

EVALUATE_CONFIG = {**FIT_CONFIG, "num_splits": 1, "split_fraction": 0.6}
EXPERIMENT_CONFIG = {**SIM_CONFIG, "replications": 1, "chain": FIT_CONFIG}
_DESK_DESIGN = {key: preset("experiment1-desk")[key] for key in io.DESIGN_KEYS}


def _artifacts(argv, out) -> dict:
    """Run one command writing to out; every file it wrote, name to bytes."""
    assert main(argv + ["--out", str(out)]) == 0, argv
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize(
    "command, base, flag, key, value, other",
    [
        ("fit", FIT_CONFIG, "--seed", "seed", 7, 8),
        ("fit", FIT_CONFIG, "--chains", "num_chains", 2, 3),
        ("evaluate", EVALUATE_CONFIG, "--fraction", "split_fraction", 0.7, 0.6),
        ("evaluate", EVALUATE_CONFIG, "--splits", "num_splits", 2, 1),
        ("evaluate", EVALUATE_CONFIG, "--seed", "seed", 7, 8),
        ("simulate", "experiment1-desk", "--seed", "seed", 7, 8),
        ("experiment", EXPERIMENT_CONFIG, "--seed", "seed", 7, 8),
    ],
)
def test_cli_flag_is_an_edit_of_its_config_key(
    sim_dir, tmp_path, command, base, flag, key, value, other
):
    """A flag writes what its key in the config document writes, and beats
    that key when both are given."""
    argv = [command]
    if command in ("fit", "evaluate"):
        argv.append(str(sim_dir / "dataset.csv"))
    flag_argv = [flag, str(value)]
    if isinstance(base, str):  # a preset: its design part is the --config twin
        source, base = ["--preset", base], _DESK_DESIGN
    else:
        without = {k: v for k, v in base.items() if k != key}
        source = ["--config", _write_json(tmp_path / "base.json", without)]

    def run(name, setting, flags=()):
        config = _write_json(tmp_path / f"{name}.json", {**base, key: setting})
        return _artifacts(argv + ["--config", config, *flags], tmp_path / name)

    key_only = run("key", value)
    assert _artifacts(argv + source + flag_argv, tmp_path / "flag") == key_only
    assert run("both", other, flag_argv) == key_only
    assert run("other", other) != key_only


def test_cli_experiment_top_level_num_chains_beats_the_chain_objects(tmp_path):
    def run(name, top, nested):
        doc = {**EXPERIMENT_CONFIG, "chain": {**FIT_CONFIG, "num_chains": nested}}
        if top is not None:
            doc["num_chains"] = top
        config = _write_json(tmp_path / f"{name}.json", doc)
        return _artifacts(["experiment", "--config", config], tmp_path / name)

    assert run("top", 2, 1) == run("nested", None, 2) != run("one", None, 1)


# -- counts too large to hold or to loop over --------------------------------

_HUGE = 100000000000000000000


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("fit", FIT_CONFIG, ["--chains", str(_HUGE)]),
        ("fit", {**FIT_CONFIG, "stored_draws": 4000000000000000000}, []),
        ("experiment", {**EXPERIMENT_CONFIG, "num_chains": _HUGE}, []),
    ],
    ids=["fit-flag", "fit-document", "experiment"],
)
def test_cli_rejects_a_draw_store_beyond_the_cap(
    sim_dir, tmp_path, capsys, command, config, flags
):
    data = [str(sim_dir / "dataset.csv")] if command == "fit" else []
    out = tmp_path / "o"
    _fails_with_one_line(
        capsys,
        [command, *data, "--config", _write_json(tmp_path / "c.json", config), *flags,
         "--out", str(out)],
        f"exceed the {MAX_STORED_VALUES} stored values",
    )
    assert not out.exists()


_HUGE_DESIGN = {**SIM_CONFIG, "obs_per_scale": 1000000000000}


@pytest.mark.parametrize(
    "command, config",
    [
        ("simulate", _HUGE_DESIGN),
        ("experiment", {**_HUGE_DESIGN, "replications": 1, "chain": FIT_CONFIG}),
        ("simulate", {**SIM_CONFIG, "num_scales": 1000000000000, "num_thresholds": 1}),
    ],
    ids=["simulate-rows", "experiment-rows", "simulate-scales"],
)
def test_cli_rejects_a_dataset_beyond_the_cap(tmp_path, capsys, command, config):
    out = tmp_path / "o"
    _fails_with_one_line(
        capsys,
        [command, "--config", _write_json(tmp_path / "c.json", config), "--out", str(out)],
        f"features exceed the {MAX_STORED_VALUES} feature values",
    )
    assert not out.exists()


def test_draw_store_cap_admits_exactly_the_cap():
    check_draw_store(2, MAX_STORED_VALUES // 8, 4)
    with pytest.raises(ConfigError, match="2 chains x 268435457 stored draws x 4"):
        check_draw_store(2, MAX_STORED_VALUES // 8 + 1, 4)


def _with_class_count(sim_dir, tmp_path, count):
    """The simulated dataset with scale 1 declaring count classes."""
    sidecar = json.loads((sim_dir / "dataset.scales.json").read_text())
    sidecar["scales"]["1"] = count
    return str(sim_dir / "dataset.csv"), _write_json(tmp_path / "many.scales.json", sidecar)


@pytest.mark.parametrize(
    "command, count, code",
    [("fit", 10**6, 1), ("fit", 10**12, 1), ("evaluate", 10**6, 1)],
)
def test_cli_names_a_few_of_many_empty_classes(
    sim_dir, tmp_path, capsys, command, count, code
):
    data, sidecar = _with_class_count(sim_dir, tmp_path, count)
    doc = EVALUATE_CONFIG if command == "evaluate" else FIT_CONFIG
    config = _write_json(tmp_path / "c.json", doc)
    capsys.readouterr()
    argv = [command, data, "--scales", sidecar, "--config", config,
            "--out", str(tmp_path / "o")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300, err
    assert f"[3, 4, 5, 6, 7] and {count - 7} more" in err


def test_cli_evaluate_rejects_a_trillion_classes_quickly(sim_dir, tmp_path):
    # its own process, with a 1 GiB address space, so a class loop or a
    # class-sized array fails the test instead of running on
    data, sidecar = _with_class_count(sim_dir, tmp_path, 10**12)
    config = _write_json(tmp_path / "c.json", EVALUATE_CONFIG)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "msprobit.cli", "evaluate", data, "--scales", sidecar,
         "--config", config, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert len(done.stderr) < 300, done.stderr


def test_cli_predict_accepts_a_scale_with_more_classes_than_rows(
    sim_dir, draws_path, tmp_path
):
    data, sidecar = _with_class_count(sim_dir, tmp_path, 10**12)
    for scale in ("1", "2"):
        assert main(["predict", draws_path, data, "--scales", sidecar, "--scale", scale,
                     "--out", str(tmp_path / scale)]) == 0


def test_config_number_conversions():
    assert io.config_number(2, "k", integer=True) == 2
    assert io.config_number(2.0, "k", integer=True) == 2
    assert io.config_number(3, "x") == 3.0
    for bad in ("2", True, None, [2], 1.5, float("inf")):
        with pytest.raises(ConfigError, match="^k must be an integer"):
            io.config_number(bad, "k", integer=True)
    for bad in ("0.5", False, None, {}, float("nan"), 10**400):
        with pytest.raises(ConfigError, match="^x must be a number"):
            io.config_number(bad, "x")
    with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
        io.config_number(-3, "seed", integer=True, minimum=0)


# Wrong-typed values: no string, boolean, null, list of strings or object
# of strings is a valid number, and a count must not have a fraction.
_NOT_A_NUMBER = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.text(max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=2), st.text(max_size=2), min_size=1, max_size=2),
)
_NOT_A_COUNT = st.one_of(
    _NOT_A_NUMBER,
    st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: not x.is_integer()
    ),
)
_CHAIN_NUMBERS = [
    (("burn_in",), _NOT_A_COUNT),
    (("thinning",), _NOT_A_COUNT),
    (("stored_draws",), _NOT_A_COUNT),
    (("seed",), _NOT_A_COUNT),
    (("num_chains",), _NOT_A_COUNT),
    (("proposal_sd",), _NOT_A_NUMBER),
    (("prior", "mean"), _NOT_A_NUMBER),
    (("prior", "precision"), _NOT_A_NUMBER),
]
_DESIGN_NUMBERS = [
    ((key,), _NOT_A_COUNT)
    for key in ("num_scales", "obs_per_scale", "num_features", "num_thresholds",
                "min_per_class", "seed")
]
_CONFIG_CASES = (
    [("simulate", path, values) for path, values in _DESIGN_NUMBERS]
    + [("fit", path, values) for path, values in _CHAIN_NUMBERS]
    + [("evaluate", path, values) for path, values in _CHAIN_NUMBERS]
    + [("evaluate", ("split_fraction",), _NOT_A_NUMBER),
       ("evaluate", ("num_splits",), _NOT_A_COUNT)]
    + [("experiment", path, values)
       for path, values in _DESIGN_NUMBERS + [(("replications",), _NOT_A_COUNT),
                                              (("num_chains",), _NOT_A_COUNT)]]
    + [("experiment", ("chain",) + path, values) for path, values in _CHAIN_NUMBERS]
)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    config = _write_json(out / "sim.json", SIM_CONFIG)
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    return str(out / "dataset.csv")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(_CONFIG_CASES), data=st.data())
def test_cli_wrong_typed_config_values_fail_cleanly(small_dataset, case, data):
    command, path, values = case
    chain = {**FIT_CONFIG, "prior": {"mean": 0.0, "precision": 1.0}, "num_chains": 1}
    doc = {
        "simulate": SIM_CONFIG,
        "fit": chain,
        "evaluate": {**chain, "split_fraction": 0.6, "num_splits": 1},
        "experiment": {**SIM_CONFIG, "replications": 1, "num_chains": 1, "chain": chain},
    }[command]
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(values, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        config = _write_json(os.path.join(tmp, "config.json"), doc)
        argv = [command] + ([small_dataset] if command in ("fit", "evaluate") else [])
        err = stdio.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
            code = main(argv + ["--config", config, "--out", os.path.join(tmp, "out")])
    assert code in (1, 2, 3), (command, path, doc)
    assert err.getvalue().startswith("error: "), err.getvalue()


# The Python types and functions check a config value as the CLI does: each
# case is a command, the key path that sets the value in its config, the
# values to draw, and the direct call given the value and the small dataset.
_DESIGN = {key: SIM_CONFIG[key] for key in io.DESIGN_KEYS if key in SIM_CONFIG}
_SHORT = ChainConfig(burn_in=0, thinning=1, stored_draws=2)
_PYTHON_CASES = (
    [("fit", (key,), _NOT_A_COUNT, lambda v, _, key=key: ChainConfig(**{key: v}))
     for key in ("burn_in", "thinning", "stored_draws", "seed", "num_chains")]
    + [("simulate", (key,), _NOT_A_COUNT,
        lambda v, _, key=key: Design(**{**_DESIGN, key: v}))
       for key in ("num_scales", "obs_per_scale", "num_features", "num_thresholds",
                   "min_per_class")]
    + [
        ("experiment", ("replications",), _NOT_A_COUNT,
         lambda v, _: ExperimentConfig(Design(**_DESIGN), v)),
        ("experiment", ("seed",), _NOT_A_COUNT,
         lambda v, _: ExperimentConfig(Design(**_DESIGN), 1, seed=v)),
        ("fit", ("prior", "mean"), _NOT_A_NUMBER, lambda v, _: Prior(mean=v)),
        ("fit", ("prior", "precision"), _NOT_A_NUMBER, lambda v, _: Prior(precision=v)),
        # a JSON object is the per-scale form, whose keys become scale ids
        ("fit", ("proposal_sd",), _NOT_A_NUMBER.filter(lambda v: not isinstance(v, dict)),
         lambda v, _: ChainConfig(proposal_sd=v)),
        ("fit", ("proposal_sd", "1"), _NOT_A_NUMBER,
         lambda v, _: ChainConfig(proposal_sd={1: v, 2: 0.8})),
        ("evaluate", ("split_fraction",), _NOT_A_NUMBER,
         lambda v, data: metrics.evaluate_splits(
             data, v, 1, _SHORT, np.random.default_rng(0))),
        ("evaluate", ("num_splits",), _NOT_A_COUNT,
         lambda v, data: metrics.evaluate_splits(
             data, 0.6, v, _SHORT, np.random.default_rng(0))),
    ]
)


@pytest.mark.parametrize(
    "case", _PYTHON_CASES, ids=["-".join((c[0],) + c[1]) for c in _PYTHON_CASES]
)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_python_api_rejects_a_wrong_typed_value_as_the_cli_does(small_dataset, case, data):
    command, path, values, call = case
    value = data.draw(values, label="value")
    chain = {**FIT_CONFIG, "prior": {"mean": 0.0, "precision": 1.0}}
    doc = json.loads(json.dumps({
        "simulate": SIM_CONFIG,
        "fit": chain,
        "evaluate": {**chain, "split_fraction": 0.6, "num_splits": 1},
        "experiment": {**SIM_CONFIG, "replications": 1, "chain": chain},
    }[command]))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = _write_json(os.path.join(tmp, "config.json"), doc)
        argv = [command] + ([small_dataset] if command in ("fit", "evaluate") else [])
        err = stdio.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
            assert main(argv + ["--config", config, "--out", os.path.join(tmp, "o")]) == 1
    dataset = io.read_dataset(small_dataset, small_dataset[:-4] + ".scales.json")
    with pytest.raises(ConfigError) as python_error:
        call(value, dataset)
    assert err.getvalue() == f"error: {python_error.value}\n"


# -- fuzzed input files ------------------------------------------------------

# One edit of one input file: a cell, a line or a JSON value replaced,
# deleted or added, a line dropped, or the file cut short.
_FUZZ_VALUES = ("", "x", "nan", "inf", "-inf", "1e999", "-1e999", _BEYOND_INT64,
                "-" + _BEYOND_INT64, "1" + "0" * 400, "0", "-1", "2", "0.5", "null", "[]",
                "1e155", "1e300")
_FUZZ_EDITS = ("replace", "delete", "append", "drop", "truncate")
# each input file and the commands that read it
_FUZZ_READERS = {
    "dataset.csv": ("fit", "predict", "evaluate"),
    "dataset.scales.json": ("fit", "predict", "evaluate"),
    "draws.csv": ("predict", "summarize"),
    "standardization.json": ("predict",),
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    chain = {"burn_in": 3, "thinning": 1, "stored_draws": 4, "seed": 1, "proposal_sd": 0.8}
    _write_json(root / "chain.json", chain)
    _write_json(root / "eval.json", {**chain, "num_splits": 1, "split_fraction": 0.6})
    config = _write_json(root / "sim.json", SIM_CONFIG)
    assert main(["simulate", "--config", config, "--out", str(root)]) == 0
    assert main(["fit", str(root / "dataset.csv"), "--config", str(root / "chain.json"),
                 "--chains", "2", "--standardize", "--out", str(root)]) == 0
    return {name: (root / name).read_text() for name in _FUZZ_READERS}, root


def _fuzz_csv(text, edit, where, cell, value):
    lines = text.splitlines()
    i = where % len(lines)
    cells = lines[i].split(",")
    if edit == "replace":
        cells[cell % len(cells)] = value
    elif edit == "delete":
        del cells[cell % len(cells)]
    elif edit == "append":
        cells.append(value)
    lines[i] = ",".join(cells)
    if edit == "drop":
        del lines[i]
    elif edit == "truncate":
        return "\n".join(lines[:i] + [lines[i][: cell % (len(lines[i]) + 1)]])
    return "\n".join(lines) + "\n"


def _fuzz_json(text, edit, where, cell, value):
    if edit == "truncate":
        return text[: where % len(text)]
    special = {"": '""', "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "x": '"x"'}
    token = special.get(value, value)  # the rest are JSON literals as they stand
    doc = json.loads(text)

    def slots(node):
        for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
            yield node, key
            if isinstance(child, (dict, list)):
                yield from slots(child)

    found = list(slots(doc))
    parent, key = found[where % len(found)]
    if edit == "replace":
        parent[key] = "<value>"
    elif edit == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.append("<value>")
    else:  # a new key, or a renamed one
        parent[value] = "<value>" if edit == "append" else parent.pop(key)
    return json.dumps(doc).replace('"<value>"', token)


def _assert_all_written_values_finite(out, command):
    def reject(token):
        raise AssertionError(f"{command} wrote {token} to {path}")

    for path in pathlib.Path(out).iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=reject)
        else:
            for row in csv.reader(path.open()):
                assert not {"inf", "-inf", "nan"} & set(row), (command, path, row)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(_FUZZ_READERS)),
    edit=st.sampled_from(_FUZZ_EDITS),
    where=st.integers(0, 200),
    cell=st.integers(0, 10),
    value=st.sampled_from(_FUZZ_VALUES),
)
@example(name="dataset.csv", edit="replace", where=1, cell=0, value=_BEYOND_INT64)
@example(name="dataset.csv", edit="replace", where=1, cell=1, value=_BEYOND_INT64)
@example(name="dataset.scales.json", edit="replace", where=1, cell=0, value=_BEYOND_INT64)
@example(name="draws.csv", edit="replace", where=1, cell=0, value=_BEYOND_INT64)
@example(name="standardization.json", edit="replace", where=1, cell=0, value="1" + "0" * 400)
@example(name="dataset.csv", edit="replace", where=1, cell=2, value="1e155")
@example(name="draws.csv", edit="replace", where=1, cell=2, value="1e300")
def test_cli_survives_one_edit_of_any_input_file(fuzz_inputs, name, edit, where, cell, value):
    """Every command that reads the edited file exits 0 to 3 without a
    traceback, and a failure is exactly one error line on stderr. A command
    that exits 0 writes no inf or nan cell to a CSV file and no Infinity or
    NaN token to a JSON file. The commands share one validation path: a
    dataset or sidecar edit that makes fit exit 1 makes evaluate exit 1 with
    the same line."""
    texts, root = fuzz_inputs
    mutate = _fuzz_json if name.endswith(".json") else _fuzz_csv
    with tempfile.TemporaryDirectory() as tmp:
        for other, text in texts.items():
            with open(os.path.join(tmp, other), "w") as fh:
                fh.write(mutate(text, edit, where, cell, value) if other == name else text)
        data, draws = os.path.join(tmp, "dataset.csv"), os.path.join(tmp, "draws.csv")
        argv = {
            "fit": ["fit", data, "--config", str(root / "chain.json")],
            "predict": ["predict", draws, data, "--scale", "2",
                        "--transform", os.path.join(tmp, "standardization.json")],
            "summarize": ["summarize", draws],
            "evaluate": ["evaluate", data, "--config", str(root / "eval.json")],
        }
        outcomes = {}  # command -> exit code and stderr
        for command in _FUZZ_READERS[name]:
            err = stdio.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
                code = main(argv[command] + ["--out", os.path.join(tmp, "out")])
            assert code in (0, 1, 2, 3), (command, code)
            if code:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith(("error: ", "i/o error: ")), (
                    command, err.getvalue())
            else:
                _assert_all_written_values_finite(os.path.join(tmp, "out"), command)
            outcomes[command] = code, err.getvalue()
        if "fit" in outcomes and outcomes["fit"][0] == 1:
            assert outcomes["evaluate"] == outcomes["fit"], outcomes
