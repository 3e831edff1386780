"""File formats and the command-line entry points."""

import csv
import json
import math
import os

import contextlib
import io as stdio
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from msprobit import io
from msprobit.cli import main
from msprobit.errors import ConfigError, DatasetValidationError
from msprobit.model import ChainConfig, ScaleSpec
from msprobit.sampler import run_chain
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
    return run_chain(ds, config)


def test_draws_round_trip_and_stability(tmp_path, two_scale_dataset):
    draws = _tiny_draws(two_scale_dataset)
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    io.write_draws(p1, draws)
    back = io.read_draws(p1)
    np.testing.assert_array_equal(back.beta_draws, draws.beta_draws)
    for g1, g2 in zip(back.gamma_draws, draws.gamma_draws):
        np.testing.assert_array_equal(g1, g2)
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
    config, chains = io.chain_config_from_dict(
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
    assert chains == 3
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


def test_cli_fit_rejects_malformed_scale_sidecar(sim_dir, tmp_path, capsys):
    bad = tmp_path / "bad.scales.json"
    bad.write_text("{bad")
    _fails_with_one_line(
        capsys,
        ["fit", str(sim_dir / "dataset.csv"), "--scales", str(bad),
         "--out", str(tmp_path / "o")],
        "invalid JSON",
    )


def test_cli_predict_rejects_malformed_transform(sim_dir, draws_path, tmp_path, capsys):
    bad = tmp_path / "standardization.json"
    bad.write_text('{"mean": [0, 0, 0], ')
    _fails_with_one_line(
        capsys,
        ["predict", draws_path, str(sim_dir / "dataset.csv"), "--scale", "1",
         "--transform", str(bad), "--out", str(tmp_path / "o")],
        "invalid JSON",
    )


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
        "invalid literal": [["x"] + rows[0][1:]],
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
