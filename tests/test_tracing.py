"""The benchmark tracer, perfbench/tracing.py, wraps package functions under
the names their callers look them up by and reads the sampler's arguments
and results. These tests pin what it relies on, using the file unchanged."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from msprobit import cli

ROOT = Path(__file__).resolve().parents[1]

# (module, attribute) of every name the tracer wraps that must stay live
LIVE = [
    ("cli", "main"),
    ("cli", "run_chains"),
    ("io", "read_dataset"),
    ("io", "read_draws"),
    ("io", "write_draws"),
    ("io", "write_table"),
    ("io", "atomic_write_text"),
    ("sampler", "sample_truncated_normal_many"),
    ("metrics", "classify_draws"),
    ("cli", "evaluate_splits"),
    ("cli", "run_experiment"),
    ("simulate", "simulate_dataset"),
    ("io", "validate_dataset"),
    ("sampler", "validate_dataset"),
]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Wrapped names whose call sites are gone: evaluate and experiment run each
# model grid as one batch through run_fits, so traced runs of them read the
# sampler.* fit and sweep metrics as 0.
GONE = [
    ("metrics", "run_chains"),
    ("simulate", "run_chains"),
]


def test_every_live_traced_name_exists(tracing):
    wrapped = {(module, attr) for module, attr, *_ in tracing.TARGETS}
    for module, attr in LIVE:
        assert (module, attr) in wrapped
        assert callable(getattr(importlib.import_module(f"msprobit.{module}"), attr))
    for module, attr in GONE:
        assert (module, attr) in wrapped
        assert not hasattr(importlib.import_module(f"msprobit.{module}"), attr)


def test_traced_fit_counts_one_fit_and_every_chains_sweeps(tracing, tmp_path):
    sim = {"num_scales": 2, "obs_per_scale": 30, "num_features": 3,
           "num_thresholds": [1, 2], "seed": 11}
    chain = {"burn_in": 20, "thinning": 3, "stored_draws": 10, "seed": 5}
    (tmp_path / "sim.json").write_text(json.dumps(sim))
    (tmp_path / "fit.json").write_text(json.dumps(chain))
    assert cli.main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path)]) == 0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["fit", str(tmp_path / "dataset.csv"), "--config",
                         str(tmp_path / "fit.json"), "--chains", "2",
                         "--out", str(tmp_path / "fit")])
    finally:
        tracer.uninstall()
    assert code == 0

    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["sampler.fits"][0] == 1
    assert metrics["sampler.sweeps"][0] == 2 * (20 + 3 * 10)
    assert 0.0 < metrics["sampler.mh_accept_rate"][0] < 1.0
