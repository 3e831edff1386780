"""Byte-for-byte guard on the CLI artifacts.

One small fixed session (simulate, a two-chain standardized fit, predict
on every scale, summarize, a two-split evaluate, a two-replication
experiment) must write files with exactly the SHA-256 digests below. A
refactor that claims to keep behaviour keeps them. A change that moves a
random stream or a floating-point result on purpose updates them and says
so; ``PYTHONPATH=src python -m tests.test_golden`` prints the current
digests.
"""

import hashlib
import json
import pathlib
import tempfile

from msprobit.cli import main

SIM = {"num_scales": 3, "obs_per_scale": 30, "num_features": 3,
       "num_thresholds": [1, 3, 2], "seed": 4}
CHAIN = {"burn_in": 30, "thinning": 2, "stored_draws": 10, "seed": 8,
         "proposal_sd": {"1": 1.0, "2": 0.5, "3": 0.5}}
EVALUATE = {**CHAIN, "num_splits": 2, "split_fraction": 0.6}
EXPERIMENT = {**SIM, "replications": 2, "chain": CHAIN}

DIGESTS = {
    "evaluate/eval_diff.csv": "65bd56b772f24b5dbbb65663c7db1a537b6c082d0e5a5443f847acaa1825fc72",
    "evaluate/eval_long.csv": "8f7e6d26253073df7a9504b46308d0125c743ea51dc9727133756e5a9d1b63d9",
    "experiment/experiment_draws.csv": "5f9fab8fa357568e801146af7c171b6e97fc10e64f0e2168eb78c5e6ca618cfc",
    "experiment/experiment_failures.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "experiment/experiment_ratios.csv": "00c2e82d4718f38df64c2283995fb464064e7a27fc1339e86768eac7abf4ad4d",
    "experiment/experiment_summary.csv": "3fc55fa23d8c81dfcbb63cafa11dc6cadab5ce8470c7209fcbeec2984e1feed1",
    "fit/draws.csv": "077c1147aff0e071118be2d21a9a777d405ee52492075b3de424b0382d716855",
    "fit/fit_summary.json": "1a6f8c8bcc09d2e80ded3338c5519a983a37f2ff1feae7ed2c66da23b82229e8",
    "fit/standardization.json": "8ac067d30e0d50e92b11923ba71c7809f2f217fed693b69d4d1f55c428a6bd5d",
    "predict-1/predictions.csv": "5f0d32987a80dcdd2c9b154faa9f933fca7635b4c0cc78bf72fb57505650fc3b",
    "predict-2/predictions.csv": "4f1ff66fb9291d6f4b2bb780ef6abfc4ced5110f883d4d790a7e32b18e140d1b",
    "predict-3/predictions.csv": "a6bcde0e474df31324e899943883194142523460120cda8821b0f445920967a4",
    "simulate/dataset.csv": "286dd5936e16575cba8e14bb5dfd144cda8567e458acb84a55d50e90cb7e90d9",
    "simulate/dataset.scales.json": "f35bc610a201dfd13abc983cda988336963d150cc3524474c2508c283086c46a",
    "simulate/truth.json": "bc4a82a715051fa8287cd007e3d80462ec7789e7724c77bd9143018210d1b3cb",
    "summarize/summary.json": "495d1df21b9119df602d5952541e1ff1698a70c13718513268bc67db7d21e067",
}


def run_session(root: pathlib.Path) -> dict[str, str]:
    """Run the session under root; the digest of every file it writes to
    root/out, keyed by its path below root/out."""
    configs = {}
    for name, doc in (("sim", SIM), ("chain", CHAIN), ("evaluate", EVALUATE),
                      ("experiment", EXPERIMENT)):
        configs[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(doc))
    out = root / "out"
    data = str(out / "simulate" / "dataset.csv")
    draws = str(out / "fit" / "draws.csv")
    commands = [
        ["simulate", "--config", configs["sim"], "--out", str(out / "simulate")],
        ["fit", data, "--config", configs["chain"], "--chains", "2", "--standardize",
         "--out", str(out / "fit")],
        *(["predict", draws, data, "--scale", str(sid), "--transform",
           str(out / "fit" / "standardization.json"), "--out", str(out / f"predict-{sid}")]
          for sid in (1, 2, 3)),
        ["summarize", draws, "--out", str(out / "summarize")],
        ["evaluate", data, "--config", configs["evaluate"], "--out", str(out / "evaluate")],
        ["experiment", "--config", configs["experiment"], "--out", str(out / "experiment")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_cli_session_artifacts_are_byte_identical(tmp_path):
    assert run_session(tmp_path) == DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in run_session(pathlib.Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
