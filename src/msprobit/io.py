"""File formats: dataset CSV + scale sidecar, draw CSV, report CSVs, and
JSON configs. All floating-point output uses 17 significant digits so a
written value round-trips exactly; writes go through a temp file and a
rename so readers never see a partial file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from typing import Iterable

import numpy as np

from .errors import ConfigError, DatasetValidationError
from .model import ChainConfig, Dataset, Prior, ScaleSpec, validate_dataset
from .sampler import DrawSet


def format_float(x) -> str:
    x = float(x)
    if np.isnan(x):
        return ""
    return "%.17g" % x


def parse_float(s: str) -> float:
    return float("nan") if s == "" else float(s)


def atomic_write_text(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_rows(path: str, header: list[str], rows: Iterable[Iterable]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_json_object(path: str) -> dict:
    """Parse a JSON file that must hold one object; ConfigError otherwise."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


def config_number(value, key: str, *, integer: bool = False, minimum=None):
    """A JSON config value as a finite float, or as an int with integer=True,
    of at least minimum; a ConfigError naming key otherwise.

    Strings and booleans are rejected rather than coerced, and so is a count
    with a fractional part such as 1.5.
    """
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            as_float = float(value)
        except OverflowError:  # an int beyond the float range
            as_float = math.inf
        if integer and (isinstance(value, int) or as_float.is_integer()):
            number = int(value)
        elif not integer and math.isfinite(as_float):
            number = as_float
    if number is None:
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{key} must be {kind}, got {json.dumps(value)}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {number}")
    return number


# -- dataset ---------------------------------------------------------------


def write_dataset(path: str, sidecar_path: str, dataset: Dataset):
    """Dataset CSV (scale_id, label, f1..fp) plus a JSON sidecar mapping
    scale_id to its class count."""
    p = dataset.num_features
    header = ["scale_id", "label"] + [f"f{j}" for j in range(1, p + 1)]
    rows = (
        [str(int(dataset.scale_ids[i])), str(int(dataset.labels[i]))]
        + [format_float(v) for v in dataset.features[i]]
        for i in range(dataset.num_obs)
    )
    _write_rows(path, header, rows)
    sidecar = {
        "scales": {str(s.scale_id): s.num_classes for s in dataset.scales}
    }
    atomic_write_text(sidecar_path, json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_dataset(path: str, sidecar_path: str) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["scale_id", "label"]:
            raise DatasetValidationError(
                [f"{path}: header must start with scale_id,label"]
            )
        feat_names = header[2:]
        scale_ids, labels, feats = [], [], []
        for ln, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DatasetValidationError(
                    [f"{path} line {ln}: expected {len(header)} fields, got {len(row)}"]
                )
            try:
                scale_ids.append(int(row[0]))
                labels.append(int(row[1]))
                feats.append([parse_float(v) for v in row[2:]])
            except ValueError as exc:
                raise DatasetValidationError(
                    [f"{path} line {ln}: {exc}"]
                ) from None

    sidecar = read_json_object(sidecar_path)
    try:
        scales = tuple(
            ScaleSpec(scale_id=int(sid), num_classes=int(c))
            for sid, c in sorted(sidecar["scales"].items(), key=lambda kv: int(kv[0]))
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatasetValidationError(
            [f"bad scale sidecar {sidecar_path}: {exc}"]
        ) from None

    features = np.asarray(feats, dtype=float).reshape(len(feats), len(feat_names))
    return validate_dataset(
        Dataset(
            features=features,
            labels=np.asarray(labels, dtype=int),
            scale_ids=np.asarray(scale_ids, dtype=int),
            scales=scales,
        )
    )


# -- draws -----------------------------------------------------------------


def gamma_column_names(scales: tuple[ScaleSpec, ...]) -> list[str]:
    names = []
    for s in scales:
        names.extend(f"gamma_{s.scale_id}_{j}" for j in range(1, s.num_thresholds + 1))
    return names


def write_draws(path: str, draws: DrawSet):
    """One row per stored draw: chain_id, iteration, beta_*, then the
    threshold columns scale by scale."""
    p = draws.beta_draws.shape[1]
    header = (
        ["chain_id", "iteration"]
        + [f"beta_{j}" for j in range(1, p + 1)]
        + gamma_column_names(draws.scales)
    )
    gamma_mat = (
        np.concatenate(draws.gamma_draws, axis=1)
        if draws.gamma_draws
        else np.empty((len(draws), 0))
    )

    def rows():
        for m in range(len(draws)):
            yield (
                [str(int(draws.chain_ids[m])), str(int(draws.iteration_ids[m]))]
                + [format_float(v) for v in draws.beta_draws[m]]
                + [format_float(v) for v in gamma_mat[m]]
            )

    _write_rows(path, header, rows())


def read_draws(path: str) -> DrawSet:
    """Rebuild a draw set from CSV; acceptance counters are not stored in
    the file and come back zero.

    Raises ConfigError unless the file has the layout write_draws gives it,
    at least one row, only finite values, and strictly increasing
    thresholds in every row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["chain_id", "iteration"]:
            raise ConfigError(f"{path}: header must start with chain_id,iteration")
        data = [row for row in reader]

    p = sum(1 for h in header if h.startswith("beta_"))
    num_thresholds: dict[int, int] = {}  # scale id -> its last gamma column
    for h in header[2 + p :]:
        match = re.fullmatch(r"gamma_(-?\d+)_([1-9]\d*)", h)
        if match:
            num_thresholds[int(match[1])] = int(match[2])
    scales = tuple(ScaleSpec(sid, k + 1) for sid, k in num_thresholds.items())
    expected = ["chain_id", "iteration"] + [f"beta_{j}" for j in range(1, p + 1)]
    if header != expected + gamma_column_names(scales):
        raise ConfigError(
            f"{path}: header must be chain_id,iteration,beta_1..beta_p "
            "then gamma_<scale>_<j> per scale"
        )
    if not data:
        raise ConfigError(f"{path}: no draw rows")
    for ln, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise ConfigError(
                f"{path} line {ln}: expected {len(header)} fields, got {len(row)}"
            )
    try:
        chain_ids = np.array([int(r[0]) for r in data], dtype=int)
        iteration_ids = np.array([int(r[1]) for r in data], dtype=int)
        values = np.array([[parse_float(v) for v in r[2:]] for r in data], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path} line {bad[0] + 2}: empty or non-finite value")

    beta = np.ascontiguousarray(values[:, :p])
    gammas = []
    off = p
    for s in scales:
        g = np.ascontiguousarray(values[:, off : off + s.num_thresholds])
        bad = np.flatnonzero(np.any(np.diff(g, axis=1) <= 0, axis=1))
        if bad.size:
            raise ConfigError(
                f"{path} line {bad[0] + 2}: thresholds of scale {s.scale_id} "
                "are not strictly increasing"
            )
        gammas.append(g)
        off += s.num_thresholds
    return DrawSet(
        beta_draws=beta,
        gamma_draws=tuple(gammas),
        scales=scales,
        chain_ids=chain_ids,
        iteration_ids=iteration_ids,
        accept_counts={s.scale_id: 0 for s in scales},
        proposal_counts={s.scale_id: 0 for s in scales},
    )


# -- generic report tables -------------------------------------------------

LONG_HEADER = ["split_id", "model", "scale_id", "metric", "draw_id", "value"]
DIFF_HEADER = ["split_id", "scale_id", "metric", "mean_multi", "mean_single", "diff"]
SUMMARY_HEADER = ["replication", "model", "scale_id", "metric", "value"]
RATIO_HEADER = ["replication", "scale_id", "metric", "single", "multi", "ratio"]
DRAW_HEADER = ["replication", "model", "scale_id", "metric", "draw_id", "value"]


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format_float(v)


def write_table(path: str, header: list[str], rows: Iterable[tuple]):
    _write_rows(path, header, ([_format_cell(v) for v in row] for row in rows))


# -- configs ---------------------------------------------------------------


def chain_config_from_dict(doc: dict) -> tuple[ChainConfig, int]:
    """Build a chain configuration from a JSON document; returns the config
    and the chain count (default 1). Unknown keys are rejected."""
    allowed = {
        "prior",
        "proposal_sd",
        "burn_in",
        "thinning",
        "stored_draws",
        "seed",
        "num_chains",
    }
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    prior_doc = doc.get("prior", {})
    if not isinstance(prior_doc, dict):
        raise ConfigError("prior must be an object")
    bad = sorted(set(prior_doc) - {"mean", "precision"})
    if bad:
        raise ConfigError(f"unknown prior key(s): {', '.join(bad)}")
    for key, value in prior_doc.items():
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting
            arr = np.asarray(None)
        if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
            raise ConfigError(
                f"prior {key} must be a number or an array of numbers, "
                f"got {json.dumps(value)}"
            )
    prior = Prior(
        mean=prior_doc.get("mean", 0.0),
        precision=prior_doc.get("precision", 1.0),
    )
    proposal_sd = doc.get("proposal_sd", 0.5)
    if isinstance(proposal_sd, dict):
        try:
            proposal_sd = {
                int(k): config_number(v, f"proposal_sd {k}")
                for k, v in proposal_sd.items()
            }
        except ValueError:
            raise ConfigError(
                f"proposal_sd keys must be scale ids, got {sorted(proposal_sd)}"
            ) from None
    else:
        proposal_sd = config_number(proposal_sd, "proposal_sd")
    config = ChainConfig(
        prior=prior,
        proposal_sd=proposal_sd,
        burn_in=config_number(doc.get("burn_in", 50_000), "burn_in", integer=True),
        thinning=config_number(doc.get("thinning", 100), "thinning", integer=True),
        stored_draws=config_number(
            doc.get("stored_draws", 500), "stored_draws", integer=True
        ),
        seed=config_number(doc.get("seed", 0), "seed", integer=True, minimum=0),
    )
    num_chains = config_number(
        doc.get("num_chains", 1), "num_chains", integer=True, minimum=1
    )
    return config, num_chains


def write_standardizer(path: str, mean: np.ndarray, scale: np.ndarray):
    doc = {
        "mean": [float(v) for v in np.asarray(mean).ravel()],
        "scale": [float(v) for v in np.asarray(scale).ravel()],
    }
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def read_standardizer(path: str) -> tuple[np.ndarray, np.ndarray]:
    doc = read_json_object(path)
    try:
        mean = np.asarray([float(v) for v in doc["mean"]], dtype=float)
        scale = np.asarray([float(v) for v in doc["scale"]], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad standardizer file: {exc}") from None
    if mean.shape != scale.shape or np.any(scale <= 0):
        raise ConfigError(f"{path}: mean/scale must match and scale must be > 0")
    return mean, scale


def write_truth(path: str, beta: np.ndarray, gammas: dict[int, np.ndarray], y_star=None):
    doc = {
        "beta": [float(v) for v in np.asarray(beta).ravel()],
        "gammas": {
            str(sid): [float(v) for v in np.asarray(g).ravel()]
            for sid, g in gammas.items()
        },
    }
    if y_star is not None:
        doc["y_star"] = [float(v) for v in np.asarray(y_star).ravel()]
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
