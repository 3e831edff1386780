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
from dataclasses import replace
from typing import Iterable

import numpy as np

from .errors import ConfigError, DatasetValidationError
from .model import ChainConfig, Dataset, Prior, ScaleSpec, validate_dataset
from .sampler import DrawSet
from .simulate import ExperimentConfig


def format_float(x) -> str:
    x = float(x)
    if x != x:  # NaN; faster than np.isnan on a Python float
        return ""
    return "%.17g" % x


def parse_float(s: str) -> float:
    return float("nan") if s == "" else float(s)


def atomic_write_text(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path: str, doc):
    """doc as JSON with indent 2 and sorted keys, plus a trailing newline."""
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


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


def config_number(value, key: str, *, integer: bool = False, minimum=None, maximum=None):
    """A JSON config value as a finite float, or as an int with integer=True,
    between minimum and maximum; a ConfigError naming key otherwise.

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
    if maximum is not None and number > maximum:
        raise ConfigError(f"{key} must be <= {maximum}, got {number}")
    return number


# -- dataset ---------------------------------------------------------------


def write_dataset(path: str, sidecar_path: str, dataset: Dataset):
    """Dataset CSV (scale_id, label, f1..fp) plus a JSON sidecar mapping
    scale_id to its class count."""
    p = dataset.num_features
    header = ["scale_id", "label"] + [f"f{j}" for j in range(1, p + 1)]
    columns = [dataset.scale_ids.tolist(), dataset.labels.tolist(),
               *dataset.features.T.tolist()]
    write_table(path, header, zip(*columns))
    write_json(
        sidecar_path,
        {"scales": {str(s.scale_id): s.num_classes for s in dataset.scales}},
    )


def _read_numeric_csv(path: str, id_names: list[str], error):
    """(header, ids, values) of a CSV whose header starts with the two
    id_names: ids (m, 2) holds the two leading columns as int64, values
    (m, k) the other k as floats, an empty cell as NaN.

    A wrong header, a row of the wrong width or a cell that does not parse
    raises error(message), a message naming the path and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != id_names:
            raise error(f"{path}: header must start with {','.join(id_names)}")
        ids, values = [], []
        for ln, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise error(
                    f"{path} line {ln}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                ids.append((np.int64(row[0]), np.int64(row[1])))
                values.append([parse_float(v) for v in row[2:]])
            except (ValueError, OverflowError) as exc:
                raise error(f"{path} line {ln}: {exc}") from None
    ids = np.array(ids, dtype=int).reshape(-1, 2)
    values = np.array(values, dtype=float).reshape(len(values), len(header) - 2)
    return header, ids, values


def read_dataset(path: str, sidecar_path: str) -> Dataset:
    _, ids, features = _read_numeric_csv(
        path, ["scale_id", "label"], lambda message: DatasetValidationError([message])
    )
    sidecar = read_json_object(sidecar_path)
    try:
        counts = sorted(sidecar["scales"].items(), key=lambda kv: int(kv[0]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatasetValidationError(
            [f"bad scale sidecar {sidecar_path}: {exc}"]
        ) from None
    scales = tuple(
        ScaleSpec(
            scale_id=int(sid),
            num_classes=config_number(
                c, f"{sidecar_path} scale {sid} class count",
                integer=True, minimum=2, maximum=np.iinfo(np.int64).max,
            ),
        )
        for sid, c in counts
    )

    return validate_dataset(
        Dataset(features=features, labels=ids[:, 1], scale_ids=ids[:, 0], scales=scales)
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
    columns = [draws.chain_ids.tolist(), draws.iteration_ids.tolist(),
               *draws.beta_draws.T.tolist(), *draws.threshold_draws.T.tolist()]
    write_table(path, header, zip(*columns))


def read_draws(path: str) -> DrawSet:
    """Rebuild a draw set from CSV; acceptance counters are not stored in
    the file and come back zero.

    Raises ConfigError unless the file has the layout write_draws gives it,
    at least one row, only finite values, and strictly increasing
    thresholds in every row.
    """
    header, ids, values = _read_numeric_csv(path, ["chain_id", "iteration"], ConfigError)
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
    if not len(values):
        raise ConfigError(f"{path}: no draw rows")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path} line {bad[0] + 2}: empty or non-finite value")

    # neighbouring thresholds of one scale must increase; name the first
    # scale that breaks this and its first row that does
    scale_of = np.repeat(np.arange(len(scales)), [s.num_thresholds for s in scales])
    within = scale_of[1:] == scale_of[:-1]
    rows, cols = np.nonzero((np.diff(values[:, p:], axis=1) <= 0) & within)
    if rows.size:
        k = scale_of[cols].min()
        raise ConfigError(
            f"{path} line {rows[scale_of[cols] == k].min() + 2}: thresholds "
            f"of scale {scales[k].scale_id} are not strictly increasing"
        )
    return DrawSet(
        beta_draws=np.ascontiguousarray(values[:, :p]),
        threshold_draws=np.ascontiguousarray(values[:, p:]),
        scales=scales,
        chain_ids=ids[:, 0],
        iteration_ids=ids[:, 1],
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
    """A CSV table: strings as they are, ints with str, floats with
    format_float."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_format_cell, row)) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- configs ---------------------------------------------------------------


def chain_config_from_dict(doc: dict) -> ChainConfig:
    """Build a chain configuration from a JSON document. Unknown keys are
    rejected."""
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
    return ChainConfig(
        prior=prior,
        proposal_sd=proposal_sd,
        burn_in=config_number(doc.get("burn_in", 50_000), "burn_in", integer=True),
        thinning=config_number(doc.get("thinning", 100), "thinning", integer=True),
        stored_draws=config_number(
            doc.get("stored_draws", 500), "stored_draws", integer=True
        ),
        seed=config_number(doc.get("seed", 0), "seed", integer=True, minimum=0),
        num_chains=config_number(doc.get("num_chains", 1), "num_chains", integer=True),
    )


DESIGN_KEYS = (
    "num_scales",
    "obs_per_scale",
    "num_features",
    "num_thresholds",
    "min_per_class",
)


def design_from_dict(doc: dict, command: str) -> dict:
    """The simulation design and seed of a simulate or experiment config,
    every count checked to be an integer. num_thresholds is one count for
    all scales or a per-scale list; min_per_class defaults to 1, seed to 0."""
    missing = [k for k in DESIGN_KEYS if k not in doc and k != "min_per_class"]
    if missing:
        raise ConfigError(f"{command} config is missing key {missing[0]!r}")
    design = {
        key: config_number(doc.get(key, 1), key, integer=True)
        for key in DESIGN_KEYS
        if key != "num_thresholds"
    }
    design["seed"] = config_number(doc.get("seed", 0), "seed", integer=True, minimum=0)
    thresholds = doc["num_thresholds"]
    if isinstance(thresholds, (list, tuple)):
        design["num_thresholds"] = tuple(
            config_number(t, "num_thresholds", integer=True) for t in thresholds
        )
    else:  # simulate_dataset gives every scale this count
        design["num_thresholds"] = config_number(thresholds, "num_thresholds", integer=True)
    return design


def experiment_config_from_dict(doc: dict) -> ExperimentConfig:
    """Build an experiment configuration from a JSON document: the design
    keys, replications, seed, num_chains and a nested chain object. A
    top-level num_chains beats the chain object's; both are checked."""
    allowed = set(DESIGN_KEYS) | {"replications", "num_chains", "seed", "chain"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown experiment config key(s): {', '.join(unknown)}")
    if "replications" not in doc:
        raise ConfigError("experiment config is missing key 'replications'")
    chain_doc = doc.get("chain", {})
    if not isinstance(chain_doc, dict):
        raise ConfigError("chain must be an object")
    chain_config = chain_config_from_dict(chain_doc)
    if "num_chains" in doc:  # beats the chain object's, checked the same way
        top = config_number(doc["num_chains"], "num_chains", integer=True)
        chain_config = replace(chain_config, num_chains=top)
    return ExperimentConfig(
        replications=config_number(doc["replications"], "replications", integer=True),
        **design_from_dict(doc, "experiment"),
        chain_config=chain_config,
    )


def write_standardizer(path: str, mean: np.ndarray, scale: np.ndarray):
    doc = {
        "mean": [float(v) for v in np.asarray(mean).ravel()],
        "scale": [float(v) for v in np.asarray(scale).ravel()],
    }
    write_json(path, doc)


def read_standardizer(path: str) -> tuple[np.ndarray, np.ndarray]:
    doc = read_json_object(path)
    arrays = []
    for key in ("mean", "scale"):
        try:
            arrays.append(np.asarray([float(v) for v in doc[key]], dtype=float))
        except OverflowError:  # an integer beyond the float range
            arrays.append(np.array([np.inf]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad standardizer file: {exc}") from None
        if not np.all(np.isfinite(arrays[-1])):
            raise ConfigError(f"{path}: {key} must be finite")
    mean, scale = arrays
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
    write_json(path, doc)
