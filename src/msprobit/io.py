"""File formats: dataset CSV + scale sidecar, draw CSV, report CSVs, and
JSON configs. All floating-point output uses 17 significant digits so a
written value round-trips exactly. Writes stream line by line into a temp
file that is then renamed over the target, so readers never see a partial
file, and a write that fails partway removes the temp file and leaves the
target as it was. The CSV reader parses into flat typed buffers, so a
table is held once, as the arrays it returns.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from array import array
from dataclasses import MISSING, fields, replace
from typing import Iterable

import numpy as np

from .errors import ConfigError, DatasetValidationError
from .model import ChainConfig, Dataset, Prior, ScaleSpec, validate_dataset
from .sampler import DrawSet
from .simulate import Design, ExperimentConfig


def format_float(x) -> str:
    x = float(x)
    if x != x:  # NaN; faster than np.isnan on a Python float
        return ""
    return "%.17g" % x


def parse_float(s: str) -> float:
    return float("nan") if s == "" else float(s)


def atomic_write_lines(path: str, lines: Iterable[str]):
    """Write the strings of lines as they come to <path>.tmp, then rename
    it to path. If lines or the write raises, the temp file is removed and
    path is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass  # the temp file was never made
        raise


def atomic_write_text(path: str, text: str):
    atomic_write_lines(path, (text,))


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
        ids, values = array("q"), array("d")  # row after row, flat
        for ln, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise error(
                    f"{path} line {ln}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                ids.append(np.int64(row[0]))
                ids.append(np.int64(row[1]))
                values.extend(map(parse_float, row[2:]))
            except (ValueError, OverflowError) as exc:
                raise error(f"{path} line {ln}: {exc}") from None
    # views of the buffers, which they keep alive: no second copy
    ids = np.frombuffer(ids, dtype=np.int64).reshape(-1, 2)
    values = np.frombuffer(values, dtype=np.float64).reshape(len(ids), len(header) - 2)
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


def _table_lines(header: list[str], rows: Iterable[tuple]):
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(_format_cell, row)) + "\n"


def write_table(path: str, header: list[str], rows: Iterable[tuple]):
    """A CSV table: strings as they are, ints with str, floats with
    format_float. Rows are formatted and written one at a time, so a
    generator of rows is never held whole. If it or a cell's formatting
    raises, <path>.tmp is removed and a file already at path is untouched."""
    atomic_write_lines(path, _table_lines(header, rows))


# -- configs ---------------------------------------------------------------


def _count(value, key: str) -> int:
    return config_number(value, key, integer=True)


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    return value


def _from_doc(cls, doc: dict, what: str, readers=None, **given):
    """cls built from a config document whose keys name fields of cls that
    given does not fill. readers maps a key to the function checking its
    value, _count by default; a field the document leaves out keeps its
    default. Raises ConfigError on an unknown key, a missing required key
    or a bad value."""
    settable = [f for f in fields(cls) if f.name not in given]
    unknown = sorted(set(doc) - {f.name for f in settable})
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")
    readers = readers or {}
    values = {}
    for f in settable:
        if f.name in doc:
            values[f.name] = readers.get(f.name, _count)(doc[f.name], f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{what} is missing key {f.name!r}")
    return cls(**given, **values)


def _prior_value(value, key: str):
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ConfigError(
            f"prior {key} must be a number or an array of numbers, "
            f"got {json.dumps(value)}"
        )
    return value


def _prior(value, key: str) -> Prior:
    return _from_doc(Prior, _object(value, key), "prior",
                     {"mean": _prior_value, "precision": _prior_value})


def _proposal_sd(value, key: str):
    if not isinstance(value, dict):
        return config_number(value, key)
    try:
        return {int(k): config_number(v, f"{key} {k}") for k, v in value.items()}
    except ValueError:
        raise ConfigError(f"{key} keys must be scale ids, got {sorted(value)}") from None


def chain_config_from_dict(doc: dict) -> ChainConfig:
    """Build a chain configuration from a JSON document, one key per field
    of ChainConfig; unknown keys are rejected."""
    return _from_doc(ChainConfig, doc, "config",
                     {"prior": _prior, "proposal_sd": _proposal_sd})


DESIGN_KEYS = tuple(f.name for f in fields(Design))


def _thresholds(value, key: str):
    # one count for every scale, or a per-scale list
    if isinstance(value, (list, tuple)):
        return tuple(_count(t, key) for t in value)
    return _count(value, key)


def design_from_dict(doc: dict, command: str) -> Design:
    """The simulation design of a simulate or experiment config, one key per
    field of Design, every count checked to be an integer."""
    return _from_doc(Design, doc, f"{command} config", {"num_thresholds": _thresholds})


def experiment_config_from_dict(doc: dict) -> ExperimentConfig:
    """Build an experiment configuration from a JSON document: the design
    keys, replications, seed, num_chains and a nested chain object. A
    top-level num_chains beats the chain object's; both are checked."""
    chain_config = chain_config_from_dict(_object(doc.get("chain", {}), "chain"))
    if "num_chains" in doc:  # beats the chain object's, checked the same way
        chain_config = replace(
            chain_config, num_chains=_count(doc["num_chains"], "num_chains")
        )
    design = {k: doc[k] for k in DESIGN_KEYS if k in doc}
    own = {k: v for k, v in doc.items()
           if k not in design and k not in ("chain", "num_chains")}
    return _from_doc(ExperimentConfig, own, "experiment config",
                     design=design_from_dict(design, "experiment"),
                     chain_config=chain_config)


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
