"""Domain types: datasets on multiple ordinal scales, priors, and sampler
configuration.

All types are immutable value objects once constructed. Labels are 1-based
everywhere they cross an API boundary. Threshold vectors use the open
boundary convention: class 1 covers (-inf, g_1], class C covers
(g_{C-1}, +inf), and only the C-1 interior thresholds are parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import std_normal_quantile
from .errors import ConfigError, DatasetValidationError, InitializationError


@dataclass(frozen=True)
class ScaleSpec:
    """One ordinal scale: its integer id and class count (>= 2)."""

    scale_id: int
    num_classes: int

    def __post_init__(self):
        if int(self.num_classes) < 2:
            raise ValueError(
                f"scale {self.scale_id}: num_classes must be >= 2, "
                f"got {self.num_classes}"
            )
        object.__setattr__(self, "scale_id", int(self.scale_id))
        object.__setattr__(self, "num_classes", int(self.num_classes))

    @property
    def num_thresholds(self) -> int:
        return self.num_classes - 1


@dataclass(frozen=True)
class Dataset:
    """Observations from one or more scales sharing a feature space.

    features: (n, p) float matrix.
    labels:   (n,) integer labels, 1-based within each observation's scale.
    scale_ids:(n,) integer scale membership of each observation.
    scales:   the declared ScaleSpec list (order fixes reporting order).
    """

    features: np.ndarray
    labels: np.ndarray
    scale_ids: np.ndarray
    scales: tuple[ScaleSpec, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "features", np.ascontiguousarray(self.features, dtype=float)
        )
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=int))
        object.__setattr__(self, "scale_ids", np.asarray(self.scale_ids, dtype=int))
        object.__setattr__(self, "scales", tuple(self.scales))

    @property
    def num_obs(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def scale(self, scale_id: int) -> ScaleSpec:
        for s in self.scales:
            if s.scale_id == scale_id:
                return s
        raise KeyError(f"no scale with id {scale_id}")

    def rows_for_scale(self, scale_id: int) -> np.ndarray:
        return np.flatnonzero(self.scale_ids == scale_id)

    def restrict_to_scale(self, scale_id: int) -> "Dataset":
        """Single-scale view used to fit per-scale baseline models."""
        rows = self.rows_for_scale(scale_id)
        return Dataset(
            features=self.features[rows],
            labels=self.labels[rows],
            scale_ids=self.scale_ids[rows],
            scales=(self.scale(scale_id),),
        )

    def model_grid(self) -> list[tuple[str, "Dataset"]]:
        """The models a multi- versus single-scale comparison fits, in fitting
        order: "multi" on every row, then "single-<id>" on each scale's rows
        alone, in scale order."""
        return [("multi", self)] + [
            (f"single-{s.scale_id}", self.restrict_to_scale(s.scale_id))
            for s in self.scales
        ]

    def subset(self, rows: np.ndarray) -> "Dataset":
        rows = np.asarray(rows, dtype=int)
        return Dataset(
            features=self.features[rows],
            labels=self.labels[rows],
            scale_ids=self.scale_ids[rows],
            scales=self.scales,
        )


@dataclass(frozen=True)
class Prior:
    """Gaussian prior on the shared coefficients.

    mean may be a scalar (broadcast over all p coefficients) or a p-vector.
    precision may be a positive scalar, meaning that multiple of the
    identity, or a full SPD matrix.
    """

    mean: float | np.ndarray = 0.0
    precision: float | np.ndarray = 1.0

    def mean_vector(self, p: int) -> np.ndarray:
        m = np.asarray(self.mean, dtype=float)
        if m.ndim == 0:
            return np.full(p, float(m))
        if m.shape != (p,):
            raise ConfigError(f"prior mean has shape {m.shape}, expected ({p},)")
        return m

    def precision_matrix(self, p: int) -> np.ndarray:
        """The p x p prior precision; raises ConfigError unless it is finite,
        symmetric and positive definite."""
        prec = np.asarray(self.precision, dtype=float)
        if prec.ndim == 0:
            if not (np.isfinite(prec) and prec > 0):
                raise ConfigError(
                    f"scalar prior precision must be finite and > 0, got {prec}"
                )
            return float(prec) * np.eye(p)
        if prec.shape != (p, p):
            raise ConfigError(
                f"prior precision has shape {prec.shape}, expected ({p}, {p})"
            )
        if not np.all(np.isfinite(prec)):
            raise ConfigError("prior precision matrix has non-finite entries")
        if not np.allclose(prec, prec.T, rtol=1e-10, atol=0.0):
            raise ConfigError("prior precision matrix is not symmetric")
        eigs = np.linalg.eigvalsh(prec)
        if not eigs.min() > 0:
            raise ConfigError(
                "prior precision matrix is not positive definite: eigenvalue "
                f"range [{eigs.min():.6g}, {eigs.max():.6g}]"
            )
        return prec


@dataclass(frozen=True)
class ChainConfig:
    """Everything run_chains needs besides the data.

    proposal_sd is the standard deviation of the threshold random-walk
    proposal, either one value for all scales or a mapping scale_id -> sd.
    Each of the num_chains chains runs chain_sweeps = burn_in + thinning *
    stored_draws sweeps; total_sweeps counts those of every chain.
    """

    prior: Prior = field(default_factory=Prior)
    proposal_sd: float | dict[int, float] = 0.5
    burn_in: int = 50_000
    thinning: int = 100
    stored_draws: int = 500
    seed: int = 0
    num_chains: int = 1

    def __post_init__(self):
        # counts and the seed become ints here, so no reader converts them
        for name in ("burn_in", "thinning", "stored_draws", "seed", "num_chains"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name, least in (("burn_in", 0), ("thinning", 1), ("stored_draws", 1),
                            ("seed", 0), ("num_chains", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")

    @property
    def chain_sweeps(self) -> int:
        return self.burn_in + self.thinning * self.stored_draws

    @property
    def total_sweeps(self) -> int:
        return self.num_chains * self.chain_sweeps

    def proposal_sd_for(self, scale_id: int) -> float:
        if isinstance(self.proposal_sd, dict):
            try:
                sd = float(self.proposal_sd[scale_id])
            except KeyError:
                raise ConfigError(
                    f"no proposal_sd entry for scale {scale_id}"
                ) from None
        else:
            sd = float(self.proposal_sd)
        # the proposal variance, sd squared, must be positive and finite too
        if not (sd > 0 and 0.0 < sd * sd < np.inf):
            raise ConfigError(
                f"proposal_sd for scale {scale_id} must be > 0 and its square "
                f"positive and finite, got {sd!r}"
            )
        return sd


def validate_dataset(raw: Dataset, allow_zero_columns: bool = False) -> Dataset:
    """Check every Dataset invariant, reporting all violations at once.

    Returns the dataset unchanged when clean. A feature column that is
    exactly zero in every row is rejected, named f1..fp as in a dataset
    CSV, unless allow_zero_columns is set, in which case it is not checked
    for.
    """
    violations: list[str] = []
    X, y, sid = raw.features, raw.labels, raw.scale_ids

    if X.ndim != 2:
        violations.append(f"features must be 2-d, got shape {X.shape}")
    n = X.shape[0] if X.ndim == 2 else 0
    if y.shape != (n,):
        violations.append(f"labels shape {y.shape} does not match {n} feature rows")
    if sid.shape != (n,):
        violations.append(
            f"scale_ids shape {sid.shape} does not match {n} feature rows"
        )
    if violations:
        raise DatasetValidationError(violations)

    if not np.all(np.isfinite(X)):
        rows = np.flatnonzero(~np.isfinite(X).all(axis=1))
        violations.append(f"non-finite feature values in rows {rows.tolist()}")

    if not raw.scales:
        violations.append("no scales declared")
    ids = {s.scale_id for s in raw.scales}
    if len(ids) != len(raw.scales):
        violations.append("duplicate scale_id in scales declaration")
    unknown = np.flatnonzero(~np.isin(sid, list(ids)))
    if unknown.size:
        violations.append(
            f"rows {unknown.tolist()} reference undeclared scale ids "
            f"{sorted(set(sid[unknown].tolist()))}"
        )

    for s in raw.scales:
        rows = np.flatnonzero(sid == s.scale_id)
        labels = y[rows]
        bad = rows[(labels < 1) | (labels > s.num_classes)]
        if bad.size:
            violations.append(
                f"rows {bad.tolist()}: label outside 1..{s.num_classes} "
                f"on scale {s.scale_id}"
            )

    if n and not allow_zero_columns:
        zero_cols = np.flatnonzero(~X.any(axis=0))
        if zero_cols.size:
            names = ", ".join(f"f{j + 1}" for j in zero_cols)
            violations.append(f"feature columns {names} are constant zero")

    if violations:
        raise DatasetValidationError(violations)
    return raw


_CLASSES_NAMED = 5


def missing_classes(labels: np.ndarray, num_classes: int) -> str:
    """The classes of 1..num_classes that no label takes as message text, a
    list such as "[2, 5]" cut after the first few with a count of the rest,
    or "". O(n log n) in the n labels, so a huge num_classes costs nothing."""
    present = np.unique(labels)
    total = num_classes - np.count_nonzero((present >= 1) & (present <= num_classes))
    if not total:
        return ""
    # at most present.size of the first present.size + k classes are taken
    head = np.arange(1, min(num_classes, present.size + _CLASSES_NAMED) + 1)
    named = np.setdiff1d(head, present)[:_CLASSES_NAMED].tolist()
    rest = total - len(named)
    return f"{named} and {rest} more" if rest else str(named)


def default_init(dataset: Dataset, prior: Prior):
    """Starting state: beta at the prior mean, thresholds at the
    standard-normal quantiles of each scale's empirical cumulative class
    frequencies.

    Raises when any scale has an empty class, since that puts a quantile at
    infinity.
    """
    beta = prior.mean_vector(dataset.num_features)
    gammas = []
    for s in dataset.scales:
        labels = dataset.labels[dataset.rows_for_scale(s.scale_id)]
        empty = missing_classes(labels, s.num_classes)
        if empty:
            raise InitializationError(
                f"scale {s.scale_id} has empty classes {empty}; every class "
                "needs at least one observation"
            )
        # every class holds a row, so num_classes <= labels.size, and
        # neighbouring frequencies differ by at least 1/n; ndtri's slope is
        # at least sqrt(2 pi), so the quantiles strictly increase
        counts = np.bincount(labels, minlength=s.num_classes + 1)[1:]
        cum = np.cumsum(counts[:-1]) / labels.size
        gammas.append(std_normal_quantile(cum))
    return beta, tuple(gammas)
