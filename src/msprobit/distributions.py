"""Normal-distribution primitives for the ordinal probit sampler.

Everything here is pure given an explicit ``numpy.random.Generator``
argument, so callers control reproducibility by seeding and splitting
streams themselves (``numpy.random.SeedSequence.spawn``). Truncation
bounds are extended reals: ``-inf`` and ``+inf`` are ordinary values, so
the outermost ordinal classes need no special casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import DegeneracyError, NumericalError

# Interval probability below which truncated sampling is refused outright.
MASS_FLOOR = 1e-300
_LOG_MASS_FLOOR = math.log(MASS_FLOOR)

# Below this interval mass the inverse-CDF transform is too grainy and a
# rejection sampler takes over.
_INVERSE_CDF_MASS_CUTOFF = 1e-10
_LOG_INVERSE_CDF_CUTOFF = math.log(_INVERSE_CDF_MASS_CUTOFF)

_MAX_REJECTION_TRIES = 100_000


@dataclass(frozen=True)
class Interval:
    """Truncation interval with extended-real endpoints, ``lower < upper``."""

    lower: float
    upper: float

    def __post_init__(self):
        lower = float(self.lower)
        upper = float(self.upper)
        if math.isnan(lower) or math.isnan(upper):
            raise ValueError("interval endpoints must not be NaN")
        if not lower < upper:
            raise ValueError(
                f"interval requires lower < upper, got ({lower}, {upper})"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def std_normal_cdf(x):
    """Standard normal CDF.

    Accepts a finite scalar or an array of finite values. Saturates to
    exactly 1.0 in the far upper tail (x >= 40) and 0.0 symmetrically.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("std_normal_cdf requires finite input")
    out = ndtr(arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def std_normal_quantile(p):
    """Inverse of ``std_normal_cdf`` on the open interval (0, 1).

    Stays finite for probabilities as small as 1e-300.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("std_normal_quantile requires 0 < p < 1")
    out = ndtri(arr)
    if np.ndim(p) == 0:
        return float(out)
    return out


def log_interval_mass(lower, upper):
    """log(Phi(upper) - Phi(lower)), elementwise, stable in both tails.

    The interval is reflected onto the lower tail before evaluation, so the
    difference is always taken between log-CDFs on the side where they are
    accurate; arguments with magnitude up to several hundred do not overflow.
    """
    a = np.asarray(lower, dtype=float)
    b = np.asarray(upper, dtype=float)
    # nan from (-inf) + inf means the interval is the whole line: no flip.
    with np.errstate(invalid="ignore"):
        flip = (a + b) > 0
    a2 = np.where(flip, -b, a)
    b2 = np.where(flip, -a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        log_hi = log_ndtr(b2)
        log_lo = log_ndtr(a2)
        out = log_hi + np.log1p(-np.exp(log_lo - log_hi))
    # lower bound of -inf: exp(-inf - finite) = 0, log1p(0) = 0, already right.
    # Identical endpoints after underflow give log1p(-1) = -inf: zero mass.
    if np.ndim(lower) == 0 and np.ndim(upper) == 0:
        return float(out)
    return out


def _tail_draw_upper(alpha: float, beta: float, rng: np.random.Generator) -> float:
    """Draw standard normal truncated to (alpha, beta) with alpha > 0.

    Exponential-proposal rejection with the optimal rate, rejecting draws
    past a finite beta. Very narrow intervals, where overshoot would kill
    the acceptance rate, fall back to uniform-proposal rejection; both are
    exact samplers for the target.
    """
    rate = 0.5 * (alpha + math.sqrt(alpha * alpha + 4.0))
    if beta - alpha <= 1.0 / rate:
        for _ in range(_MAX_REJECTION_TRIES):
            z = rng.uniform(alpha, beta)
            if math.log(rng.uniform()) <= 0.5 * (alpha * alpha - z * z):
                return z
    else:
        for _ in range(_MAX_REJECTION_TRIES):
            z = alpha + rng.exponential(1.0 / rate)
            if z >= beta:
                continue
            if math.log(rng.uniform()) <= -0.5 * (z - rate) ** 2:
                return z
    raise NumericalError(
        f"tail rejection sampler failed to accept on ({alpha}, {beta})"
    )


def _tail_draw(a: float, b: float, rng: np.random.Generator) -> float:
    """Standard-normal draw on a low-mass interval (a, b), any location."""
    if a >= 0.0:
        return _tail_draw_upper(a, b, rng)
    if b <= 0.0:
        return -_tail_draw_upper(-b, -a, rng)
    # Straddles zero: the interval must be a sliver for its mass to be tiny,
    # so uniform-proposal rejection is nearly rejection-free.
    for _ in range(_MAX_REJECTION_TRIES):
        z = rng.uniform(a, b)
        if math.log(rng.uniform()) <= -0.5 * z * z:
            return z
    raise NumericalError(f"tail rejection sampler failed to accept on ({a}, {b})")


def _clamp_inside(x: float, lower: float, upper: float) -> float:
    if x <= lower:
        return float(np.nextafter(lower, upper))
    if x >= upper:
        return float(np.nextafter(upper, lower))
    return x


def sample_truncated_normal(mean, variance, bounds, rng: np.random.Generator):
    """One draw from Normal(mean, variance) restricted to ``bounds``.

    The returned value is strictly inside the interval. Intervals whose
    probability mass under the untruncated normal falls below 1e-300 raise
    :class:`DegeneracyError`. Uses inverse-CDF sampling for intervals with
    mass >= 1e-10 and rejection sampling in the far tails.
    """
    if not isinstance(bounds, Interval):
        bounds = Interval(*bounds)
    mean = float(mean)
    variance = float(variance)
    if not (math.isfinite(mean) and math.isfinite(variance) and variance > 0.0):
        raise ValueError(
            f"need finite mean and positive variance, got ({mean}, {variance})"
        )
    sd = math.sqrt(variance)
    a = (bounds.lower - mean) / sd
    b = (bounds.upper - mean) / sd

    lm = log_interval_mass(a, b)
    if lm < _LOG_MASS_FLOOR:
        raise DegeneracyError(
            f"interval ({bounds.lower}, {bounds.upper}) has probability mass "
            f"below {MASS_FLOOR:g} under Normal({mean}, {variance})"
        )

    if lm >= _LOG_INVERSE_CDF_CUTOFF:
        flip = (a + b) > 0  # False when nan (whole line)
        a2, b2 = (-b, -a) if flip else (a, b)
        pa = ndtr(a2)
        pb = ndtr(b2)
        u = rng.uniform(pa, pb)
        u = min(max(u, 5e-324), 1.0 - 1e-16)
        z = float(ndtri(u))
        if flip:
            z = -z
    else:
        z = _tail_draw(a, b, rng)
    return _clamp_inside(mean + sd * z, bounds.lower, bounds.upper)


def sample_truncated_normal_many(
    means: np.ndarray,
    variance: float,
    lowers: np.ndarray,
    uppers: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized ``sample_truncated_normal`` with a shared variance.

    Draws element i from Normal(means[i], variance) restricted to
    (lowers[i], uppers[i]). One batched uniform draw covers the inverse-CDF
    cases; the rare far-tail elements then consume extra stream values in
    index order, so the output is a deterministic function of the stream.
    """
    means = np.asarray(means, dtype=float)
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    sd = math.sqrt(float(variance))
    a = (lowers - means) / sd
    b = (uppers - means) / sd

    lm = log_interval_mass(a, b)
    bad = np.flatnonzero(lm < _LOG_MASS_FLOOR)
    if bad.size:
        i = int(bad[0])
        raise DegeneracyError(
            f"interval probability mass underflow at index {i}: bounds "
            f"({lowers[i]}, {uppers[i]}) under Normal({means[i]}, {variance})"
            + (f"; {bad.size} elements affected in total" if bad.size > 1 else "")
        )

    with np.errstate(invalid="ignore"):
        flip = (a + b) > 0
    a2 = np.where(flip, -b, a)
    b2 = np.where(flip, -a, b)
    pa = ndtr(a2)
    pb = ndtr(b2)
    u = rng.uniform(pa, pb)  # one stream consumption for the whole batch

    z = np.empty_like(u)
    central = lm >= _LOG_INVERSE_CDF_CUTOFF
    uc = np.clip(u[central], 5e-324, 1.0 - 1e-16)
    z[central] = ndtri(uc)
    z[flip] = -z[flip]

    # Tail draws work in the original frame and overwrite whatever the flip
    # above left in their slots.
    for i in np.flatnonzero(~central):
        z[i] = _tail_draw(float(a[i]), float(b[i]), rng)

    x = means + sd * z
    x = np.maximum(x, np.nextafter(lowers, np.inf))
    x = np.minimum(x, np.nextafter(uppers, -np.inf))
    return x


def draw_mvn_given_cholesky(
    chol_lower: np.ndarray,
    precision_times_mean: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """MVN draw given the lower Cholesky factor L of the precision matrix.

    Mean solves and the noise transform reuse the factor; no inverse is formed.
    """
    mean = cho_solve((chol_lower, True), precision_times_mean)
    noise = solve_triangular(
        chol_lower.T, rng.standard_normal(chol_lower.shape[0]), lower=False
    )
    return mean + noise

