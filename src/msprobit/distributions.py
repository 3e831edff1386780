"""Normal-distribution primitives for the ordinal probit sampler.

Everything here is pure given an explicit ``numpy.random.Generator``
argument, so callers control reproducibility by seeding and splitting
streams themselves (``numpy.random.SeedSequence.spawn``). Truncation
bounds are extended reals: ``-inf`` and ``+inf`` are ordinary values, so
the outermost ordinal classes need no special casing.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import DegeneracyError, NumericalError

# Interval probability below which truncated sampling is refused outright.
MASS_FLOOR = 1e-300
_LOG_MASS_FLOOR = math.log(MASS_FLOOR)

# Below this interval mass the inverse-CDF transform is too grainy and a
# rejection sampler takes over.
_INVERSE_CDF_MASS_CUTOFF = 1e-10
_LOG_INVERSE_CDF_CUTOFF = math.log(_INVERSE_CDF_MASS_CUTOFF)
_SCREEN_MASS = 2.0 * _INVERSE_CDF_MASS_CUTOFF

_MAX_REJECTION_TRIES = 100_000


def std_normal_quantile(p):
    """Inverse of the standard normal CDF on the open interval (0, 1).

    Stays finite for probabilities as small as 1e-300.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("std_normal_quantile requires 0 < p < 1")
    out = ndtri(arr)
    if np.ndim(p) == 0:
        return float(out)
    return out


def _reflect(a, b):
    """The flip mask and the endpoints of (a, b) reflected onto the lower
    tail when most of the interval lies above zero. ``a > -b`` is
    ``a + b > 0`` without the nan of ``(-inf) + inf``: the whole line is
    not flipped."""
    flip = a > -b
    return flip, np.where(flip, -b, a), np.where(flip, -a, b)


def log_interval_mass(lower, upper):
    """log(Phi(upper) - Phi(lower)), elementwise, stable in both tails.

    The interval is reflected onto the lower tail before evaluation, so the
    difference is always taken between log-CDFs on the side where they are
    accurate; arguments with magnitude up to several hundred do not overflow.
    """
    _, a, b = _reflect(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
    with np.errstate(invalid="ignore", divide="ignore"):
        log_hi = log_ndtr(b)
        out = log_hi + np.log1p(-np.exp(log_ndtr(a) - log_hi))
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


def sample_truncated_normal_many(means, variance, lowers, uppers, rng):
    """Draw element i from Normal(means[i], variance) restricted to
    (lowers[i], uppers[i]); variance is one value or one per element.

    Every draw is strictly inside its interval. An interval whose mass
    falls below 1e-300 raises :class:`DegeneracyError`, naming the first
    such element, before the stream is touched. A non-finite mean, a
    variance that is not positive and finite, a NaN bound or
    lower >= upper raises ``ValueError``. Intervals with mass >= 1e-10
    use the inverse CDF, all with one batched uniform draw; the rare
    low-mass elements are then redrawn by rejection in the far tail,
    consuming extra stream values in index order, so the output is a
    deterministic function of the stream.
    """
    means = np.asarray(means, dtype=float)
    variance = np.asarray(variance, dtype=float)
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    # one check covers a NaN bound too: lower < upper is then False
    valid = np.isfinite(means) & (variance > 0.0) & (variance < np.inf) & (lowers < uppers)
    if not valid.all():
        i = int(np.flatnonzero(~valid)[0])
        raise ValueError(
            f"need a finite mean, a positive finite variance and lower < upper, "
            f"got Normal({_at(means, valid, i)}, {_at(variance, valid, i)}) on "
            f"({_at(lowers, valid, i)}, {_at(uppers, valid, i)}) at index {i}"
        )
    sd = np.sqrt(variance)
    a = (lowers - means) / sd
    b = (uppers - means) / sd
    flip, a2, b2 = _reflect(a, b)
    pa = ndtr(a2)
    mass = ndtr(b2) - pa

    # ndtr's difference loses relative accuracy as the mass shrinks, so the
    # exact log mass decides the floor and the sampler for every element
    # below twice the cutoff; that reproduces a screen on log mass alone.
    low = (mass < _SCREEN_MASS).nonzero()[0]
    tail = low
    if low.size:
        lm = log_interval_mass(a[low], b[low])
        bad = low[lm < _LOG_MASS_FLOOR]
        if bad.size:
            i = int(bad[0])
            raise DegeneracyError(
                f"interval probability mass underflow at index {i}: bounds "
                f"({_at(lowers, a, i)}, {_at(uppers, a, i)}) under "
                f"Normal({_at(means, a, i)}, {_at(variance, a, i)})"
                + (f"; {bad.size} elements affected in total" if bad.size > 1 else "")
            )
        tail = low[lm < _LOG_INVERSE_CDF_CUTOFF]

    # rng.uniform(pa, pb) bit for bit: one stream value per element
    u = pa + mass * rng.random(mass.shape)
    z = ndtri(np.minimum(np.maximum(u, 5e-324), 1.0 - 1e-16))
    z = np.where(flip, -z, z)
    # Tail draws work in the original frame and overwrite the inverse-CDF
    # values in their slots.
    for i in tail.tolist():
        z[i] = _tail_draw(float(a[i]), float(b[i]), rng)

    x = means + sd * z
    x = np.maximum(x, np.nextafter(lowers, np.inf))
    return np.minimum(x, np.nextafter(uppers, -np.inf))


def _at(values, like, i):
    """Element i of values broadcast to the shape of like."""
    return np.broadcast_to(values, like.shape)[i]
