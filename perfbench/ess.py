"""Rank-normalized bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021),
"Rank-normalization, folding, and localization": split every chain in
half, replace the pooled draws by normal scores of their ranks, then
estimate the autocorrelation time with Geyer's initial monotone sequence.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of x, for every lag."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def ess(chains: np.ndarray) -> float:
    """Effective sample size of a (chains, draws) array of one quantity."""
    x = np.asarray(chains, dtype=float)
    m, n = x.shape
    if np.ptp(x) < np.finfo(float).resolution:
        return float(x.size)
    acov = _autocov(x)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)

    rho = np.zeros(n)
    rho_even, rho_odd = 1.0, 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    rho[0], rho[1] = rho_even, rho_odd
    # Geyer's initial positive sequence over pairs of lags
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        rho_odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1], rho[t + 2] = rho_even, rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    # ... made monotone
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1 : max_t + 2].sum()
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def bulk_ess(chains: np.ndarray) -> float:
    """Bulk ESS of a (chains, draws) array: split chains, rank-normalize."""
    x = np.asarray(chains, dtype=float)
    half = x.shape[1] // 2
    split = np.concatenate([x[:, :half], x[:, x.shape[1] - half :]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    return ess(ndtri((ranks - 0.375) / (split.size + 0.25)))
