"""The Gibbs kernel on datasets whose scales interleave row by row.

``simulate`` writes rows scale by scale, so the golden session never asks
the threshold move to regroup its rows by scale. Here two fits of
interleaved rows, with end and middle classes on every scale, run as one
``run_fits`` batch, and the SHA-256 of each fit's draws and accept counts
is pinned. A refactor that claims to keep behaviour keeps them;
``PYTHONPATH=src python -m tests.test_interleaved_rows`` prints the
current digests. A second test checks that the threshold move's panic
message names the scale and the range of that scale's own rows.
"""

import hashlib
import json

import numpy as np
import pytest

from msprobit.errors import SamplerPanicError
from msprobit.model import ChainConfig, Dataset, ScaleSpec
from msprobit.sampler import _Fit, _GibbsKernel, run_fits

SCHEDULE = {"burn_in": 20, "thinning": 2, "stored_draws": 15}

DIGESTS = [
    "26f83be98ec92f2951914eaa4837e09f466c73f895bd9783c51b1a5f68edb84f",
    "9264adfc5e97c317cf5f2ab209a5f7f95e4bd4fe4ea2482bbbd47bd7cdfb2b40",
]


def interleaved_dataset(seed, num_classes, rows_per_scale, p):
    """Rows that take the scales in turn (1, 2, ..., 1, 2, ...), labels cut
    from a latent model at each scale's quantiles so every class, the two
    end classes and the middle ones, holds rows."""
    g = np.random.default_rng(seed)
    k = len(num_classes)
    n = k * rows_per_scale
    X = g.normal(size=(n, p))
    latent = X @ g.normal(size=p) + g.normal(size=n)
    scale_ids = np.tile(np.arange(1, k + 1), rows_per_scale)
    labels = np.empty(n, dtype=int)
    for s, c in enumerate(num_classes, start=1):
        rows = scale_ids == s
        cuts = np.quantile(latent[rows], np.arange(1, c) / c)
        labels[rows] = 1 + np.searchsorted(cuts, latent[rows])
    scales = tuple(ScaleSpec(s, c) for s, c in enumerate(num_classes, start=1))
    return Dataset(features=X, labels=labels, scale_ids=scale_ids, scales=scales)


def fits():
    return [
        (interleaved_dataset(11, (2, 4, 3), 20, 3),
         ChainConfig(**SCHEDULE, seed=5, num_chains=2,
                     proposal_sd={1: 0.8, 2: 0.4, 3: 0.5})),
        (interleaved_dataset(12, (5, 3), 24, 4),
         ChainConfig(**SCHEDULE, seed=6, num_chains=3, proposal_sd=0.3)),
    ]


def digests() -> list[str]:
    """The SHA-256 of each fit's draws and accept counts, batch run."""
    out = []
    for result in run_fits(fits()):
        assert not isinstance(result, Exception), result
        h = hashlib.sha256()
        h.update(result.beta_draws.tobytes())
        h.update(result.threshold_draws.tobytes())
        h.update(json.dumps([result.accept_counts, result.proposal_counts]).encode())
        out.append(h.hexdigest())
    return out


def test_interleaved_fits_draw_pinned_bytes():
    for ds, _ in fits():
        assert not (np.diff(ds.scale_ids) >= 0).all()  # rows interleave
        for s in ds.scales:
            assert set(ds.labels[ds.scale_ids == s.scale_id]) == set(range(1, s.num_classes + 1))
    assert digests() == DIGESTS


def test_threshold_panic_names_the_scale_and_its_eta_range():
    ds = interleaved_dataset(13, (2, 4, 3), 10, 2)
    kernel = _GibbsKernel([_Fit(ds, ChainConfig())])
    g = np.random.default_rng(3)
    eta = g.normal(size=ds.num_obs)
    rows = np.flatnonzero(ds.scale_ids == 2)
    # a lowest-class row of scale 2 pushed far above every threshold has
    # zero mass under any thresholds
    eta[rows[ds.labels[rows] == 1][0]] = 1e200
    thresholds = np.array([0.0, -0.5, 0.0, 0.5, -0.3, 0.3])
    with pytest.raises(SamplerPanicError) as err:
        kernel.update_thresholds(eta, thresholds, [0.5, 0.5, 0.5], [g], kernel.uniforms([g]))
    message = str(err.value)
    assert "zero-probability or undefined state" in message
    assert "scale=2 " in message
    assert f"eta_range=({eta[rows].min()}, {eta[rows].max()})" in message
    # the range is the scale's own, not that of all rows or of a row-order slice
    assert eta[rows].min() > eta.min()


if __name__ == "__main__":
    for digest in digests():
        print(f'    "{digest}",')
