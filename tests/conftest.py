import numpy as np
import pytest

from msprobit import sampler
from msprobit.model import Dataset, ScaleSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def make_two_scale_dataset(seed=3, n_per=45, p=3):
    """Binary scale 1 plus 3-class scale 2, labels from a real latent model
    so every fixture dataset is actually fittable."""
    g = np.random.default_rng(seed)
    beta = g.normal(size=p)
    X = g.normal(size=(2 * n_per, p))
    y_star = X @ beta + g.normal(size=2 * n_per)
    labels = np.empty(2 * n_per, dtype=int)
    labels[:n_per] = 1 + (y_star[:n_per] > 0.0)
    labels[n_per:] = 1 + np.searchsorted([-0.7, 0.7], y_star[n_per:], side="left")
    scale_ids = np.repeat([1, 2], n_per)
    ds = Dataset(
        features=X,
        labels=labels,
        scale_ids=scale_ids,
        scales=(ScaleSpec(1, 2), ScaleSpec(2, 3)),
    )
    return ds, beta


@pytest.fixture
def two_scale_dataset():
    return make_two_scale_dataset()[0]


def count_kernel_builds(monkeypatch) -> list:
    """Patch _GibbsKernel.__init__ to append each build's member count to
    the returned list."""
    builds = []
    real_init = sampler._GibbsKernel.__init__

    def init(self, fits):
        builds.append(len(fits))
        real_init(self, fits)

    monkeypatch.setattr(sampler._GibbsKernel, "__init__", init)
    return builds
