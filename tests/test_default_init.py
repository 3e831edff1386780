"""default_init's thresholds are the normal quantiles of the cumulative
class frequencies, exactly, and they strictly increase without any
spreading: neighbouring frequencies differ by at least 1/n and the slope of
the normal quantile function is at least sqrt(2 pi)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msprobit.distributions import std_normal_quantile
from msprobit.model import Dataset, Prior, ScaleSpec, default_init

_COUNT = st.one_of(st.just(1), st.integers(1, 50), st.integers(1, 10**5 // 30))


@settings(max_examples=150, deadline=None)
@given(counts=st.lists(_COUNT, min_size=2, max_size=30), seed=st.integers(0, 2**32 - 1))
@example(counts=[1, 10**5 - 1], seed=0)
@example(counts=[10**5 - 1, 1], seed=0)
@example(counts=[1] * 29 + [10**5 - 29], seed=0)
@example(counts=[10**5 // 2 - 1, 1, 1, 10**5 // 2 - 1], seed=0)
def test_default_init_thresholds_are_the_exact_quantiles(counts, seed):
    counts = np.array(counts)
    n = int(counts.sum())
    labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(1, counts.size + 1), counts))
    ds = Dataset(
        features=np.zeros((n, 1)),
        labels=labels,
        scale_ids=np.full(n, 7),
        scales=(ScaleSpec(7, counts.size),),
    )
    beta, (gamma,) = default_init(ds, Prior())
    want = std_normal_quantile(np.cumsum(counts[:-1]) / n)
    assert gamma.dtype == float and gamma.shape == (counts.size - 1,)
    assert np.array_equal(gamma, want)
    assert np.all(gamma[1:] > gamma[:-1])
    assert np.all(np.isfinite(gamma))
