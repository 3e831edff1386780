import warnings

import numpy as np
import pytest

from msprobit.errors import (
    ConfigError,
    DatasetValidationError,
    InitializationError,
)
from msprobit.model import (
    ChainConfig,
    Dataset,
    Prior,
    ScaleSpec,
    default_init,
    validate_dataset,
)


def small_dataset(labels=(1, 2, 1, 2, 2), scale_ids=(1, 1, 1, 1, 1)):
    n = len(labels)
    return Dataset(
        features=np.arange(n * 2, dtype=float).reshape(n, 2) + 1.0,
        labels=np.array(labels),
        scale_ids=np.array(scale_ids),
        scales=(ScaleSpec(1, 2),),
    )


def test_scale_spec_rejects_single_class():
    with pytest.raises(ValueError):
        ScaleSpec(1, 1)
    assert ScaleSpec(3, 4).num_thresholds == 3


def test_dataset_accessors(two_scale_dataset):
    ds = two_scale_dataset
    assert ds.num_obs == 90
    assert ds.num_features == 3
    assert ds.scale(2).num_classes == 3
    rows = ds.rows_for_scale(1)
    assert np.all(ds.scale_ids[rows] == 1)
    single = ds.restrict_to_scale(2)
    assert single.num_obs == 45
    assert len(single.scales) == 1
    sub = ds.subset(np.array([0, 50]))
    assert sub.num_obs == 2
    assert sub.scale_ids.tolist() == [1, 2]


def test_validate_dataset_collects_all_violations():
    ds = Dataset(
        features=np.array([[1.0, np.nan], [1.0, 2.0], [0.5, 1.0]]),
        labels=np.array([1, 5, 1]),
        scale_ids=np.array([1, 1, 9]),
        scales=(ScaleSpec(1, 2),),
    )
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset(ds)
    msg = str(err.value)
    assert "non-finite" in msg
    assert "undeclared scale ids" in msg and "9" in msg
    assert "label outside 1..2" in msg
    assert len(err.value.violations) == 3


def test_validate_dataset_zero_column_toggle():
    ds = Dataset(
        features=np.array([[1.0, 0.0], [2.0, 0.0]]),
        labels=np.array([1, 2]),
        scale_ids=np.array([1, 1]),
        scales=(ScaleSpec(1, 2),),
    )
    with pytest.raises(DatasetValidationError, match="constant zero"):
        validate_dataset(ds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_dataset(ds, allow_zero_columns=True) is ds


def test_validate_dataset_duplicate_scale_declaration():
    ds = Dataset(
        features=np.ones((2, 1)),
        labels=np.array([1, 2]),
        scale_ids=np.array([1, 1]),
        scales=(ScaleSpec(1, 2), ScaleSpec(1, 3)),
    )
    with pytest.raises(DatasetValidationError, match="duplicate"):
        validate_dataset(ds)


def test_validate_dataset_clean_passthrough(two_scale_dataset):
    assert validate_dataset(two_scale_dataset) is two_scale_dataset


def test_prior_broadcasting():
    prior = Prior(mean=1.5, precision=2.0)
    np.testing.assert_array_equal(prior.mean_vector(3), [1.5, 1.5, 1.5])
    np.testing.assert_array_equal(prior.precision_matrix(2), 2.0 * np.eye(2))
    full = Prior(mean=np.array([1.0, 2.0]), precision=np.array([[2.0, 0.5], [0.5, 1.0]]))
    np.testing.assert_array_equal(full.precision_matrix(2), [[2.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ConfigError):
        full.mean_vector(3)
    with pytest.raises(ConfigError):
        Prior(precision=-1.0).precision_matrix(2)


def test_prior_rejects_asymmetric_precision():
    with pytest.raises(ConfigError, match="symmetric"):
        Prior(precision=np.array([[1.0, 0.5], [0.0, 1.0]])).precision_matrix(2)


def test_prior_rejects_indefinite_precision():
    with pytest.raises(ConfigError, match="eigenvalue range"):
        Prior(precision=np.array([[1.0, 2.0], [2.0, 1.0]])).precision_matrix(2)
    with pytest.raises(ConfigError, match="non-finite"):
        Prior(precision=np.array([[1.0, np.nan], [np.nan, 1.0]])).precision_matrix(2)
    with pytest.raises(ConfigError):
        Prior(precision=np.inf).precision_matrix(2)


def test_chain_config_validation():
    with pytest.raises(ConfigError):
        ChainConfig(burn_in=-1)
    with pytest.raises(ConfigError):
        ChainConfig(thinning=0)
    with pytest.raises(ConfigError):
        ChainConfig(stored_draws=0)
    with pytest.raises(ConfigError, match="num_chains must be >= 1, got 0"):
        ChainConfig(num_chains=0)
    cfg = ChainConfig(burn_in=10, thinning=2, stored_draws=5)
    assert cfg.total_sweeps == cfg.chain_sweeps == 20
    assert ChainConfig(burn_in=10, thinning=2, stored_draws=5, num_chains=3).total_sweeps == 60


def test_chain_config_proposal_lookup():
    cfg = ChainConfig(proposal_sd={1: 0.4, 2: 0.9})
    assert cfg.proposal_sd_for(2) == 0.9
    with pytest.raises(ConfigError):
        cfg.proposal_sd_for(3)
    with pytest.raises(ConfigError):
        ChainConfig(proposal_sd={1: -0.1}).proposal_sd_for(1)
    assert ChainConfig(proposal_sd=0.7).proposal_sd_for(99) == 0.7


def test_default_init_quantile_thresholds():
    # 4 classes, 40 observations, 10 each: cumulative 0.25/0.5/0.75
    labels = np.repeat([1, 2, 3, 4], 10)
    ds = Dataset(
        features=np.ones((40, 1)),
        labels=labels,
        scale_ids=np.ones(40, dtype=int),
        scales=(ScaleSpec(1, 4),),
    )
    beta, gammas = default_init(ds, Prior(mean=0.25, precision=1.0))
    np.testing.assert_array_equal(beta, [0.25])
    np.testing.assert_allclose(
        gammas[0],
        [-0.67448975019608174, 0.0, 0.67448975019608174],
        rtol=1e-12,
        atol=1e-15,
    )


def test_default_init_rejects_empty_class():
    ds = small_dataset(labels=(1, 1, 1, 1, 1))
    with pytest.raises(InitializationError, match="every class needs at least one"):
        default_init(ds, Prior())


def test_default_init_ordering_always_strict():
    # heavily skewed counts can collide quantiles; init must stay ordered
    labels = np.array([1] * 50 + [2] + [3] * 49)
    ds = Dataset(
        features=np.ones((100, 1)),
        labels=labels,
        scale_ids=np.ones(100, dtype=int),
        scales=(ScaleSpec(1, 3),),
    )
    _, gammas = default_init(ds, Prior())
    assert np.all(np.diff(gammas[0]) > 0)


def test_model_grid_is_multi_then_each_scale(two_scale_dataset):
    ds = two_scale_dataset
    grid = ds.model_grid()
    assert [name for name, _ in grid] == ["multi", "single-1", "single-2"]
    assert grid[0][1] is ds
    for (_, part), s in zip(grid[1:], ds.scales):
        rows = ds.rows_for_scale(s.scale_id)
        assert part.scales == (s,)
        np.testing.assert_array_equal(part.features, ds.features[rows])
        np.testing.assert_array_equal(part.labels, ds.labels[rows])
