"""Bayesian ordinal regression with one shared latent predictor across
several ordinal annotation scales, fit by data-augmented MCMC."""

from .distributions import (
    log_interval_mass,
    sample_truncated_normal_many,
    std_normal_quantile,
)
from .errors import (
    ConfigError,
    DatasetValidationError,
    DegeneracyError,
    InitializationError,
    LinearAlgebraError,
    MsprobitError,
    NumericalError,
    SamplerPanicError,
    SimulationError,
    StratificationError,
    TuningError,
    ValidationError,
)
from .metrics import (
    EvaluationReport,
    evaluate_splits,
    harmonic_mean,
)
from .model import (
    ChainConfig,
    Dataset,
    Prior,
    ScaleSpec,
    default_init,
    validate_dataset,
)
from .sampler import (
    DrawSet,
    mcse_mean,
    run_chains,
    run_fits,
    tune_proposal,
)
from .simulate import (
    Design,
    ExperimentConfig,
    ExperimentReport,
    SimTruth,
    per_draw_rmse,
    rmse,
    run_experiment,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "ConfigError",
    "Dataset",
    "DatasetValidationError",
    "DegeneracyError",
    "Design",
    "DrawSet",
    "EvaluationReport",
    "ExperimentConfig",
    "ExperimentReport",
    "InitializationError",
    "LinearAlgebraError",
    "MsprobitError",
    "NumericalError",
    "Prior",
    "SamplerPanicError",
    "ScaleSpec",
    "SimTruth",
    "SimulationError",
    "StratificationError",
    "TuningError",
    "ValidationError",
    "default_init",
    "evaluate_splits",
    "harmonic_mean",
    "log_interval_mass",
    "mcse_mean",
    "per_draw_rmse",
    "rmse",
    "run_chains",
    "run_experiment",
    "run_fits",
    "sample_truncated_normal_many",
    "simulate_dataset",
    "std_normal_quantile",
    "tune_proposal",
    "validate_dataset",
]
