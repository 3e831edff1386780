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
    UndefinedCorrelationError,
    ValidationError,
)
from .metrics import (
    ConfusionMatrix,
    EvaluationReport,
    F1Result,
    evaluate_splits,
    f1_scores,
    harmonic_mean,
    kendall_tau_b,
)
from .model import (
    ChainConfig,
    Dataset,
    Prior,
    ScaleSpec,
    default_init,
    evenly_spaced_thresholds,
    validate_dataset,
)
from .sampler import (
    DrawSet,
    mcse_mean,
    run_chain,
    run_chains,
    tune_proposal,
)
from .simulate import (
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
    "ConfusionMatrix",
    "Dataset",
    "DatasetValidationError",
    "DegeneracyError",
    "DrawSet",
    "EvaluationReport",
    "ExperimentConfig",
    "ExperimentReport",
    "F1Result",
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
    "UndefinedCorrelationError",
    "ValidationError",
    "default_init",
    "evaluate_splits",
    "evenly_spaced_thresholds",
    "f1_scores",
    "harmonic_mean",
    "kendall_tau_b",
    "log_interval_mass",
    "mcse_mean",
    "per_draw_rmse",
    "rmse",
    "run_chain",
    "run_chains",
    "run_experiment",
    "sample_truncated_normal_many",
    "simulate_dataset",
    "std_normal_quantile",
    "tune_proposal",
    "validate_dataset",
]
