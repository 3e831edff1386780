"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: validation problems exit 1,
sampler / numerical problems exit 2, filesystem problems exit 3.
"""

from __future__ import annotations


class MsprobitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MsprobitError):
    """Bad inputs: malformed data, inconsistent config, violated preconditions."""

    exit_code = 1


class DatasetValidationError(ValidationError):
    """Dataset-level violations. Carries the full list so callers see every
    problem at once instead of fixing them one by one."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("dataset validation failed: " + "; ".join(self.violations))


class ConfigError(ValidationError):
    """Invalid or inconsistent chain / experiment configuration."""


class InitializationError(ValidationError):
    """Could not build a starting state from the data."""


class NumericalError(MsprobitError):
    """Numerical failure inside the sampler or a distribution primitive."""

    exit_code = 2


class DegeneracyError(NumericalError):
    """Truncation interval carries essentially zero probability mass."""


class LinearAlgebraError(NumericalError):
    """Factorization failure; message carries a conditioning diagnosis."""


class SamplerPanicError(NumericalError):
    """Internal sampler invariant broke mid-run. Message includes a state dump."""


class TuningError(NumericalError):
    """Proposal-scale tuning failed to reach the target acceptance band."""


class SimulationError(NumericalError):
    """Synthetic-data generation could not satisfy its constraints."""


class StratificationError(NumericalError):
    """Could not produce a train split covering every (scale, class) cell."""
