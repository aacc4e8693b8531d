"""Exception hierarchy shared across the package."""


class LogDetRegError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(LogDetRegError):
    """Operands have incompatible shapes."""


class AsymmetricInput(LogDetRegError):
    """Matrix asymmetry exceeds the accepted tolerance."""


class NotPositiveDefinite(LogDetRegError):
    """Cholesky factorization failed; matrix is not positive definite.

    Raised when residuals are degenerate (e.g. an interpolating model or
    fewer observations than output dimensions).
    """


class NonFiniteAtStart(LogDetRegError):
    """Objective is infinite or NaN at the optimizer's starting point."""


class AllStartsFailed(LogDetRegError):
    """Every random restart terminated without a finite objective."""


class SingularDesign(LogDetRegError):
    """Closed-form least squares hit a rank-deficient regressor matrix."""


class UnderDetermined(LogDetRegError):
    """Too few observations for the number of free parameters."""


class NonIdentifiable(LogDetRegError):
    """Sample information matrix is singular; fit is not identifiable."""


class NotNested(LogDetRegError):
    """Model pair is not properly nested (restricted mask must be a strict
    sub-mask of the full mask, same architecture)."""


class NegativeStatistic(LogDetRegError):
    """Test statistic fell below the clamp window; the full-model fit is
    worse than the restricted one, which signals optimizer failure."""


class EmptyCalibration(LogDetRegError):
    """Monte Carlo null calibration requested with zero replications."""


class NonFiniteState(LogDetRegError):
    """Simulated recursion diverged to a non-finite state."""


class NonFiniteReport(LogDetRegError):
    """A report to be written holds an infinite or NaN number, which strict
    JSON cannot carry."""


class InitialFitFailed(LogDetRegError):
    """Pruning could not obtain a baseline fit."""


class McFailure(LogDetRegError):
    """Too many Monte Carlo replications failed (> 5%)."""
