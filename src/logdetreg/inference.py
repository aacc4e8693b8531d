"""Nested-model testing.

The log-det statistic T_n has a pivotal chi-square limit with s - q
degrees of freedom; the MSE statistic S_n converges to a weighted sum of
chi-square(1) variables whose weights are not pivotal, so its p-values
come from Monte Carlo null calibration only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaincc

from . import model as mdl
from .errors import EmptyCalibration, NegativeStatistic, NotNested
from .estimate import CostKind, FitResult, fit_logdet, fit_ols
from .optimize import OptimOptions
from .simulate import gen_series, replicate

CLAMP_PER_N = 1e-6


class TestMethod(str, enum.Enum):
    CHI_SQUARE_ASYMPTOTIC = "chi_square_asymptotic"
    MONTE_CARLO_NULL = "monte_carlo_null"


@dataclass(frozen=True)
class TestReport:
    statistic: float
    dof: int
    p_value: float
    alpha: float
    reject: bool
    method: TestMethod


def chi2_sf(x: float, k: int) -> float:
    """Upper-tail probability of chi-square with k degrees of freedom."""
    if x < 0:
        raise ValueError(f"chi2_sf requires x >= 0, got {x}")
    if k < 1:
        raise ValueError("degrees of freedom must be positive")
    return float(gammaincc(k / 2.0, x / 2.0))


def _check_nested(restricted: mdl.ModelSpec, full: mdl.ModelSpec) -> int:
    same_family = (
        restricted.input_dim == full.input_dim
        and restricted.output_dim == full.output_dim
        and restricted.hidden_units == full.hidden_units
        and restricted.full_param_count == full.full_param_count
    )
    if not same_family:
        raise NotNested("model pair must share one architecture grid")
    rm, fm = restricted.effective_mask, full.effective_mask
    if np.any(rm & ~fm):
        raise NotNested("restricted mask frees parameters the full mask freezes")
    dof = int(fm.sum() - rm.sum())
    if dof <= 0:
        raise NotNested("restricted model must have strictly fewer free parameters")
    return dof


def _difference_statistic(fit_restricted: FitResult, fit_full: FitResult) -> float:
    if fit_restricted.n != fit_full.n:
        raise NotNested("fits use different sample sizes")
    n = fit_full.n
    stat = n * (fit_restricted.cost_value - fit_full.cost_value)
    clamp = CLAMP_PER_N * n
    if stat < -clamp:
        raise NegativeStatistic(
            f"statistic {stat:.4g} below -{clamp:.4g}: full-model fit failed, rerun with "
            "more starts"
        )
    return max(stat, 0.0)


def tn_test(fit_restricted: FitResult, fit_full: FitResult, alpha: float) -> TestReport:
    """Log-det ratio test of the restricted model against the full one."""
    if fit_restricted.cost_kind is not CostKind.LOGDET or fit_full.cost_kind is not CostKind.LOGDET:
        raise NotNested("tn_test requires log-det fits on both sides")
    dof = _check_nested(fit_restricted.spec, fit_full.spec)
    stat = _difference_statistic(fit_restricted, fit_full)
    p = chi2_sf(stat, dof)
    return TestReport(
        statistic=stat,
        dof=dof,
        p_value=p,
        alpha=alpha,
        reject=p < alpha,
        method=TestMethod.CHI_SQUARE_ASYMPTOTIC,
    )


def sn_statistic(fit_restricted: FitResult, fit_full: FitResult) -> float:
    """MSE-based statistic n (min V_n restricted - min V_n full)."""
    if fit_restricted.cost_kind is not CostKind.MSE or fit_full.cost_kind is not CostKind.MSE:
        raise NotNested("sn_statistic requires MSE fits on both sides")
    _check_nested(fit_restricted.spec, fit_full.spec)
    return _difference_statistic(fit_restricted, fit_full)


@dataclass(frozen=True)
class CalibrationResult:
    samples: np.ndarray  # sorted statistic draws under H0
    failures: int

    def p_value(self, observed: float) -> float:
        # (1 + count >= observed) / (R + 1): valid finite-sample p-value,
        # never exactly zero
        r = self.samples.size
        count = int(np.sum(self.samples >= observed))
        return (1 + count) / (r + 1)


def mc_null_calibrate(
    spec_restricted: mdl.ModelSpec,
    spec_full: mdl.ModelSpec,
    generator,
    replications: int,
    seed: int,
    opts: OptimOptions,
    statistic: str = "tn",
) -> CalibrationResult:
    """Empirical null distribution of T_n or S_n by simulation.

    ``generator`` is either a :class:`SimRecipe` satisfying H0 (its true
    parameters live inside the restricted mask), regenerated at its own
    ``n``, or a callable ``data_seed -> Dataset`` (e.g. a fixed-design
    parametric bootstrap).
    Deterministic for a fixed seed; replication r uses sub-seed (seed, r).
    Aborts when more than 5% of replications fail.
    """
    if replications < 1:
        raise EmptyCalibration("calibration needs at least one replication")
    _check_nested(spec_restricted, spec_full)
    if statistic not in ("tn", "sn"):
        raise ValueError(f"unknown statistic {statistic!r}")
    fitter = fit_logdet if statistic == "tn" else fit_ols
    if callable(generator):
        generate = generator
    else:
        def generate(data_seed: int):
            return gen_series(replace(generator, seed=data_seed))

    def one(data, r: int) -> float:
        fit_opts = replace(opts, seed=int(opts.seed) + 1_000_003 * r)
        fr = fitter(spec_restricted, data, fit_opts)
        ff = fitter(spec_full, data, fit_opts)
        return _difference_statistic(fr, ff)

    samples = replicate(generate, {statistic: one}, replications, seed)[statistic]
    return CalibrationResult(
        samples=np.sort(np.asarray(samples)), failures=replications - len(samples)
    )
