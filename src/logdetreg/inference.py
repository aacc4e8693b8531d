"""Nested-model testing.

The log-det statistic T_n has a pivotal chi-square limit with s - q
degrees of freedom; the MSE statistic S_n converges to a weighted sum of
chi-square(1) variables whose weights are not pivotal, so its p-values
come from Monte Carlo null calibration only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import model as mdl
from .errors import EmptyCalibration, NegativeStatistic, NotNested
from .estimate import CostKind, FitResult, fit_logdet, fit_ols
from .optimize import OptimOptions
from .simulate import replicate

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
    """Upper-tail probability Q of chi-square with an integer number k of
    degrees of freedom.  With y = x / 2 and ``t(j) = exp(-y) y^j / Gamma(j + 1)``:

    * for x >= k, the finite sums of Abramowitz & Stegun 26.4.4-26.4.5,
      ``Q = [erfc(sqrt(y)) if k is odd] + sum t(j)`` over j = 0, 1, ...
      (k even) or j = 1/2, 3/2, ... (k odd) below k / 2;
    * for x < k, where Q is above about 0.3, ``Q = 1 - P`` with the lower
      tail ``P = sum t(j)`` over j = k/2, k/2 + 1, ... (A&S 6.5.29).  Near
      Q = 1 the finite sum wobbles in its last bits, and Q would not
      decrease monotonically.

    Each sum starts at its largest term, next to j = k / 2, and stops once
    a term falls below 1e-17 of it, so a large k costs about sqrt(k) terms.
    Each term is formed in log space with ``lgamma``, so no power or
    factorial overflows at a large k or x; the relative error grows as
    about eps * x (the tests hold it within 1e-12 of scipy's ``gammaincc``
    for k <= 60).
    """
    if x < 0:
        raise ValueError(f"chi2_sf requires x >= 0, got {x}")
    if k < 1 or not float(k).is_integer():
        raise ValueError(f"degrees of freedom must be a positive integer, got {k}")
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    y, log_y = 0.5 * x, math.log(0.5 * x)
    lower = x < k
    j, step = (0.5 * k, 1.0) if lower else (0.5 * k - 1.0, -1.0)
    terms = []
    while j >= 0 and (not terms or terms[-1] > 1e-17 * terms[0]):
        terms.append(math.exp(j * log_y - y - math.lgamma(j + 1)))
        j += step
    if lower:
        return 1.0 - math.fsum(terms)
    if k % 2:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


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
    Deterministic for a fixed seed; :func:`~logdetreg.simulate.replicate`
    gives replication r its data seed from the sub-seed (seed, r), and its
    two fits share the optimizer seed of its one task.  Aborts when more
    than 5% of replications fail.
    """
    if replications < 1:
        raise EmptyCalibration("calibration needs at least one replication")
    _check_nested(spec_restricted, spec_full)
    if statistic not in ("tn", "sn"):
        raise ValueError(f"unknown statistic {statistic!r}")
    fitter = fit_logdet if statistic == "tn" else fit_ols

    def one(data, fit_opts: OptimOptions) -> float:
        fr = fitter(spec_restricted, data, fit_opts)
        ff = fitter(spec_full, data, fit_opts)
        return _difference_statistic(fr, ff)

    samples = replicate(generator, {statistic: one}, replications, seed, opts)[statistic]
    return CalibrationResult(
        samples=np.sort(np.asarray(samples)), failures=replications - len(samples)
    )
