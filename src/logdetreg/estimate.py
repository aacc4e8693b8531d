"""Estimator suite.

OLS (minimize the MSE), GLS with a supplied weighting matrix, the iterated
feasible-GLS sequence, the direct log-determinant estimator, and the
plug-in information matrix with its asymptotic covariance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from . import cost as cst
from . import model as mdl
from .data import Dataset
from .errors import (
    DimensionMismatch,
    NonIdentifiable,
    NotPositiveDefinite,
    SingularDesign,
    UnderDetermined,
)
from .linalg import RidgePolicy, SpdMatrix, logdet, spd_from_symmetric
from .optimize import OptimOptions, OptimOutcome, StartRecord, multi_start


class CostKind(str, enum.Enum):
    MSE = "mse"
    GLS = "gls"
    LOGDET = "logdet"


@dataclass(frozen=True)
class FitResult:
    """A fit.  ``info_hat``, ``asymptotic_cov`` and ``identifiable`` come
    from :func:`fisher_info` at ``w_hat`` on ``data``, the fitted dataset
    (kept by ``fit_logdet`` only), computed on first read and then cached,
    so ``data`` must not be mutated before that read.  A singular
    information matrix reads ``None``, ``None``, ``False``; a fit without
    ``data`` reads ``None``, ``None``, ``True``."""

    w_hat: mdl.ParamVector
    cost_kind: CostKind
    cost_value: float
    gamma_hat: SpdMatrix
    n: int
    optim: OptimOutcome
    rounds: tuple[float, ...] | None = None
    data: Dataset | None = field(default=None, repr=False, compare=False)

    @property
    def spec(self) -> mdl.ModelSpec:
        return self.w_hat.spec

    @cached_property
    def _plug_in(self) -> tuple[SpdMatrix | None, np.ndarray | None, bool]:
        if self.data is None:
            return None, None, True
        try:
            return (*fisher_info(self.spec, self.w_hat, self.data), True)
        except NonIdentifiable:
            return None, None, False

    @property
    def info_hat(self) -> SpdMatrix | None:
        return self._plug_in[0]

    @property
    def asymptotic_cov(self) -> np.ndarray | None:
        return self._plug_in[1]

    @property
    def identifiable(self) -> bool:
        return self._plug_in[2]


def _check_size(spec: mdl.ModelSpec, data: Dataset) -> None:
    for name, values in (("inputs", data.inputs), ("outputs", data.outputs)):
        if not np.isfinite(values).all():
            raise DimensionMismatch(f"dataset {name} must be finite")
    if data.n < data.output_dim or data.n * data.output_dim <= spec.param_count:
        raise UnderDetermined(
            f"n={data.n}, d={data.output_dim} too small for K={spec.param_count}"
        )
    if data.input_dim != spec.input_dim or data.output_dim != spec.output_dim:
        raise UnderDetermined(
            f"data dims ({data.input_dim},{data.output_dim}) do not match model "
            f"({spec.input_dim},{spec.output_dim})"
        )


def _residuals_at(spec, data, x) -> cst.ResidualSet | None:
    """Residuals at x, or None when they overflowed (treated as an
    infinite-cost trial point by the objective)."""
    lin = mdl.linearize(spec, mdl.ParamVector(x, spec), data.inputs)
    r = data.outputs - lin.pred
    if not np.isfinite(r).all():
        return None
    return cst.ResidualSet(r, lin)


def _objective(spec, data, cost):
    """BFGS objective x -> (value, gradient) of ``cost(ResidualSet)``.

    Trial points where the residuals overflow, the cost hits a
    degenerate residual covariance or the gradient is not finite are worth
    +inf; the line search backtracks away from them.
    """

    def objective(x):
        rs = _residuals_at(spec, data, x)
        if rs is None:
            return np.inf, None
        try:
            report = cost(rs)
        except NotPositiveDefinite:
            return np.inf, None
        if not np.isfinite(report.gradient).all():
            return np.inf, None
        return report.value, report.gradient

    return objective


def _nonsingular(m: np.ndarray, error: type, what: str) -> SpdMatrix:
    """``m`` as an SpdMatrix, or ``error`` when it is singular: the Cholesky
    factorization fails, or its smallest pivot is at most 1e-6 of the
    largest (an exactly duplicated direction can leave a last-ulp positive
    pivot)."""
    try:
        spd = spd_from_symmetric(0.5 * (m + m.T))
    except NotPositiveDefinite:
        raise error(f"{what} is singular") from None
    pivots = np.diag(spd.chol)
    if np.min(pivots) ** 2 <= 1e-12 * np.max(pivots) ** 2:
        raise error(f"{what} is numerically singular")
    return spd


def _wls(rs0: cst.ResidualSet, weight: SpdMatrix) -> np.ndarray:
    """Minimizer of the GLS cost of a linear spec (masked or not), given
    its residual set ``rs0`` at w = 0.

    The cost is quadratic in w with Hessian ``2 information(rs0, weight)``,
    so one Newton step from w = 0 lands on its minimizer.  Raises
    SingularDesign when the weighted design information is singular.
    ``rs0`` caches the (w-independent) Jacobian across calls.
    """
    info = _nonsingular(cst.information(rs0, weight), SingularDesign, "regressor design")
    return info.solve(-0.5 * cst.gls_gradient(rs0, weight).gradient)


def _outcome(spec, x, report: cst.CostReport, iterations: int, reason: str) -> OptimOutcome:
    """The one-record outcome of a linear fit, solved without a search."""
    grad_norm = float(np.max(np.abs(report.gradient)))
    record = StartRecord(0, report.value, iterations, grad_norm, reason)
    return OptimOutcome(mdl.ParamVector(x, spec), report.value, (record,), reason != "max_iters")


def _residual_covariance(rs: cst.ResidualSet) -> SpdMatrix:
    """Residual covariance of a fit.

    Unlike the log-det cost, the MSE and GLS costs stay defined when the
    model interpolates the data; the jitter policy (flagging the result as
    regularized) keeps the fit instead of failing it, and returns the
    plain factor whenever there is one.
    """
    return spd_from_symmetric(rs.residuals.T @ rs.residuals / rs.n, RidgePolicy.JITTER)


def _fit(spec, data, opts, kind, cost, x0, linear_fit) -> FitResult:
    """The one fit body: ``linear_fit()``, a solve without a search that
    returns its outcome and the residual covariance at its solution, for a
    linear spec; for the MLP, BFGS on ``cost``: one run from ``x0`` when
    given, else the multi-start."""
    _check_size(spec, data)
    if spec.kind is mdl.ModelKind.MLP:
        outcome = multi_start(_objective(spec, data, cost), spec, opts, x0=x0)
        gamma_hat = _residual_covariance(_residuals_at(spec, data, outcome.w_best.values))
    else:
        outcome, gamma_hat = linear_fit()
    return FitResult(
        w_hat=outcome.w_best,
        cost_kind=kind,
        cost_value=outcome.cost_best,
        gamma_hat=gamma_hat,
        n=data.n,
        optim=outcome,
    )


def _zero_residuals(spec, data) -> cst.ResidualSet:
    return _residuals_at(spec, data, np.zeros(spec.param_count))


def _weighted_fit(spec, data, opts, kind, weight: SpdMatrix, x0=None, rs0=None) -> FitResult:
    """An OLS (``kind`` MSE, identity ``weight``) or GLS fit: for a linear
    spec one ``_wls`` solve for ``weight`` from ``rs0``, the residual set at
    w = 0 (built here unless given); for the MLP, BFGS on the cost."""
    cost = cst.mse_gradient if kind is CostKind.MSE else partial(cst.gls_gradient, weight=weight)

    def solved():
        x = _wls(rs0 if rs0 is not None else _zero_residuals(spec, data), weight)
        rs = _residuals_at(spec, data, x)
        return _outcome(spec, x, cost(rs), 0, "closed_form"), _residual_covariance(rs)

    return _fit(spec, data, opts, kind, cost, x0, solved)


def fit_ols(spec: mdl.ModelSpec, data: Dataset, opts: OptimOptions) -> FitResult:
    """Minimize V_n: the normal equations for a linear spec, the multi-start
    for the MLP."""
    identity = spd_from_symmetric(np.eye(data.output_dim))
    return _weighted_fit(spec, data, opts, CostKind.MSE, identity)


def fit_gls(
    spec: mdl.ModelSpec,
    data: Dataset,
    weight: SpdMatrix,
    opts: OptimOptions,
    x0: np.ndarray | None = None,
) -> FitResult:
    """Minimize the GLS cost with a fixed weighting matrix: one weighted
    least-squares solve for a linear spec; for the MLP one BFGS run from
    ``x0`` when given, else the multi-start.  ``weight`` must be d x d."""
    if weight.dim != data.output_dim:
        raise DimensionMismatch(f"weight is {weight.dim}x{weight.dim}, data have d={data.output_dim}")
    return _weighted_fit(spec, data, opts, CostKind.GLS, weight, x0)


def fit_fgls(
    spec: mdl.ModelSpec,
    data: Dataset,
    opts: OptimOptions,
    max_rounds: int = 10,
    round_tol: float = 1e-8,
) -> FitResult:
    """Iterated feasible GLS: OLS, then GLS rounds with the previous round's
    residual covariance, until the log-det value stabilizes.

    For a linear spec every round is one weighted least-squares solve, all
    from one residual set at w = 0.  For the MLP the first GLS round
    explores the same multi-start set as the direct log-det estimator
    (shared seed), so both pipelines select the same basin; later rounds
    warm-start from the previous estimate.  The returned cost is the final
    log-det value and ``rounds`` records the value per round; ``optim`` is
    the last GLS round's outcome.
    """
    _check_size(spec, data)
    rs0 = None if spec.kind is mdl.ModelKind.MLP else _zero_residuals(spec, data)
    identity = spd_from_symmetric(np.eye(data.output_dim))
    fit = _weighted_fit(spec, data, opts, CostKind.MSE, identity, rs0=rs0)
    rounds = [logdet(fit.gamma_hat)]
    for round_index in range(max_rounds):
        x0 = None if round_index == 0 else fit.w_hat.values
        fit = _weighted_fit(spec, data, opts, CostKind.GLS, fit.gamma_hat, x0, rs0)
        if fit.gamma_hat.regularized:
            raise NotPositiveDefinite("GLS residual covariance is singular")
        rounds.append(logdet(fit.gamma_hat))
        if abs(rounds[-1] - rounds[-2]) < round_tol:
            break
    return replace(fit, cost_kind=CostKind.LOGDET, cost_value=rounds[-1], rounds=tuple(rounds))


def fisher_info(
    spec: mdl.ModelSpec, w: mdl.ParamVector, data: Dataset
) -> tuple[SpdMatrix, np.ndarray]:
    """Plug-in information matrix and asymptotic covariance.

    ``I[k, l] = tr(Gamma_n(w)^{-1} B_n(k, l))``, computed as
    ``(1/n) sum_t J_t^T Gamma_n^{-1} J_t``; the asymptotic covariance of
    the estimate is ``I^{-1} / n``.  Raises NonIdentifiable when the
    information matrix is singular.
    """
    rs = cst.ResidualSet.from_model(spec, w, data)
    info = cst.information(rs, cst.empirical_covariance(rs))
    info_spd = _nonsingular(info, NonIdentifiable, "information matrix")
    cov = info_spd.solve(np.eye(info_spd.dim)) / data.n
    return info_spd, cov


def _iterated_fgls(
    spec: mdl.ModelSpec, data: Dataset, opts: OptimOptions
) -> tuple[OptimOutcome, SpdMatrix]:
    """Log-det minimizer of a linear spec, with Gamma_n there:
    ``w <- _wls(Gamma_n(w))`` from OLS until max |grad U_n| <= ``grad_tol``,
    or ``max_iters`` rounds.

    Each round is block-coordinate descent on the Gaussian likelihood, so
    U_n never rises; the iteration converges to the SUR maximum-likelihood
    estimate (Oberhofer & Kmenta 1974), which is OLS itself when every
    equation has the same regressors (Zellner 1962).
    """
    rs0 = _zero_residuals(spec, data)
    weight = spd_from_symmetric(np.eye(data.output_dim))
    for rounds in range(opts.max_iters + 1):
        x = _wls(rs0, weight)
        rs = _residuals_at(spec, data, x)
        report = cst.logdet_gradient(rs)
        if np.max(np.abs(report.gradient)) <= opts.grad_tol:
            return _outcome(spec, x, report, rounds, "grad_tol"), report.gamma_n
        weight = report.gamma_n
    return _outcome(spec, x, report, rounds, "max_iters"), report.gamma_n


def fit_logdet(
    spec: mdl.ModelSpec, data: Dataset, opts: OptimOptions, x0: np.ndarray | None = None
) -> FitResult:
    """Minimize U_n = log det Gamma_n(w) directly: iterated FGLS for a linear
    spec; for the MLP, BFGS with analytic gradients, one run from ``x0``
    when given, else the multi-start.

    The result keeps ``data``, so that it computes the plug-in information
    matrix and asymptotic covariance when first read (see
    :class:`FitResult`); the fit itself computes neither.
    """
    fit = _fit(spec, data, opts, CostKind.LOGDET, cst.logdet_gradient, x0,
               lambda: _iterated_fgls(spec, data, opts))
    return replace(fit, data=data)
