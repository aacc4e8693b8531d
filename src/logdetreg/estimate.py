"""Estimator suite.

OLS (minimize the MSE), GLS with a supplied weighting matrix, the iterated
feasible-GLS sequence, the direct log-determinant estimator, and the
plug-in information matrix with its asymptotic covariance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import cost as cst
from . import model as mdl
from .data import Dataset
from .errors import (
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
    w_hat: mdl.ParamVector
    cost_kind: CostKind
    cost_value: float
    gamma_hat: SpdMatrix
    n: int
    optim: OptimOutcome
    info_hat: SpdMatrix | None = None
    asymptotic_cov: np.ndarray | None = None
    identifiable: bool = True
    rounds: tuple[float, ...] | None = None

    @property
    def spec(self) -> mdl.ModelSpec:
        return self.w_hat.spec


def _check_size(spec: mdl.ModelSpec, data: Dataset) -> None:
    if data.n < data.output_dim or data.n * data.output_dim <= spec.param_count:
        raise UnderDetermined(
            f"n={data.n}, d={data.output_dim} too small for K={spec.param_count}"
        )
    if data.input_dim != spec.input_dim or data.output_dim != spec.output_dim:
        raise UnderDetermined(
            f"data dims ({data.input_dim},{data.output_dim}) do not match model "
            f"({spec.input_dim},{spec.output_dim})"
        )


def _residuals_at(spec, data, x, jac=None) -> cst.ResidualSet | None:
    """Residuals at x, or None when the prediction overflowed (treated as
    an infinite-cost trial point by the objective)."""
    w = mdl.ParamVector(x, spec)
    pred = mdl.eval_batch(spec, w, data.inputs)
    if not np.all(np.isfinite(pred)):
        return None
    return cst.ResidualSet(
        residuals=data.outputs - pred,
        spec=spec,
        w=w,
        inputs=data.inputs,
        _jacobians=jac,
    )


def _constant_jacobian(spec, data):
    """Linear-family Jacobians do not depend on w; compute them once."""
    if spec.kind is mdl.ModelKind.MLP:
        return None
    zero = mdl.ParamVector(np.zeros(spec.param_count), spec)
    return mdl.jacobian_batch(spec, zero, data.inputs)


def _objective(spec, data, cost):
    """BFGS objective x -> (value, gradient) of ``cost(ResidualSet)``.

    Trial points where the prediction overflows or the cost hits a
    degenerate residual covariance are worth +inf; the line search
    backtracks away from them.
    """
    jac = _constant_jacobian(spec, data)

    def objective(x):
        rs = _residuals_at(spec, data, x, jac)
        if rs is None:
            return np.inf, None
        try:
            report = cost(rs)
        except NotPositiveDefinite:
            return np.inf, None
        return report.value, report.gradient

    return objective


def _closed_form_outcome(
    x: np.ndarray, report: cst.CostReport, spec: mdl.ModelSpec
) -> OptimOutcome:
    record = StartRecord(
        start_index=0,
        final_cost=report.value,
        iterations=0,
        grad_norm=float(np.max(np.abs(report.gradient))),
        termination="closed_form",
    )
    return OptimOutcome(
        w_best=mdl.ParamVector(x, spec), cost_best=report.value, per_start=(record,), converged=True
    )


def _gamma_for_quadratic_fit(rs: cst.ResidualSet) -> SpdMatrix:
    """Residual covariance for MSE/GLS fits.

    Unlike the log-det estimator, these costs stay defined when the model
    interpolates the data; fall back to the jitter policy (flagging the
    result as regularized) instead of failing the whole fit.
    """
    try:
        return cst.empirical_covariance(rs)
    except NotPositiveDefinite:
        return spd_from_symmetric(rs.residuals.T @ rs.residuals / rs.n, RidgePolicy.JITTER)


def _ols_closed_form(spec: mdl.ModelSpec, data: Dataset) -> np.ndarray:
    z, y = data.inputs, data.outputs
    gram = z.T @ z
    if np.linalg.matrix_rank(gram) < spec.input_dim:
        raise SingularDesign("rank-deficient regressor matrix")
    wmat = np.linalg.solve(gram, z.T @ y).T  # (d, d')
    return wmat.reshape(-1)


def fit_ols(spec: mdl.ModelSpec, data: Dataset, opts: OptimOptions) -> FitResult:
    """Minimize V_n.  Unconstrained linear models use the normal equations
    directly; everything else goes through the multi-start optimizer."""
    _check_size(spec, data)
    if spec.kind is mdl.ModelKind.LINEAR and spec.mask is None:
        x = _ols_closed_form(spec, data)
        rs = _residuals_at(spec, data, x)
        outcome = _closed_form_outcome(x, cst.mse_gradient(rs), spec)
    else:
        outcome = multi_start(_objective(spec, data, cst.mse_gradient), spec, opts)
        rs = _residuals_at(spec, data, outcome.w_best.values)
    return FitResult(
        w_hat=outcome.w_best,
        cost_kind=CostKind.MSE,
        cost_value=cst.mse_cost(rs),
        gamma_hat=_gamma_for_quadratic_fit(rs),
        n=data.n,
        optim=outcome,
    )


def fit_gls(
    spec: mdl.ModelSpec,
    data: Dataset,
    weight: SpdMatrix,
    opts: OptimOptions,
    x0: np.ndarray | None = None,
) -> FitResult:
    """Minimize the GLS cost with a fixed weighting matrix; one BFGS run
    from ``x0`` when given, else the multi-start."""
    _check_size(spec, data)
    objective = _objective(spec, data, lambda rs: cst.gls_gradient(rs, weight))
    outcome = multi_start(objective, spec, opts, x0=x0)
    rs = _residuals_at(spec, data, outcome.w_best.values)
    return FitResult(
        w_hat=outcome.w_best,
        cost_kind=CostKind.GLS,
        cost_value=outcome.cost_best,
        gamma_hat=_gamma_for_quadratic_fit(rs),
        n=data.n,
        optim=outcome,
    )


def fit_fgls(
    spec: mdl.ModelSpec,
    data: Dataset,
    opts: OptimOptions,
    max_rounds: int = 10,
    round_tol: float = 1e-8,
) -> FitResult:
    """Iterated feasible GLS: OLS, then GLS rounds with the previous round's
    residual covariance, until the log-det value stabilizes.

    The first GLS round explores the same multi-start set as the direct
    log-det estimator (shared seed), so both pipelines select the same
    basin; later rounds warm-start from the previous estimate.  The
    returned cost is the final log-det value and ``rounds`` records the
    value per round; ``optim`` is the last GLS round's optimizer outcome.
    """
    fit = fit_ols(spec, data, opts)
    rounds = [logdet(fit.gamma_hat)]
    for round_index in range(max_rounds):
        x0 = None if round_index == 0 else fit.w_hat.values
        fit = fit_gls(spec, data, fit.gamma_hat, opts, x0=x0)
        if fit.gamma_hat.regularized:
            raise NotPositiveDefinite("GLS residual covariance is singular")
        rounds.append(logdet(fit.gamma_hat))
        if abs(rounds[-1] - rounds[-2]) < round_tol:
            break
    return FitResult(
        w_hat=fit.w_hat,
        cost_kind=CostKind.LOGDET,
        cost_value=rounds[-1],
        gamma_hat=fit.gamma_hat,
        n=data.n,
        optim=fit.optim,
        rounds=tuple(rounds),
    )


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
    gamma = cst.empirical_covariance(rs)
    info = cst.information(rs, gamma)
    try:
        info_spd = spd_from_symmetric(0.5 * (info + info.T))
    except NotPositiveDefinite:
        raise NonIdentifiable("information matrix is singular") from None
    # an exactly duplicated parameter direction can leave a last-ulp
    # positive pivot; treat numerically singular information as singular
    pivots = np.diag(info_spd.chol)
    if np.min(pivots) ** 2 <= 1e-12 * np.max(pivots) ** 2:
        raise NonIdentifiable("information matrix is numerically singular")
    cov = info_spd.solve(np.eye(info_spd.dim)) / data.n
    return info_spd, cov


def fit_logdet(
    spec: mdl.ModelSpec, data: Dataset, opts: OptimOptions, x0: np.ndarray | None = None
) -> FitResult:
    """Minimize U_n = log det Gamma_n(w) directly, with analytic gradients;
    one BFGS run from ``x0`` when given, else the multi-start.

    Populates the plug-in information matrix and asymptotic covariance; a
    singular information matrix flags the fit as non-identifiable instead
    of failing.
    """
    _check_size(spec, data)
    outcome = multi_start(_objective(spec, data, cst.logdet_gradient), spec, opts, x0=x0)
    rs = _residuals_at(spec, data, outcome.w_best.values)
    gamma = cst.empirical_covariance(rs)
    info_hat, cov, identifiable = None, None, True
    try:
        info_hat, cov = fisher_info(spec, outcome.w_best, data)
    except NonIdentifiable:
        identifiable = False
    return FitResult(
        w_hat=outcome.w_best,
        cost_kind=CostKind.LOGDET,
        cost_value=outcome.cost_best,
        gamma_hat=gamma,
        n=data.n,
        optim=outcome,
        info_hat=info_hat,
        asymptotic_cov=cov,
        identifiable=identifiable,
    )
