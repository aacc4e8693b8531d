"""Estimator suite.

OLS (minimize the MSE), GLS with a supplied weighting matrix, the iterated
feasible-GLS sequence, the direct log-determinant estimator, and the
plug-in information matrix with its asymptotic covariance.  A fit's
Gamma_n that does not factor gets a ridge in :func:`_residual_covariance`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial

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
from .linalg import SpdMatrix, factor_symmetric, logdet, spd_from_symmetric
from .optimize import OptimOptions, OptimOutcome, StartRecord, multi_start


FGLS_ROUNDS = 10  # GLS rounds of fit_fgls at most
FGLS_TOL = 1e-8  # change of the log-det value that ends fit_fgls


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
    rounds: tuple[float, ...] | None = None

    @property
    def spec(self) -> mdl.ModelSpec:
        return self.w_hat.spec


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


def _residuals_at(spec, data, x) -> cst.ResidualSet:
    return cst.ResidualSet.from_model(spec, mdl.ParamVector(x, spec), data)


def _objective(spec, data, terms):
    """BFGS objective x -> (value, gradient) of the cost with these
    ``terms`` (``cost.mse_terms``, ``cost.gls_terms`` at a weight or
    ``cost.logdet_terms``), with the model's inputs checked once.

    Trial points where the residuals overflow, the cost hits a
    degenerate residual covariance or the gradient is not finite are worth
    +inf; the line search backtracks away from them.  A wrong-length or
    non-finite ``x`` raises DimensionMismatch.
    """
    linearize_at, y = mdl.linearizer(spec, data.inputs), data.outputs

    def objective(x):
        mdl.check_params(x, spec)
        lin = linearize_at(x)
        r = y - lin.pred
        if not np.isfinite(r).all():
            return np.inf, None
        try:
            value, v, _ = terms(r)
        except NotPositiveDefinite:
            return np.inf, None
        grad = cst.chain(lin.pullback, v)
        if not np.isfinite(grad).all():
            return np.inf, None
        return value, grad

    return objective


def _nonsingular(m: np.ndarray, error: type, what: str) -> SpdMatrix:
    """``m`` as an SpdMatrix, or ``error`` when it is singular: the Cholesky
    factorization fails, or its smallest pivot is at most 1e-6 of the
    largest (an exactly duplicated direction can leave a last-ulp positive
    pivot)."""
    try:
        spd = factor_symmetric(0.5 * (m + m.T))
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
    """The one-record outcome of a linear fit, solved without a search: its
    cost was evaluated once per round and at the solution."""
    grad_norm = float(np.max(np.abs(report.gradient)))
    record = StartRecord(0, report.value, iterations, iterations + 1, grad_norm, reason)
    return OptimOutcome(mdl.ParamVector(x, spec), report.value, (record,), reason != "max_iters")


def _residual_covariance(rs: cst.ResidualSet) -> SpdMatrix:
    """Residual covariance Gamma_n of a fit.

    Unlike the log-det cost, the MSE and GLS costs stay defined when the
    model interpolates the data, so a Gamma_n that does not factor gets a
    ridge ``lam * I`` instead of failing the fit: ``lam = 1e-8 trace / d``
    (1e-8 when that is not positive and finite), escalated by a factor of
    100 at most 3 times, and the result is flagged as regularized.
    """
    m = rs.residuals.T @ rs.residuals / rs.n
    try:
        return factor_symmetric(m)
    except NotPositiveDefinite:
        pass
    lam = 1e-8 * np.trace(m) / rs.d
    if not 0.0 < lam < np.inf:
        lam = 1e-8
    for _ in range(3):
        ridged = m + lam * np.eye(rs.d)
        try:
            return replace(factor_symmetric(ridged), regularized=True)
        except NotPositiveDefinite:
            lam *= 100.0
    raise NotPositiveDefinite("Cholesky failed after jitter escalation")


def _fit(spec, data, opts, kind, terms, x0, linear_fit) -> FitResult:
    """The one fit body, on a checked dataset: ``linear_fit()``, a solve
    without a search that returns its outcome and the residual covariance
    at its solution, for a linear spec; for the MLP, BFGS on the cost with
    these ``terms``: one run from ``x0`` when given, else the multi-start."""
    # an overflow is an outcome by design, not a warning: a BFGS trial point
    # that overflows is worth +inf, and a residual covariance that does is
    # not finite and fails to factor (NotPositiveDefinite)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind is mdl.ModelKind.MLP:
            outcome = multi_start(_objective(spec, data, terms), spec, opts, x0=x0)
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


def _weighted_fit(spec, data, opts, kind, weight: SpdMatrix, x0=None, rs0=None) -> FitResult:
    """An OLS (``kind`` MSE, identity ``weight``) or GLS fit: for a linear
    spec one ``_wls`` solve for ``weight`` from ``rs0``, the residual set at
    w = 0 (built here unless given); for the MLP, BFGS on the cost."""
    terms = cst.mse_terms if kind is CostKind.MSE else partial(cst.gls_terms, weight=weight)

    def solved():
        zero = rs0 if rs0 is not None else _residuals_at(spec, data, np.zeros(spec.param_count))
        x = _wls(zero, weight)
        rs = _residuals_at(spec, data, x)
        return _outcome(spec, x, cst.report(rs, terms), 0, "closed_form"), _residual_covariance(rs)

    return _fit(spec, data, opts, kind, terms, x0, solved)


def fit_ols(spec: mdl.ModelSpec, data: Dataset, opts: OptimOptions) -> FitResult:
    """Minimize V_n: the normal equations for a linear spec, the multi-start
    for the MLP."""
    _check_size(spec, data)
    identity = spd_from_symmetric(np.eye(data.output_dim))
    return _weighted_fit(spec, data, opts, CostKind.MSE, identity)


def fit_gls(
    spec: mdl.ModelSpec,
    data: Dataset,
    weight: SpdMatrix,
    opts: OptimOptions,
) -> FitResult:
    """Minimize the GLS cost with a fixed weighting matrix: one weighted
    least-squares solve for a linear spec, the multi-start for the MLP.
    ``weight`` must be d x d."""
    if weight.dim != data.output_dim:
        raise DimensionMismatch(f"weight is {weight.dim}x{weight.dim}, data have d={data.output_dim}")
    _check_size(spec, data)
    return _weighted_fit(spec, data, opts, CostKind.GLS, weight)


def fit_fgls(
    spec: mdl.ModelSpec,
    data: Dataset,
    opts: OptimOptions,
) -> FitResult:
    """Iterated feasible GLS: OLS, then up to ``FGLS_ROUNDS`` GLS rounds with
    the previous round's residual covariance, until the log-det value moves
    by less than ``FGLS_TOL``.

    For a linear spec every round is one weighted least-squares solve, all
    from one residual set at w = 0.  For the MLP the first GLS round
    explores the same multi-start set as the direct log-det estimator
    (shared seed), so both pipelines select the same basin; later rounds
    warm-start from the previous estimate.  The returned cost is the final
    log-det value and ``rounds`` records the value per round; ``optim`` is
    the last GLS round's outcome.
    """
    _check_size(spec, data)
    rs0 = None
    if spec.kind is not mdl.ModelKind.MLP:
        rs0 = _residuals_at(spec, data, np.zeros(spec.param_count))
    identity = spd_from_symmetric(np.eye(data.output_dim))
    fit = _weighted_fit(spec, data, opts, CostKind.MSE, identity, rs0=rs0)
    rounds = [logdet(fit.gamma_hat)]
    for round_index in range(FGLS_ROUNDS):
        x0 = None if round_index == 0 else fit.w_hat.values
        fit = _weighted_fit(spec, data, opts, CostKind.GLS, fit.gamma_hat, x0, rs0)
        if fit.gamma_hat.regularized:
            raise NotPositiveDefinite("GLS residual covariance is singular")
        rounds.append(logdet(fit.gamma_hat))
        if abs(rounds[-1] - rounds[-2]) < FGLS_TOL:
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
    cov = info_spd.inverse / data.n
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
    rs0 = _residuals_at(spec, data, np.zeros(spec.param_count))
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
    when given, else the multi-start.  The plug-in information at the
    estimate is :func:`fisher_info`'s, which the fit does not compute.
    """
    _check_size(spec, data)
    return _fit(spec, data, opts, CostKind.LOGDET, cst.logdet_terms, x0,
                lambda: _iterated_fgls(spec, data, opts))
