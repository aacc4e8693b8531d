"""Cost functions over residual sets.

Three costs: the mean squared error, generalized least squares with a
fixed weighting matrix, and the log-determinant of the empirical residual
covariance, each with its analytic gradient, plus the Hessian of the
log-determinant.  All three gradients are ``-(2/n) sum_t J_t^T v_t``, with
``v_t`` equal to ``r_t``, ``W^{-1} r_t`` or ``Gamma_n^{-1} r_t``.  Every
derivative is read from the :class:`~logdetreg.model.Linearization` a
:class:`ResidualSet` carries: the gradients from its pullback, and only
:func:`information` and :func:`logdet_hessian` build its Jacobians (once
per residual set).

With residuals ``r_t = y_t - F_w(z_t)`` and per-row Jacobians ``J_t``
(d x K), the building blocks are

* ``Gamma_n = (1/n) sum_t r_t r_t^T``,
* ``A_k = -(1/n) sum_t J_t[:, k] r_t^T``  so  ``dGamma/dw_k = A_k + A_k^T``,
* ``B_kl = (1/n) sum_t J_t[:, k] J_t[:, l]^T``,
* ``C_kl = -(1/n) sum_t r_t S_t[k, l]^T``  with ``S_t`` the second
  parameter derivatives.

Gradient: ``2 tr(G A_k)`` with ``G = Gamma_n^{-1}``, which collapses to
``-(2/n) sum_t J_t^T G r_t``.  Hessian: the derivative of the gradient,

``H[k, l] = -2 tr(G (A_l + A_l^T) G A_k) + 2 tr(G B_kl) + 2 tr(G C_kl)``,

symmetrized as ``(H + H^T) / 2``.  The second term is twice the
information matrix ``(1/n) sum_t J_t^T G J_t`` (:func:`information`, shared
with the plug-in Fisher information).  The third is never built from
``S_t``: ``tr(G C_kl) = -(1/n) sum_t (G r_t)^T S_t[k, l]`` is the model's
second-derivative contraction against the rows ``G r_t``
(``Linearization.second_derivs_vdot``).  Both forms are validated
against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import model as mdl
from .data import Dataset
from .errors import DimensionMismatch, NotPositiveDefinite
from .linalg import SpdMatrix, logdet, spd_from_symmetric


@dataclass
class ResidualSet:
    """Residuals of a model on a dataset, with the model's
    :class:`~logdetreg.model.Linearization` there (``None`` for bare
    residuals, which support cost values but no derivatives)."""

    residuals: np.ndarray
    lin: mdl.Linearization | None = None

    def __post_init__(self):
        self.residuals = np.asarray(self.residuals, dtype=float)
        if self.residuals.ndim != 2 or self.residuals.shape[0] < 1:
            raise DimensionMismatch("residuals must be a non-empty (n, d) matrix")
        if not np.isfinite(self.residuals).all():
            raise DimensionMismatch("residuals must be finite")

    @classmethod
    def from_model(cls, spec: mdl.ModelSpec, w: mdl.ParamVector, data: Dataset) -> "ResidualSet":
        lin = mdl.linearize(spec, w, data.inputs)
        return cls(data.outputs - lin.pred, lin)

    @property
    def n(self) -> int:
        return self.residuals.shape[0]

    @property
    def d(self) -> int:
        return self.residuals.shape[1]

    @property
    def model(self) -> mdl.Linearization:
        """The linearization, which every derivative needs."""
        if self.lin is None:
            raise DimensionMismatch("residual set was built without a model")
        return self.lin

    @cached_property
    def jacobians(self) -> np.ndarray:
        return self.model.jacobian()


@dataclass(frozen=True)
class CostReport:
    value: float
    gradient: np.ndarray | None = None
    hessian: np.ndarray | None = None
    gamma_n: SpdMatrix | None = None


def empirical_covariance(rs: ResidualSet) -> SpdMatrix:
    """Gamma_n(w) = (1/n) sum_t r_t r_t^T, Reject policy.

    Raises NotPositiveDefinite for n < d or residuals confined to a proper
    subspace (an interpolating or otherwise degenerate model).
    """
    r = rs.residuals
    if rs.n < rs.d:
        raise NotPositiveDefinite(f"n={rs.n} < d={rs.d}: covariance cannot be PD")
    return spd_from_symmetric(r.T @ r / rs.n)


def _chain(rs: ResidualSet, v: np.ndarray) -> np.ndarray:
    """-(2/n) sum_t J_t^T v_t: the gradient of every cost here, given the
    per-row weighted residuals v_t."""
    return -2.0 / rs.n * rs.model.pullback(v)


def mse_cost(rs: ResidualSet) -> float:
    return float(np.sum(rs.residuals**2) / rs.n)


def mse_gradient(rs: ResidualSet) -> CostReport:
    return CostReport(value=mse_cost(rs), gradient=_chain(rs, rs.residuals))


def _gls_terms(rs: ResidualSet, weight: SpdMatrix) -> tuple[float, np.ndarray]:
    """(1/n) sum_t r_t^T weight^{-1} r_t, and the rows weight^{-1} r_t."""
    r = rs.residuals
    if weight.dim != rs.d:
        raise DimensionMismatch(f"weight dim {weight.dim} != residual dim {rs.d}")
    wr = weight.solve(r.T).T
    return float(np.sum(r * wr) / rs.n), wr


def gls_gradient(rs: ResidualSet, weight: SpdMatrix) -> CostReport:
    value, wr = _gls_terms(rs, weight)
    return CostReport(value=value, gradient=_chain(rs, wr))


def _a_tensor(rs: ResidualSet) -> np.ndarray:
    """A_k for all k, shape (K, d, d)."""
    return -np.einsum("tik,tj->kij", rs.jacobians, rs.residuals) / rs.n


def logdet_gradient(rs: ResidualSet) -> CostReport:
    gamma = empirical_covariance(rs)
    gr = gamma.solve(rs.residuals.T).T  # G r_t, (n, d)
    return CostReport(value=logdet(gamma), gradient=_chain(rs, gr), gamma_n=gamma)


def information(rs: ResidualSet, gamma: SpdMatrix) -> np.ndarray:
    """(1/n) sum_t J_t^T gamma^{-1} J_t, the (K, K) information matrix
    ``tr(gamma^{-1} B_kl)``."""
    g = gamma.solve(np.eye(gamma.dim))
    jac = rs.jacobians
    gj = np.einsum("ij,tjk->tik", g, jac)
    return np.einsum("tik,til->kl", jac, gj) / rs.n


def logdet_hessian(rs: ResidualSet) -> CostReport:
    report = logdet_gradient(rs)
    g = report.gamma_n.solve(np.eye(report.gamma_n.dim))
    a = _a_tensor(rs)
    asym = a + a.transpose(0, 2, 1)
    # term 1: derivative of G, -2 tr(G (A_l + A_l^T) G A_k)
    gag = np.einsum("ij,ljm,mn->lin", g, asym, g)  # G (A_l + A_l^T) G
    term1 = -2.0 * np.einsum("lij,kji->kl", gag, a)
    # term 2: 2 tr(G B_kl); term 3: 2 tr(G C_kl) = -(2/n) sum_t S_t[k,l] . (G r_t)
    term2 = 2.0 * information(rs, report.gamma_n)
    term3 = -2.0 / rs.n * rs.model.second_derivs_vdot(rs.residuals @ g)
    hess = term1 + term2 + term3
    return replace(report, hessian=0.5 * (hess + hess.T))
