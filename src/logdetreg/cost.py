"""Cost functions of regression residuals.

Three costs: the mean squared error, generalized least squares with a
fixed weighting matrix, and the log-determinant of the empirical residual
covariance, each with its analytic gradient, plus the Hessian of the
log-determinant.  All three gradients are ``-(2/n) sum_t J_t^T v_t``, with
``v_t`` equal to ``r_t``, ``W^{-1} r_t`` or ``Gamma_n^{-1} r_t``.

Each cost is stated once, as its terms at the (n, d) residuals ``r``:
:func:`mse_terms`, :func:`gls_terms` and :func:`logdet_terms` give the
value and the rows ``v_t``, and :func:`chain` turns the rows into the
gradient through a model pullback.  The BFGS objective of
:mod:`~logdetreg.estimate` applies the terms to the bare residuals of each
trial point.  The ``*_gradient`` functions apply them to a
:class:`ResidualSet`, the residuals with the model's
:class:`~logdetreg.model.Linearization` there, and return a
:class:`CostReport`.  Only :func:`information` and :func:`logdet_hessian`
build Jacobians (once per residual set).  ``Gamma_n = r^T r / n`` is
bitwise symmetric, so it is factored as given, without the asymmetry test
and symmetrizing of :func:`~logdetreg.linalg.spd_from_symmetric`.  The GLS
and log-det rows are ``r @ G`` with ``G`` the cached inverse of the weight
or of ``Gamma_n``; the terms do not test ``r`` for finiteness, since both of
their callers have (the BFGS objective and :class:`ResidualSet`).

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

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from . import model as mdl
from .data import Dataset
from .errors import DimensionMismatch, NotPositiveDefinite
from .linalg import SpdMatrix, factor_symmetric, logdet


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


def _covariance(r: np.ndarray) -> SpdMatrix:
    """Gamma_n of the (n, d) residuals ``r``.  The Gram
    matrix ``r^T r / n`` is bitwise symmetric (the test suite checks it), so
    it is factored as given."""
    n, d = r.shape
    if n < d:
        raise NotPositiveDefinite(f"n={n} < d={d}: covariance cannot be PD")
    return factor_symmetric(r.T @ r / n)


def empirical_covariance(rs: ResidualSet) -> SpdMatrix:
    """Gamma_n(w) = (1/n) sum_t r_t r_t^T.

    Raises NotPositiveDefinite for n < d or residuals confined to a proper
    subspace (an interpolating or otherwise degenerate model).
    """
    return _covariance(rs.residuals)


# The terms of each cost at the (n, d) residuals r: ``(value, v, gamma_n)``
# with v the rows v_t of the gradient -(2/n) sum_t J_t^T v_t (:func:`chain`)
# and gamma_n the residual covariance the cost factored (log-det only).

def mse_terms(r: np.ndarray) -> tuple[float, np.ndarray, None]:
    """V_n = (1/n) sum_t |r_t|^2, and the rows r_t."""
    return float(np.sum(r**2) / r.shape[0]), r, None


def gls_terms(r: np.ndarray, weight: SpdMatrix) -> tuple[float, np.ndarray, None]:
    """(1/n) sum_t r_t^T weight^{-1} r_t, and the rows weight^{-1} r_t."""
    if weight.dim != r.shape[1]:
        raise DimensionMismatch(f"weight dim {weight.dim} != residual dim {r.shape[1]}")
    wr = r @ weight.inverse
    return float(np.sum(r * wr) / r.shape[0]), wr, None


def logdet_terms(r: np.ndarray) -> tuple[float, np.ndarray, SpdMatrix]:
    """U_n = log det Gamma_n, the rows Gamma_n^{-1} r_t, and Gamma_n."""
    gamma = _covariance(r)
    return logdet(gamma), r @ gamma.inverse, gamma


def chain(pullback: Callable[[np.ndarray], np.ndarray], v: np.ndarray) -> np.ndarray:
    """-(2/n) sum_t J_t^T v_t: the gradient of every cost here, from the
    model's pullback and the (n, d) rows v_t of the cost's terms."""
    return -2.0 / v.shape[0] * pullback(v)


def report(rs: ResidualSet, terms) -> CostReport:
    """The value, gradient and covariance of the cost with these terms."""
    value, v, gamma = terms(rs.residuals)
    return CostReport(value=value, gradient=chain(rs.model.pullback, v), gamma_n=gamma)


def gls_gradient(rs: ResidualSet, weight: SpdMatrix) -> CostReport:
    return report(rs, partial(gls_terms, weight=weight))


def logdet_gradient(rs: ResidualSet) -> CostReport:
    return report(rs, logdet_terms)


def _a_tensor(rs: ResidualSet) -> np.ndarray:
    """A_k for all k, shape (K, d, d)."""
    return -np.einsum("tik,tj->kij", rs.jacobians, rs.residuals) / rs.n


def information(rs: ResidualSet, gamma: SpdMatrix) -> np.ndarray:
    """(1/n) sum_t J_t^T gamma^{-1} J_t, the (K, K) information matrix
    ``tr(gamma^{-1} B_kl)``."""
    g = gamma.inverse
    jac = rs.jacobians
    gj = np.einsum("ij,tjk->tik", g, jac)
    return np.einsum("tik,til->kl", jac, gj) / rs.n


def logdet_hessian(rs: ResidualSet) -> CostReport:
    report = logdet_gradient(rs)
    g = report.gamma_n.inverse
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
