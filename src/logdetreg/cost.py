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
trial point, and the linear fits apply them once per solve.
:func:`logdet_terms` forms ``Gamma_n = r^T r / n`` for the cost, the
Hessian and the plug-in information alike (a fit's ridged ``gamma_hat`` is
:func:`~logdetreg.estimate._residual_covariance`'s).  The Gram matrix is
bitwise symmetric, so it is factored as given, without the asymmetry
test and symmetrizing of :func:`~logdetreg.linalg.spd_from_symmetric`,
by :func:`~logdetreg.linalg.factor_small`: every log-det trial point pays
for it, and at d <= 2 it works in Python floats and forms the inverse at
once, in about 0.25 of the time of numpy's LAPACK route, which factors
every larger ``Gamma_n``.  The GLS and log-det rows are ``r @ G`` with
``G`` the cached inverse of the weight or of ``Gamma_n``.  The terms
do not test ``r`` for finiteness: a non-finite residual makes the MSE and
GLS values non-finite and fails the factorization of ``Gamma_n``.  The BFGS
objective hands over its residuals formed feature-major, as the (n, d)
transposed view of ``y^T - pred^T``.

At an estimate, a :class:`ResidualSet` holds the residuals and the model's
:class:`~logdetreg.model.Linearization` there, from one ``linearizer``
call, and rejects non-finite residuals.  Only :func:`logdet_hessian` and
the plug-in information of :func:`~logdetreg.estimate.fisher_info` build
the (n, d, K) Jacobians, once each, and hand them to :func:`information`.

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
second-derivative contraction against the log-det rows ``G r_t``
(``Linearization.second_derivs_vdot``).  Both forms are validated
against finite differences in the test suite.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import model as mdl
from .data import Dataset
from .errors import DimensionMismatch, NotPositiveDefinite
from .linalg import SpdMatrix, factor_small, logdet


class ResidualSet(NamedTuple):
    """The (n, d) residuals of a model on a dataset and the model's
    :class:`~logdetreg.model.Linearization` there, from one ``linearizer``
    call (:meth:`from_model`)."""

    residuals: np.ndarray
    lin: mdl.Linearization

    @classmethod
    def from_model(cls, spec: mdl.ModelSpec, w: mdl.ParamVector, data: Dataset) -> "ResidualSet":
        """The residuals ``y - F_w(z)``; DimensionMismatch if one is not finite."""
        lin = mdl.linearizer(spec, data.inputs)(w.values)
        r = data.outputs - lin.pred
        if not np.isfinite(r).all():
            raise DimensionMismatch("residuals must be finite")
        return cls(r, lin)


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
    """U_n = log det Gamma_n, the rows Gamma_n^{-1} r_t, and Gamma_n.

    Raises NotPositiveDefinite for n < d or residuals confined to a proper
    subspace (an interpolating or otherwise degenerate model).
    """
    n, d = r.shape
    if n < d:
        raise NotPositiveDefinite(f"n={n} < d={d}: covariance cannot be PD")
    gamma = factor_small(r.T @ r / n)
    return logdet(gamma), r @ gamma.inverse, gamma


def chain(pullback: Callable[[np.ndarray], np.ndarray], v: np.ndarray) -> np.ndarray:
    """-(2/n) sum_t J_t^T v_t: the gradient of every cost here, from the
    model's pullback and the (n, d) rows v_t of the cost's terms."""
    return -2.0 / v.shape[0] * pullback(v)


def information(jac: np.ndarray, gamma: SpdMatrix) -> np.ndarray:
    """(1/n) sum_t J_t^T gamma^{-1} J_t, the (K, K) information matrix
    ``tr(gamma^{-1} B_kl)``, from the (n, d, K) Jacobians ``jac``."""
    gj = np.einsum("ij,tjk->tik", gamma.inverse, jac)
    return np.einsum("tik,til->kl", jac, gj) / len(jac)


def logdet_hessian(rs: ResidualSet) -> np.ndarray:
    """The symmetric (K, K) Hessian of U_n at a residual set."""
    r, lin = rs
    _, v, gamma = logdet_terms(r)
    g, jac, n = gamma.inverse, lin.jacobian(), len(r)
    a = -np.einsum("tik,tj->kij", jac, r) / n  # A_k for all k, (K, d, d)
    asym = a + a.transpose(0, 2, 1)
    # term 1: derivative of G, -2 tr(G (A_l + A_l^T) G A_k)
    gag = np.einsum("ij,ljm,mn->lin", g, asym, g)  # G (A_l + A_l^T) G
    term1 = -2.0 * np.einsum("lij,kji->kl", gag, a)
    # term 2: 2 tr(G B_kl); term 3: 2 tr(G C_kl) = -(2/n) sum_t S_t[k,l] . (G r_t)
    term2 = 2.0 * information(jac, gamma)
    term3 = -2.0 / n * lin.second_derivs_vdot(v)
    hess = term1 + term2 + term3
    return 0.5 * (hess + hess.T)
