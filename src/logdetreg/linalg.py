"""Small dense symmetric-matrix kernel.

Everything the cost and inference layers need from linear algebra:
Cholesky-backed SPD matrices, their inverses, solves and
log-determinants, in numpy alone.  Matrices here are small (the output
dimension of the regression, typically 2, or the K x K information), so
everything is dense, and a solve multiplies by the inverse
``L^{-T} L^{-1}`` formed once from the Cholesky factor ``L``.

Two routes factor a matrix.  :func:`factor_small` takes the residual
covariance ``Gamma_n`` of every log-det trial point; at d <= 2 it works
in Python floats and forms the inverse at once, in closed form, because
there numpy's per-call overhead costs more than the arithmetic.  Every
other matrix goes through LAPACK by :func:`factor_symmetric` and
:func:`spd_from_symmetric`, which form the inverse on first use: a larger
``Gamma_n``, matrices from outside the program, a fit's ridged residual
covariance and the K x K information and design matrices.  Both routes
reject the same matrices with the same text.  The kernel has no ridge
policy: a matrix that does not factor raises NotPositiveDefinite, and the
one caller that regularizes instead,
:func:`~logdetreg.estimate._residual_covariance`, adds its ridge itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AsymmetricInput, DimensionMismatch, NotPositiveDefinite

ASYMMETRY_RTOL = 1e-8
# `fit` prints this text on exit 3: rewording it changes its stderr
_FAILED = "Cholesky failed under Reject policy"


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive-definite matrix with a cached Cholesky factor.

    Immutable; construct through :func:`spd_from_symmetric`, or
    :func:`factor_symmetric` or :func:`factor_small` for a
    bitwise-symmetric matrix.
    ``regularized`` is True when
    :func:`~logdetreg.estimate._residual_covariance` had to add a ridge
    before the factorization succeeded.
    """

    entries: np.ndarray
    chol: np.ndarray
    regularized: bool = field(default=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def inverse(self) -> np.ndarray:
        """``self^{-1} = L^{-T} L^{-1}`` from the cached factor ``L``,
        bitwise symmetric.  :func:`factor_small` fills it at d <= 2;
        otherwise it is formed on first use as ``linv.T @ linv`` with
        ``linv = inv(L)``, which numpy forms by a symmetric rank-k update.
        A product with it has a forward error of order ``cond(self) * eps``,
        as the two triangular solves with ``L`` have, but not their small
        backward error; the test suite bounds both by
        ``4 d eps cond(self)`` up to cond 1e12, the limit ``_nonsingular``
        lets through, and bounds the inverse of either route the same way
        against numpy's."""
        linv = np.linalg.inv(self.chol)
        return linv.T @ linv

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``x`` with ``self @ x = b``, as ``self.inverse @ b``.  A
        non-finite ``b`` or a mismatched dimension raises ValueError."""
        if not np.isfinite(b).all():
            raise ValueError("right-hand side must be finite")
        return self.inverse @ b


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a``.  The factorization can return a
    non-finite factor for a NaN or infinite input instead of failing; that
    fails here too.  A non-finite entry anywhere in the factor leaves a
    non-finite pivot (each pivot sums the squares of its row, and later
    rows divide by earlier pivots), so the diagonal is tested."""
    chol = np.linalg.cholesky(a)
    if not all(map(math.isfinite, chol.diagonal().tolist())):
        raise np.linalg.LinAlgError("Cholesky factor is not finite")
    return chol


def spd_from_symmetric(m: np.ndarray) -> SpdMatrix:
    """Build an :class:`SpdMatrix` from a (near-)symmetric matrix.

    Asymmetry beyond ``1e-8 * (1 + |entry|)`` raises
    :class:`AsymmetricInput`; the matrix is then symmetrized as
    ``(m + m.T) / 2`` and factored by :func:`factor_symmetric`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if (np.abs(m - m.T) > ASYMMETRY_RTOL * (1.0 + np.abs(m))).any():
        raise AsymmetricInput("matrix asymmetry exceeds tolerance")
    return factor_symmetric(0.5 * (m + m.T))


def factor_symmetric(m: np.ndarray) -> SpdMatrix:
    """The :class:`SpdMatrix` of a square float matrix that is bitwise
    symmetric, such as a Gram matrix ``r^T r / n``, factored as given: no
    asymmetry test and no symmetrizing (for a Gram matrix with ``n >= 2``,
    ``(m + m.T) / 2`` would return ``m`` bit for bit).

    Any Cholesky failure raises :class:`NotPositiveDefinite` (a meaningful
    signal: degenerate residuals).  A factor that is not finite counts as a
    failed factorization, so a matrix with a NaN or infinite entry raises
    it too.
    """
    try:
        return SpdMatrix(entries=m, chol=_cholesky(m))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(_FAILED) from None


def factor_small(m: np.ndarray) -> SpdMatrix:
    """:func:`factor_symmetric` of a small square float matrix that is
    bitwise symmetric.  At d <= 2, the paper's case, the factor and the
    inverse are written out in Python floats, in about 3 us at d = 2 on a
    2-vCPU host (0.25 of the LAPACK route with its inverse): the entry
    left of the diagonal is scaled by the reciprocal of its column's pivot,
    as LAPACK's unblocked factorization does (with OpenBLAS the factors
    agree bit for bit), and the inverse ``L^{-T} L^{-1}`` is summed in
    index order and mirrored, so it is bitwise symmetric.  A pivot that is
    not positive and finite, as a NaN, infinite or overflowing entry
    leaves, raises :class:`NotPositiveDefinite` with the LAPACK route's
    text.  Every larger matrix goes to :func:`factor_symmetric`.
    """
    d = m.shape[0]
    if not 0 < d <= 2:
        return factor_symmetric(m)
    a = m.tolist()
    if not 0.0 < a[0][0] < math.inf:
        raise NotPositiveDefinite(_FAILED)
    l00 = math.sqrt(a[0][0])
    r0 = 1.0 / l00
    if d == 1:
        chol, inv = [[l00]], [[r0 * r0]]
    else:
        l10 = a[1][0] * r0
        p = a[1][1] - l10 * l10
        if not 0.0 < p < math.inf:
            raise NotPositiveDefinite(_FAILED)
        l11 = math.sqrt(p)
        r1 = 1.0 / l11
        x10 = -(0.0 + l10 * r0) * r1  # 0.0 + keeps the sign of a zero sum
        off = 0.0 + x10 * r1
        chol = [[l00, 0.0], [l10, l11]]
        inv = [[r0 * r0 + x10 * x10, off], [off, r1 * r1]]
    spd = SpdMatrix(m, np.array(chol))
    vars(spd)["inverse"] = np.array(inv)  # the cached_property's value
    return spd


def logdet(g: SpdMatrix) -> float:
    """log det of an SPD matrix: twice the sum of the logs of the cached
    Cholesky pivots, in Python floats and in index order."""
    total = 0.0
    for pivot in g.chol.diagonal().tolist():
        total += math.log(pivot)
    return 2.0 * total
