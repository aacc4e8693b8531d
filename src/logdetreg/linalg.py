"""Small dense symmetric-matrix kernel.

Everything the cost and inference layers need from linear algebra:
Cholesky-backed SPD matrices, their solves and log-determinants.
Matrices here are tiny (the output dimension of the regression,
typically 2), so everything is dense.  The kernel has no ridge policy: a
matrix that does not factor raises NotPositiveDefinite, and the one
caller that regularizes instead,
:func:`~logdetreg.estimate._residual_covariance`, adds its ridge itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import AsymmetricInput, DimensionMismatch, NotPositiveDefinite

ASYMMETRY_RTOL = 1e-8


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive-definite matrix with a cached Cholesky factor.

    Immutable; construct through :func:`spd_from_symmetric`, or
    :func:`factor_symmetric` for a bitwise-symmetric matrix.
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

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``self @ x = b`` using the cached factor: LAPACK ``potrs``,
        as ``scipy.linalg.cho_solve`` calls it.  A non-finite ``b`` or a
        mismatched dimension raises ValueError."""
        if not np.isfinite(b).all():
            raise ValueError("right-hand side must be finite")
        return lapack.dpotrs(self.chol, b, lower=1)[0]


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a``.  The factorization can return a NaN
    factor for a NaN input instead of failing; that fails here too.  A NaN
    anywhere in the factor reaches its last pivot (each pivot sums the
    squares of its row, and later rows divide by earlier pivots), so that
    one entry is tested."""
    chol = np.linalg.cholesky(a)
    if math.isnan(chol[-1, -1]):
        raise np.linalg.LinAlgError("Cholesky factor holds a NaN")
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
    signal: degenerate residuals).  A factor that holds a NaN counts as a
    failed factorization, so a NaN matrix raises it too; an infinite
    diagonal entry with a NaN-free factor is kept (its log-det is +inf).
    """
    try:
        return SpdMatrix(entries=m, chol=_cholesky(m))
    except np.linalg.LinAlgError:
        # `fit` prints this text on exit 3: rewording it changes its stderr
        raise NotPositiveDefinite("Cholesky failed under Reject policy") from None


def logdet(g: SpdMatrix) -> float:
    """log det of an SPD matrix, via the cached Cholesky diagonal."""
    return 2.0 * float(np.log(g.chol.diagonal()).sum())
