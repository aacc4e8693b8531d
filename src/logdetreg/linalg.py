"""Small dense symmetric-matrix kernel.

Everything the cost and inference layers need from linear algebra:
Cholesky-backed SPD matrices, their solves and log-determinants.
Matrices here are tiny (the output dimension of the regression,
typically 2), so everything is dense.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import AsymmetricInput, DimensionMismatch, NotPositiveDefinite

ASYMMETRY_RTOL = 1e-8


class RidgePolicy(enum.Enum):
    REJECT = "reject"
    JITTER = "jitter"


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive-definite matrix with a cached Cholesky factor.

    Immutable; construct through :func:`spd_from_symmetric`, or
    :func:`factor_symmetric` for a bitwise-symmetric matrix.
    ``regularized`` is True when the Jitter policy had to add a ridge
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


def spd_from_symmetric(m: np.ndarray, policy: RidgePolicy = RidgePolicy.REJECT) -> SpdMatrix:
    """Build an :class:`SpdMatrix` from a (near-)symmetric matrix.

    Asymmetry beyond ``1e-8 * (1 + |entry|)`` raises
    :class:`AsymmetricInput`; the matrix is then symmetrized as
    ``(m + m.T) / 2`` and factored by :func:`factor_symmetric` under ``policy``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if (np.abs(m - m.T) > ASYMMETRY_RTOL * (1.0 + np.abs(m))).any():
        raise AsymmetricInput("matrix asymmetry exceeds tolerance")
    return factor_symmetric(0.5 * (m + m.T), policy)


def factor_symmetric(m: np.ndarray, policy: RidgePolicy = RidgePolicy.REJECT) -> SpdMatrix:
    """The :class:`SpdMatrix` of a square float matrix that is bitwise
    symmetric, such as a Gram matrix ``r^T r / n``, factored as given: no
    asymmetry test and no symmetrizing (for a Gram matrix with ``n >= 2``,
    ``(m + m.T) / 2`` would return ``m`` bit for bit).

    Under ``RidgePolicy.JITTER`` a ridge ``lam * I`` with
    ``lam = 1e-8 * trace(m) / d`` is added and escalated by a factor of 100
    at most 3 times; the result is then flagged as regularized.  Under
    ``RidgePolicy.REJECT`` any Cholesky failure raises
    :class:`NotPositiveDefinite` (a meaningful signal: degenerate residuals).
    A factor that holds a NaN counts as a failed factorization, so a NaN
    matrix raises :class:`NotPositiveDefinite` under either policy; an
    infinite diagonal entry with a NaN-free factor is kept (its log-det is
    +inf).
    """
    try:
        return SpdMatrix(entries=m, chol=_cholesky(m))
    except np.linalg.LinAlgError:
        if policy is RidgePolicy.REJECT:
            raise NotPositiveDefinite("Cholesky failed under Reject policy") from None

    d = m.shape[0]
    lam = 1e-8 * np.trace(m) / d
    if not 0.0 < lam < np.inf:
        lam = 1e-8
    for _ in range(3):
        try:
            ridged = m + lam * np.eye(d)
            return SpdMatrix(entries=ridged, chol=_cholesky(ridged), regularized=True)
        except np.linalg.LinAlgError:
            lam *= 100.0
    raise NotPositiveDefinite("Cholesky failed after jitter escalation")


def logdet(g: SpdMatrix) -> float:
    """log det of an SPD matrix, via the cached Cholesky diagonal."""
    return 2.0 * float(np.log(g.chol.diagonal()).sum())
