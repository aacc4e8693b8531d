"""Small dense symmetric-matrix kernel.

Everything the cost and inference layers need from linear algebra:
Cholesky-backed SPD matrices, their inverses, solves and
log-determinants, in numpy alone.  Matrices here are tiny (the output
dimension of the regression, typically 2), so everything is dense, and a
solve multiplies by the inverse ``L^{-T} L^{-1}`` formed once from the
Cholesky factor ``L``.  The kernel has no ridge policy: a
matrix that does not factor raises NotPositiveDefinite, and the one
caller that regularizes instead,
:func:`~logdetreg.estimate._residual_covariance`, adds its ridge itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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

    @cached_property
    def inverse(self) -> np.ndarray:
        """``self^{-1} = L^{-T} L^{-1}`` from the cached factor ``L``,
        formed on first use; bitwise symmetric, as numpy forms
        ``linv.T @ linv`` by a symmetric rank-k update.  A product with it
        has a forward error of order ``cond(self) * eps``, as the two
        triangular solves with ``L`` have, but not their small backward
        error; the test suite bounds both by ``4 d eps cond(self)`` up to
        cond 1e12, the limit ``_nonsingular`` lets through."""
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
        # `fit` prints this text on exit 3: rewording it changes its stderr
        raise NotPositiveDefinite("Cholesky failed under Reject policy") from None


def logdet(g: SpdMatrix) -> float:
    """log det of an SPD matrix, via the cached Cholesky diagonal."""
    return 2.0 * float(np.log(g.chol.diagonal()).sum())
