"""Shared fixtures and oracle helpers for the test suite."""

import numpy as np
import pytest
from scipy.linalg import cho_solve

from logdetreg import Dataset, ModelKind, ModelSpec, ParamVector, logdet, spd_from_symmetric
from logdetreg.cost import CostReport, ResidualSet, _a_tensor, _gls_terms, empirical_covariance
from logdetreg.errors import DimensionMismatch
from logdetreg.linalg import SpdMatrix


def fd_gradient(func, x, h_scale=1e-6):
    """Central-difference gradient with step h = h_scale * (1 + |x_k|)."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for k in range(x.size):
        h = h_scale * (1.0 + abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        grad[k] = (func(xp) - func(xm)) / (2.0 * h)
    return grad


def fd_jacobian(func, x, h_scale=1e-6):
    """Central-difference Jacobian of a vector- or matrix-valued func."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        h = h_scale * (1.0 + abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        cols.append((func(xp) - func(xm)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def make_instance(index, n=200, d=2):
    """Seeded (spec, w, dataset) instance cycling Linear / MaskedLinear / Mlp."""
    rng = np.random.default_rng(1000 + index)
    kind = (ModelKind.LINEAR, ModelKind.MASKED_LINEAR, ModelKind.MLP)[index % 3]
    din = int(rng.integers(1, 4))
    if kind is ModelKind.MLP:
        hidden = int(rng.integers(1, 4))
        spec = ModelSpec(kind, din, d, hidden_units=hidden)
        if rng.random() < 0.5:
            mask = rng.random(spec.full_param_count) < 0.8
            mask[0] = True  # keep at least one free parameter
            spec = ModelSpec(kind, din, d, hidden_units=hidden, mask=mask)
    elif kind is ModelKind.MASKED_LINEAR:
        mask = rng.random(d * din) < 0.7
        mask[0] = True
        spec = ModelSpec(kind, din, d, mask=mask)
    else:
        spec = ModelSpec(kind, din, d)
    w = ParamVector(rng.uniform(-1.5, 1.5, size=spec.param_count), spec)
    z = rng.uniform(-1.0, 1.0, size=(n, din))
    noise = rng.standard_normal((n, d)) @ np.array([[1.0, 0.0], [0.6, 0.8]])[:d, :d].T
    from logdetreg.model import eval_batch

    y = eval_batch(spec, w, z) + noise
    return spec, w, Dataset(z, y)


def residual_set(spec, w, data):
    return ResidualSet.from_model(spec, w, data)


# --- oracles: independent routes to values the library computes otherwise ---

def cho_solve_oracle(g: SpdMatrix, b) -> np.ndarray:
    """``g^{-1} b`` by scipy's ``cho_solve`` on the cached factor."""
    return cho_solve((g.chol, True), b)


def spd_inverse(g: SpdMatrix) -> SpdMatrix:
    """Inverse of an SPD matrix, returned as a valid :class:`SpdMatrix`."""
    inv = cho_solve_oracle(g, np.eye(g.dim))
    return spd_from_symmetric(0.5 * (inv + inv.T))


def trace_product(g_inv: SpdMatrix, a: np.ndarray) -> float:
    """``tr(g_inv @ a)`` without materializing the product."""
    a = np.asarray(a, dtype=float)
    if a.shape != g_inv.entries.shape:
        raise DimensionMismatch(f"trace_product: {g_inv.entries.shape} vs {a.shape}")
    return float(np.sum(g_inv.entries * a.T))


def gls_cost(rs: ResidualSet, weight: SpdMatrix) -> float:
    return _gls_terms(rs, weight)[0]


def logdet_cost(rs: ResidualSet) -> CostReport:
    """U_n alone, without the gradient (needs no Jacobians)."""
    gamma = empirical_covariance(rs)
    return CostReport(value=logdet(gamma), gamma_n=gamma)


def logdet_gradient_entrywise(rs: ResidualSet) -> np.ndarray:
    """Per-entry route: grad_k = vec(G)^T vec(dGamma/dw_k), an independent
    cross-check of the trace form in ``logdet_gradient``."""
    gamma = empirical_covariance(rs)
    g = gamma.solve(np.eye(gamma.dim))
    a = _a_tensor(rs)
    dgamma = a + a.transpose(0, 2, 1)
    return np.einsum("ij,kij->k", g, dgamma)


def calibration_quantile(result, q: float) -> float:
    """Empirical q-quantile of a CalibrationResult's null samples."""
    return float(np.quantile(result.samples, q))


@pytest.fixture
def gamma_strong():
    """The strongly correlated 2x2 noise covariance used across the suite."""
    return spd_from_symmetric(np.array([[1.81, 1.8], [1.8, 1.81]]))
