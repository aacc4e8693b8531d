"""Shared fixtures and oracle helpers for the test suite."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from logdetreg import (
    Dataset,
    ModelKind,
    ModelSpec,
    ParamVector,
    SimMode,
    SimRecipe,
    gen_series,
    logdet,
    sample_gaussian,
    spd_from_symmetric,
)
from logdetreg.cost import (
    CostReport,
    ResidualSet,
    _a_tensor,
    empirical_covariance,
    gls_terms,
    mse_terms,
    report,
)
from logdetreg.errors import AsymmetricInput, DimensionMismatch, NonFiniteState
from logdetreg.linalg import ASYMMETRY_RTOL, SpdMatrix
from logdetreg.model import _mlp_blocks, eval_batch
from logdetreg.simulate import _STATE_CAP, bivariate_nar_recipe


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
    if d <= 2:
        factor = np.array([[1.0, 0.0], [0.6, 0.8]])[:d, :d]
    else:  # lower bidiagonal: each component correlated with the next
        factor = np.eye(d) + 0.6 * np.eye(d, k=-1)
    noise = rng.standard_normal((n, d)) @ factor.T
    y = eval_batch(spec, w, z) + noise
    return spec, w, Dataset(z, y)


def residual_set(spec, w, data):
    return ResidualSet.from_model(spec, w, data)


# --- oracles: independent routes to values the library computes otherwise ---

def inverse_oracle(chol) -> np.ndarray:
    """``(L L^T)^{-1} = L^{-T} L^{-1}`` of a lower Cholesky factor ``L``,
    spelled out as ``SpdMatrix.inverse`` forms it, so that every solve of
    the library can be checked bit for bit."""
    linv = np.linalg.inv(chol)
    return linv.T @ linv


def cho_solve_oracle(g: SpdMatrix, b) -> np.ndarray:
    """The solve ``g^{-1} b`` through the cached Cholesky factor, by
    :func:`inverse_oracle`."""
    return inverse_oracle(g.chol) @ np.asarray_chkfinite(b)


def spd_inverse(g: SpdMatrix) -> SpdMatrix:
    """Inverse of an SPD matrix, returned as a valid :class:`SpdMatrix`."""
    inv = inverse_oracle(g.chol)
    return spd_from_symmetric(0.5 * (inv + inv.T))


def trace_product(g_inv: SpdMatrix, a: np.ndarray) -> float:
    """``tr(g_inv @ a)`` without materializing the product."""
    a = np.asarray(a, dtype=float)
    if a.shape != g_inv.entries.shape:
        raise DimensionMismatch(f"trace_product: {g_inv.entries.shape} vs {a.shape}")
    return float(np.sum(g_inv.entries * a.T))


def mse_cost(rs: ResidualSet) -> float:
    return mse_terms(rs.residuals)[0]


def mse_gradient(rs: ResidualSet) -> CostReport:
    return report(rs, mse_terms)


def gls_cost(rs: ResidualSet, weight: SpdMatrix) -> float:
    return gls_terms(rs.residuals, weight)[0]


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


def forward_oracle(spec, w):
    """The batch map ``z -> F_w(z)`` spelled out with ``@`` on the blocks of
    the grid, independently of ``model.predictor``."""
    grid = w.full_grid()
    if spec.kind is ModelKind.MLP:
        a, c, b, bias = _mlp_blocks(spec, grid)
        return lambda z: np.tanh(z @ a.T + c) @ b + bias
    wmat = grid.reshape(spec.output_dim, spec.input_dim)
    return lambda z: z @ wmat.T


def nar_oracle(recipe: SimRecipe) -> Dataset:
    """``gen_series`` as a per-step loop on one-row batches that tests every
    state as soon as it is made; the same draws, and ``forward_oracle`` as
    the step."""
    rng = np.random.default_rng(np.random.SeedSequence([int(recipe.seed)]))
    spec, n = recipe.spec, recipe.n
    forward = forward_oracle(spec, recipe.w_true)
    if recipe.mode is SimMode.IID_REGRESSION:
        z = rng.uniform(-1.0, 1.0, size=(n, spec.input_dim))
        eps = sample_gaussian(recipe.gamma0, n, rng)
        return Dataset(z, forward(z) + eps)
    d = spec.output_dim
    total = recipe.burn_in + n
    eps = sample_gaussian(recipe.gamma0, total, rng)
    zs = np.empty((total, spec.input_dim))
    zs[:, d:] = rng.uniform(-1.0, 1.0, size=(total, spec.input_dim - d))
    ys = np.empty((total, d))
    state = recipe.y0 if recipe.y0 is not None else np.zeros(d)
    for t in range(total):
        zs[t, :d] = state
        state = forward(zs[t : t + 1])[0] + eps[t]
        if not np.max(np.abs(state)) <= _STATE_CAP:
            raise NonFiniteState(f"recursion diverged at step {t}")
        ys[t] = state
    return Dataset(zs[recipe.burn_in :], ys[recipe.burn_in :])


def csv_oracle(path, ds: Dataset) -> None:
    """``save_csv`` through ``csv.writer``, one row and one float at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"z{i + 1}" for i in range(ds.input_dim)]
        header += [f"y{i + 1}" for i in range(ds.output_dim)]
        writer.writerow(header)
        for zt, yt in zip(ds.inputs, ds.outputs):
            writer.writerow([repr(float(v)) for v in zt] + [repr(float(v)) for v in yt])


def oracle_recipes() -> dict[str, SimRecipe]:
    """Recipes on which ``gen_series`` and ``save_csv`` are compared with
    their oracles: the paper's NAR MLP(2,3,2) at full size with burn-in,
    MLP NARs with one exogenous input (H=2, and H=5 with d=3), a
    one-dimensional MLP NAR, a linear and a masked-linear NAR, and an
    i.i.d. design."""
    gamma = spd_from_symmetric([[1.81, 1.8], [1.8, 1.81]])
    gamma3 = spd_from_symmetric([[1.0, 0.5, 0.2], [0.5, 1.2, -0.3], [0.2, -0.3, 0.8]])
    mlp = ModelSpec(ModelKind.MLP, 3, 2, hidden_units=2)
    mlp543 = ModelSpec(ModelKind.MLP, 4, 3, hidden_units=5)
    mlp1 = ModelSpec(ModelKind.MLP, 1, 1, hidden_units=3)
    linear = ModelSpec(ModelKind.LINEAR, 2, 2)
    masked = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=np.array([1, 0, 1, 1, 1, 0], bool))
    masked_nar = ModelSpec(ModelKind.MASKED_LINEAR, 2, 2, mask=np.array([1, 1, 0, 1], bool))
    w_mlp = np.random.default_rng(5).uniform(-1.5, 1.5, mlp.param_count)
    w_mlp543 = np.random.default_rng(6).uniform(-1.5, 1.5, mlp543.param_count)
    w_mlp1 = np.random.default_rng(7).uniform(-1.5, 1.5, mlp1.param_count)
    return {
        "mlp232_nar": replace(bivariate_nar_recipe(seed=3, n=20_000), burn_in=100),
        "mlp32_exogenous_nar": SimRecipe(
            SimMode.NAR_PROCESS, mlp, ParamVector(w_mlp, mlp), gamma, n=3000, seed=11
        ),
        "mlp543_exogenous_nar": SimRecipe(
            SimMode.NAR_PROCESS, mlp543, ParamVector(w_mlp543, mlp543), gamma3, n=3000,
            burn_in=20, seed=14,
        ),
        "mlp131_nar": SimRecipe(
            SimMode.NAR_PROCESS, mlp1, ParamVector(w_mlp1, mlp1), spd_from_symmetric([[0.5]]),
            n=3000, y0=np.array([0.7]), seed=15,
        ),
        "linear_nar": SimRecipe(
            SimMode.NAR_PROCESS, linear, ParamVector(np.array([0.5, -0.2, 0.3, 0.4]), linear),
            gamma, n=5000, burn_in=50, y0=np.array([0.3, -2.0]), seed=12,
        ),
        "masked_linear_nar": SimRecipe(
            SimMode.NAR_PROCESS, masked_nar,
            ParamVector(np.array([0.6, -0.3, 0.7]), masked_nar), gamma, n=3000, seed=16,
        ),
        "masked_iid": SimRecipe(
            SimMode.IID_REGRESSION, masked, ParamVector(np.array([0.4, -0.3, 0.2, 0.5]), masked),
            gamma, n=2000, seed=13,
        ),
    }


# --- oracles of the log-det evaluation path, through the general-purpose
# wrappers ------------------------------------------------------------------

def _factor_oracle(m):
    """(symmetrized m, its Cholesky factor) as ``spd_from_symmetric`` makes
    them; a failed factorization, or a factor with a non-finite entry,
    raises ``LinAlgError``."""
    m = np.asarray(m, dtype=float)
    asym = np.abs(m - m.T)
    if np.any(asym > ASYMMETRY_RTOL * (1.0 + np.abs(m))):
        raise AsymmetricInput("matrix asymmetry exceeds tolerance")
    sym = 0.5 * (m + m.T)
    chol = np.linalg.cholesky(sym)
    if not np.all(np.isfinite(chol)):
        raise np.linalg.LinAlgError("non-finite factor")
    return sym, chol


def linearize_oracle(spec, x, z):
    """(prediction, pullback, Jacobian builder) of ``model.linearize`` at the
    free parameters ``x``: the grid is zeros filled through the mask (all
    True when unmasked), and the MLP pullback writes its blocks through
    ``_mlp_blocks`` views and then selects the mask."""
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DimensionMismatch("parameters must be finite")
    mask = spec.mask if spec.mask is not None else np.ones(spec.full_param_count, dtype=bool)
    grid = np.zeros(spec.full_param_count)
    grid[mask] = x
    n, d = z.shape[0], spec.output_dim
    if spec.kind is not ModelKind.MLP:
        wmat = grid.reshape(d, spec.input_dim)

        def linear_jacobian():
            jac, idx = np.zeros((n, d, grid.size)), np.arange(d)
            jac.reshape(n, d, d, spec.input_dim)[:, idx, idx, :] = z[:, None, :]
            return jac[:, :, mask]

        return z @ wmat.T, lambda v: (v.T @ z).ravel()[mask], linear_jacobian

    a, c, b, bias = _mlp_blocks(spec, grid)
    t = np.tanh(z @ a.T + c)
    dt = 1.0 - t * t

    def pullback(v):
        delta = (v @ b.T) * dt
        grad = np.empty(grid.size)
        ga, gc, gb, gbias = _mlp_blocks(spec, grad)
        ga[...], gc[...], gb[...], gbias[...] = delta.T @ z, delta.sum(0), t.T @ v, v.sum(0)
        return grad[mask]

    def jacobian():
        jac, idx = np.zeros((n, d, grid.size)), np.arange(d)
        ja, jc, jb, jbias = _mlp_blocks(spec, jac)
        ja[...] = np.einsum("hi,th,tj->tihj", b, dt, z)
        jc[...] = np.einsum("hi,th->tih", b, dt)
        jb[:, idx, :, idx] = t
        jbias[...] = np.eye(d)
        return jac[:, :, mask]

    return t @ b + bias, pullback, jacobian


def _residuals_oracle(spec, data, x):
    pred, pullback, jacobian = linearize_oracle(spec, x, data.inputs)
    if not np.all(np.isfinite(pred)):
        return None
    r = np.asarray(data.outputs - pred, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DimensionMismatch("residuals must be finite")
    return r, pullback, jacobian


def logdet_objective_oracle(spec, data):
    """The BFGS log-det objective ``x -> (U_n, gradient)``, ``(inf, None)``
    where the prediction overflows, Gamma_n is not positive definite or the
    gradient is not finite."""

    def objective(x):
        found = _residuals_oracle(spec, data, x)
        if found is None:
            return np.inf, None
        r, pullback, _ = found
        n = r.shape[0]
        try:
            _, chol = _factor_oracle(r.T @ r / n)
        except np.linalg.LinAlgError:
            return np.inf, None
        gr = r @ inverse_oracle(chol)
        grad = -2.0 / n * pullback(gr)
        if not np.all(np.isfinite(grad)):
            return np.inf, None
        return 2.0 * float(np.sum(np.log(np.diag(chol)))), grad

    return objective


def weighted_objective_oracle(spec, data, weight=None):
    """The BFGS MSE objective ``x -> (V_n, gradient)``, or with ``weight``
    the GLS one, ``(inf, None)`` where the prediction overflows or the
    gradient is not finite."""

    def objective(x):
        found = _residuals_oracle(spec, data, x)
        if found is None:
            return np.inf, None
        r, pullback, _ = found
        n = r.shape[0]
        if weight is None:
            value, v = float(np.sum(r**2) / n), r
        else:
            v = r @ inverse_oracle(weight.chol)
            value = float(np.sum(r * v) / n)
        grad = -2.0 / n * pullback(v)
        if not np.all(np.isfinite(grad)):
            return np.inf, None
        return value, grad

    return objective


def fisher_info_oracle(spec, x, data):
    """(information matrix at Gamma_n, its symmetrized SPD entries and the
    asymptotic covariance ``I^{-1} / n``) at the free parameters ``x``; the
    last two are None when the information matrix is singular by
    ``fisher_info``'s pivot rule."""
    r, _, jacobian = _residuals_oracle(spec, data, x)
    n = r.shape[0]
    _, chol = _factor_oracle(r.T @ r / n)
    g = inverse_oracle(chol)
    jac = jacobian()
    info = np.einsum("tik,til->kl", jac, np.einsum("ij,tjk->tik", g, jac)) / n
    try:
        sym, ichol = _factor_oracle(0.5 * (info + info.T))
    except np.linalg.LinAlgError:
        return info, None, None
    pivots = np.diag(ichol)
    if np.min(pivots) ** 2 <= 1e-12 * np.max(pivots) ** 2:
        return info, None, None
    return info, sym, inverse_oracle(ichol) / n


def calibration_quantile(result, q: float) -> float:
    """Empirical q-quantile of a CalibrationResult's null samples."""
    return float(np.quantile(result.samples, q))


def replication_inputs(source: SimRecipe, seed: int, r: int, opts, j: int = 0):
    """The dataset and optimizer options of task j of Monte Carlo
    replication r, by the stated rule: the recipe regenerated at the data
    seed drawn from SeedSequence([seed, r]), and the optimizer seed
    ``opts.seed + 1_000_003 r + j``."""
    data_seed = int(np.random.SeedSequence([seed, r]).generate_state(1, np.uint64)[0] >> 1)
    data = gen_series(replace(source, seed=data_seed))
    return data, replace(opts, seed=opts.seed + 1_000_003 * r + j)


@pytest.fixture
def gamma_strong():
    """The strongly correlated 2x2 noise covariance used across the suite."""
    return spd_from_symmetric(np.array([[1.81, 1.8], [1.8, 1.81]]))
