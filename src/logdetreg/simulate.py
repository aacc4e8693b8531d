"""Data generation and the Monte Carlo replication driver.

Gaussian noise with a specified covariance, i.i.d. regression sampling,
the nonlinear autoregressive (NAR) recursion where outputs feed back as
next-step inputs (extra input columns beyond the state are filled with
i.i.d. uniform exogenous draws), and the replication harness
:func:`replicate`, which owns every Monte Carlo seed: data and optimizer
seeds are counter-based, so every replication is reproducible
independently of execution order.

Normal variates come from numpy's PCG64 ``standard_normal`` (ziggurat);
the contract is distributional plus per-seed determinism, and the
generator name is recorded in Monte Carlo report metadata.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import estimate as est
from . import model as mdl
from .data import Dataset
from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    LogDetRegError,
    McFailure,
    NonFiniteState,
    NotPositiveDefinite,
)
from .linalg import SpdMatrix, spd_from_symmetric
from .optimize import OptimOptions

RNG_KIND = "pcg64-ziggurat"
_STATE_CAP = 1e12
_CHECK_STEPS = 1024


class SimMode(str, enum.Enum):
    IID_REGRESSION = "iid_regression"
    NAR_PROCESS = "nar_process"


@dataclass(frozen=True)
class SimRecipe:
    mode: SimMode
    spec: mdl.ModelSpec
    w_true: mdl.ParamVector
    gamma0: SpdMatrix
    n: int
    burn_in: int = 100
    y0: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.burn_in < 0:
            raise DimensionMismatch(f"need n >= 1 and burn_in >= 0, got {self.n}, {self.burn_in}")
        if self.gamma0.dim != self.spec.output_dim:
            raise DimensionMismatch("gamma0 dimension must match the output dimension")
        if self.mode is SimMode.NAR_PROCESS and self.spec.input_dim < self.spec.output_dim:
            raise DimensionMismatch("NAR requires d' >= d (state feeds back as input)")
        if self.y0 is not None:
            y0 = np.asarray(self.y0, dtype=float)
            if y0.shape != (self.spec.output_dim,):
                raise DimensionMismatch("y0 must have length d")
            object.__setattr__(self, "y0", y0)


def sample_gaussian(gamma: SpdMatrix, count: int, rng: np.random.Generator) -> np.ndarray:
    """count i.i.d. draws from N(0, gamma), as chol @ standard normals."""
    return rng.standard_normal((count, gamma.dim)) @ gamma.chol.T


def gen_series(recipe: SimRecipe) -> Dataset:
    """Generate a dataset from a recipe; deterministic per seed.  An i.i.d.
    recipe raises NonFiniteState naming the first row with a non-finite
    output.  The NAR recursion draws all its noise first, then the
    exogenous uniforms, and raises NonFiniteState naming the first step
    (burn-in included) whose state is non-finite or exceeds 1e12 in
    absolute value.

    The NAR inputs live in one array of burn-in + n + 1 rows: row t is the
    input of step t, the state of step t - 1 (row 0: y0) in its first d
    columns and the exogenous draws after them, and step t writes its state
    straight into row t + 1.  The dataset's inputs are a slice of whole
    rows and its outputs a copy of the state columns, so both arrays are
    C-contiguous."""
    rng = np.random.default_rng(np.random.SeedSequence([int(recipe.seed)]))
    spec, w, n = recipe.spec, recipe.w_true, recipe.n

    if recipe.mode is SimMode.IID_REGRESSION:
        z = rng.uniform(-1.0, 1.0, size=(n, spec.input_dim))
        eps = sample_gaussian(recipe.gamma0, n, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            y = mdl.eval_batch(spec, w, z) + eps
        bad = np.flatnonzero(~np.isfinite(y).all(axis=1))
        if bad.size:
            raise NonFiniteState(f"non-finite output at row {bad[0]}")
        return Dataset(z, y)

    d = spec.output_dim
    total = recipe.burn_in + n
    eps = sample_gaussian(recipe.gamma0, total, rng)
    # the last row holds only the final state
    zs = np.empty((total + 1, spec.input_dim))
    zs[:total, d:] = rng.uniform(-1.0, 1.0, size=(total, spec.input_dim - d))
    zs[0, :d] = recipe.y0 if recipe.y0 is not None else 0.0
    step = mdl.predictor(spec, w)
    # a diverged state runs on (to inf or nan) to the end of its block of
    # steps; one test per block then finds the first step outside
    # [-cap, cap], nan included
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, _CHECK_STEPS):
            stop = min(start + _CHECK_STEPS, total)
            states = zs[start + 1 : stop + 1, :d]
            for z, e, out in zip(zs[start:stop], eps[start:stop], states):
                np.add(step(z), e, out)
            in_range = np.abs(states) <= _STATE_CAP
            diverged = np.flatnonzero(~in_range.all(axis=1))
            if diverged.size:
                raise NonFiniteState(f"recursion diverged at step {start + diverged[0]}")
    return Dataset(zs[recipe.burn_in : total], zs[recipe.burn_in + 1 :, :d].copy())


@dataclass(frozen=True)
class EstimatorSummary:
    name: str
    mean_gamma: np.ndarray
    stderr_gamma: np.ndarray
    det_mean_gamma: float
    mean_det: float
    failures: int
    gammas: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class McReport:
    replications: int
    seed: int
    rng_kind: str
    estimators: dict[str, EstimatorSummary]  # in the requested order


ESTIMATORS = {
    "logdet": est.fit_logdet,
    "mse": est.fit_ols,
}


def replicate(source, tasks, replications: int, seed: int, opts: OptimOptions) -> dict:
    """Run every task on each of ``replications`` generated datasets.

    Replication r generates its data at a seed drawn from the counter-based
    sub-seed (seed, r): ``source`` is a :class:`SimRecipe`, regenerated at
    that seed, or a callable ``data_seed -> Dataset``.  Task j of the dict
    ``tasks`` is called as ``task(data, fit_opts)``, ``fit_opts`` being
    ``opts`` with the optimizer seed ``opts.seed + 1_000_003 r + j``.  A task
    that raises a package error or a linear-algebra failure counts as one
    failed replication of that task; any other exception propagates.
    Returns, per task, the results of its successful replications in
    replication order; raises McFailure when more than 5% of one task's
    replications failed.
    """
    generate = source if callable(source) else lambda s: gen_series(replace(source, seed=s))
    results = {name: [] for name in tasks}
    for r in range(replications):
        data_seed = int(
            np.random.SeedSequence([int(seed), int(r)]).generate_state(1, np.uint64)[0] >> 1
        )
        data = generate(data_seed)
        for j, (name, task) in enumerate(tasks.items()):
            fit_opts = replace(opts, seed=int(opts.seed) + 1_000_003 * r + j)
            try:
                results[name].append(task(data, fit_opts))
            except (LogDetRegError, np.linalg.LinAlgError):
                pass
    for name, values in results.items():
        failures = replications - len(values)
        if failures > 0.05 * replications:
            raise McFailure(f"{failures}/{replications} replications failed for {name!r}")
    return results


def run_mc(
    recipe: SimRecipe,
    estimators: list[str],
    replications: int,
    seed: int,
    opts: OptimOptions,
) -> McReport:
    """Replicated simulation + estimation.

    Every requested estimator runs on each replication's dataset, the
    recipe regenerated by :func:`replicate`, which also gives each
    estimator its own optimizer seed.  Rejects an unknown or repeated
    estimator name, and aborts when more than 5% of replications fail.
    """
    if replications < 2:
        raise McFailure("at least 2 replications are required")
    for name in estimators:
        if name not in ESTIMATORS:
            raise McFailure(f"unknown estimator {name!r}")
    if len(set(estimators)) < len(estimators):
        raise McFailure(f"estimator names repeat: {estimators}")

    def estimate(name: str, data: Dataset, fit_opts: OptimOptions) -> np.ndarray:
        return ESTIMATORS[name](recipe.spec, data, fit_opts).gamma_hat.entries

    results = replicate(
        recipe, {name: partial(estimate, name) for name in estimators}, replications, seed, opts
    )

    summaries = {}
    for name in estimators:
        gammas = results[name]
        failures = replications - len(gammas)
        stack = np.stack(gammas)
        mean = stack.mean(axis=0)
        stderr = stack.std(axis=0, ddof=1) / np.sqrt(len(gammas))
        summaries[name] = EstimatorSummary(
            name=name,
            mean_gamma=mean,
            stderr_gamma=stderr,
            det_mean_gamma=float(np.linalg.det(mean)),
            mean_det=float(np.mean([np.linalg.det(g) for g in stack])),
            failures=failures,
            gammas=tuple(gammas),
        )
    return McReport(
        replications=replications, seed=seed, rng_kind=RNG_KIND, estimators=summaries
    )


def recipe_to_dict(recipe: SimRecipe) -> dict:
    return {
        "mode": recipe.mode.value,
        "model": mdl.spec_to_dict(recipe.spec, recipe.w_true),
        "gamma0": recipe.gamma0.entries.tolist(),
        "n": recipe.n,
        "burn_in": recipe.burn_in,
        "y0": None if recipe.y0 is None else recipe.y0.tolist(),
        "seed": recipe.seed,
    }


def recipe_from_dict(doc: dict) -> SimRecipe:
    spec, params = mdl.spec_from_dict(doc["model"])
    if params is None:
        raise DimensionMismatch("recipe model must carry its true params")
    gamma0 = np.asarray(doc["gamma0"], dtype=float)
    if not np.all(np.isfinite(gamma0)):
        raise ValueError(f"gamma0 entries must be finite, got {doc['gamma0']}")
    try:
        gamma0 = spd_from_symmetric(gamma0)
    except (AsymmetricInput, NotPositiveDefinite):
        raise ValueError(f"gamma0 must be symmetric positive definite, got {doc['gamma0']}") from None
    y0 = None if doc.get("y0") is None else np.asarray(doc["y0"], dtype=float)
    if y0 is not None and not np.all(np.isfinite(y0)):
        raise ValueError(f"y0 entries must be finite, got {doc['y0']}")
    return SimRecipe(
        mode=SimMode(doc["mode"]),
        spec=spec,
        w_true=params,
        gamma0=gamma0,
        n=mdl.int_field(doc, "n"),
        burn_in=mdl.int_field(doc, "burn_in", 100),
        y0=y0,
        seed=mdl.int_field(doc, "seed", 0),
    )


def bivariate_nar_recipe(seed: int = 0, n: int = 1000, weight_seed: int = 12345) -> SimRecipe:
    """The simulated bivariate NAR(1) setup: MLP(2, 3, 2) with weights
    drawn uniformly in [-2, 2], strongly correlated noise, zero initial
    state, no burn-in."""
    spec = mdl.ModelSpec(mdl.ModelKind.MLP, input_dim=2, output_dim=2, hidden_units=3)
    rng = np.random.default_rng(weight_seed)
    w_true = mdl.ParamVector(rng.uniform(-2.0, 2.0, size=spec.param_count), spec)
    gamma0 = spd_from_symmetric(np.array([[1.81, 1.8], [1.8, 1.81]]))
    return SimRecipe(
        mode=SimMode.NAR_PROCESS,
        spec=spec,
        w_true=w_true,
        gamma0=gamma0,
        n=n,
        burn_in=0,
        y0=np.zeros(2),
        seed=seed,
    )
