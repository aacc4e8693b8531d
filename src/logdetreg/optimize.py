"""Quasi-Newton minimization with multi-start.

BFGS with a bisection weak-Wolfe line search (sufficient decrease
c1 = 1e-4, curvature c2 = 0.9).  Objectives return (value, gradient) and
may return +inf at degenerate trial points (e.g. a non-PD residual
covariance); the line search simply backtracks away from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllStartsFailed, NonFiniteAtStart
from .model import ModelSpec, ParamVector

C1 = 1e-4
C2 = 0.9
CURVATURE_EPS = 1e-10
TIE_TOL = 1e-12
_MAX_LS = 60
_SLACK = 4.0 * np.finfo(float).eps
_STALL_LIMIT = 5
INIT_LOW, INIT_HIGH = -2.0, 2.0  # box of the uniform random starts


@dataclass(frozen=True)
class OptimOptions:
    max_iters: int = 500
    grad_tol: float = 1e-6
    n_starts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1 or self.grad_tol <= 0 or self.n_starts < 1:
            raise ValueError("invalid optimizer options")


@dataclass(frozen=True)
class StartRecord:
    start_index: int
    final_cost: float
    iterations: int
    termination: str


@dataclass(frozen=True)
class OptimOutcome:
    w_best: ParamVector
    cost_best: float
    per_start: tuple[StartRecord, ...]
    converged: bool


def _line_search(objective, x, f, grad, direction):
    """Weak-Wolfe step length by bisection (Lewis-Overton scheme).

    Returns (alpha, f_new, g_new) or None when no acceptable step exists.
    +inf trial values count as sufficient-decrease failures and shrink the
    bracket.
    """
    slope = float(grad @ direction)
    if slope >= 0.0:
        return None
    lo, hi = 0.0, np.inf
    alpha = 1.0
    best = None
    # rounding slack keeps the sufficient-decrease test meaningful once
    # per-step improvements fall below float precision of f
    slack = _SLACK * max(1.0, abs(f))
    for _ in range(_MAX_LS):
        f_new, g_new = objective(x + alpha * direction)
        # min(...) keeps accepted iterates non-increasing even when the
        # slack-relaxed sufficient-decrease bound sits above f
        if not np.isfinite(f_new) or f_new > min(f, f + C1 * alpha * slope + slack):
            hi = alpha
        elif float(g_new @ direction) < C2 * slope:
            best = (alpha, f_new, g_new)
            lo = alpha
        else:
            return alpha, f_new, g_new
        alpha = 0.5 * (lo + hi) if np.isfinite(hi) else 2.0 * alpha
    # curvature never satisfied but decrease achieved: take the last
    # Armijo point rather than stalling
    return best


def bfgs_minimize(objective, w0: np.ndarray, opts: OptimOptions):
    """Minimize a smooth objective from a single start.

    ``objective(x) -> (value, gradient)``.  Returns
    ``(x, value, termination reason, iterations)`` with termination one of
    ``grad_tol``, ``stalled`` (several consecutive steps without a
    representable decrease: a numerical minimizer), ``max_iters`` or
    ``line_search_failed``.  The inverse-Hessian approximation resets to
    the identity when the curvature condition ``y.s > 1e-10`` fails.
    Always returns the best point visited.
    """
    x = np.asarray(w0, dtype=float).copy()
    f, g = objective(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NonFiniteAtStart("objective not finite at the starting point")
    k = x.size
    hinv = np.eye(k)
    iters = 0
    best = (f, x.copy(), g.copy())
    stall = 0
    scaled = False
    reason = "max_iters"
    while iters < opts.max_iters:
        if np.max(np.abs(g)) <= opts.grad_tol:
            return x, f, "grad_tol", iters
        direction = -hinv @ g
        step = _line_search(objective, x, f, g, direction)
        if step is None:
            step = _line_search(objective, x, f, g, -g)  # steepest-descent rescue
            if step is None:
                reason = "line_search_failed"
                break
            direction = -g
            hinv = np.eye(k)
        alpha, f_new, g_new = step
        s = alpha * direction
        if f - f_new <= _SLACK * max(1.0, abs(f)):
            stall += 1
            if stall >= _STALL_LIMIT:
                # no representable progress left; numerical minimizer reached
                reason = "stalled"
                break
        else:
            stall = 0
        y = g_new - g
        ys = float(y @ s)
        if ys <= CURVATURE_EPS:
            hinv = np.eye(k)
            scaled = False
        else:
            if not scaled:
                # standard initial scaling: H0 = (y.s / y.y) I before the
                # first update after any reset
                hinv = (ys / float(y @ y)) * np.eye(k)
                scaled = True
            rho = 1.0 / ys
            v = np.eye(k) - rho * np.outer(s, y)
            hinv = v @ hinv @ v.T + rho * np.outer(s, s)
        x = x + s
        f, g = f_new, g_new
        if f < best[0]:
            best = (f, x.copy(), g.copy())
        iters += 1
    if reason == "stalled":
        # cost changes are below float resolution here, but the analytic
        # gradient still resolves the minimizer: polish by accepting steps
        # that strictly shrink the gradient norm (f moves by sub-ulp amounts)
        slack = _SLACK * max(1.0, abs(f))
        for _ in range(50):
            gnorm = np.max(np.abs(g))
            if gnorm <= opts.grad_tol:
                break
            direction = -hinv @ g
            alpha, accepted = 1.0, False
            for _ in range(20):
                f_new, g_new = objective(x + alpha * direction)
                if (
                    np.isfinite(f_new)
                    and f_new <= f + slack
                    and np.all(np.isfinite(g_new))
                    and np.max(np.abs(g_new)) < gnorm
                ):
                    x = x + alpha * direction
                    f, g = f_new, g_new
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
        if f <= best[0] + slack:
            best = (f, x, g)
    f, x, g = best[0], best[1], best[2]
    if np.max(np.abs(g)) <= opts.grad_tol:
        return x, f, "grad_tol", iters
    return x, f, reason, iters


def start_rng(seed: int, start_index: int) -> np.random.Generator:
    """Counter-based sub-seed: independent stream per (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(start_index)]))


def initial_point(spec: ModelSpec, opts: OptimOptions, start_index: int) -> np.ndarray:
    rng = start_rng(opts.seed, start_index)
    return rng.uniform(INIT_LOW, INIT_HIGH, size=spec.param_count)


def multi_start(
    objective, spec: ModelSpec, opts: OptimOptions, x0: np.ndarray | None = None
) -> OptimOutcome:
    """Best of ``n_starts`` independent BFGS runs from uniform random starts,
    or of the single run from ``x0`` when given (a warm start).

    Deterministic for a fixed seed; ties within 1e-12 break toward the
    lower start index.  The outcome is converged when the best run ended
    on ``grad_tol`` or ``stalled``.
    """
    if x0 is not None:
        starts = [x0]
    else:
        starts = [initial_point(spec, opts, i) for i in range(opts.n_starts)]
    records = []
    best = None  # (cost, index, x, converged)
    for i, start in enumerate(starts):
        try:
            x, f, reason, iters = bfgs_minimize(objective, start, opts)
        except NonFiniteAtStart:
            records.append(StartRecord(i, np.inf, 0, "nonfinite_at_start"))
            continue
        records.append(StartRecord(i, f, iters, reason))
        if best is None or f < best[0] - TIE_TOL:
            best = (f, i, x, reason in ("grad_tol", "stalled"))
    if best is None:
        raise AllStartsFailed("every start terminated NonFiniteAtStart")
    return OptimOutcome(
        w_best=ParamVector(best[2], spec),
        cost_best=best[0],
        per_start=tuple(records),
        converged=best[3],
    )
