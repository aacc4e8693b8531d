"""Quasi-Newton minimization with multi-start.

BFGS with a bisection weak-Wolfe line search (sufficient decrease
c1 = 1e-4, curvature c2 = 0.9).  Objectives return (value, gradient) and
may return +inf at degenerate trial points (e.g. a non-PD residual
covariance); the line search simply backtracks away from them.
"""

from __future__ import annotations

import math
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
    """Search settings.  Only MLP fits search, so ``n_starts`` (like a warm
    start ``x0``) applies to the MLP only; ``max_iters`` and ``grad_tol``
    also bound the rounds of the linear log-det iteration."""

    max_iters: int = 500
    grad_tol: float = 1e-6
    n_starts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1 or not 0 < self.grad_tol < np.inf or self.n_starts < 1:
            raise ValueError("invalid optimizer options")


@dataclass(frozen=True)
class StartRecord:
    start_index: int
    final_cost: float
    iterations: int
    evaluations: int  # distinct points evaluated (MLP); a linear fit: iterations + 1
    grad_norm: float  # max |gradient| at the returned point
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
    lo, hi = 0.0, math.inf
    alpha = 1.0
    best = None
    # rounding slack keeps the sufficient-decrease test meaningful once
    # per-step improvements fall below float precision of f
    slack = _SLACK * max(1.0, abs(f))
    for _ in range(_MAX_LS):
        f_new, g_new = objective(x + alpha * direction)
        # min(...) keeps accepted iterates non-increasing even when the
        # slack-relaxed sufficient-decrease bound sits above f
        if not math.isfinite(f_new) or f_new > min(f, f + C1 * alpha * slope + slack):
            hi = alpha
        elif float(g_new @ direction) < C2 * slope:
            best = (alpha, f_new, g_new)
            lo = alpha
        else:
            return alpha, f_new, g_new
        alpha = 0.5 * (lo + hi) if hi < math.inf else 2.0 * alpha
    # curvature never satisfied but decrease achieved: take the last
    # Armijo point rather than stalling
    return best


def bfgs_minimize(objective, w0: np.ndarray, opts: OptimOptions):
    """Minimize a smooth objective from a single start.

    ``objective(x) -> (value, gradient)``.  Returns
    ``(x, value, termination reason, iterations)`` with termination one of
    ``grad_tol``, ``stalled`` (several consecutive steps without a
    representable decrease: a numerical minimizer), ``max_iters`` or
    ``line_search_failed``.  ``x`` is the last accepted iterate; the line
    search accepts no increase, so no point visited has a lower value.

    ``hinv is None`` stands for the identity inverse-Hessian, replaced by
    ``(y.s / y.y) I`` at the next update (Nocedal & Wright 6.1).  The run
    starts there and returns there when the scale-free curvature condition
    ``y.s > 1e-10 |s| |y|`` fails (the cosine between the step and the
    gradient change is at most 1e-10, whatever their lengths) or a failed
    search falls back to steepest descent.
    """
    x = np.asarray(w0, dtype=float).copy()
    f, g = objective(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NonFiniteAtStart("objective not finite at the starting point")
    eye = np.eye(x.size)
    hinv = None
    iters = stall = 0
    while np.abs(g).max() > opts.grad_tol:
        if iters >= opts.max_iters:
            return x, f, "max_iters", iters
        direction = -g if hinv is None else -hinv @ g
        step = _line_search(objective, x, f, g, direction)
        if step is None and hinv is not None:
            direction, hinv = -g, None  # steepest-descent rescue
            step = _line_search(objective, x, f, g, direction)
        if step is None:
            return x, f, "line_search_failed", iters
        alpha, f_new, g_new = step
        s = alpha * direction
        stall = stall + 1 if f - f_new <= _SLACK * max(1.0, abs(f)) else 0
        if stall >= _STALL_LIMIT:
            # no representable progress left; numerical minimizer reached
            return x, f, "stalled", iters
        y = g_new - g
        ys = float(y @ s)
        # scale-free: the cosine between s and y must exceed CURVATURE_EPS;
        # hypot takes each norm without overflow
        if ys <= CURVATURE_EPS * math.hypot(*s.tolist()) * math.hypot(*y.tolist()):
            hinv = None
        else:
            if hinv is None:
                hinv = (ys / float(y @ y)) * eye
            rho = 1.0 / ys
            v = eye - rho * (s[:, None] * y)
            hinv = v @ hinv @ v.T + rho * (s[:, None] * s)
        x = x + s
        f, g = f_new, g_new
        iters += 1
    return x, f, "grad_tol", iters


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
    lower start index.  Each start evaluates a point once (the objective
    is deterministic), the max |gradient| of its record at the returned
    point included (``inf`` for a start that was not finite).  Converged:
    the best run ended on ``grad_tol``, or on ``stalled`` (5 consecutive
    steps with no representable decrease) whatever its gradient.
    """
    if x0 is not None:
        starts = [x0]
    else:
        starts = [initial_point(spec, opts, i) for i in range(opts.n_starts)]
    records = []
    best = None  # (cost, index, x, converged)
    for i, start in enumerate(starts):
        cache = {}  # point bytes -> (f, g): the start evaluates each point once

        def cached(x):
            key = x.tobytes()
            if key not in cache:
                cache[key] = objective(x)
            return cache[key]

        try:
            x, f, reason, iters = bfgs_minimize(cached, start, opts)
        except NonFiniteAtStart:
            records.append(StartRecord(i, np.inf, 0, len(cache), np.inf, "nonfinite_at_start"))
            continue
        grad_norm = float(np.max(np.abs(cached(x)[1])))  # x was evaluated: a hit
        records.append(StartRecord(i, f, iters, len(cache), grad_norm, reason))
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
