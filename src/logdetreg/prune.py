"""Stepwise weight elimination against a BIC-like penalized criterion.

At each step every currently free parameter is tentatively frozen at zero,
the model is refit (warm-started from the current estimate), and the best
candidate is accepted when it lowers ``U_n + q ln(n) / n`` with ``q`` the
number of free parameters.  Optionally each elimination is also gated by
the nested log-det test: the removal must not be rejected at the given
level.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import model as mdl
from .data import Dataset
from .errors import InitialFitFailed, LogDetRegError
from .estimate import FitResult, fit_logdet
from .inference import tn_test
from .optimize import OptimOptions

log = logging.getLogger(__name__)


def bic_penalty(q: int, n: int) -> float:
    return q * np.log(n) / n


@dataclass(frozen=True)
class PruneStep:
    frozen_grid_index: int
    criterion_before: float
    criterion_after: float
    p_value: float | None


@dataclass(frozen=True)
class PruneTrace:
    steps: tuple[PruneStep, ...]
    final_spec: mdl.ModelSpec
    final_fit: FitResult


def ssm_prune(
    spec: mdl.ModelSpec,
    data: Dataset,
    opts: OptimOptions,
    gate: float | None = None,
) -> PruneTrace:
    """Greedy one-at-a-time weight elimination.

    The recorded criterion sequence is strictly decreasing; frozen
    parameters stay frozen.  Candidate refits that fail are skipped with a
    warning.  Ties break toward the lowest grid index.
    """
    try:
        current = fit_logdet(spec, data, opts)
    except LogDetRegError as exc:
        raise InitialFitFailed(f"baseline fit failed: {exc}") from exc

    steps: list[PruneStep] = []
    while True:
        cspec = current.spec
        q = cspec.param_count
        criterion = current.cost_value + bic_penalty(q, data.n)
        active = np.flatnonzero(cspec.effective_mask)
        best = None  # (criterion_after, grid_index, fit)
        for grid_index in active:
            try:
                # one warm-started log-det refit with this entry frozen too
                sub = cspec.with_frozen(int(grid_index))
                fit = fit_logdet(sub, data, opts, x0=current.w_hat.full_grid()[sub.effective_mask])
            except LogDetRegError as exc:
                log.warning("candidate freeze of grid entry %d failed: %s", grid_index, exc)
                continue
            cand = fit.cost_value + bic_penalty(q - 1, data.n)
            if best is None or cand < best[0] - 1e-12:
                best = (cand, int(grid_index), fit)
        if best is None or best[0] >= criterion:
            break
        p_value = None
        if gate is not None:
            report = tn_test(best[2], current, gate)
            p_value = report.p_value
            if report.reject:
                break
        steps.append(
            PruneStep(
                frozen_grid_index=best[1],
                criterion_before=criterion,
                criterion_after=best[0],
                p_value=p_value,
            )
        )
        current = best[2]
        if current.spec.param_count == 1:
            break
    return PruneTrace(steps=tuple(steps), final_spec=current.spec, final_fit=current)
