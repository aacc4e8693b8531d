"""Fit agreement between two trees: the same fixed fits, their terminations
and their costs.

``run --src DIR`` fits three fixed sets in a fresh process whose
``logdetreg`` is imported from ``DIR`` and prints one line per fit,

    SET  ID  TERMINATION  BEST_START  ITERATIONS  EVALUATIONS  U_N

with the termination, start index and iterations of the best start, the
evaluations summed over the starts of the returned outcome, and
``repr`` of the fit's cost value.  The sets:

* ``test07``: acceptance 7's Tier-1 preset, ``bivariate_nar_recipe(seed=0,
  n=1000)`` at replication seed 77, 20 replications, ``fit_logdet`` and
  ``fit_ols`` (tasks 0 and 1) with 5 starts of seed 1; the datasets and
  optimizer seeds are those ``simulate.replicate`` hands its tasks;
* ``test08``: acceptance 8's MLP(2, 1, 2) family, seeds 5000-5031, each
  an i.i.d. design at n=600, ``fit_logdet`` and ``fit_fgls`` with 8
  starts of seed 17;
* ``nar``: the test suite's ``nar_fit`` runs, seeds 0-59: one BFGS
  log-det run on ``bivariate_nar_recipe(seed, n=200)`` from start 0 of
  optimizer seed ``seed``, at most 200 iterations.

A fit that raises prints its exception class as its termination.
``compare A B`` reads two such files and lists every fit whose
termination changed and every U_n that rose by more than 1e-9, then counts
per set the fits whose U_n stayed bitwise equal, rose or fell, and on each
side the converged fits (best start ``grad_tol`` or ``stalled``, as
``OptimOutcome.converged``), the ``stalled`` ones and the evaluations:

    python tools/fit_agreement.py run --src ../parent/src > parent.txt
    python tools/fit_agreement.py run --src src > change.txt
    python tools/fit_agreement.py compare parent.txt change.txt

"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SETS = ("test07", "test08", "nar")
RISE_TOL = 1e-9
CONVERGED = ("grad_tol", "stalled")  # as multi_start counts them


def _best(optim) -> tuple[str, int, int, int]:
    """(termination, start index, iterations) of the best start of an
    outcome, and its evaluations summed over the starts."""
    best = next(r for r in optim.per_start if r.final_cost == optim.cost_best)
    evaluations = sum(r.evaluations for r in optim.per_start)
    return best.termination, best.start_index, best.iterations, evaluations


def _fits(name: str):
    """(id, thunk -> FitResult or OptimOutcome) of each fit of one set."""
    import numpy as np

    from logdetreg import ModelKind, ModelSpec, OptimOptions, ParamVector, spd_from_symmetric
    from logdetreg.cost import logdet_terms
    from logdetreg.estimate import _objective, fit_fgls, fit_logdet, fit_ols
    from logdetreg.optimize import initial_point, multi_start
    from logdetreg.simulate import SimMode, SimRecipe, bivariate_nar_recipe, gen_series, replicate

    if name == "test07":
        recipe, opts = bivariate_nar_recipe(seed=0, n=1000), OptimOptions(n_starts=5, seed=1)
        fits = {"logdet": fit_logdet, "mse": fit_ols}
        # replicate's tasks record their inputs: its seeding, not a copy, and
        # not its return value, which older trees give as lists rather than
        # keyed by replication index
        inputs = {task: [] for task in fits}
        replicate(recipe, {task: lambda d, o, t=task: inputs[t].append((d, o)) for task in fits},
                  20, 77, opts)
        for task, fit in fits.items():
            for r, (data, fit_opts) in enumerate(inputs[task]):
                yield f"{task}/r{r:02d}", lambda f=fit, d=data, o=fit_opts: f(recipe.spec, d, o)
    elif name == "test08":
        opts = OptimOptions(n_starts=8, seed=17)
        spec = ModelSpec(ModelKind.MLP, 2, 2, hidden_units=1)
        for seed in range(5000, 5032):
            rng = np.random.default_rng(seed)
            w = ParamVector(rng.uniform(-1.0, 1.0, spec.param_count), spec)
            a = rng.uniform(-0.8, 0.8)
            gamma = spd_from_symmetric([[1.0, a], [a, 1.0]])
            recipe = SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=600, seed=seed + 7)
            data = gen_series(recipe)
            for task, fit in (("logdet", fit_logdet), ("fgls", fit_fgls)):
                yield f"{task}/{seed}", lambda f=fit, d=data: f(spec, d, opts)
    else:
        for seed in range(60):
            recipe = bivariate_nar_recipe(seed=seed, n=200)
            opts = OptimOptions(max_iters=200, seed=seed)
            objective = _objective(recipe.spec, gen_series(recipe), logdet_terms)
            x0 = initial_point(recipe.spec, opts, 0)
            yield f"s{seed:02d}", (lambda o=objective, x=x0, p=opts, s=recipe.spec:
                                   multi_start(o, s, p, x0=x))


def cmd_fit(args) -> int:
    """Fit every set with the ``logdetreg`` on ``sys.path``."""
    from logdetreg.errors import LogDetRegError

    for name in SETS:
        for fit_id, thunk in _fits(name):
            try:
                result = thunk()
            except LogDetRegError as exc:
                print(f"{name} {fit_id} {type(exc).__name__} - 0 0 nan", flush=True)
                continue
            optim = getattr(result, "optim", result)
            cost = getattr(result, "cost_value", optim.cost_best)
            termination, start, iterations, evaluations = _best(optim)
            print(f"{name} {fit_id} {termination} {start} {iterations} {evaluations} "
                  f"{float(cost)!r}", flush=True)
    return 0


def cmd_run(args) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    argv = [sys.executable, str(Path(__file__).resolve()), "fit"]
    return subprocess.run(argv, env=env, check=False).returncode


def parse(lines) -> dict:
    """{(set, id): (termination, best start, iterations, evaluations, U_n)}."""
    fits = {}
    for line in lines:
        if line.strip():
            name, fit_id, termination, start, iters, evals, cost = line.split()
            fits[name, fit_id] = (termination, start, int(iters), int(evals), float(cost))
    return fits


def compare(a: dict, b: dict) -> list[str]:
    """The report of ``compare``: changed terminations, U_n rises above
    ``RISE_TOL``, then per set the fits whose U_n stayed equal, rose or fell
    and on each side the converged and stalled fits and the evaluations.
    Fits in one file only are listed."""
    lines = []
    for key in sorted(a.keys() ^ b.keys()):
        lines.append(f"only in {'A' if key in a else 'B'}: {' '.join(key)}")
    common = sorted(a.keys() & b.keys())
    for key in common:
        (term_a, start_a, *_), (term_b, start_b, *_) = a[key], b[key]
        if term_a != term_b:
            lines.append(f"termination {' '.join(key)}: {term_a} -> {term_b} "
                         f"(best start {start_a} -> {start_b}, "
                         f"U_n {b[key][4] - a[key][4]:+.3g})")
    for key in common:
        rise = b[key][4] - a[key][4]
        if rise > RISE_TOL:
            lines.append(f"U_n rose {' '.join(key)}: {rise:+.3g} ({a[key][0]} -> {b[key][0]})")
    for name in sorted({key[0] for key in common}):
        keys = [key for key in common if key[0] == name]
        equal = sum(a[k][4] == b[k][4] for k in keys)
        rose = sum(b[k][4] > a[k][4] for k in keys)
        fell = sum(b[k][4] < a[k][4] for k in keys)
        conv_a, conv_b = (sum(side[k][0] in CONVERGED for k in keys) for side in (a, b))
        stall_a, stall_b = (sum(side[k][0] == "stalled" for k in keys) for side in (a, b))
        evals_a, evals_b = (sum(side[k][3] for k in keys) for side in (a, b))
        lines.append(f"{name}: {len(keys)} fits, U_n equal {equal}, rose {rose}, fell {fell}; "
                     f"converged {conv_a} -> {conv_b} (stalled {stall_a} -> {stall_b}); "
                     f"evaluations {evals_a} -> {evals_b}")
    return lines


def cmd_compare(args) -> int:
    a, b = (parse(Path(p).read_text(encoding="utf-8").splitlines()) for p in (args.a, args.b))
    print("\n".join(compare(a, b)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(required=True)
    p = sub.add_parser("run", help="fit the sets in a fresh process")
    p.add_argument("--src", required=True, help="the tree's src directory")
    p.set_defaults(func=cmd_run)
    sub.add_parser("fit", help="fit the sets in this process").set_defaults(func=cmd_fit)
    p = sub.add_parser("compare", help="compare two files printed by run")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
