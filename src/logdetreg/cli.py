"""Command-line surface.

Subcommands: ``simulate | fit | test | prune | mc``.  Datasets travel as
headed CSV (``z1..z{d'},y1..y{d}``); models and all reports are JSON with
a ``schema_version`` field.  Exit codes: 0 success, 2 usage or input
error, 3 numerical or convergence failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import inference, model as mdl, prune as prn, simulate as sim
from .data import CsvFormatError, Dataset, load_csv, save_csv
from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    LogDetRegError,
    NonFiniteReport,
    NonIdentifiable,
    NotNested,
    NotPositiveDefinite,
    UnderDetermined,
)
from .estimate import FitResult, fisher_info, fit_fgls, fit_gls, fit_logdet, fit_ols
from .linalg import SpdMatrix, spd_from_symmetric
from .optimize import OptimOptions

SCHEMA_VERSION = "1"


class UsageError(Exception):
    pass


USAGE_ERRORS = (
    UsageError,
    CsvFormatError,
    DimensionMismatch,
    NotNested,
    UnderDetermined,
    FileNotFoundError,
)


def parse_matrix(text: str, flag: str) -> np.ndarray:
    """Inline matrix syntax: rows separated by ';', entries by ','; the
    entries must be finite."""
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise UsageError(f"cannot parse matrix {text!r}") from None
    if len({len(r) for r in rows}) != 1:
        raise UsageError(f"ragged matrix {text!r}")
    if not np.all(np.isfinite(rows)):
        raise UsageError(f"{flag} entries must be finite, got {text!r}")
    return np.asarray(rows)


def _spd_flag(text: str, flag: str, dim: int) -> SpdMatrix:
    """The ``dim`` x ``dim`` symmetric positive-definite matrix given to
    ``flag``; anything else is a usage error naming the flag."""
    m = parse_matrix(text, flag)
    if m.shape != (dim, dim):
        raise UsageError(f"{flag} must be a {dim}x{dim} matrix, got {text!r}")
    try:
        return spd_from_symmetric(m)
    except (AsymmetricInput, NotPositiveDefinite):
        raise UsageError(f"{flag} must be symmetric positive definite, got {text!r}") from None


def _emit(doc: dict, out: str | None) -> None:
    """Write ``doc`` as strict JSON; a non-finite number in it raises
    NonFiniteReport (exit 3), and nothing is written."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NonFiniteReport("report holds a non-finite number") from None
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _read_json(path: str, parse):
    """``parse`` applied to the JSON document in ``path`` (a model or a
    recipe); a malformed document is a usage error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except KeyError as exc:
        raise UsageError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _optim_options(args, n_starts_default: int = 20) -> OptimOptions:
    if args.starts is not None and args.starts < 1:
        raise UsageError("--starts must be >= 1")
    if args.max_iters < 1:
        raise UsageError("--max-iters must be >= 1")
    if not 0 < args.grad_tol < np.inf:
        raise UsageError("--grad-tol must be finite and > 0")
    return OptimOptions(
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        n_starts=args.starts if args.starts is not None else n_starts_default,
        seed=args.seed,
    )


def _check_level(level: float, flag: str) -> None:
    if not 0.0 < level < 1.0:
        raise UsageError(f"{flag} must be in (0, 1)")


def _only_for(args, mode: str, *flags: str) -> None:
    """Reject the first of ``flags`` that was given: it applies to ``mode``
    only, and a flag that is silently ignored is a usage error."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise UsageError(f"{flag} applies to {mode} only")


def _start_doc(record) -> dict:
    """A ``per_start`` entry; a start that was not finite at its first point
    has no cost and no |grad| (null rather than an infinity, which strict
    JSON cannot carry)."""
    doc = dataclasses.asdict(record)
    if record.termination == "nonfinite_at_start":
        doc.update(final_cost=None, grad_norm=None)
    return doc


def _fit_report(fit: FitResult, plug_in: tuple, extra: dict) -> dict:
    """The ``fit`` report; ``plug_in`` is (info_hat, asymptotic_cov, identifiable)."""
    info_hat, asymptotic_cov, identifiable = plug_in
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "cost": fit.cost_kind.value,
        "model": mdl.spec_to_dict(fit.spec, fit.w_hat),
        "cost_value": fit.cost_value,
        "gamma_hat": fit.gamma_hat.entries.tolist(),
        "info_hat": None if info_hat is None else info_hat.entries.tolist(),
        "asymptotic_cov": None if asymptotic_cov is None else asymptotic_cov.tolist(),
        "identifiable": identifiable,
        "converged": fit.optim.converged,
        "n": fit.n,
        "per_start": [_start_doc(r) for r in fit.optim.per_start],
    }
    if fit.rounds is not None:
        doc["rounds"] = list(fit.rounds)
    if extra:
        doc.update(extra)
    return doc


def _standardize(data: Dataset) -> tuple[Dataset, dict]:
    zm, zs = data.inputs.mean(axis=0), data.inputs.std(axis=0, ddof=0)
    ym, ys = data.outputs.mean(axis=0), data.outputs.std(axis=0, ddof=0)
    zs = np.where(zs > 0, zs, 1.0)
    ys = np.where(ys > 0, ys, 1.0)
    out = Dataset((data.inputs - zm) / zs, (data.outputs - ym) / ys)
    transform = {
        "inputs_mean": zm.tolist(),
        "inputs_std": zs.tolist(),
        "outputs_mean": ym.tolist(),
        "outputs_std": ys.tolist(),
    }
    return out, transform


# --- subcommands -----------------------------------------------------------

def cmd_simulate(args) -> int:
    spec, w_true = _read_json(args.model, mdl.spec_from_dict)
    if w_true is None:
        raise UsageError("model file must carry params (the true weights)")
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.mode == "iid":
        _only_for(args, "--mode nar", "--burn-in")
    mode = sim.SimMode.NAR_PROCESS if args.mode == "nar" else sim.SimMode.IID_REGRESSION
    burn_in = args.burn_in
    if burn_in is None:
        burn_in = 100 if args.mode == "nar" else 0
    recipe = sim.SimRecipe(
        mode=mode,
        spec=spec,
        w_true=w_true,
        gamma0=_spd_flag(args.gamma, "--gamma", spec.output_dim),
        n=args.n,
        burn_in=burn_in,
        y0=None,
        seed=args.seed,
    )
    ds = sim.gen_series(recipe)
    save_csv(args.out, ds)
    doc = {"schema_version": SCHEMA_VERSION, "command": "simulate"}
    doc.update(sim.recipe_to_dict(recipe))
    _emit(doc, str(Path(args.out).with_suffix(".recipe.json")))
    return 0


def cmd_fit(args) -> int:
    if args.cost != "gls":
        _only_for(args, "--cost gls", "--weight")
    spec, _ = _read_json(args.model, mdl.spec_from_dict)
    data = load_csv(args.data)
    extra = {}
    if args.standardize:
        data, transform = _standardize(data)
        extra["standardize"] = transform
    opts = _optim_options(args)
    plug_in = (None, None, True)
    if args.cost == "mse":
        fit = fit_ols(spec, data, opts)
    elif args.cost == "gls":
        if args.weight in (None, "identity"):
            weight = spd_from_symmetric(np.eye(spec.output_dim))
        else:
            weight = _spd_flag(args.weight, "--weight", spec.output_dim)
        fit = fit_gls(spec, data, weight, opts)
    elif args.cost == "fgls":
        fit = fit_fgls(spec, data, opts)
    else:
        fit = fit_logdet(spec, data, opts)
        try:
            plug_in = (*fisher_info(fit.spec, fit.w_hat, data), True)
        except NonIdentifiable:
            plug_in = (None, None, False)
    _emit(_fit_report(fit, plug_in, extra), args.out)
    return 0 if fit.optim.converged else 3


def cmd_test(args) -> int:
    spec_r, _ = _read_json(args.restricted, mdl.spec_from_dict)
    spec_f, _ = _read_json(args.full, mdl.spec_from_dict)
    data = load_csv(args.data)
    opts = _optim_options(args)
    _check_level(args.alpha, "--alpha")
    if args.calibrate < 0:
        raise UsageError("--calibrate must be >= 0")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "test",
        "cost": args.cost,
        "alpha": args.alpha,
    }
    if args.cost == "logdet":
        fit_r = fit_logdet(spec_r, data, opts)
        fit_f = fit_logdet(spec_f, data, opts)
        report = inference.tn_test(fit_r, fit_f, args.alpha)
        doc.update(
            statistic=report.statistic,
            dof=report.dof,
            p_value=report.p_value,
            reject=report.reject,
            method=report.method.value,
        )
    else:
        if not args.calibrate:
            raise UsageError("--cost mse has no pivotal null; pass --calibrate R")
        fit_r = fit_ols(spec_r, data, opts)
        fit_f = fit_ols(spec_f, data, opts)
        stat = inference.sn_statistic(fit_r, fit_f)
        doc["statistic"] = stat
        doc["dof"] = int(spec_f.param_count - spec_r.param_count)

    if args.calibrate:
        # fixed-design parametric bootstrap under H0: keep the observed
        # inputs, resample Gaussian noise around the restricted fit
        pred = mdl.eval_batch(spec_r, fit_r.w_hat, data.inputs)
        gamma = fit_r.gamma_hat

        def generator(data_seed: int) -> Dataset:
            rng = np.random.default_rng(data_seed)
            eps = sim.sample_gaussian(gamma, data.n, rng)
            return Dataset(data.inputs, pred + eps)

        calib = inference.mc_null_calibrate(
            spec_r,
            spec_f,
            generator,
            args.calibrate,
            args.seed + 1,
            opts,
            statistic="tn" if args.cost == "logdet" else "sn",
        )
        observed = doc["statistic"]
        doc["mc_p_value"] = calib.p_value(observed)
        doc["mc_samples"] = int(calib.samples.size)
        doc["mc_failures"] = calib.failures
        if args.cost == "mse":
            doc["p_value"] = doc["mc_p_value"]
            doc["reject"] = doc["p_value"] < args.alpha
            doc["method"] = inference.TestMethod.MONTE_CARLO_NULL.value
    _emit(doc, args.out)
    return 0


def cmd_prune(args) -> int:
    spec, _ = _read_json(args.model, mdl.spec_from_dict)
    data = load_csv(args.data)
    opts = _optim_options(args)
    if args.gate is not None:
        _check_level(args.gate, "--gate")
    trace = prn.ssm_prune(spec, data, opts, gate=args.gate)
    k_init = spec.param_count
    k_final = trace.final_spec.param_count
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "prune",
        "summary": f"q: {k_init} -> {k_final}",
        "steps": [dataclasses.asdict(s) for s in trace.steps],
        "final_model": mdl.spec_to_dict(trace.final_spec, trace.final_fit.w_hat),
        "final_cost_value": trace.final_fit.cost_value,
    }
    _emit(doc, args.out)
    print(f"q: {k_init} -> {k_final}", file=sys.stderr)
    return 0


def cmd_mc(args) -> int:
    if args.reps < 2:
        raise UsageError("--reps must be >= 2")
    opts = _optim_options(args, n_starts_default=5)
    if args.experiment == "test-size":
        _only_for(args, "--experiment covariance", "--estimators", "--recipe")
        return _mc_test_size(args, opts)
    _only_for(args, "--experiment test-size", "--n", "--alpha")
    if not args.recipe:
        raise UsageError("mc requires --recipe (or --experiment test-size)")
    recipe = _read_json(args.recipe, sim.recipe_from_dict)
    names = "logdet,mse" if args.estimators is None else args.estimators
    estimators = [e.strip() for e in names.split(",") if e.strip()]
    if not 0 < len(sim.ESTIMATORS.keys() & set(estimators)) == len(estimators):
        raise UsageError(f"--estimators must list distinct names from {', '.join(sim.ESTIMATORS)}")
    report = sim.run_mc(recipe, estimators, args.reps, args.seed, opts)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "mc",
        "replications": report.replications,
        "seed": report.seed,
        "rng_kind": report.rng_kind,
        "estimators": {
            s.name: {
                "mean_gamma": s.mean_gamma.tolist(),
                "stderr_gamma": s.stderr_gamma.tolist(),
                "det_mean_gamma": s.det_mean_gamma,
                "mean_det": s.mean_det,
                "failures": s.failures,
            }
            for s in report.estimators.values()
        },
    }
    if len(report.estimators) == 2:
        a, b = report.estimators.values()
        diffs = np.array(
            [np.linalg.det(x) - np.linalg.det(y) for x, y in zip(a.gammas, b.gammas)]
        )
        se = float(diffs.std(ddof=1) / np.sqrt(diffs.size))
        mean = float(diffs.mean())
        doc["paired_det_comparison"] = {
            "order": [a.name, b.name],
            "mean_diff": mean,
            "stderr": se,
            "ci95": [mean - 1.96 * se, mean + 1.96 * se],
        }
    _emit(doc, args.out)
    return 0


def _mc_test_size(args, opts: OptimOptions) -> int:
    """Empirical size of the nested log-det test on an H0-true linear pair."""
    n = 1000 if args.n is None else args.n
    alpha = 0.05 if args.alpha is None else args.alpha
    if n < 1:
        raise UsageError(f"--n must satisfy n >= 1, got {n}")
    _check_level(alpha, "--alpha")
    d, din = 2, 3
    full = mdl.ModelSpec(mdl.ModelKind.LINEAR, input_dim=din, output_dim=d)
    mask = np.ones(d * din, dtype=bool)
    mask[[2, 5]] = False  # third regressor irrelevant in both equations
    restricted = mdl.ModelSpec(mdl.ModelKind.MASKED_LINEAR, din, d, mask=mask)
    w_true = mdl.ParamVector(np.array([1.0, -0.5, 0.8, 0.6]), restricted)
    gamma0 = spd_from_symmetric(np.array([[1.81, 1.8], [1.8, 1.81]]))
    recipe = sim.SimRecipe(
        mode=sim.SimMode.IID_REGRESSION,
        spec=restricted,
        w_true=w_true,
        gamma0=gamma0,
        n=n,
    )
    calib = inference.mc_null_calibrate(
        restricted, full, recipe, args.reps, args.seed, opts, statistic="tn"
    )
    rate = float(np.mean([inference.chi2_sf(s, 2) < alpha for s in calib.samples]))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "mc",
        "experiment": "test-size",
        "replications": args.reps,
        "seed": args.seed,
        "rng_kind": sim.RNG_KIND,
        "n": n,
        "alpha": alpha,
        "rejection_rate": rate,
        "failures": calib.failures,
        "statistics": calib.samples.tolist(),
    }
    _emit(doc, args.out)
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdetreg",
        description="Multidimensional regression by log-determinant covariance minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    def optimizer(p):
        common(p)
        p.add_argument("--starts", type=int, help="MLP starts (linear fits are solved)")
        p.add_argument("--max-iters", type=int, default=500)
        p.add_argument("--grad-tol", type=float, default=1e-6)

    p = sub.add_parser("simulate", help="generate a dataset CSV plus replay recipe")
    p.add_argument("--mode", choices=["nar", "iid"], required=True)
    p.add_argument("--model", required=True, help="model JSON carrying the true params")
    p.add_argument("--gamma", required=True, help="noise covariance, e.g. '1.81,1.8;1.8,1.81'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=None,
                   help="discarded leading NAR steps (--mode nar only; default 100)")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate a model on CSV data")
    p.add_argument("--cost", choices=["mse", "gls", "logdet", "fgls"], default="logdet")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--weight", help="GLS weight matrix or 'identity' (default; --cost gls only)")
    p.add_argument("--standardize", action="store_true")
    optimizer(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("test", help="nested model comparison")
    p.add_argument("--restricted", required=True)
    p.add_argument("--full", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--cost", choices=["logdet", "mse"], default="logdet")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--calibrate", type=int, default=0, metavar="R",
                   help="Monte Carlo null replications (required for --cost mse)")
    optimizer(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("prune", help="stepwise weight elimination (BIC-like criterion)")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--gate", type=float, default=None,
                   help="optional test level gating each elimination")
    optimizer(p)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("mc", help="Monte Carlo replication experiments")
    p.add_argument("--recipe", default=None, help="recipe JSON from `simulate`")
    p.add_argument("--estimators", help="--experiment covariance only (default logdet,mse)")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--experiment", choices=["covariance", "test-size"], default="covariance")
    p.add_argument("--alpha", type=float, help="--experiment test-size only (default 0.05)")
    p.add_argument("--n", type=int, help="--experiment test-size only (default 1000)")
    optimizer(p)
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LogDetRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
