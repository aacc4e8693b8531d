"""logdetreg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each workload calls ``logdetreg.cli.main(argv)`` in-process, one command
after another, for ``--seconds`` seconds, then checks every command's
output.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it carries the run's metadata.  A traced run writes its spans to
``.perfbench_work/spans-<workload>-<seed>.jsonl.gz`` when it ends.

Count fingerprints of each command (iterations, terminations, objective
calls, Jacobian bytes, output digests) are kept per workload and seed in
``.perfbench_work/counts/``; a later run of the same workload and seed
on the same program and benchmark sources must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_COMMANDS = 3
# share of a run's measuring time given to the calibration loop, and its inputs
CALIBRATION_SHARE = 0.1
CALIBRATION_NOISE = np.random.default_rng(0).standard_normal((1, 1000, wl.DOUT))
CALIBRATION_BLOCK = np.random.default_rng(1).standard_normal((200, wl.K_MLP))
CALIBRATION_SQUARE = np.random.default_rng(2).standard_normal((wl.K_MLP, wl.K_MLP))
HESSIAN_PROBES = 5
PACKAGE = "logdetreg"


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- set-up ------------------------------------------------------------------

def import_program():
    """Import the package from this checkout; returns logdetreg.cli."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    for layer in tracing.LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    origin = Path(sys.modules[PACKAGE].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} imported from {origin}, not from {SRC}")
    return cli


def set_up(workload: wl.Workload, seed: int, rundir: Path):
    """Import plus input generation, repeated; returns (cli, set-up times).

    Each set-up imports the package in a fresh interpreter, as a user's
    first command does, then writes the workload's inputs."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(rundir, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {PACKAGE}.cli"], env=env, check=True)
        rundir.mkdir(parents=True)
        workload.prepare(rundir, seed)
        times.append(time.perf_counter() - start)
    return import_program(), times


# --- metadata ----------------------------------------------------------------

def _blas_threads() -> list[dict]:
    """Thread setting of each loaded BLAS library, asked through its C API."""
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return []
    found = []
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append({"library": Path(lib).name, "threads": int(fn())})
                break
    return found


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def metadata(cli, first_argv) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in env},
        "nproc": os.cpu_count(),
        "cli_threads": getattr(cli.build_parser().parse_args(first_argv), "threads", None),
    }


# --- measurement ---------------------------------------------------------------

@dataclass
class Run:
    """One CLI command as run: exit code, wall time and the process's user
    and system CPU time over it (all threads), plus count deltas if traced."""

    op: wl.Op
    rc: int
    wall_s: float
    user_s: float
    sys_s: float
    counts: dict | None = None


def run_command(cli, op: wl.Op) -> Run:
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is one failed command; keep measuring the rest
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return Run(op, rc, wall, after.ru_utime - before.ru_utime, after.ru_stime - before.ru_stime)


def calibrate() -> float:
    """Wall time of one pass of the calibration loop: the benchmark's own
    NAR recursion (Python-level steps of tiny numpy operations), then
    products of Jacobian-sized arrays, the two kinds of work the program
    does.  It calls nothing of the program, so its time follows only the
    speed the shared host gives this process at the moment."""
    start = time.perf_counter()
    wl.nar_series(CALIBRATION_NOISE)
    for _ in range(200):
        np.tanh(CALIBRATION_BLOCK @ CALIBRATION_SQUARE).sum(axis=0)
    return time.perf_counter() - start


def time_boxed(cli, workload, seconds: float,
               min_commands: int = MIN_COMMANDS) -> tuple[list[Run], list[float]]:
    """Commands 0, 1, ... until the next one would end past `seconds`.
    Between commands the calibration loop runs whenever it has had less
    than CALIBRATION_SHARE of the time so far; returns the commands and
    the calibration times."""
    runs, calibration = [], []
    start = time.perf_counter()
    while True:
        while not calibration or sum(calibration) < CALIBRATION_SHARE * (time.perf_counter() - start):
            calibration.append(calibrate())
        if len(runs) >= min_commands:
            typical = statistics.median(r.wall_s for r in runs)
            if time.perf_counter() - start + typical > seconds:
                return runs, calibration
        runs.append(run_command(cli, workload.op(len(runs))))


def replay(cli, runs: list[Run], tracer) -> list[Run]:
    """Run the measured commands again, traced; adds per-command count deltas."""
    replayed = []
    for measured in runs:
        before = tracer.counts.copy()
        run = run_command(cli, measured.op)
        delta = tracer.counts - before
        run.counts = {
            "iterations": delta["iterations"],
            "objective_calls": delta["objective_calls"],
            "jacobian_bytes": delta["jacobian_bytes"],
            "starts_by_termination": {
                k.split(".", 1)[1]: v for k, v in sorted(delta.items()) if k.startswith("termination.")
            },
        }
        replayed.append(run)
    return replayed


def hessian_probe(tracer, workload: wl.FitNarMlp, op: wl.Op) -> dict:
    """Log-det Hessian at a fit's estimate, traced, off the end-to-end clock."""
    from logdetreg import cost, data, model

    doc = json.loads(op.out.read_text(encoding="utf-8"))
    spec, w = model.spec_from_dict(doc["model"])
    ds = data.load_csv(workload.workdir / f"data{op.extra['dataset']}.csv")
    since = tracer.mark()
    for _ in range(HESSIAN_PROBES):
        cost.logdet_hessian(cost.ResidualSet.from_model(spec, w, ds))
    return tracer.layer_stats(since)


# --- correctness and determinism ---------------------------------------------------

def check_all(workload, runs: list[Run], prints: dict) -> int:
    """Check every command, then delete its outputs, and collect its count
    fingerprint into `prints`; a command run twice in one run must repeat
    its counts.  Returns the number of failed commands."""
    failed = 0
    for run in runs:
        op = run.op
        try:
            fingerprint = workload.check(op, run.rc)
        except wl.CheckFailed as exc:
            print(f"check failed: {workload.name} command {op.index}: {exc}", file=sys.stderr)
            failed += 1
            continue
        finally:
            for path in op.out.parent.glob(op.out.stem + ".*"):
                path.unlink()
        if run.counts:
            fingerprint.update(run.counts)
        prev = prints.setdefault(op.index, fingerprint)
        if any(prev[k] != fingerprint[k] for k in prev.keys() & fingerprint.keys()):
            print(f"counts differ: {workload.name} command {op.index} rerun", file=sys.stderr)
            failed += 1
        prev.update(fingerprint)
    return failed


def sources_digest() -> str:
    files = sorted((SRC / PACKAGE).rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(workload, prints: dict) -> int:
    """Commands whose counts differ from an earlier run of this workload,
    size and seed on the same sources; records this run's counts."""
    store = WORK / "counts" / f"{workload.name}-{workload.size}-{workload.seed}.json"
    key = sources_digest()
    try:
        doc = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        doc = {}
    known = doc.setdefault(key, {})
    mismatches = 0
    for index, fingerprint in prints.items():
        prev = known.setdefault(str(index), {})
        diff = sorted(k for k in prev.keys() & fingerprint.keys() if prev[k] != fingerprint[k])
        if diff:
            print(f"counts differ from an earlier run: command {index}: {diff}", file=sys.stderr)
            mismatches += 1
        prev.update(fingerprint)
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return mismatches


# --- metrics ---------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runs: list[Run], calibration, setup_times, peak_mb: float) -> dict:
    """command_cal is a command's wall time in units of the calibration
    loop's, both measured interleaved in this run: the host's speed,
    which drifts by a quarter and more over minutes on a shared machine,
    cancels out of the ratio, while the program's speed does not.  Both
    are geometric means, which the long tail of slow optimizer starts
    moves less than an arithmetic mean, yet every command counts."""
    return {
        "command_cal": (statistics.geometric_mean(r.wall_s for r in runs)
                        / statistics.geometric_mean(calibration)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_mb,
    }


def per_layer(stats, counts, prints, overhead, failed_frac, hessian) -> dict:
    def stat(name, key, source=stats):
        return source.get(name, {}).get(key, 0)

    out = {}
    for name in ("model.jacobian_batch", "cost.logdet_gradient", "linalg.solve"):
        for key in ("calls", "self_s", "p50_us"):
            out[f"{name}.{key}"] = stat(name, key)
    for name in ("model.eval_batch", "linalg.spd_from_symmetric", "estimate.objective",
                 "estimate.fit_logdet", "simulate.gen_series"):
        for key in ("calls", "self_s"):
            out[f"{name}.{key}"] = stat(name, key)
    for name in ("cost.empirical_covariance", "estimate.fisher_info",
                 "inference.mc_null_calibrate", "data.load_csv", "data.save_csv", "cli.main"):
        out[f"{name}.self_s"] = stat(name, "self_s")
    out["model.jacobian_bytes"] = counts["jacobian_bytes"]
    starts = sum(v for k, v in counts.items() if k.startswith("termination."))
    out["optimize.starts"] = starts
    out["optimize.iterations"] = counts["iterations"]
    out["optimize.evals_per_iter"] = counts["objective_calls"] / max(counts["iterations"], 1)
    out["optimize.self_s"] = sum(s["self_s"] for n, s in stats.items() if n.startswith("optimize."))
    for reason in ("grad_tol", "max_iters", "stalled"):
        out[f"optimize.{reason}_frac"] = counts[f"termination.{reason}"] / max(starts, 1)
    out["inference.replications_failed"] = sum(
        p.get("inference.replications_failed", 0) for p in prints.values())
    out["trace_overhead_frac"] = overhead
    out["failed_frac"] = failed_frac
    out["cost.logdet_hessian.p50_us"] = stat("cost.logdet_hessian", "p50_us", hessian)
    out["model.second_derivs_batch.self_s"] = stat("model.second_derivs_batch", "self_s", hessian)
    return out


# --- entry point -----------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            min_commands: int = MIN_COMMANDS) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, metadata).  A traced run
    measures for half the time untraced, then replays the same commands
    traced: per-layer numbers come from the replay, and its wall time
    against the untraced commands gives the tracing overhead."""
    workload = wl.WORKLOADS[name](size)
    rundir = WORK / f"run-{name}-{seed}-{os.getpid()}"
    meta = {"workload": name, "seed": seed, "size": size, "params": workload.p,
            "loadavg_before": _loadavg()}
    try:
        cli, setup_times = set_up(workload, seed, rundir)
        meta.update(metadata(cli, workload.op(0).argv), setup_s=setup_times)
        runs, calibration = time_boxed(cli, workload, seconds / 2 if trace else seconds,
                                       min_commands)
        peak_mb = peak_rss_mb()  # before the checks allocate
        prints = {}
        failed = check_all(workload, runs, prints)
        attempted = len(runs)
        if trace:
            tracer = tracing.Tracer()
            tracer.install(PACKAGE)
            traced = replay(cli, runs, tracer)
            stats, counts = tracer.layer_stats(), tracer.counts.copy()
            hessian = {}
            if isinstance(workload, wl.FitNarMlp):
                hessian = hessian_probe(tracer, workload, traced[0].op)
            tracer.uninstall()  # checks are not traced
            tracer.write(WORK / f"spans-{name}-{seed}.jsonl.gz")
            failed += check_all(workload, traced, prints)
            attempted += len(traced)
        try:
            workload.finish()
        except wl.CheckFailed as exc:
            print(f"check failed: {name}: {exc}", file=sys.stderr)
            failed = attempted
        failed = min(attempted, failed + compare_with_earlier_runs(workload, prints))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if trace:
        overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in runs) - 1.0
        metrics = per_layer(stats, counts, prints, overhead, failed / attempted, hessian)
    else:
        metrics = end_to_end(runs, calibration, setup_times, peak_mb)
    codes = [r.rc for r in runs]
    meta.update(
        commands=len(runs),
        command_exit_codes={str(c): codes.count(c) for c in sorted(set(codes))},
        measured_s=sum(r.wall_s for r in runs),
        median_command_wall_s=statistics.median(r.wall_s for r in runs),
        median_command_user_s=statistics.median(r.user_s for r in runs),
        median_command_sys_s=statistics.median(r.sys_s for r in runs),
        calibrations=len(calibration),
        geomean_command_wall_s=statistics.geometric_mean(r.wall_s for r in runs),
        geomean_calibration_s=statistics.geometric_mean(calibration),
        loadavg_after=_loadavg(),
    )
    spec = load_benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
