"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced for a moment, checks that each
run is correct and emits exactly the metrics BENCHMARK.json names, with
their units, and that a fit report whose U_n was raised by 1e-3 fails
its check.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run
import workloads as wl


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_runs(spec: dict) -> None:
    require({w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS),
            "BENCHMARK.json workloads differ from the benchmark's")
    for name in sorted(wl.WORKLOADS):
        for trace in (False, True):
            result, _ = run.measure(name, seed=1, seconds=0.2, trace=trace, size="tiny",
                                    min_commands=2)
            label = f"{name} trace={int(trace)}"
            require(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                    f"{label}: result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                    f"{label}: {result['attempted']} attempted, {result['failed']} failed")
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            require(emitted == declared, f"{label}: metrics or units differ from BENCHMARK.json")
            values = [v["value"] for v in result["metrics"].values()]
            require(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                    f"{label}: non-finite metric value")
            if not trace:
                require(all(v > 0 for v in values), f"{label}: an end-to-end metric is 0")
            json.dumps(result, allow_nan=False)
            print(f"ok {label}: {result['attempted']} commands")


def check_corrupted_fit_report() -> None:
    workload = wl.FitNarMlp("tiny")
    workdir = run.WORK / "smoke-corrupt"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        cli = run.import_program()
        workdir.mkdir(parents=True)
        workload.prepare(workdir, seed=1)
        op = workload.op(0)
        rc = run.run_command(cli, op).rc
        workload.check(op, rc)  # the genuine report passes
        doc = json.loads(op.out.read_text(encoding="utf-8"))
        doc["cost_value"] += 1e-3
        op.out.write_text(json.dumps(doc), encoding="utf-8")
        try:
            workload.check(op, rc)
        except wl.CheckFailed as exc:
            print(f"ok corrupted fit report caught: {exc}")
        else:
            require(False, "a fit report with U_n raised by 1e-3 passed its check")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    require((run.SRC / run.PACKAGE).is_dir(), f"no sources under {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    check_runs(run.load_benchmark_spec())
    check_corrupted_fit_report()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
