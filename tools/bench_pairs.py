"""Paired benchmark runs of two checkouts, and the BENCH_*.json record.

``run`` runs ``perfbench/run.py`` once per seed in each of two checkouts,
for each workload of a comma list in turn, one run at a time, alternating
which checkout runs first (the parent on the 1st, 3rd, ... seed of each
workload).  It prints every end-to-end metric of each run and appends the
run's metadata and result to a JSON-lines file.  ``assemble`` turns that
file into a record with, per workload and side, the quartiles of every
end-to-end metric, and per metric the number of pairs in which the change
read better.

    python tools/bench_pairs.py run --parent ../parent --change . \\
        --workload simulate_nar,fit_nar_mlp --seeds 16001-16010 --raw raw.jsonl
    python tools/bench_pairs.py assemble --raw raw.jsonl --label LABEL \\
        --tree "what the change is" --out BENCH_LABEL.json

Quartiles are ``statistics.quantiles(..., n=4, method="inclusive")``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {seconds} --trace 0"
SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """``"16001-16003,16010"`` -> ``[16001, 16002, 16003, 16010]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    meta_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def cmd_run(args) -> int:
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.raw, "a", encoding="utf-8") as fh:
        for workload in args.workload.split(","):
            for pair, seed in enumerate(seed_list(args.seeds)):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    meta, result = run_once(trees[side], workload, seed, args.seconds)
                    values = " ".join(f"{m} {v['value']:.4f}"
                                      for m, v in result["metrics"].items())
                    print(f"{workload} seed {seed} {side}: {values}", flush=True)
                    fh.write(json.dumps({"workload": workload, "seed": seed, "side": side,
                                         "first": order[0], "seconds": args.seconds,
                                         "meta": meta, "result": result}) + "\n")
                    fh.flush()
    return 0


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    metrics = runs[0]["result"]["metrics"].keys()
    return {
        "seeds": [r["seed"] for r in runs],
        "runs_all_correct": all(r["result"]["correct"] for r in runs),
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "end_to_end": {m: quartiles([r["result"]["metrics"][m]["value"] for r in runs])
                       for m in metrics},
        "runs": [{k: r[k] for k in ("seed", "first", "meta", "result")} for r in runs],
    }


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Per metric (all lower-is-better): pairs the change read lower, ties,
    and the parent's interquartile distance against the medians' gap."""
    by_seed = {r["seed"]: r for r in parent}
    pairs = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    out = {}
    for m in change[0]["result"]["metrics"]:
        values = [(p["result"]["metrics"][m]["value"], c["result"]["metrics"][m]["value"])
                  for p, c in pairs]
        p_q, c_q = (quartiles([v[i] for v in values]) for i in (0, 1))
        out[m] = {
            "pairs": len(values),
            "change_lower": sum(c < p for p, c in values),
            "ties": sum(c == p for p, c in values),
            "median_change_frac": c_q["median"] / p_q["median"] - 1.0,
            "parent_iqr": p_q["q3"] - p_q["q1"],
            "median_gap": p_q["median"] - c_q["median"],
        }
    return out


def cmd_assemble(args) -> int:
    lines = [json.loads(line) for line in Path(args.raw).read_text(encoding="utf-8").splitlines()
             if line.strip()]
    workloads = sorted({r["workload"] for r in lines})
    record = {"label": args.label, "tree": args.tree,
              "command": COMMAND.format(seconds=lines[0]["seconds"]),
              "protocol": ("each seed ran once on this tree ('workloads') and once on its parent "
                           "('parent_workloads'), one run at a time, alternated: the parent first "
                           "on the 1st, 3rd, ... seed of each workload, the change first on the "
                           "others; 'comparison' counts the pairs in which the change read lower"),
              "workloads": {}, "parent_workloads": {}, "comparison": {}}
    for w in workloads:
        side = {s: [r for r in lines if r["workload"] == w and r["side"] == s] for s in SIDES}
        record["workloads"][w] = summarize(side["change"])
        record["parent_workloads"][w] = summarize(side["parent"])
        record["comparison"][w] = compare(side["parent"], side["change"])
    meta = lines[0]["meta"]
    record["machine"] = {k: meta.get(k) for k in ("python", "numpy", "scipy", "nproc", "blas",
                                                  "blas_threads")}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(required=True)
    p = sub.add_parser("run", help="alternated paired runs of each listed workload")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True,
                   help="a workload or a comma list, e.g. simulate_nar,fit_nar_mlp")
    p.add_argument("--seeds", required=True, help="e.g. 16001-16010")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--raw", required=True, help="JSON-lines file the runs are appended to")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("assemble", help="the BENCH record of a raw file")
    p.add_argument("--raw", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--tree", required=True, help="one line saying what the change is")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_assemble)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
