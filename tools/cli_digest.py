"""SHA-256 digests of what a fixed set of CLI commands writes, to show that
two trees give the same output bytes.

Each command runs in its own subprocess, ``python -m logdetreg.cli`` with
``PYTHONPATH`` set to ``--src``, in the directory ``--out`` (which must
not exist yet).  The inputs are written here without the package: the
model files (an MLP(2, 3, 2) and a masked/full linear pair, each also with
true weights for ``simulate``), ``huge.csv``, 50 rows of outputs
``1e200 N(0, 1)`` (the residual covariance of its MSE fit overflows, and
the fit exits 3), and ``ridge.csv``, the simulated ``iid.csv`` with its
second output set to zero (its MSE fit needs a ridge on the residual
covariance, and its FGLS and log-det fits exit 3).  Each command's stdout and stderr are
saved as ``NAME.stdout`` and ``NAME.stderr`` in ``--out``, next to the
files it writes, and one line ``sha256  file  rc`` is printed per output,
in command order.  Compare two trees with ``diff``:

    python tools/cli_digest.py --src ../parent/src --out ../digest-parent > parent.txt
    python tools/cli_digest.py --src src --out ../digest-change > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

GAMMA = "1.81,1.8;1.8,1.81"
MLP_WEIGHTS = [  # MLP(2, 3, 2) grid [a | c | b | bias], NAR-stable
    0.9, -0.4, 0.3, 0.7, -0.6, 0.2, 0.1, -0.2, 0.3,
    0.5, -0.3, 0.4, 0.2, 0.6, -0.5, 0.05, -0.1,
]
MODELS = {
    "mlp_true.json": {"kind": "mlp", "input_dim": 2, "output_dim": 2, "hidden_units": 3,
                      "params": MLP_WEIGHTS},
    "mlp.json": {"kind": "mlp", "input_dim": 2, "output_dim": 2, "hidden_units": 3},
    "restricted_true.json": {"kind": "masked_linear", "input_dim": 3, "output_dim": 2,
                             "mask": [True, True, False, True, True, False],
                             "params": [1.0, -0.5, 0.8, 0.6]},
    "restricted.json": {"kind": "masked_linear", "input_dim": 3, "output_dim": 2,
                        "mask": [True, True, False, True, True, False]},
    "linear.json": {"kind": "linear", "input_dim": 3, "output_dim": 2},
}
MLP_OPTS = ["--starts", "2", "--max-iters", "60"]


def commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) in run order; ``ridge.csv`` is written just
    before ``fit_ridge_mse``."""
    fit = ["fit", "--data"]
    return [
        ("simulate_nar", ["simulate", "--mode", "nar", "--model", "mlp_true.json",
                          "--gamma", GAMMA, "--n", "300", "--seed", "11", "--out", "nar.csv"]),
        ("simulate_iid", ["simulate", "--mode", "iid", "--model", "restricted_true.json",
                          "--gamma", GAMMA, "--n", "400", "--seed", "12", "--out", "iid.csv"]),
        *((f"fit_linear_{cost}", [*fit, "iid.csv", "--model", "linear.json", "--cost", cost,
                                  "--out", f"fit_linear_{cost}.json"])
          for cost in ("mse", "gls", "fgls", "logdet")),
        *((f"fit_mlp_{cost}", [*fit, "nar.csv", "--model", "mlp.json", "--cost", cost,
                               *MLP_OPTS, "--out", f"fit_mlp_{cost}.json"])
          for cost in ("mse", "gls", "fgls", "logdet")),
        *((f"fit_ridge_{cost}", [*fit, "ridge.csv", "--model", "linear.json", "--cost", cost,
                                 "--out", f"fit_ridge_{cost}.json"])
          for cost in ("mse", "fgls", "logdet")),
        ("fit_huge_mse", [*fit, "huge.csv", "--model", "linear.json", "--cost", "mse",
                          "--out", "fit_huge_mse.json"]),
        *((f"test_{cost}", ["test", "--restricted", "restricted.json", "--full", "linear.json",
                            "--data", "iid.csv", "--cost", cost, "--calibrate", "20",
                            "--out", f"test_{cost}.json"])
          for cost in ("logdet", "mse")),
        ("prune_gate", ["prune", "--model", "linear.json", "--data", "iid.csv",
                        "--gate", "0.05", "--out", "prune_gate.json"]),
        ("mc_covariance", ["mc", "--recipe", "nar.recipe.json", "--reps", "2", *MLP_OPTS,
                           "--out", "mc_covariance.json"]),
        ("mc_test_size", ["mc", "--experiment", "test-size", "--reps", "20", "--n", "200",
                          "--out", "mc_test_size.json"]),
    ]


def write_ridge_data(work: Path) -> None:
    """``iid.csv`` with its second output set to zero."""
    with open(work / "iid.csv", encoding="utf-8", newline="") as src:
        header, *rows = csv.reader(src)
    lines = [",".join(header)] + [",".join(row[:-1] + ["0.0"]) for row in rows]
    (work / "ridge.csv").write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))


def write_huge_data(work: Path) -> None:
    """``huge.csv``: 50 rows of three inputs N(0, 1) and two outputs
    1e200 N(0, 1), drawn from a seeded ``random.Random``."""
    rng = random.Random(21)
    rows = [",".join(repr(rng.gauss(0.0, scale)) for scale in (1.0, 1.0, 1.0, 1e200, 1e200))
            for _ in range(50)]
    (work / "huge.csv").write_text("\n".join(["z1,z2,z3,y1,y2", *rows]) + "\n", encoding="utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(src: Path, work: Path) -> list[str]:
    """Run every command in ``work``; one ``sha256  file  rc`` line per output."""
    for name, doc in MODELS.items():
        (work / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    write_huge_data(work)
    env = dict(os.environ, PYTHONPATH=str(src))
    lines = []
    for name, argv in commands():
        if name == "fit_ridge_mse":
            write_ridge_data(work)
        before = set(work.iterdir())
        done = subprocess.run([sys.executable, "-m", "logdetreg.cli", *argv], cwd=work, env=env,
                              capture_output=True)
        (work / f"{name}.stdout").write_bytes(done.stdout)
        (work / f"{name}.stderr").write_bytes(done.stderr)
        for path in sorted(set(work.iterdir()) - before):
            lines.append(f"{sha256(path)}  {path.name}  {done.returncode}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the tree's src directory")
    parser.add_argument("--out", required=True, help="work directory, created here")
    args = parser.parse_args(argv)
    work = Path(args.out)
    work.mkdir(parents=True)
    for line in run(Path(args.src).resolve(), work.resolve()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
