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
covariance, and its FGLS and log-det fits exit 3).  ``test_not_nested``
pins the exit code 2 and error line of ``test`` on a pair that is not
nested (the restricted model on both sides).  Two commands pin the
exit code and error line of bad input paths: ``fit_dir_data`` passes the
work directory as ``--data`` and ``fit_utf16_data`` a UTF-16 copy of a
small CSV, ``utf16.csv``; both exit 2.  Each command's stdout and stderr are
saved as ``NAME.stdout`` and ``NAME.stderr`` in ``--out``, next to the
files it writes, and one line ``sha256  file  rc`` is printed per output,
in command order.  ``fit_no_free`` pins the exit code 2 and error line of
a model whose mask frees no parameter.  ``fit_overflow_logdet`` pins the
exit code 3 and error line of a linear fit on ``overflow.csv``, finite
data whose Gram pair overflows.  ``fit_mlp_d1_logdet`` and
``fit_mlp_d3_logdet`` fit MLP(d, 2, d) by log-det to ``mlp_d1.csv`` and
``mlp_d3.csv``, so that every trial point's residual covariance goes
through the written-out d <= 2 route of ``linalg.factor_small`` in one and
the LAPACK route it takes above 2 x 2 in the other (the d = 2 fits take
the written-out route too).  ``fit_mlp_nonident_logdet`` fits ``mlp_nonident.json``,
the MLP(2, 3, 2) with grid entries 9 and 10 masked, so that hidden unit 0
has no output weight and the report's plug-in information takes the
singular branch (``identifiable: false``, null ``info_hat``).
``fit_negative_seed`` pins the exit code 2 and error line of ``--seed
-1``, and ``fit_bad_mask`` those of ``bad_mask.json``, whose mask holds
the string ``"false"`` where a boolean belongs.  The ``usage_*`` commands
pin argparse's own outputs (exit 0 or 2): the help of the program and of
each subcommand, no arguments, an unknown command, a missing required flag,
an invalid ``--cost`` and an unrecognized flag.  Every command runs with
``COLUMNS=80``, so that help wraps the same on any terminal.  Compare two
trees with ``diff``:

    python tools/cli_digest.py --src ../parent/src --out ../digest-parent > parent.txt
    python tools/cli_digest.py --src src --out ../digest-change > change.txt
    diff parent.txt change.txt

``--compare A B`` reads two such work directories and prints one line per
file whose bytes differ: whether its structure is the same (a JSON
document's skeleton, its numbers left out; a CSV file's header and shape;
any other file's text, such as a stderr line), and the largest absolute
and relative difference among its numbers, each with its path.  A file
present on one side only, or a structure that differs, makes it exit 1.

    python tools/cli_digest.py --compare ../digest-parent ../digest-change
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
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
    "none.json": {"kind": "masked_linear", "input_dim": 3, "output_dim": 2, "mask": [False] * 6},
    "mlp_d1.json": {"kind": "mlp", "input_dim": 1, "output_dim": 1, "hidden_units": 2},
    "mlp_d3.json": {"kind": "mlp", "input_dim": 3, "output_dim": 3, "hidden_units": 2},
    "mlp_nonident.json": {"kind": "mlp", "input_dim": 2, "output_dim": 2, "hidden_units": 3,
                          "mask": [i not in (9, 10) for i in range(17)]},
    "bad_mask.json": {"kind": "masked_linear", "input_dim": 3, "output_dim": 2,
                      "mask": [True, True, "false", True, True, "false"]},
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
        *((f"fit_mlp_d{d}_logdet", [*fit, f"mlp_d{d}.csv", "--model", f"mlp_d{d}.json",
                                    *MLP_OPTS, "--out", f"fit_mlp_d{d}_logdet.json"])
          for d in (1, 3)),
        ("fit_mlp_nonident_logdet", [*fit, "nar.csv", "--model", "mlp_nonident.json",
                                     "--starts", "2", "--max-iters", "200", "--seed", "5",
                                     "--out", "fit_mlp_nonident_logdet.json"]),
        *((f"fit_ridge_{cost}", [*fit, "ridge.csv", "--model", "linear.json", "--cost", cost,
                                 "--out", f"fit_ridge_{cost}.json"])
          for cost in ("mse", "fgls", "logdet")),
        ("fit_huge_mse", [*fit, "huge.csv", "--model", "linear.json", "--cost", "mse",
                          "--out", "fit_huge_mse.json"]),
        ("fit_overflow_logdet", [*fit, "overflow.csv", "--model", "linear.json",
                                 "--out", "fit_overflow_logdet.json"]),
        *((f"test_{cost}", ["test", "--restricted", "restricted.json", "--full", "linear.json",
                            "--data", "iid.csv", "--cost", cost, "--calibrate", "20",
                            "--out", f"test_{cost}.json"])
          for cost in ("logdet", "mse")),
        ("test_not_nested", ["test", "--restricted", "restricted.json",
                             "--full", "restricted.json", "--data", "iid.csv"]),
        ("prune_gate", ["prune", "--model", "linear.json", "--data", "iid.csv",
                        "--gate", "0.05", "--out", "prune_gate.json"]),
        ("mc_covariance", ["mc", "--recipe", "nar.recipe.json", "--reps", "2", *MLP_OPTS,
                           "--out", "mc_covariance.json"]),
        ("mc_test_size", ["mc", "--experiment", "test-size", "--reps", "20", "--n", "200",
                          "--out", "mc_test_size.json"]),
        ("fit_no_free", [*fit, "iid.csv", "--model", "none.json"]),
        ("fit_dir_data", [*fit, ".", "--model", "linear.json"]),
        ("fit_utf16_data", [*fit, "utf16.csv", "--model", "linear.json"]),
        ("fit_negative_seed", [*fit, "nar.csv", "--model", "mlp.json", *MLP_OPTS, "--seed", "-1",
                               "--out", "fit_negative_seed.json"]),
        ("fit_bad_mask", [*fit, "iid.csv", "--model", "bad_mask.json"]),
        *usage_commands(),
    ]


def usage_commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of the commands that argparse answers itself."""
    fit = ["fit", "--model", "linear.json", "--data", "iid.csv"]
    return [
        ("usage_none", []),
        ("usage_help", ["--help"]),
        *((f"usage_help_{name}", [name, "--help"])
          for name in ("simulate", "fit", "test", "prune", "mc")),
        ("usage_unknown_command", ["bogus"]),
        ("usage_missing_flag", fit[:3]),
        ("usage_bad_cost", [*fit, "--cost", "nope"]),
        ("usage_bogus_flag", [*fit, "--bogus", "1"]),
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


def write_overflow_data(work: Path) -> None:
    """``overflow.csv``: 50 rows of three inputs U(50, 60) and two outputs
    +-1.7e308 U(0.9, 1), all finite, from a seeded ``random.Random``; its
    Gram pair ``Y^T Z / n`` overflows."""
    rng = random.Random(22)
    rows = [",".join([*(repr(rng.uniform(50.0, 60.0)) for _ in range(3)),
                      *(repr(rng.choice((-1.0, 1.0)) * 1.7e308 * rng.uniform(0.9, 1.0))
                        for _ in range(2))])
            for _ in range(50)]
    (work / "overflow.csv").write_text("\n".join(["z1,z2,z3,y1,y2", *rows]) + "\n",
                                       encoding="utf-8")


def write_mlp_data(work: Path) -> None:
    """``mlp_d1.csv`` and ``mlp_d3.csv``: 120 rows of d inputs U(-1, 1) and
    d outputs ``tanh`` of a fixed mix of the inputs plus 0.2 N(0, 1), from a
    seeded ``random.Random``, for MLP(d, 2, d) fits at d = 1 and 3."""
    for d in (1, 3):
        rng = random.Random(30 + d)
        rows = []
        for _ in range(120):
            z = [rng.uniform(-1.0, 1.0) for _ in range(d)]
            y = [math.tanh(sum((1.0 + i + j) / d * x for j, x in enumerate(z)))
                 + rng.gauss(0.0, 0.2) for i in range(d)]
            rows.append(",".join(map(repr, z + y)))
        header = ",".join([*(f"z{j + 1}" for j in range(d)), *(f"y{i + 1}" for i in range(d))])
        (work / f"mlp_d{d}.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def write_utf16_data(work: Path) -> None:
    """``utf16.csv``: a header and two rows of a linear model's CSV, in
    UTF-16 with its byte-order mark."""
    text = "z1,z2,z3,y1,y2\n0.1,0.2,0.3,1.0,2.0\n0.4,0.5,0.6,3.0,4.0\n"
    (work / "utf16.csv").write_text(text, encoding="utf-16")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(src: Path, work: Path) -> list[str]:
    """Run every command in ``work``; one ``sha256  file  rc`` line per output."""
    for name, doc in MODELS.items():
        (work / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    write_huge_data(work)
    write_overflow_data(work)
    write_mlp_data(work)
    write_utf16_data(work)
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
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


def _json_numbers(doc, path="$"):
    """The skeleton of a JSON document (each number replaced by ``"#"``)
    and its numbers as ``{path: value}``."""
    if isinstance(doc, dict):
        pairs = [(k, _json_numbers(v, f"{path}.{k}")) for k, v in doc.items()]
        return {k: sk for k, (sk, _) in pairs}, {p: x for _, (_, n) in pairs for p, x in n.items()}
    if isinstance(doc, list):
        parts = [_json_numbers(v, f"{path}[{i}]") for i, v in enumerate(doc)]
        return [sk for sk, _ in parts], {p: x for _, n in parts for p, x in n.items()}
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return "#", {path: float(doc)}
    return doc, {}


def _csv_numbers(text):
    """The header and shape of a CSV file, and its fields as
    ``{"row R, NAME": value}``."""
    header, *rows = csv.reader(text.splitlines())
    cells = {f"row {r}, {name}": float(x)
             for r, row in enumerate(rows, 1) for name, x in zip(header, row)}
    return (header, len(rows), {len(row) for row in rows}), cells


def _structure(path: Path, data: bytes):
    """(what the structure is, the structure, the numbers) of one output."""
    text = data.decode("utf-8", errors="replace")
    if path.suffix == ".csv":
        return ("CSV header and shape", *_csv_numbers(text))
    if path.suffix in (".json", ".stdout"):
        try:
            return ("JSON skeleton", *_json_numbers(json.loads(text)))
        except ValueError:
            pass
    return "text", text, {}


def _largest(a: dict, b: dict, rel: bool):
    """The largest absolute (or relative) difference between the numbers
    of ``a`` and ``b``, and its path."""
    def diff(x, y):
        scale = max(abs(x), abs(y)) if rel else 1.0
        return 0.0 if x == y else abs(x - y) / scale
    return max(((diff(a[p], b[p]), p) for p in a), default=(0.0, "-"))


def compare(dir_a: Path, dir_b: Path) -> tuple[list[str], bool]:
    """One line per file of either work directory whose bytes differ, and
    whether every structure is the same."""
    lines, same = [], True
    names_a = {p.name for p in dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in dir_b.iterdir() if p.is_file()}
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            lines.append(f"{name}: only in {'B' if name in names_b else 'A'}")
            same = False
            continue
        a, b = (d / name for d in (dir_a, dir_b))
        if a.read_bytes() == b.read_bytes():
            continue
        what, struct_a, nums_a = _structure(a, a.read_bytes())
        _, struct_b, nums_b = _structure(b, b.read_bytes())
        if struct_a != struct_b:
            lines.append(f"{name}: {what} differs")
            same = False
            continue
        (d_abs, p_abs), (d_rel, p_rel) = (_largest(nums_a, nums_b, rel) for rel in (False, True))
        lines.append(f"{name}: {what} identical; max abs diff {d_abs:.3g} at {p_abs}, "
                     f"max rel diff {d_rel:.3g} at {p_rel}")
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="the tree's src directory")
    parser.add_argument("--out", help="work directory, created here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two work directories instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        lines, same = compare(*(Path(d) for d in args.compare))
        print("\n".join(lines) if lines else "all outputs identical")
        return 0 if same else 1
    if not (args.src and args.out):
        parser.error("--src and --out are required unless --compare is given")
    work = Path(args.out)
    work.mkdir(parents=True)
    for line in run(Path(args.src).resolve(), work.resolve()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
