"""The three benchmark workloads: inputs, CLI commands and output checks.

Every workload is a closed loop with one client: the next CLI command
starts when the previous one has returned.  Inputs are made here with
numpy from the benchmark seed, so they do not depend on the program under
test; the program only sees the generated CSV, model and recipe files and
the command-line flags.  Checks recompute what they can independently of
the program: log-determinants, the NAR recursion, and each replication's
noise and test statistic, rebuilt from the seed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The paper's bivariate NAR(1) setup: MLP(2, 3, 2) with weights drawn
# uniformly in [-2, 2] from seed 12345 (as `simulate.bivariate_nar_recipe`
# draws them) and strongly correlated Gaussian noise.
HIDDEN, DIN, DOUT = 3, 2, 2
GAMMA0 = np.array([[1.81, 1.8], [1.8, 1.81]])
GAMMA0_ARG = "1.81,1.8;1.8,1.81"
CHOL0 = np.linalg.cholesky(GAMMA0)
W_TRUE = np.random.default_rng(12345).uniform(-2.0, 2.0, size=HIDDEN * (DIN + 1 + DOUT) + DOUT)
MLP_MODEL = {"kind": "mlp", "input_dim": DIN, "output_dim": DOUT, "hidden_units": HIDDEN}
K_MLP = W_TRUE.size

# `mc --experiment test-size`: y = W z + eps with z uniform on [-1, 1]^3;
# the third regressor is irrelevant, so H0 (W[:, 2] = 0) holds.
W_SIZE = np.array([[1.0, -0.5, 0.0], [0.8, 0.6, 0.0]])
ALPHA = 0.05
# T_n > -2 ln(alpha) <=> chi-square(2) p-value < alpha
TN_CRITICAL = -2.0 * np.log(ALPHA)
# a reference T_n this close to the critical value may fall on either side
# in the program, whose fits stop at a gradient tolerance
TN_MARGIN = 0.01


class CheckFailed(Exception):
    """A command's output failed its correctness check."""


@dataclass
class Op:
    """One CLI command of a workload."""

    index: int
    argv: list[str]
    out: Path
    extra: dict = field(default_factory=dict)


def op_seed(seed: int, index: int) -> int:
    """CLI --seed of command `index`, derived from the benchmark seed."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0] >> 1)


def mlp_forward(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    h, din, d = HIDDEN, DIN, DOUT
    a = w[: h * din].reshape(h, din)
    c = w[h * din : h * din + h]
    b = w[h * din + h : h * din + h + h * d].reshape(h, d)
    return np.tanh(z @ a.T + c) @ b + w[-d:]


def logdet_cov(r: np.ndarray) -> float:
    sign, value = np.linalg.slogdet(r.T @ r / r.shape[0])
    return float(value) if sign > 0 else float("inf")


def nar_series(noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NAR recursion z_t = y_{t-1}, y_t = F(z_t) + eps_t from y_0 = 0, for a
    stack of noise paths of shape (paths, n, d); returns inputs, outputs."""
    paths, n, d = noise.shape
    z = np.empty_like(noise)
    y = np.empty_like(noise)
    state = np.zeros((paths, d))
    for t in range(n):
        z[:, t] = state
        state = mlp_forward(W_TRUE, state) + noise[:, t]
        y[:, t] = state
    return z, y


def write_csv(path: Path, z: np.ndarray, y: np.ndarray) -> None:
    header = [f"z{i + 1}" for i in range(z.shape[1])] + [f"y{i + 1}" for i in range(y.shape[1])]
    rows = (",".join(map(repr, row)) for row in np.hstack([z, y]).tolist())
    path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_report(op: Op, rc: int, allowed=(0,)) -> dict:
    if rc not in allowed:
        raise CheckFailed(f"exit code {rc}")
    try:
        return json.loads(op.out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable report: {exc}") from None


# --- references recomputed from the program's seed contract ------------------
# `simulate.gen_series` draws from PCG64 on SeedSequence([seed]): for an
# i.i.d. recipe the inputs (uniform on [-1, 1]) and then the standard
# normals of the noise, for a NAR recipe the normals only.  The noise is
# normals @ chol(Gamma0).T.  Replication r of an `mc` command with --seed s
# uses the data seed SeedSequence([s, r]).generate_state(1, uint64)[0] >> 1.

def series_noise(data_seed: int, n: int) -> np.ndarray:
    """Noise of a NAR series: the residuals at the true weights."""
    rng = np.random.default_rng(np.random.SeedSequence([int(data_seed)]))
    return rng.standard_normal((n, DOUT)) @ CHOL0.T


def replication_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(r)]).generate_state(1, np.uint64)[0] >> 1)


def size_statistics(seed: int, reps: int, n: int) -> list[float]:
    """T_n of each replication of a test-size command, in closed form: both
    models have the same regressors in every equation, so their log-det
    estimates are equation-by-equation least squares."""
    stats = []
    for r in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([replication_seed(seed, r)]))
        z = rng.uniform(-1.0, 1.0, size=(n, W_SIZE.shape[1]))
        y = z @ W_SIZE.T + rng.standard_normal((n, DOUT)) @ CHOL0.T
        u = [logdet_cov(y - x @ np.linalg.lstsq(x, y, rcond=None)[0]) for x in (z[:, :2], z)]
        stats.append(max(n * (u[0] - u[1]), 0.0))
    return stats


class Workload:
    name = ""
    # per size preset: the parameters of the commands
    sizes: dict[str, dict] = {}

    def __init__(self, size: str = "full"):
        self.size = size
        self.p = self.sizes[size]

    def prepare(self, workdir: Path, seed: int) -> None:
        """Write the inputs of every command into workdir (timed as set-up)."""
        self.workdir, self.seed = workdir, seed

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, rc: int) -> dict:
        """Raise CheckFailed or return the command's count fingerprint."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over all commands of the run; raise CheckFailed."""


# --max-iters of the optimizer workloads.  At the CLI default (500) about
# half the starts run to the cap and the rest stop anywhere before it, so
# the time of a command moves with its seed more than with the program.
# At 200 most starts stop at the cap and each command does about the same
# optimizer work; the per-layer termination shares still show how starts
# end.
MAX_ITERS = 200


class FitNarMlp(Workload):
    name = "fit_nar_mlp"
    # `pool` datasets are made in set-up; commands cycle through them, each
    # with its own optimizer seed, so no two commands of a run repeat a fit
    sizes = {
        "full": {"n": 200, "starts": 1, "pool": 128},
        "tiny": {"n": 60, "starts": 1, "pool": 2},
    }

    def prepare(self, workdir, seed):
        super().prepare(workdir, seed)
        self.above_reference = []
        n, pool = self.p["n"], self.p["pool"]
        noise = np.stack(
            [
                np.random.default_rng(np.random.SeedSequence([seed, i])).standard_normal((n, DOUT))
                @ CHOL0.T
                for i in range(pool)
            ]
        )
        self.z, self.y = nar_series(noise)
        (workdir / "model.json").write_text(json.dumps(MLP_MODEL), encoding="utf-8")
        for i in range(pool):
            write_csv(workdir / f"data{i}.csv", self.z[i], self.y[i])

    def op(self, index):
        k = index % self.p["pool"]
        out = self.workdir / f"fit{index}.json"
        argv = [
            "fit", "--cost", "logdet", "--model", str(self.workdir / "model.json"),
            "--data", str(self.workdir / f"data{k}.csv"), "--out", str(out),
            "--seed", str(op_seed(self.seed, index)), "--starts", str(self.p["starts"]),
            "--max-iters", str(MAX_ITERS),
        ]
        return Op(index, argv, out, {"dataset": k})

    def check(self, op, rc):
        # exit 3 (best start not converged) with a valid report is a completed fit
        doc = _load_report(op, rc, allowed=(0, 3))
        try:
            model = doc["model"]
            w = np.asarray(model["params"], dtype=float)
            u_hat = float(doc["cost_value"])
            per_start = doc["per_start"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"malformed fit report: {exc!r}") from None
        if model.get("kind") != "mlp" or w.shape != W_TRUE.shape or doc.get("n") != self.p["n"]:
            raise CheckFailed("fit report does not describe the MLP(2,3,2) fit at n")
        if not np.all(np.isfinite(w)) or not np.isfinite(u_hat):
            raise CheckFailed("non-finite fit")
        if len(per_start) != self.p["starts"] or (rc == 0) != bool(doc.get("converged")):
            raise CheckFailed("per-start records or exit code disagree with the report")
        z, y = self.z[op.extra["dataset"]], self.y[op.extra["dataset"]]
        u_check = logdet_cov(y - mlp_forward(w, z))
        if abs(u_hat - u_check) > 1e-9 * max(1.0, abs(u_check)):
            raise CheckFailed(f"reported U_n {u_hat!r} != recomputed {u_check!r}")
        self.above_reference.append(u_hat > logdet_cov(y - mlp_forward(W_TRUE, z)) + 1e-6)
        return {
            "iterations": sum(int(s["iterations"]) for s in per_start),
            "terminations": dict(Counter(s["termination"] for s in per_start)),
        }

    def finish(self):
        # Reference: U_n at the true weights on the same data.  A fitted U_n
        # should be no higher (+1e-6), but a single start can settle in a
        # poor basin (about 1 start in 700 did in testing), so up to 5% of
        # the run's fits may exceed it.
        above = sum(self.above_reference)
        if above > 0.05 * len(self.above_reference):
            raise CheckFailed(f"{above}/{len(self.above_reference)} fits end above the true-parameter U_n")


class McSizeLinear(Workload):
    name = "mc_size_linear"
    # n=200, not the 1000 of the paper's experiment: per-call overhead is
    # most of a fit's time at either size, but at 1000 the replication
    # threads' BLAS calls make command times follow the other vCPU's load
    # far more than the calibration loop's, and runs spread by 0.2.
    sizes = {
        "full": {"n": 200, "reps": 2, "starts": 1},
        "tiny": {"n": 100, "reps": 2, "starts": 1},
    }

    def op(self, index):
        out = self.workdir / f"size{index}.json"
        seed = op_seed(self.seed, index)
        argv = [
            "mc", "--experiment", "test-size", "--n", str(self.p["n"]),
            "--reps", str(self.p["reps"]), "--seed", str(seed), "--starts", str(self.p["starts"]),
            "--max-iters", str(MAX_ITERS), "--out", str(out),
        ]
        return Op(index, argv, out, {"seed": seed})

    def check(self, op, rc):
        doc = _load_report(op, rc)
        reps, n = self.p["reps"], self.p["n"]
        if (doc.get("replications"), doc.get("n"), doc.get("alpha")) != (reps, n, ALPHA):
            raise CheckFailed("test-size report does not echo the requested experiment")
        failures, rate = int(doc["failures"]), float(doc["rejection_rate"])
        if failures > 0.05 * reps:
            raise CheckFailed(f"{failures}/{reps} failures exceed the 5% rule")
        ok = reps - failures
        rejections = rate * ok
        if not 0.0 <= rate <= 1.0 or abs(rejections - round(rejections)) > 1e-9:
            raise CheckFailed(f"rejection rate {rate!r} is not a share of {ok} replications")
        # Reference: each replication's T_n recomputed from the seed.  The
        # reported rejections must be the reference ones; a replication
        # within TN_MARGIN of the critical value may go either way, and a
        # failed one may be missing.
        stats = size_statistics(op.extra["seed"], reps, n)
        sure = sum(t > TN_CRITICAL + TN_MARGIN for t in stats)
        possible = sum(t > TN_CRITICAL - TN_MARGIN for t in stats)
        if not sure - failures <= round(rejections) <= possible:
            raise CheckFailed(f"{round(rejections)} rejections, the reference T_n "
                              f"{[round(t, 3) for t in stats]} give {sure}..{possible}")
        return {"report": digest(op.out), "inference.replications_failed": failures}


class SimulateNar(Workload):
    name = "simulate_nar"
    sizes = {
        "full": {"n": 20_000},
        "tiny": {"n": 500},
    }
    burn_in = 100  # the CLI default

    def prepare(self, workdir, seed):
        super().prepare(workdir, seed)
        (workdir / "model.json").write_text(
            json.dumps(dict(MLP_MODEL, params=W_TRUE.tolist())), encoding="utf-8"
        )

    def op(self, index):
        out = self.workdir / f"sim{index}.csv"
        argv = [
            "simulate", "--mode", "nar", "--model", str(self.workdir / "model.json"),
            "--gamma", GAMMA0_ARG, "--n", str(self.p["n"]),
            "--seed", str(op_seed(self.seed, index)), "--out", str(out),
        ]
        return Op(index, argv, out, {"seed": op_seed(self.seed, index)})

    def check(self, op, rc):
        from logdetreg.data import load_csv

        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        n = self.p["n"]
        try:
            with open(op.out, encoding="utf-8") as fh:
                header = fh.readline().strip()
            parsed = np.loadtxt(op.out, delimiter=",", skiprows=1, ndmin=2)
            ds = load_csv(op.out)
            recipe = json.loads(op.out.with_suffix(".recipe.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"unreadable simulate output: {exc}") from None
        if header != "z1,z2,y1,y2" or parsed.shape != (n, DIN + DOUT):
            raise CheckFailed(f"CSV layout {header!r} {parsed.shape}")
        if not (np.array_equal(ds.inputs, parsed[:, :DIN]) and np.array_equal(ds.outputs, parsed[:, DIN:])):
            raise CheckFailed("load_csv does not round-trip the written CSV")
        expected = ("nar_process", n, op.extra["seed"], self.burn_in)
        if (recipe.get("mode"), recipe.get("n"), recipe.get("seed"), recipe.get("burn_in")) != expected:
            raise CheckFailed("recipe file does not describe the simulated series")
        z, y = ds.inputs, ds.outputs
        if not np.array_equal(z[1:], y[:-1]):
            raise CheckFailed("inputs are not the previous outputs (NAR state feedback)")
        # Reference: the noise recomputed from the seed is the residual at
        # the true weights, up to rounding.
        eps = series_noise(op.extra["seed"], self.burn_in + n)[self.burn_in :]
        err = float(np.max(np.abs(y - mlp_forward(W_TRUE, z) - eps)))
        if not err <= 1e-9:
            raise CheckFailed(f"residuals at the true weights differ from the seed's noise by {err:.3g}")
        return {"report": digest(op.out)}


WORKLOADS = {w.name: w for w in (FitNarMlp, McSizeLinear, SimulateNar)}
