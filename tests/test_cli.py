import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logdetreg
from logdetreg import Dataset, ModelKind, ModelSpec, ParamVector, save_model
from logdetreg.cli import _emit, _start_doc, main, parse_matrix
from logdetreg.cli import UsageError
from logdetreg.data import load_csv, save_csv
from logdetreg.errors import NonFiniteReport
from logdetreg.inference import chi2_sf
from logdetreg.optimize import StartRecord
from logdetreg.simulate import RNG_KIND

SRC = Path(logdetreg.__file__).resolve().parent.parent


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def linear22(tmp_path):
    spec = ModelSpec(ModelKind.LINEAR, 2, 2)
    w = ParamVector(np.array([0.5, -0.3, 0.2, 0.8]), spec)
    path = tmp_path / "linear22.json"
    save_model(path, spec, w)
    return str(path)


@pytest.fixture
def scalar_model(tmp_path):
    spec = ModelSpec(ModelKind.LINEAR, 3, 1)
    w = ParamVector(np.array([2.0, -1.0, 0.5]), spec)
    path = tmp_path / "scalar.json"
    save_model(path, spec, w)
    return str(path)


@pytest.fixture
def nested_files(tmp_path):
    full = ModelSpec(ModelKind.LINEAR, 3, 2)
    mask = np.ones(6, dtype=bool)
    mask[[2, 5]] = False
    restricted = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
    w = ParamVector(np.array([1.0, -0.5, 0.8, 0.6]), restricted)
    fp, rp = tmp_path / "full.json", tmp_path / "restricted.json"
    save_model(fp, full)
    save_model(rp, restricted, w)
    return str(rp), str(fp)


def simulate(capsys, model, out, n=200, gamma="1,0.4;0.4,1", seed=7, mode="iid"):
    code, _, err = run(
        [
            "simulate", "--mode", mode, "--model", model, "--gamma", gamma,
            "--n", str(n), "--seed", str(seed), "--out", out,
        ],
        capsys,
    )
    assert code == 0, err
    return out


class TestParseMatrix:
    def test_matrix(self):
        np.testing.assert_array_equal(
            parse_matrix("1.81,1.8;1.8,1.81", "--gamma"), [[1.81, 1.8], [1.8, 1.81]]
        )

    def test_scalar(self):
        np.testing.assert_array_equal(parse_matrix("0.5", "--gamma"), [[0.5]])

    def test_ragged(self):
        with pytest.raises(UsageError):
            parse_matrix("1,2;3", "--gamma")

    def test_garbage(self):
        with pytest.raises(UsageError):
            parse_matrix("1,two", "--gamma")


class TestSimulate:
    def test_round_trip_and_recipe(self, tmp_path, linear22, capsys):
        out = str(tmp_path / "data.csv")
        simulate(capsys, linear22, out, n=50)
        data = load_csv(out)
        assert data.n == 50 and data.input_dim == 2 and data.output_dim == 2
        recipe = json.loads((tmp_path / "data.recipe.json").read_text())
        assert recipe["schema_version"] == "1"
        assert recipe["command"] == "simulate"
        assert recipe["n"] == 50 and recipe["seed"] == 7

    def test_reruns_byte_identical(self, tmp_path, linear22, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        simulate(capsys, linear22, a)
        simulate(capsys, linear22, b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_n_zero_usage_error(self, tmp_path, linear22, capsys):
        code, _, err = run(
            [
                "simulate", "--mode", "iid", "--model", linear22,
                "--gamma", "1,0;0,1", "--n", "0", "--out", str(tmp_path / "x.csv"),
            ],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_model_without_params_rejected(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        save_model(path, ModelSpec(ModelKind.LINEAR, 2, 2))
        code, _, err = run(
            [
                "simulate", "--mode", "iid", "--model", str(path),
                "--gamma", "1,0;0,1", "--n", "10", "--out", str(tmp_path / "x.csv"),
            ],
            capsys,
        )
        assert code == 2

    def test_nar_mode(self, tmp_path, linear22, capsys):
        out = str(tmp_path / "nar.csv")
        simulate(capsys, linear22, out, n=40, mode="nar")
        data = load_csv(out)
        assert data.n == 40
        # state feedback: next input row equals previous output
        np.testing.assert_array_equal(data.inputs[1:], data.outputs[:-1])

    def test_burn_in_recorded_per_mode(self, tmp_path, linear22, capsys):
        simulate(capsys, linear22, str(tmp_path / "iid.csv"), n=30)
        simulate(capsys, linear22, str(tmp_path / "nar.csv"), n=30, mode="nar")
        iid = json.loads((tmp_path / "iid.recipe.json").read_text())
        nar = json.loads((tmp_path / "nar.recipe.json").read_text())
        assert (iid["burn_in"], nar["burn_in"]) == (0, 100)
        code, _, err = run(
            [
                "simulate", "--mode", "nar", "--model", linear22, "--gamma", "1,0;0,1",
                "--n", "30", "--burn-in", "7", "--out", str(tmp_path / "b.csv"),
            ],
            capsys,
        )
        assert code == 0, err
        assert json.loads((tmp_path / "b.recipe.json").read_text())["burn_in"] == 7

    def test_burn_in_with_iid_usage_error(self, tmp_path, linear22, capsys):
        code, _, err = run(
            [
                "simulate", "--mode", "iid", "--model", linear22, "--gamma", "1,0;0,1",
                "--n", "30", "--burn-in", "100", "--out", str(tmp_path / "x.csv"),
            ],
            capsys,
        )
        assert code == 2
        assert "--burn-in" in err
        assert not (tmp_path / "x.csv").exists()


class TestFit:
    def test_logdet_fit_report(self, tmp_path, linear22, capsys):
        data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=300)
        code, out, _ = run(
            ["fit", "--cost", "logdet", "--model", linear22, "--data", data, "--starts", "3"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["cost"] == "logdet"
        assert doc["converged"] is True
        assert doc["identifiable"] is True
        assert len(doc["model"]["params"]) == 4
        assert np.asarray(doc["gamma_hat"]).shape == (2, 2)
        assert np.asarray(doc["info_hat"]).shape == (4, 4)
        assert np.asarray(doc["asymptotic_cov"]).shape == (4, 4)
        # a linear log-det fit is solved, not searched: one record
        assert [list(r) for r in doc["per_start"]] == [
            ["start_index", "final_cost", "iterations", "evaluations", "grad_norm", "termination"]
        ]
        # estimate close to the generating coefficients at n = 300
        assert np.max(np.abs(np.array(doc["model"]["params"]) - [0.5, -0.3, 0.2, 0.8])) < 0.2

    def test_out_file(self, tmp_path, linear22, capsys):
        data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=200)
        report = tmp_path / "fit.json"
        code, out, _ = run(
            ["fit", "--model", linear22, "--data", data, "--starts", "2", "--out", str(report)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(report.read_text())["command"] == "fit"

    def test_mse_matches_logdet_for_d1(self, tmp_path, scalar_model, capsys):
        data = simulate(capsys, scalar_model, str(tmp_path / "d.csv"), n=400, gamma="0.5")
        args = ["--model", scalar_model, "--data", data, "--starts", "3", "--grad-tol", "1e-10"]
        code_a, out_a, _ = run(["fit", "--cost", "mse", *args], capsys)
        code_b, out_b, _ = run(["fit", "--cost", "logdet", *args], capsys)
        assert code_a == 0 and code_b == 0
        wa = np.array(json.loads(out_a)["model"]["params"])
        wb = np.array(json.loads(out_b)["model"]["params"])
        assert np.max(np.abs(wa - wb)) < 1e-8

    def test_gls_identity_matches_mse(self, tmp_path, linear22, capsys):
        data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=300)
        args = ["--model", linear22, "--data", data, "--starts", "3", "--grad-tol", "1e-9"]
        _, out_a, _ = run(["fit", "--cost", "mse", *args], capsys)
        _, out_b, _ = run(["fit", "--cost", "gls", "--weight", "identity", *args], capsys)
        wa = np.array(json.loads(out_a)["model"]["params"])
        wb = np.array(json.loads(out_b)["model"]["params"])
        assert np.max(np.abs(wa - wb)) < 1e-6

    def test_fgls_reports_rounds(self, tmp_path, linear22, capsys):
        data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=300)
        code, out, _ = run(
            ["fit", "--cost", "fgls", "--model", linear22, "--data", data, "--starts", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["cost"] == "logdet"
        assert len(doc["rounds"]) >= 2

    def test_standardize_records_transform(self, tmp_path, linear22, capsys):
        data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=300)
        code, out, _ = run(
            ["fit", "--model", linear22, "--data", data, "--starts", "2", "--standardize"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc["standardize"]) == {
            "inputs_mean", "inputs_std", "outputs_mean", "outputs_std"
        }

    def test_missing_data_file(self, tmp_path, linear22, capsys):
        code, _, err = run(
            ["fit", "--model", linear22, "--data", str(tmp_path / "nope.csv")], capsys
        )
        assert code == 2

    def test_swapped_header_usage_error(self, tmp_path, linear22, capsys):
        bad = tmp_path / "swapped.csv"
        bad.write_text("y1,y2,z1,z2\n1.0,2.0,3.0,4.0\n5.0,6.0,7.0,8.0\n")
        code, _, err = run(["fit", "--model", linear22, "--data", str(bad)], capsys)
        assert code == 2
        assert "line 1" in err

    def test_malformed_csv_names_line(self, tmp_path, linear22, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("z1,z2,y1,y2\n1.0,2.0,3.0,4.0\n1.0,oops,3.0,4.0\n")
        code, _, err = run(["fit", "--model", linear22, "--data", str(bad)], capsys)
        assert code == 2
        assert "line 3" in err


class TestTest:
    def make_h0_data(self, tmp_path, nested_files, capsys, n=300):
        restricted, _ = nested_files
        return simulate(capsys, restricted, str(tmp_path / "h0.csv"), n=n,
                        gamma="1.81,1.8;1.8,1.81", seed=11)

    def test_logdet_smoke(self, tmp_path, nested_files, capsys):
        restricted, full = nested_files
        data = self.make_h0_data(tmp_path, nested_files, capsys)
        code, out, _ = run(
            [
                "test", "--restricted", restricted, "--full", full,
                "--data", data, "--starts", "3",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["dof"] == 2
        assert doc["statistic"] >= 0
        assert 0.0 <= doc["p_value"] <= 1.0
        assert doc["method"] == "chi_square_asymptotic"
        assert doc["reject"] == (doc["p_value"] < 0.05)

    def test_identical_masks_usage_error(self, tmp_path, nested_files, capsys):
        restricted, _ = nested_files
        data = self.make_h0_data(tmp_path, nested_files, capsys)
        code, _, err = run(
            [
                "test", "--restricted", restricted, "--full", restricted,
                "--data", data, "--starts", "2",
            ],
            capsys,
        )
        assert code == 2

    def test_mse_requires_calibration(self, tmp_path, nested_files, capsys):
        restricted, full = nested_files
        data = self.make_h0_data(tmp_path, nested_files, capsys)
        code, _, err = run(
            [
                "test", "--cost", "mse", "--restricted", restricted, "--full", full,
                "--data", data, "--starts", "2",
            ],
            capsys,
        )
        assert code == 2
        assert "calibrate" in err

    def test_mse_with_calibration(self, tmp_path, nested_files, capsys):
        restricted, full = nested_files
        data = self.make_h0_data(tmp_path, nested_files, capsys, n=150)
        code, out, _ = run(
            [
                "test", "--cost", "mse", "--restricted", restricted, "--full", full,
                "--data", data, "--starts", "2", "--calibrate", "9",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "monte_carlo_null"
        assert doc["mc_samples"] == 9
        assert 0.0 < doc["p_value"] <= 1.0
        assert doc["p_value"] == doc["mc_p_value"]


class TestPrune:
    def test_prune_linear_grid(self, tmp_path, nested_files, capsys):
        restricted, full = nested_files
        data = simulate(capsys, restricted, str(tmp_path / "d.csv"), n=1000,
                        gamma="1,0.4;0.4,1", seed=2)
        code, out, err = run(
            ["prune", "--model", full, "--data", data, "--starts", "3"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["summary"] == "q: 6 -> 4"
        assert "q: 6 -> 4" in err
        assert {s["frozen_grid_index"] for s in doc["steps"]} == {2, 5}
        for s in doc["steps"]:
            assert s["criterion_after"] < s["criterion_before"]
        assert len(doc["final_model"]["params"]) == 4
        mask = doc["final_model"]["mask"]
        assert mask == [True, True, False, True, True, False]

    def test_gated_prune_records_p_values(self, tmp_path, nested_files, capsys):
        restricted, full = nested_files
        data = simulate(capsys, restricted, str(tmp_path / "d.csv"), n=1000,
                        gamma="1,0.4;0.4,1", seed=3)
        code, out, _ = run(
            ["prune", "--model", full, "--data", data, "--starts", "3", "--gate", "0.05"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        for s in doc["steps"]:
            assert s["p_value"] is not None and s["p_value"] >= 0.05


class TestMc:
    def test_reps_one_usage_error(self, tmp_path, linear22, capsys):
        code, _, err = run(["mc", "--recipe", "whatever.json", "--reps", "1"], capsys)
        assert code == 2

    def test_missing_recipe_usage_error(self, capsys):
        code, _, err = run(["mc", "--reps", "2"], capsys)
        assert code == 2

    def test_covariance_experiment(self, tmp_path, linear22, capsys):
        simulate(capsys, linear22, str(tmp_path / "d.csv"), n=120, seed=5)
        recipe = str(tmp_path / "d.recipe.json")
        code, out, _ = run(
            ["mc", "--recipe", recipe, "--reps", "3", "--starts", "2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["replications"] == 3
        assert set(doc["estimators"]) == {"logdet", "mse"}
        for s in doc["estimators"].values():
            assert s["failures"] == 0
            assert np.asarray(s["mean_gamma"]).shape == (2, 2)
        paired = doc["paired_det_comparison"]
        assert paired["order"] == ["logdet", "mse"]
        assert paired["ci95"][0] <= paired["mean_diff"] <= paired["ci95"][1]

    def test_covariance_deterministic(self, tmp_path, linear22, capsys):
        simulate(capsys, linear22, str(tmp_path / "d.csv"), n=120, seed=5)
        recipe = str(tmp_path / "d.recipe.json")
        argv = ["mc", "--recipe", recipe, "--reps", "2", "--starts", "2", "--seed", "9"]
        _, out_a, _ = run(argv, capsys)
        _, out_b, _ = run(argv, capsys)
        assert out_a == out_b

    def test_test_size_experiment(self, capsys):
        code, out, _ = run(
            ["mc", "--experiment", "test-size", "--reps", "4", "--starts", "2",
             "--n", "150"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["experiment"] == "test-size"
        assert doc["replications"] == 4
        assert 0.0 <= doc["rejection_rate"] <= 1.0
        assert doc["failures"] == 0

    def test_test_size_report_carries_seed_and_statistics(self, capsys):
        argv = ["mc", "--experiment", "test-size", "--reps", "6", "--starts", "1", "--n", "120"]
        docs = []
        for seed in (3, 4):
            code, out, _ = run(argv + ["--seed", str(seed)], capsys)
            assert code == 0
            docs.append(json.loads(out))
        assert docs[0] != docs[1]
        for seed, doc in zip((3, 4), docs):
            assert (doc["seed"], doc["rng_kind"]) == (seed, RNG_KIND)
            stats = doc["statistics"]
            assert len(stats) == doc["replications"] - doc["failures"]
            assert stats == sorted(stats)
            rejected = [chi2_sf(s, 2) < doc["alpha"] for s in stats]
            assert doc["rejection_rate"] == np.mean(rejected)


class TestExitCodes:
    """Bad input exits 2 and names the file or flag at fault; an internal
    error is not disguised as a usage error."""

    @pytest.mark.parametrize(
        "doc, detail",
        [
            ({"kind": "linear", "input_dim": 2}, "output_dim"),
            ({"kind": "cubic", "input_dim": 2, "output_dim": 2}, "cubic"),
        ],
        ids=["missing_field", "unknown_kind"],
    )
    def test_bad_model_file(self, tmp_path, doc, detail, capsys):
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(doc))
        data = tmp_path / "d.csv"
        data.write_text("z1,z2,y1,y2\n1.0,2.0,3.0,4.0\n")
        code, _, err = run(["fit", "--model", str(path), "--data", str(data)], capsys)
        assert code == 2
        assert str(path) in err and detail in err

    @pytest.mark.parametrize("value", [2.0, 2.5, True, "2", None], ids=repr)
    @pytest.mark.parametrize("field", ["input_dim", "output_dim", "hidden_units"])
    def test_model_dimension_not_integer(self, tmp_path, field, value, capsys):
        # a float, bool or string dimension is not truncated to an integer
        doc = {"kind": "mlp", "input_dim": 2, "output_dim": 2, "hidden_units": 2}
        doc[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        data = tmp_path / "d.csv"
        data.write_text("z1,z2,y1,y2\n1.0,2.0,3.0,4.0\n")
        code, out, err = run(["fit", "--model", str(path), "--data", str(data)], capsys)
        assert (code, out) == (2, "")
        assert str(path) in err and f"field {field!r} must be an integer" in err

    @pytest.mark.parametrize("value", [12.9, 40.0, True, "40", None], ids=repr)
    @pytest.mark.parametrize("field", ["n", "burn_in", "seed"])
    def test_recipe_count_not_integer(self, tmp_path, linear22, field, value, capsys):
        # n 12.9 used to run as 12, burn_in true as 1 and seed "40" as 40
        simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50, mode="nar")
        recipe = tmp_path / "d.recipe.json"
        doc = json.loads(recipe.read_text())
        doc[field] = value
        recipe.write_text(json.dumps(doc))
        code, out, err = run(["mc", "--recipe", str(recipe), "--reps", "2"], capsys)
        assert (code, out) == (2, "")
        assert str(recipe) in err and f"field {field!r} must be an integer" in err

    def test_malformed_recipe(self, tmp_path, linear22, capsys):
        simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
        recipe = tmp_path / "d.recipe.json"
        doc = json.loads(recipe.read_text())
        del doc["gamma0"]
        recipe.write_text(json.dumps(doc))
        code, _, err = run(["mc", "--recipe", str(recipe), "--reps", "2"], capsys)
        assert code == 2
        assert str(recipe) in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--starts", "0"), ("--grad-tol", "0"), ("--max-iters", "0"),
         ("--grad-tol", "inf"), ("--grad-tol", "nan")],
    )
    def test_bad_optimizer_flag(self, tmp_path, linear22, flag, value, capsys):
        data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
        code, _, err = run(["fit", "--model", linear22, "--data", data, flag, value], capsys)
        assert code == 2
        assert flag in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [("simulate", "--gamma", "inf,0;0,1"), ("fit", "--weight", "nan,0;0,1"),
         ("fit", "--weight", "inf,0;0,1")],
    )
    def test_non_finite_matrix(self, tmp_path, linear22, command, flag, value, capsys):
        out = str(tmp_path / "x.csv")
        if command == "simulate":
            argv = ["simulate", "--mode", "iid", "--model", linear22, "--n", "10", "--out", out]
        else:
            data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
            argv = ["fit", "--cost", "gls", "--model", linear22, "--data", data, "--out", out]
        code, _, err = run(argv + [flag, value], capsys)
        assert code == 2
        assert flag in err and "finite" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, flag", [("simulate", "--gamma"), ("fit", "--weight")])
    @pytest.mark.parametrize(
        "value, detail",
        [("1,2;2,1", "positive definite"), ("1,0;0,-1", "positive definite"),
         ("1,0.5;0,1", "positive definite"), ("1,0,0;0,1,0;0,0,1", "2x2"), ("1", "2x2")],
        ids=["indefinite", "negative", "asymmetric", "3x3", "1x1"],
    )
    def test_matrix_flag_not_spd(self, tmp_path, linear22, command, flag, value, detail, capsys):
        out = str(tmp_path / "x.csv")
        if command == "simulate":
            argv = ["simulate", "--mode", "iid", "--model", linear22, "--n", "10", "--out", out]
        else:
            data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
            argv = ["fit", "--cost", "gls", "--model", linear22, "--data", data, "--out", out]
        code, stdout, err = run(argv + [flag, value], capsys)
        assert (code, stdout) == (2, "")
        assert flag in err and detail in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("gamma0", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]],
                             ids=["indefinite", "asymmetric"])
    def test_recipe_gamma_not_spd(self, tmp_path, linear22, gamma0, capsys):
        simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
        recipe = tmp_path / "d.recipe.json"
        doc = json.loads(recipe.read_text())
        doc["gamma0"] = gamma0
        recipe.write_text(json.dumps(doc))
        code, out, err = run(["mc", "--recipe", str(recipe), "--reps", "3"], capsys)
        assert (code, out) == (2, "")
        assert str(recipe) in err and "gamma0" in err and "positive definite" in err

    def test_non_finite_iid_output(self, tmp_path, capsys):
        # an internal failure, not a usage error: exit 3, and no files
        spec = ModelSpec(ModelKind.LINEAR, 2, 1)
        model = tmp_path / "huge.json"
        save_model(model, spec, ParamVector(np.array([1.5e308, 1.5e308]), spec))
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            ["simulate", "--mode", "iid", "--model", str(model), "--gamma", "1", "--n", "200",
             "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (3, "")
        assert "non-finite output at row" in err
        assert not out.exists() and not out.with_suffix(".recipe.json").exists()

    def test_non_finite_recipe_gamma(self, tmp_path, linear22, capsys):
        simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
        recipe = tmp_path / "d.recipe.json"
        doc = json.loads(recipe.read_text())
        doc["gamma0"][0][0] = float("inf")
        recipe.write_text(json.dumps(doc))  # writes the JSON extension Infinity
        code, out, err = run(["mc", "--recipe", str(recipe), "--reps", "3"], capsys)
        assert (code, out) == (2, "")
        assert str(recipe) in err and "gamma0" in err

    def test_non_finite_recipe_y0(self, tmp_path, linear22, capsys):
        simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50, mode="nar")
        recipe = tmp_path / "d.recipe.json"
        doc = json.loads(recipe.read_text())
        doc["y0"] = [float("inf"), 0.0]
        recipe.write_text(json.dumps(doc))
        code, out, err = run(["mc", "--recipe", str(recipe), "--reps", "2"], capsys)
        assert (code, out) == (2, "")
        assert str(recipe) in err and "y0" in err

    @pytest.mark.parametrize("value", ["5", "-1", "0", "1"])
    def test_bad_gate(self, tmp_path, nested_files, value, capsys):
        restricted, full = nested_files
        data = simulate(capsys, restricted, str(tmp_path / "d.csv"), n=50)
        code, out, err = run(["prune", "--model", full, "--data", data, "--gate", value], capsys)
        assert (code, out) == (2, "")
        assert "--gate" in err

    def test_negative_size_usage_error(self, capsys):
        code, _, err = run(["mc", "--experiment", "test-size", "--reps", "2", "--n", "-3"], capsys)
        assert code == 2
        assert "n >= 1" in err

    @pytest.mark.parametrize(
        "value", ["bogus", "", "logdet,logdet"], ids=["unknown", "empty", "repeated"]
    )
    def test_bad_estimators(self, tmp_path, linear22, value, capsys):
        simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
        recipe = str(tmp_path / "d.recipe.json")
        code, out, err = run(
            ["mc", "--recipe", recipe, "--reps", "2", "--estimators", value], capsys
        )
        assert (code, out) == (2, "")
        assert "--estimators" in err

    @pytest.mark.parametrize(
        "flag, value", [("--calibrate", "-2"), ("--alpha", "1.5"), ("--alpha", "0")]
    )
    def test_bad_test_flag(self, tmp_path, nested_files, flag, value, capsys):
        restricted, full = nested_files
        data = simulate(capsys, restricted, str(tmp_path / "d.csv"), n=50)
        code, out, err = run(
            ["test", "--restricted", restricted, "--full", full, "--data", data, flag, value],
            capsys,
        )
        assert (code, out) == (2, "")
        assert flag in err

    @pytest.mark.parametrize(
        "flag, value", [("--n", "0"), ("--alpha", "1.5"), ("--alpha", "-0.1")]
    )
    def test_bad_test_size_flag(self, flag, value, capsys):
        code, out, err = run(
            ["mc", "--experiment", "test-size", "--reps", "2", flag, value], capsys
        )
        assert (code, out) == (2, "")
        assert flag in err

    def test_simulate_has_no_optimizer_flags(self, tmp_path, linear22, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate", "--mode", "iid", "--model", linear22, "--gamma", "1,0;0,1",
                    "--n", "10", "--out", str(tmp_path / "x.csv"),
                    "--starts", "-4", "--max-iters", "0", "--grad-tol", "-1",
                ]
            )
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert all(flag in err for flag in ("--starts", "--max-iters", "--grad-tol"))
        assert not (tmp_path / "x.csv").exists()

    def test_weight_needs_gls(self, tmp_path, linear22, capsys):
        data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
        code, out, err = run(
            ["fit", "--cost", "logdet", "--model", linear22, "--data", data,
             "--weight", "not-a-matrix"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "--weight" in err

    @pytest.mark.parametrize("flag, value", [("--n", "7"), ("--alpha", "0.5")])
    def test_covariance_rejects_test_size_flags(self, tmp_path, linear22, flag, value, capsys):
        simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
        recipe = str(tmp_path / "d.recipe.json")
        code, out, err = run(["mc", "--recipe", recipe, "--reps", "2", flag, value], capsys)
        assert (code, out) == (2, "")
        assert flag in err

    def test_test_size_rejects_estimators(self, tmp_path, linear22, capsys):
        simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
        recipe = str(tmp_path / "d.recipe.json")
        code, out, err = run(
            ["mc", "--experiment", "test-size", "--recipe", recipe, "--reps", "2",
             "--estimators", "bogus"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "--estimators" in err

    def test_internal_value_error_propagates(self, tmp_path, linear22, capsys, monkeypatch):
        import logdetreg.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
        monkeypatch.setattr(cli, "fit_logdet", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["fit", "--model", linear22, "--data", data])


class TestNonFiniteReports:
    """A report is strict JSON or absent: no Infinity or NaN token."""

    @pytest.mark.parametrize("cost", ["mse", "gls", "fgls", "logdet"])
    def test_overflowing_outputs_exit_3(self, tmp_path, linear22, cost, capsys):
        # outputs of order 1e200: r^T r / n overflows, so Gamma_n does not
        # factor, with or without the ridge; the overflow is not a warning
        rng = np.random.default_rng(0)
        data = tmp_path / "huge.csv"
        save_csv(data, Dataset(rng.standard_normal((50, 2)), 1e200 * rng.standard_normal((50, 2))))
        out = tmp_path / "fit.json"
        code, stdout, err = run(
            ["fit", "--cost", cost, "--model", linear22, "--data", str(data), "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (3, "")
        assert err.startswith("error: Cholesky failed")  # and no overflow warning
        assert not out.exists()

    def test_emit_refuses_non_finite(self, tmp_path):
        out = tmp_path / "report.json"
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(NonFiniteReport):
                _emit({"value": [1.0, float(bad)]}, str(out))
        assert not out.exists()

    def test_non_finite_report_exit_3(self, tmp_path, linear22, capsys, monkeypatch):
        import logdetreg.cli as cli

        data = simulate(capsys, linear22, str(tmp_path / "d.csv"), n=50)
        monkeypatch.setattr(cli, "_fit_report", lambda *args: {"cost_value": float("nan")})
        code, stdout, err = run(["fit", "--model", linear22, "--data", data], capsys)
        assert (code, stdout) == (3, "")
        assert "non-finite" in err

    def test_failed_start_written_as_null(self):
        doc = _start_doc(StartRecord(1, np.inf, 0, 1, np.inf, "nonfinite_at_start"))
        assert (doc["final_cost"], doc["grad_norm"]) == (None, None)
        assert json.loads(json.dumps(doc, allow_nan=False))["termination"] == "nonfinite_at_start"
        kept = StartRecord(0, 0.5, 3, 4, 1e-7, "grad_tol")
        assert _start_doc(kept) == {"start_index": 0, "final_cost": 0.5, "iterations": 3,
                                    "evaluations": 4, "grad_norm": 1e-7,
                                    "termination": "grad_tol"}


def run_python(code: str, *args: str, cwd) -> subprocess.CompletedProcess:
    """``python -c code args`` in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


class TestNumpyOnlyRuntime:
    """numpy is the only runtime dependency; scipy is a test oracle."""

    def test_import_loads_no_scipy(self, tmp_path):
        done = run_python(
            "import sys, logdetreg.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
            cwd=tmp_path,
        )
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    def test_commands_run_with_scipy_blocked(self, tmp_path, nested_files):
        restricted, full = nested_files
        commands = [
            ["simulate", "--mode", "iid", "--model", restricted, "--gamma", "1,0.4;0.4,1",
             "--n", "80", "--out", "d.csv"],
            ["fit", "--cost", "logdet", "--model", full, "--data", "d.csv", "--out", "fit.json"],
            ["test", "--restricted", restricted, "--full", full, "--data", "d.csv",
             "--out", "test.json"],
            ["mc", "--experiment", "test-size", "--reps", "2", "--n", "60", "--out", "mc.json"],
        ]
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now fails\n"
            "from logdetreg.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
        )
        done = run_python(script, json.dumps(commands), cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        for name in ("d.csv", "d.recipe.json", "fit.json", "test.json", "mc.json"):
            assert (tmp_path / name).exists()
        assert 0.0 <= json.loads((tmp_path / "test.json").read_text())["p_value"] <= 1.0
