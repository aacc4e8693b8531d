import json
import warnings
from functools import partial

import numpy as np
import pytest

from logdetreg import (
    CostKind,
    Dataset,
    ModelKind,
    ModelSpec,
    OptimOptions,
    ParamVector,
    SimMode,
    SimRecipe,
    fisher_info,
    fit_fgls,
    fit_gls,
    fit_logdet,
    fit_ols,
    gen_series,
    mc_null_calibrate,
    run_mc,
    save_model,
    spd_from_symmetric,
)
from logdetreg import cli, cost, estimate, model, optimize
from logdetreg.cli import main
from logdetreg.cost import (
    empirical_covariance,
    gls_terms,
    information,
    logdet_terms,
    mse_terms,
)
from logdetreg.data import save_csv
from logdetreg.errors import (
    AllStartsFailed,
    DimensionMismatch,
    NonIdentifiable,
    NotPositiveDefinite,
    SingularDesign,
    UnderDetermined,
)
from logdetreg.estimate import _objective, _wls
from logdetreg.optimize import bfgs_minimize, multi_start
from logdetreg.prune import ssm_prune
from logdetreg.simulate import bivariate_nar_recipe
from logdetreg.model import eval_batch
from conftest import make_instance, residual_set


OPTS = OptimOptions(n_starts=3, seed=17)


def linear_dataset(n=400, seed=13, gamma=None, spec=None, w=None):
    spec = spec or ModelSpec(ModelKind.LINEAR, 2, 2)
    w = w or ParamVector(np.array([0.5, -0.3, 0.2, 0.8]), spec)
    gamma = gamma or spd_from_symmetric([[1.0, 0.4], [0.4, 1.0]])
    return spec, w, gen_series(SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=n, seed=seed))


def mlp_dataset(n=400, seed=9):
    spec = ModelSpec(ModelKind.MLP, 1, 2, hidden_units=1)
    w = ParamVector(np.array([1.2, 0.0, 0.9, -0.7, 0.1, -0.2]), spec)
    gamma = spd_from_symmetric([[1.0, 0.7], [0.7, 1.0]])
    return spec, w, gen_series(SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=n, seed=seed))


def masked_design(seed, n=600):
    """A masked linear design drawn like acceptance criterion 8's."""
    rng = np.random.default_rng(seed)
    din = int(rng.integers(2, 4))
    mask = rng.random(2 * din) < 0.7
    mask[0] = True
    spec = ModelSpec(ModelKind.MASKED_LINEAR, din, 2, mask=mask)
    w = ParamVector(rng.uniform(-1.0, 1.0, spec.param_count), spec)
    a = rng.uniform(-0.95, 0.95)
    gamma = spd_from_symmetric([[1.0, a], [a, 1.0]])
    return spec, gen_series(SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=n, seed=seed + 7))


def ols_oracle(data):
    """Unconstrained OLS by numpy's least squares, row-major vec(W)."""
    return np.linalg.lstsq(data.inputs, data.outputs, rcond=None)[0].T.reshape(-1)


class TestFitOls:
    def test_exact_interpolation(self):
        spec = ModelSpec(ModelKind.LINEAR, 1, 1)
        data = Dataset(np.array([[1.0], [2.0]]), np.array([[2.0], [4.0]]))
        fit = fit_ols(spec, data, OPTS)
        assert fit.w_hat.values[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.cost_kind is CostKind.MSE

    def test_closed_form_matches_optimizer(self):
        # BFGS is the oracle for the weighted least-squares solve, on an
        # unconstrained and a masked spec, for the MSE and a GLS weight
        _, _, data = linear_dataset()
        identity = spd_from_symmetric(np.eye(2))
        weight = spd_from_symmetric([[2.0, 1.1], [1.1, 3.0]])
        opts = OptimOptions(n_starts=3, seed=17, grad_tol=1e-10)
        masked = ModelSpec(ModelKind.MASKED_LINEAR, 2, 2, mask=[True, False, True, True])
        costs = ((identity, mse_terms), (weight, partial(gls_terms, weight=weight)))
        for spec in (ModelSpec(ModelKind.LINEAR, 2, 2), masked):
            rs0 = residual_set(spec, ParamVector(np.zeros(spec.param_count), spec), data)
            for w, objective in costs:
                searched = multi_start(_objective(spec, data, objective), spec, opts)
                solved = _wls(rs0, w)
                assert np.max(np.abs(solved - searched.w_best.values)) < 1e-6
                # a tie within BFGS's no-representable-decrease threshold
                slack = optimize._SLACK * max(1.0, abs(searched.cost_best))
                assert _objective(spec, data, objective)(solved)[0] <= searched.cost_best + slack
        (record,) = fit_ols(spec, data, OPTS).optim.per_start
        assert (record.termination, record.iterations, record.evaluations) == ("closed_form", 0, 1)
        assert record.grad_norm < 1e-12

    def test_noiseless_mlp_zero_floor(self):
        spec = ModelSpec(ModelKind.MLP, 1, 1, hidden_units=1)
        w0 = ParamVector(np.array([1.0, 0.2, 1.5, -0.1]), spec)
        rng = np.random.default_rng(20)
        z = rng.uniform(-1, 1, (200, 1))
        data = Dataset(z, eval_batch(spec, w0, z))
        fit = fit_ols(spec, data, OptimOptions(n_starts=10, seed=3, grad_tol=1e-12))
        assert fit.cost_value <= 1e-10

    def test_under_determined_rejected(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        data = Dataset(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(UnderDetermined):
            fit_ols(spec, data, OPTS)

    @pytest.mark.parametrize("input_dim, output_dim", [(3, 2), (2, 1)])
    def test_data_dims_must_match_spec(self, input_dim, output_dim):
        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        data = Dataset(np.ones((50, input_dim)), np.ones((50, output_dim)))
        with pytest.raises(UnderDetermined, match="do not match"):
            fit_ols(spec, data, OPTS)

    def test_gamma_hat_consistent(self):
        spec, _, data = linear_dataset()
        fit = fit_ols(spec, data, OPTS)
        rs = residual_set(spec, fit.w_hat, data)
        np.testing.assert_allclose(
            fit.gamma_hat.entries, empirical_covariance(rs).entries, atol=1e-12
        )


class TestFitGls:
    def test_identity_weight_matches_ols(self):
        spec, _, data = linear_dataset()
        ols = fit_ols(spec, data, OPTS)
        gls = fit_gls(spec, data, spd_from_symmetric(np.eye(2)), OptimOptions(n_starts=3, seed=17, grad_tol=1e-9))
        assert np.max(np.abs(ols.w_hat.values - gls.w_hat.values)) < 1e-6

    def test_scaled_identity_same_minimizer(self):
        spec, _, data = linear_dataset()
        opts = OptimOptions(n_starts=3, seed=17, grad_tol=1e-9)
        a = fit_gls(spec, data, spd_from_symmetric(np.eye(2)), opts)
        b = fit_gls(spec, data, spd_from_symmetric(5.0 * np.eye(2)), opts)
        assert np.max(np.abs(a.w_hat.values - b.w_hat.values)) < 1e-6

    def test_any_spd_weight_matches_ols_for_linear(self):
        spec, _, data = linear_dataset()
        ols = fit_ols(spec, data, OPTS)
        weight = spd_from_symmetric([[2.0, 1.1], [1.1, 3.0]])
        gls = fit_gls(spec, data, weight, OptimOptions(n_starts=3, seed=17, grad_tol=1e-9))
        assert np.max(np.abs(ols.w_hat.values - gls.w_hat.values)) < 1e-6

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_weight_of_wrong_size_rejected(self, dim, kind, monkeypatch):
        # d = 2 outputs: the weight is checked before any solve or search
        spec, _, data = linear_dataset() if kind == "linear" else mlp_dataset()

        def forbidden(*args, **kwargs):
            raise AssertionError("a fit ran with a weight of the wrong size")

        monkeypatch.setattr(estimate, "_weighted_fit", forbidden)
        with pytest.raises(DimensionMismatch, match="weight"):
            fit_gls(spec, data, spd_from_symmetric(np.eye(dim)), OPTS)


class TestFitFgls:
    def test_linear_converges_round_one(self):
        spec, _, data = linear_dataset()
        fit = fit_fgls(spec, data, OPTS)
        # OLS round plus one GLS round that does not move the minimizer
        assert len(fit.rounds) == 2
        assert abs(fit.rounds[1] - fit.rounds[0]) < 1e-8
        assert fit.cost_kind is CostKind.LOGDET

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_logdet_on_masked_linear(self, seed):
        mask = np.ones(6, dtype=bool)
        mask[[2, 5]] = False
        spec = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
        w = ParamVector(np.array([1.0, -0.5, 0.8, 0.6]), spec)
        gamma = spd_from_symmetric([[1.81, 1.8], [1.8, 1.81]])
        data = gen_series(SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=500, seed=seed))
        opts = OptimOptions(n_starts=4, seed=17)
        direct = fit_logdet(spec, data, opts)
        fgls = fit_fgls(spec, data, opts)
        assert abs(direct.cost_value - fgls.cost_value) < 1e-4

    def test_mlp_instance(self):
        spec = ModelSpec(ModelKind.MLP, 1, 2, hidden_units=1)
        w = ParamVector(np.array([1.2, 0.0, 0.9, -0.7, 0.1, -0.2]), spec)
        gamma = spd_from_symmetric([[1.0, 0.7], [0.7, 1.0]])
        data = gen_series(SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=400, seed=9))
        opts = OptimOptions(n_starts=8, seed=21)
        direct = fit_logdet(spec, data, opts)
        fgls = fit_fgls(spec, data, opts)
        assert abs(direct.cost_value - fgls.cost_value) < 1e-4

    def test_round_zero_reports_optimizer_terminations(self, monkeypatch):
        # with this seed the single GLS start of round 0 ends "stalled"
        monkeypatch.setattr(estimate, "FGLS_ROUNDS", 1)
        spec = ModelSpec(ModelKind.MLP, 1, 2, hidden_units=1)
        w = ParamVector(np.array([1.2, 0.0, 0.9, -0.7, 0.1, -0.2]), spec)
        gamma = spd_from_symmetric([[1.0, 0.7], [0.7, 1.0]])
        data = gen_series(SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=200, seed=9))
        opts = OptimOptions(n_starts=1, seed=9)
        fit = fit_fgls(spec, data, opts)
        gls = fit_gls(spec, data, fit_ols(spec, data, opts).gamma_hat, opts)
        assert fit.optim.per_start == gls.optim.per_start
        assert [r.termination for r in fit.optim.per_start] == ["stalled"]
        assert fit.optim.converged
        assert fit.cost_value == fit.rounds[-1]

    @pytest.mark.parametrize("make", [lambda: masked_design(6000), lambda: mlp_dataset(n=200)[::2]],
                             ids=["masked_linear", "mlp"])
    def test_checks_dataset_once(self, make, monkeypatch):
        # the dataset cannot change between rounds: one check per fit
        calls = []
        check = estimate._check_size
        monkeypatch.setattr(estimate, "_check_size", lambda *args: calls.append(1) or check(*args))
        spec, data = make()
        fit = fit_fgls(spec, data, OptimOptions(n_starts=1, seed=17, max_iters=50))
        assert len(fit.rounds) >= 3
        assert len(calls) == 1

    def test_singular_round_covariance_raises(self):
        # OLS fits an all-zero second output exactly: the first GLS round's
        # covariance needs a ridge, which FGLS does not accept
        spec, _, data = linear_dataset()
        data = Dataset(data.inputs, np.column_stack([data.outputs[:, 0], np.zeros(data.n)]))
        with pytest.raises(NotPositiveDefinite, match="GLS residual covariance is singular"):
            fit_fgls(spec, data, OPTS)

    def test_round_sequence_improves(self):
        mask = np.ones(6, dtype=bool)
        mask[[2, 5]] = False
        spec = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
        w = ParamVector(np.array([1.0, -0.5, 0.8, 0.6]), spec)
        gamma = spd_from_symmetric([[1.81, 1.8], [1.8, 1.81]])
        data = gen_series(SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=500, seed=4))
        fit = fit_fgls(spec, data, OptimOptions(n_starts=4, seed=17))
        assert fit.rounds[-1] <= fit.rounds[0] + 1e-12


class TestWarmStart:
    def test_logdet_runs_once_from_x0(self):
        spec, w, data = mlp_dataset()
        x0 = w.values + 0.1
        fit = fit_logdet(spec, data, OPTS, x0=x0)
        x, f, reason, iters = bfgs_minimize(_objective(spec, data, logdet_terms), x0, OPTS)
        np.testing.assert_array_equal(fit.w_hat.values, x)
        assert fit.cost_value == f
        assert [(r.start_index, r.iterations, r.termination) for r in fit.optim.per_start] == [
            (0, iters, reason)
        ]
        fisher_info(spec, fit.w_hat, data)  # identifiable

    def test_gls_runs_once_from_x0(self, monkeypatch):
        # fit_fgls's second GLS round is one BFGS run from the first round's
        # estimate, weighted by the first round's residual covariance
        runs = []

        def recorded(objective, spec, opts, x0=None):
            outcome = multi_start(objective, spec, opts, x0=x0)
            runs.append((x0, outcome))
            return outcome

        monkeypatch.setattr(estimate, "multi_start", recorded)
        spec, _, data = mlp_dataset()
        fit = fit_fgls(spec, data, OPTS)
        assert len(runs) == len(fit.rounds) >= 3  # OLS, then the GLS rounds
        assert runs[1][0] is None and len(runs[1][1].per_start) == OPTS.n_starts
        (_, first), (x0, second) = runs[1], runs[2]
        np.testing.assert_array_equal(x0, first.w_best.values)
        weight = estimate._residual_covariance(cost.ResidualSet.from_model(spec, first.w_best, data))
        objective = _objective(spec, data, partial(gls_terms, weight=weight))
        x, f, reason, iters = bfgs_minimize(objective, x0, OPTS)
        np.testing.assert_array_equal(second.w_best.values, x)
        assert second.cost_best == f
        assert [(r.start_index, r.iterations, r.termination) for r in second.per_start] == [
            (0, iters, reason)
        ]


class TestFitLogdet:
    def test_grad_norm_recomputed_at_best_start(self):
        # the reported |grad| is the gradient at the returned weights; with
        # this seed (found by a search of seeds 0-399: 102, 243 and 370
        # qualify) the best start ends "stalled" above grad_tol and the fit
        # still counts as converged
        recipe = bivariate_nar_recipe(seed=370, n=200)
        spec, data = recipe.spec, gen_series(recipe)
        fit = fit_logdet(spec, data, OptimOptions(n_starts=2, seed=0, max_iters=200))
        best = next(r for r in fit.optim.per_start if r.final_cost == fit.cost_value)
        _, grad = _objective(spec, data, logdet_terms)(fit.w_hat.values)
        assert best.grad_norm == np.max(np.abs(grad))
        assert best.termination == "stalled" and best.grad_norm > 1e-6
        assert fit.optim.converged

    def test_d1_matches_ols(self):
        spec = ModelSpec(ModelKind.LINEAR, 3, 1)
        w = ParamVector(np.array([2.0, -1.0, 0.5]), spec)
        gamma = spd_from_symmetric([[0.5]])
        data = gen_series(SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=800, seed=5))
        ld = fit_logdet(spec, data, OptimOptions(n_starts=3, seed=6, grad_tol=1e-10))
        ols = fit_ols(spec, data, OPTS)
        assert np.max(np.abs(ld.w_hat.values - ols.w_hat.values)) < 1e-8

    def test_unconstrained_linear_matches_ols(self):
        spec, _, data = linear_dataset(gamma=spd_from_symmetric([[1.81, 1.8], [1.8, 1.81]]))
        ld = fit_logdet(spec, data, OptimOptions(n_starts=3, seed=6, grad_tol=1e-8))
        assert np.max(np.abs(ld.w_hat.values - ols_oracle(data))) < 1e-6

    def test_populates_info(self):
        spec, _, data = linear_dataset()
        fit = fit_logdet(spec, data, OPTS)
        info, cov = fisher_info(spec, fit.w_hat, data)
        assert info.dim == spec.param_count
        assert cov.shape == (spec.param_count, spec.param_count)
        assert fit.cost_kind is CostKind.LOGDET


class TestJacobianFreeObjective:
    """Every BFGS evaluation contracts through the model's pullback; the
    (n, d, K) Jacobian is built only for the information matrix, and a
    linear fit builds it once for all of its solves."""

    @pytest.fixture
    def jacobian_calls(self, monkeypatch):
        calls = []
        linearize = model.linearize

        def counted(*args):
            lin = linearize(*args)

            def jacobian():
                calls.append(1)
                return lin.jacobian()

            return lin._replace(jacobian=jacobian)

        monkeypatch.setattr(model, "linearize", counted)
        return calls

    def test_mlp_logdet_builds_one_jacobian(self, jacobian_calls):
        spec, _, data = mlp_dataset(n=200)
        fit = fit_logdet(spec, data, OptimOptions(n_starts=2, seed=0, max_iters=50))
        assert jacobian_calls == []
        fisher_info(spec, fit.w_hat, data)
        assert len(jacobian_calls) == 1  # fisher_info's information matrix

    def test_mlp_ols_builds_none(self, jacobian_calls):
        spec, _, data = mlp_dataset(n=200)
        fit_ols(spec, data, OptimOptions(n_starts=2, seed=0, max_iters=50))
        assert jacobian_calls == []

    @pytest.mark.parametrize("seed", [7000, 7004])
    def test_linear_logdet_builds_two(self, seed, jacobian_calls):
        # one at w = 0 for every FGLS round's solve, one in fisher_info
        spec, data = masked_design(seed)
        fit = fit_logdet(spec, data, OPTS)
        assert fit.optim.per_start[0].iterations >= 2
        assert len(jacobian_calls) == 1
        fisher_info(spec, fit.w_hat, data)
        assert len(jacobian_calls) == 2

    @pytest.mark.parametrize("seed", [6000, 6003, 6009])
    def test_linear_fgls_builds_one(self, seed, jacobian_calls):
        # one at w = 0, shared by the OLS solve and every GLS round
        spec, data = masked_design(seed)
        fit = fit_fgls(spec, data, OPTS)
        assert len(fit.rounds) >= 3
        assert len(jacobian_calls) == 1


class TestLinearizations:
    """A linear fit linearizes the model once at w = 0 and once per solve,
    and keeps the residual set of its last solve for its covariance."""

    @pytest.fixture
    def linearize_calls(self, monkeypatch):
        calls = []
        linearize = model.linearize

        def counted(*args):
            calls.append(1)
            return linearize(*args)

        monkeypatch.setattr(model, "linearize", counted)
        return calls

    @pytest.mark.parametrize("seed", [7000, 7004])
    def test_logdet_one_per_round(self, seed, linearize_calls):
        spec, data = masked_design(seed)
        fit = fit_logdet(spec, data, OPTS)
        rounds = fit.optim.per_start[0].iterations
        assert rounds >= 2
        assert len(linearize_calls) == 1 + (rounds + 1)

    def test_closed_form_one_solve(self, linearize_calls):
        spec, data = masked_design(7007)
        fit_ols(spec, data, OPTS)
        assert len(linearize_calls) == 2


class TestResidualCovariance:
    """A linear log-det fit forms Gamma_n once per round, and its gamma_hat
    is the last round's; a fit whose residuals are degenerate keeps a
    ridged covariance."""

    @pytest.mark.parametrize("seed", [7000, 7004])
    def test_logdet_one_gamma_per_round(self, seed, monkeypatch):
        formed, extra = [], []
        real = cost._covariance

        def counted(r):
            formed.append(1)
            return real(r)

        monkeypatch.setattr(cost, "_covariance", counted)
        monkeypatch.setattr(estimate, "_residual_covariance", lambda rs: extra.append(1))
        spec, data = masked_design(seed)
        fit = fit_logdet(spec, data, OPTS)
        rounds = fit.optim.per_start[0].iterations
        assert rounds >= 2
        assert (len(formed), len(extra)) == (rounds + 1, 0)
        want = real(cost.ResidualSet.from_model(spec, fit.w_hat, data).residuals)
        assert fit.gamma_hat.entries.tobytes() == want.entries.tobytes()
        assert fit.gamma_hat.chol.tobytes() == want.chol.tobytes()

    def test_interpolated_output_is_ridged(self):
        # OLS fits an all-zero second output exactly, so Gamma_n is singular
        spec, _, data = linear_dataset()
        data = Dataset(data.inputs, np.column_stack([data.outputs[:, 0], np.zeros(data.n)]))
        fit = fit_ols(spec, data, OPTS)
        assert fit.gamma_hat.regularized and fit.gamma_hat.entries[1, 1] > 0.0
        with pytest.raises(NotPositiveDefinite):
            empirical_covariance(cost.ResidualSet.from_model(spec, fit.w_hat, data))

    def test_plain_factor_when_it_exists(self):
        rs = cost.ResidualSet(np.random.default_rng(3).standard_normal((20, 2)))
        got, want = estimate._residual_covariance(rs), empirical_covariance(rs)
        assert not got.regularized
        assert got.entries.tobytes() == want.entries.tobytes()
        assert got.chol.tobytes() == want.chol.tobytes()

    @pytest.mark.parametrize(
        "residuals", [[[1.0, 1.0], [-1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]],
        ids=["rank_one", "zero"],
    )
    def test_singular_gram_ridged(self, residuals):
        # lam = 1e-8 trace / d, or 1e-8 when that is not positive
        r = np.array(residuals)
        m = r.T @ r / r.shape[0]
        lam = 1e-8 * np.trace(m) / 2 or 1e-8
        g = estimate._residual_covariance(cost.ResidualSet(r))
        assert g.regularized
        assert g.entries.tobytes() == (m + lam * np.eye(2)).tobytes()
        assert g.chol.tobytes() == np.linalg.cholesky(g.entries).tobytes()

    @pytest.mark.parametrize(
        "residuals",
        [[[10.0, 1e308], [1.0, 0.0]], [[1.0, 0.0, 1e308], [0.0, 1.0, 0.0]]],
        ids=["inf_off_diagonal", "inf_last_pivot"],
    )
    def test_overflowing_gram_rejected(self, residuals):
        # r^T r / n is [[50.5, inf], [inf, inf]], or finite but for its last
        # diagonal entry, whose pivot is then inf - inf: either factor holds
        # a NaN, and so does the factor at every ridge of the escalation
        r = np.array(residuals)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotPositiveDefinite):
            estimate._residual_covariance(cost.ResidualSet(r))


class TestPlugInInformation:
    """The ``fit --cost logdet`` report computes the plug-in information,
    once, bitwise as ``fisher_info`` at the reported estimate; no other
    report or command computes it."""

    @pytest.fixture
    def fisher_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return fisher_info(*args)

        monkeypatch.setattr(cli, "fisher_info", counted)
        return calls

    @staticmethod
    def fit_report(tmp_path, capsys, spec, data, cost="logdet"):
        save_model(tmp_path / "m.json", spec)
        save_csv(tmp_path / "d.csv", data)
        main(["fit", "--cost", cost, "--model", str(tmp_path / "m.json"),
              "--data", str(tmp_path / "d.csv"), "--starts", "2", "--seed", "0",
              "--max-iters", "50"])
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("make", [linear_dataset, mlp_dataset])
    def test_first_read_computes_once(self, make, fisher_calls, tmp_path, capsys):
        spec, _, data = make(n=200)
        doc = self.fit_report(tmp_path, capsys, spec, data)
        assert len(fisher_calls) == 1
        w_hat = ParamVector(np.array(doc["model"]["params"]), spec)
        info, cov = fisher_info(spec, w_hat, data)
        assert np.array(doc["info_hat"]).tobytes() == info.entries.tobytes()
        assert np.array(doc["asymptotic_cov"]).tobytes() == cov.tobytes()
        assert doc["identifiable"] is True

    def test_non_identifiable_first_read(self, fisher_calls, monkeypatch, tmp_path, capsys):
        # started with its hidden unit off (a = c = b = 0), the search moves
        # the bias only; with that unit off the information is singular
        spec = ModelSpec(ModelKind.MLP, 1, 1, hidden_units=1)
        rng = np.random.default_rng(32)
        data = Dataset(rng.uniform(-1, 1, (200, 1)), 0.3 + rng.standard_normal((200, 1)))
        fit = fit_logdet(spec, data, OPTS, x0=np.zeros(spec.param_count))
        assert np.all(fit.w_hat.values[:3] == 0.0)
        with pytest.raises(NonIdentifiable):
            fisher_info(spec, fit.w_hat, data)
        monkeypatch.setattr(cli, "fit_logdet", lambda *args: fit)
        doc = self.fit_report(tmp_path, capsys, spec, data)
        assert (doc["info_hat"], doc["asymptotic_cov"], doc["identifiable"]) == (None, None, False)
        assert len(fisher_calls) == 1

    def test_weighted_fits_read_none(self, fisher_calls, tmp_path, capsys):
        spec, data = masked_design(7007)
        for cost_name in ("mse", "gls", "fgls"):
            doc = self.fit_report(tmp_path, capsys, spec, data, cost_name)
            assert doc["cost"] == ("logdet" if cost_name == "fgls" else cost_name)
            assert (doc["info_hat"], doc["asymptotic_cov"], doc["identifiable"]) == (None, None, True)
        assert fisher_calls == []

    def test_callers_never_compute_it(self, monkeypatch, tmp_path, capsys):
        def forbidden(*args):
            raise AssertionError("fisher_info was called")

        monkeypatch.setattr(estimate, "fisher_info", forbidden)
        monkeypatch.setattr(cli, "fisher_info", forbidden)
        spec, w, data = mlp_dataset(n=200)
        fit_logdet(spec, data, OptimOptions(n_starts=1, seed=0, max_iters=20))
        full = ModelSpec(ModelKind.LINEAR, 3, 2)
        restricted = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=[1, 1, 0, 1, 1, 0])
        w = ParamVector(np.array([1.0, -0.5, 0.8, 0.6]), restricted)
        gamma = spd_from_symmetric([[1.0, 0.4], [0.4, 1.0]])
        recipe = SimRecipe(SimMode.IID_REGRESSION, restricted, w, gamma, n=200, seed=3)
        mc_null_calibrate(restricted, full, recipe, 2, 5, OPTS)
        run_mc(recipe, ["logdet"], 2, 5, OPTS)
        ssm_prune(full, gen_series(recipe), OPTS)
        paths = [str(tmp_path / name) for name in ("r.json", "f.json", "h0.csv")]
        save_model(paths[0], restricted)
        save_model(paths[1], full)
        save_csv(paths[2], gen_series(recipe))
        argv = ["test", "--restricted", paths[0], "--full", paths[1], "--data", paths[2]]
        assert main(argv) == 0
        assert main(argv + ["--calibrate", "2"]) == 0
        capsys.readouterr()


class TestFitBoundary:
    def test_overflowing_residual_is_infinite_cost(self):
        # the prediction -1.5e308 is finite; y - prediction overflows
        spec = ModelSpec(ModelKind.MLP, 1, 1, hidden_units=1)
        rng = np.random.default_rng(33)
        data = Dataset(rng.uniform(-1, 1, (50, 1)), 1e308 * (1.0 + 0.01 * rng.random((50, 1))))
        x = np.array([0.1, 0.0, 0.0, -1.5e308])
        assert np.isfinite(eval_batch(spec, ParamVector(x, spec), data.inputs)).all()
        for cost_fn in (logdet_terms, mse_terms):
            with np.errstate(over="ignore"):
                assert _objective(spec, data, cost_fn)(x) == (np.inf, None)

    def test_overflowing_start_fails_without_warning(self):
        # the fit scores the same point +inf inside the search, silently
        spec = ModelSpec(ModelKind.MLP, 1, 1, hidden_units=1)
        rng = np.random.default_rng(33)
        data = Dataset(rng.uniform(-1, 1, (50, 1)), 1e308 * (1.0 + 0.01 * rng.random((50, 1))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AllStartsFailed):
                fit_logdet(spec, data, OPTS, x0=np.array([0.1, 0.0, 0.0, -1.5e308]))

    @pytest.mark.parametrize("field", ["inputs", "outputs"])
    @pytest.mark.parametrize("fitter", [fit_ols, fit_logdet])
    def test_non_finite_data_rejected(self, field, fitter):
        spec, _, data = linear_dataset(n=50)
        bad = {"inputs": data.inputs.copy(), "outputs": data.outputs.copy()}
        bad[field][7, 1] = np.nan
        with pytest.raises(DimensionMismatch, match=f"dataset {field}"):
            fitter(spec, Dataset(**bad), OPTS)


class TestFisherInfo:
    def test_scalar_linear_hand_formula(self):
        # Linear d=1, d'=1: I = (1/sigma^2) (1/n) sum z_t^2
        spec = ModelSpec(ModelKind.LINEAR, 1, 1)
        rng = np.random.default_rng(30)
        z = rng.uniform(-1, 1, (300, 1))
        w0 = ParamVector(np.array([1.5]), spec)
        y = eval_batch(spec, w0, z) + 0.7 * rng.standard_normal((300, 1))
        data = Dataset(z, y)
        info, cov = fisher_info(spec, w0, data)
        rs = residual_set(spec, w0, data)
        sigma2 = empirical_covariance(rs).entries[0, 0]
        expected = np.mean(z**2) / sigma2
        assert info.entries[0, 0] == pytest.approx(expected, rel=1e-10)
        assert cov[0, 0] == pytest.approx(1.0 / (expected * data.n), rel=1e-10)

    def test_duplicated_regressor_non_identifiable(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, 1)
        rng = np.random.default_rng(31)
        z1 = rng.uniform(-1, 1, (100, 1))
        z = np.hstack([z1, z1])  # identical columns
        w = ParamVector(np.array([1.0, 1.0]), spec)
        y = eval_batch(spec, w, z) + rng.standard_normal((100, 1))
        with pytest.raises(NonIdentifiable):
            fisher_info(spec, w, Dataset(z, y))

    @pytest.mark.parametrize("index", [0, 1, 2, 5])
    def test_information_is_shared(self, index):
        # fisher_info's matrix is cost.information, symmetrized as every
        # SpdMatrix is, with no other arithmetic in between
        spec, w, data = make_instance(index, n=80)
        rs = residual_set(spec, w, data)
        info = information(rs, empirical_covariance(rs))
        np.testing.assert_array_equal(fisher_info(spec, w, data)[0].entries, 0.5 * (info + info.T))

    def test_hessian_matches_information_at_truth(self):
        # HU_n(w0)/2 ~= I0_hat at large n
        from logdetreg.cost import logdet_hessian

        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        w0 = ParamVector(np.array([0.5, -0.3, 0.2, 0.8]), spec)
        gamma = spd_from_symmetric([[1.81, 1.8], [1.8, 1.81]])
        data = gen_series(SimRecipe(SimMode.IID_REGRESSION, spec, w0, gamma, n=30_000, seed=8))
        rep = logdet_hessian(residual_set(spec, w0, data))
        info, _ = fisher_info(spec, w0, data)
        scale = np.max(np.abs(info.entries))
        assert np.max(np.abs(rep.hessian / 2.0 - info.entries)) / scale < 0.05


class TestSingularDesign:
    """A third regressor that duplicates the first leaves the least-squares
    and log-det minimizers on a flat valley: every linear fit refuses it."""

    @staticmethod
    def duplicated_design():
        rng = np.random.default_rng(40)
        z = rng.uniform(-1, 1, (200, 2))
        z = np.hstack([z, z[:, :1]])
        y = z[:, :2] @ np.array([[1.0, -0.5], [0.3, 0.8]]) + rng.standard_normal((200, 2))
        return Dataset(z, y)

    @pytest.mark.parametrize("fitter", ["ols", "gls", "logdet"])
    @pytest.mark.parametrize("masked", [False, True], ids=["unconstrained", "masked"])
    def test_rank_deficient_design_raises(self, fitter, masked):
        if masked:  # the first equation keeps both copies free
            spec = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=[1, 1, 1, 1, 0, 1])
        else:
            spec = ModelSpec(ModelKind.LINEAR, 3, 2)
        data = self.duplicated_design()
        weight = spd_from_symmetric([[2.0, 1.1], [1.1, 3.0]])
        fit = {
            "ols": lambda: fit_ols(spec, data, OPTS),
            "gls": lambda: fit_gls(spec, data, weight, OPTS),
            "logdet": lambda: fit_logdet(spec, data, OPTS),
        }[fitter]
        with pytest.raises(SingularDesign):
            fit()


class TestLinearLogdet:
    @pytest.mark.parametrize("seed", [7000, 7002, 7003, 7004, 7007])
    def test_matches_bfgs_oracle(self, seed, monkeypatch):
        # BFGS on U_n is the oracle for the iterated FGLS solution; each
        # round is block-coordinate descent, so U_n never rises across rounds
        spec, data = masked_design(seed)
        values = []
        real = cost.logdet_gradient

        def recorded(rs):
            report = real(rs)
            values.append(report.value)
            return report

        monkeypatch.setattr(cost, "logdet_gradient", recorded)
        fit = fit_logdet(spec, data, OPTS)
        monkeypatch.undo()
        searched = multi_start(_objective(spec, data, logdet_terms), spec, OPTS)
        assert abs(fit.cost_value - searched.cost_best) <= 1e-9
        (record,) = fit.optim.per_start
        assert record.termination == "grad_tol" and record.iterations == len(values) - 1
        assert record.evaluations == len(values)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_max_iters_caps_the_rounds(self):
        spec, data = masked_design(7000)
        fit = fit_logdet(spec, data, OptimOptions(max_iters=1, grad_tol=1e-14))
        (record,) = fit.optim.per_start
        assert (record.termination, record.iterations, record.evaluations) == ("max_iters", 1, 2)
        assert not fit.optim.converged

    def test_linear_fits_never_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a linear fit reached the optimizer")

        monkeypatch.setattr(estimate, "multi_start", forbidden)
        monkeypatch.setattr(optimize, "bfgs_minimize", forbidden)
        spec, data = masked_design(7007)
        fit_ols(spec, data, OPTS)
        fit_gls(spec, data, spd_from_symmetric([[2.0, 1.1], [1.1, 3.0]]), OPTS)
        fit_logdet(spec, data, OPTS, x0=np.zeros(spec.param_count))
        fit_fgls(spec, data, OPTS)
        ssm_prune(ModelSpec(ModelKind.LINEAR, spec.input_dim, 2), data, OPTS)
