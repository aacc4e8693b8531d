import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from logdetreg import (
    ModelKind,
    ModelSpec,
    OptimOptions,
    ParamVector,
    SimMode,
    SimRecipe,
    fit_logdet,
    fit_ols,
    gen_series,
    run_mc,
    sample_gaussian,
    spd_from_symmetric,
)
from logdetreg import model, simulate
from logdetreg.errors import (
    DimensionMismatch,
    McFailure,
    NegativeStatistic,
    NonFiniteState,
    NotPositiveDefinite,
)
from logdetreg.model import eval_batch
from logdetreg.optimize import start_rng
from logdetreg.simulate import (
    _CHECK_STEPS,
    RNG_KIND,
    bivariate_nar_recipe,
    recipe_from_dict,
    recipe_to_dict,
    replicate,
)

from conftest import nar_oracle, oracle_recipes, replication_inputs


class TestSampleGaussian:
    def test_identity_covariance_large_sample(self):
        draws = sample_gaussian(spd_from_symmetric(np.eye(2)), 100_000, np.random.default_rng(1))
        cov = draws.T @ draws / draws.shape[0]
        assert np.max(np.abs(cov - np.eye(2))) < 0.02

    def test_correlated_covariance_large_sample(self, gamma_strong):
        draws = sample_gaussian(gamma_strong, 100_000, np.random.default_rng(2))
        cov = draws.T @ draws / draws.shape[0]
        assert 1.76 < cov[0, 1] < 1.84
        assert 1.77 < cov[0, 0] < 1.85
        assert np.max(np.abs(cov - gamma_strong.entries)) < 0.05

    def test_mean_near_zero(self, gamma_strong):
        draws = sample_gaussian(gamma_strong, 100_000, np.random.default_rng(3))
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    def test_int_seed_deterministic(self, gamma_strong):
        a = sample_gaussian(gamma_strong, 5, np.random.default_rng(42))
        b = sample_gaussian(gamma_strong, 5, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_generator_argument(self, gamma_strong):
        a = sample_gaussian(gamma_strong, 5, np.random.default_rng(9))
        b = sample_gaussian(gamma_strong, 5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (5, 2)


def linear_nar_recipe(coef=0.5, n=50, seed=0, burn_in=10, y0=None):
    spec = ModelSpec(ModelKind.LINEAR, 1, 1)
    w = ParamVector(np.array([coef]), spec)
    gamma = spd_from_symmetric([[0.25]])
    return SimRecipe(
        SimMode.NAR_PROCESS, spec, w, gamma, n=n, burn_in=burn_in, y0=y0, seed=seed
    )


class TestGenSeries:
    @pytest.mark.parametrize("n, burn_in", [(0, 10), (-3, 10), (50, -1)])
    def test_recipe_sizes_checked(self, n, burn_in):
        with pytest.raises(DimensionMismatch):
            linear_nar_recipe(n=n, burn_in=burn_in)

    def test_iid_shapes_and_determinism(self, gamma_strong):
        spec = ModelSpec(ModelKind.LINEAR, 3, 2)
        w = ParamVector(np.arange(6, dtype=float) / 6.0, spec)
        recipe = SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma_strong, n=40, seed=5)
        a, b = gen_series(recipe), gen_series(recipe)
        assert a.inputs.shape == (40, 3) and a.outputs.shape == (40, 2)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_different_seeds_differ(self, gamma_strong):
        spec = ModelSpec(ModelKind.LINEAR, 3, 2)
        w = ParamVector(np.arange(6, dtype=float) / 6.0, spec)
        r0 = SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma_strong, n=40, seed=5)
        r1 = SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma_strong, n=40, seed=6)
        assert not np.array_equal(gen_series(r0).outputs, gen_series(r1).outputs)

    def test_iid_residuals_are_the_noise(self, gamma_strong):
        # at the true parameters, residual covariance matches gamma0 within
        # Monte Carlo error
        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        w = ParamVector(np.array([0.5, -0.3, 0.2, 0.8]), spec)
        recipe = SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma_strong, n=20_000, seed=11)
        data = gen_series(recipe)
        resid = data.outputs - eval_batch(spec, w, data.inputs)
        cov = resid.T @ resid / data.n
        # entry se ~ sqrt(2) * 1.81 / sqrt(n) ~ 0.018; allow 4 se
        assert np.max(np.abs(cov - gamma_strong.entries)) < 4 * 0.02

    def test_nar_state_feedback_contract(self):
        # with d' == d the next input row is exactly the previous output
        data = gen_series(linear_nar_recipe(n=30, burn_in=0, y0=np.array([0.7])))
        np.testing.assert_array_equal(data.inputs[1:], data.outputs[:-1])
        assert data.inputs[0, 0] == 0.7

    def test_nar_burn_in_dropped(self):
        full = gen_series(linear_nar_recipe(n=60, burn_in=0, seed=3))
        trimmed = gen_series(linear_nar_recipe(n=50, burn_in=10, seed=3))
        np.testing.assert_array_equal(trimmed.outputs, full.outputs[10:])

    def test_nar_exogenous_columns(self, gamma_strong):
        # d' > d: extra input columns are exogenous uniforms in [-1, 1]
        spec = ModelSpec(ModelKind.LINEAR, 3, 2)
        w = ParamVector(0.1 * np.arange(6, dtype=float), spec)
        recipe = SimRecipe(SimMode.NAR_PROCESS, spec, w, gamma_strong, n=40, burn_in=0, seed=7)
        data = gen_series(recipe)
        np.testing.assert_array_equal(data.inputs[1:, :2], data.outputs[:-1])
        assert np.all(np.abs(data.inputs[:, 2]) <= 1.0)

    def test_nar_recursion_by_hand(self, gamma_strong):
        # from the recipe's seed stream: all noise (through chol), then the
        # exogenous uniforms, then z_t = [y_{t-1}, u_t] and y_t = F(z_t) + eps_t;
        # the burn-in rows are generated and dropped
        spec = ModelSpec(ModelKind.MLP, 3, 2, hidden_units=2)
        w = ParamVector(np.random.default_rng(5).uniform(-1.5, 1.5, spec.param_count), spec)
        recipe = SimRecipe(SimMode.NAR_PROCESS, spec, w, gamma_strong, n=12, burn_in=4, seed=21)
        rng = np.random.default_rng(np.random.SeedSequence([21]))
        eps = rng.standard_normal((16, 2)) @ gamma_strong.chol.T
        exo = rng.uniform(-1.0, 1.0, size=(16, 1))
        state, zs, ys = np.zeros(2), [], []
        for t in range(16):
            zs.append(np.concatenate([state, exo[t]]))
            state = eval_batch(spec, w, zs[-1][None, :])[0] + eps[t]
            ys.append(state)
        data = gen_series(recipe)
        np.testing.assert_allclose(data.inputs, np.array(zs)[4:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(data.outputs, np.array(ys)[4:], rtol=0, atol=1e-12)

    def test_y0_length_checked(self):
        with pytest.raises(DimensionMismatch, match="y0"):
            linear_nar_recipe(y0=np.array([0.5, 0.5]))

    def test_nar_requires_enough_inputs(self, gamma_strong):
        spec = ModelSpec(ModelKind.LINEAR, 1, 2)
        w = ParamVector(np.array([0.1, 0.2]), spec)
        with pytest.raises(DimensionMismatch):
            SimRecipe(SimMode.NAR_PROCESS, spec, w, gamma_strong, n=10)

    def test_explosive_recursion_raises(self):
        with pytest.raises(NonFiniteState):
            gen_series(linear_nar_recipe(coef=3.0, n=200, burn_in=0, y0=np.array([1.0])))

    def test_iid_non_finite_output_raises(self):
        # 1.5e308 * z overflows wherever both regressors share a sign
        spec = ModelSpec(ModelKind.LINEAR, 2, 1)
        w = ParamVector(np.array([1.5e308, 1.5e308]), spec)
        recipe = SimRecipe(SimMode.IID_REGRESSION, spec, w, spd_from_symmetric([[1.0]]), n=200)
        with np.errstate(over="ignore"):
            outputs = nar_oracle(recipe).outputs
        rows = np.flatnonzero(~np.isfinite(outputs[:, 0]))
        assert 0 < rows.size < recipe.n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match=f"non-finite output at row {rows[0]}$"):
                gen_series(recipe)

    def test_constant_map_recipe(self, gamma_strong):
        # MLP with zero output weights reduces to bias + noise
        spec = ModelSpec(ModelKind.MLP, 2, 2, hidden_units=1)
        # [a(1,2) | c(1) | b(1,2) | bias(2)]
        w = ParamVector(np.array([0.3, -0.4, 0.1, 0.0, 0.0, 2.0, -1.0]), spec)
        recipe = SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma_strong, n=20_000, seed=13)
        data = gen_series(recipe)
        assert np.max(np.abs(data.outputs.mean(axis=0) - [2.0, -1.0])) < 0.05

    def test_bivariate_nar_recipe_runs(self):
        recipe = bivariate_nar_recipe(seed=4, n=200)
        data = gen_series(recipe)
        assert data.n == 200
        assert recipe.burn_in == 0
        resid = data.outputs - eval_batch(recipe.spec, recipe.w_true, data.inputs)
        # residuals at the truth are the raw noise draws
        cov = resid.T @ resid / data.n
        assert np.max(np.abs(cov - recipe.gamma0.entries)) < 0.5

    def test_gamma_dimension_checked(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        w = ParamVector(np.zeros(4), spec)
        with pytest.raises(DimensionMismatch):
            SimRecipe(SimMode.IID_REGRESSION, spec, w, spd_from_symmetric([[1.0]]), n=10)


class TestGenSeriesOracle:
    """``gen_series`` tests divergence once per block of steps; its arrays
    and errors are those of the oracle loop, which tests every step."""

    @pytest.mark.parametrize("name", list(oracle_recipes()))
    def test_bitwise_equal_to_oracle(self, name):
        recipe = oracle_recipes()[name]
        got, want = gen_series(recipe), nar_oracle(recipe)
        assert got.inputs.shape == want.inputs.shape == (recipe.n, recipe.spec.input_dim)
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.outputs.tobytes() == want.outputs.tobytes()
        assert got.inputs.flags.c_contiguous and got.outputs.flags.c_contiguous
        assert not np.shares_memory(got.inputs, got.outputs)

    @pytest.mark.parametrize(
        "coef, y0, step",
        [(3.0, [1.0], 25), (-1.5, [1.0], 68), (0.5, [1e13], 0), (1.02, [1.0], 1367),
         (0.5, [np.nan], 0)],
        ids=["overflow_to_inf", "sign_alternating", "transient_exceedance", "second_block",
             "nan_state"],
    )
    def test_divergence_names_first_step(self, coef, y0, step):
        # the first runs on to inf after the cap; the third exceeds the cap
        # at step 0 only and decays back below it; the fourth crosses the
        # cap after the first block of steps
        recipe = linear_nar_recipe(coef=coef, n=5000, burn_in=0, y0=np.array(y0))
        message = f"recursion diverged at step {step}$"
        with pytest.raises(NonFiniteState, match=message):
            nar_oracle(recipe)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match=message):
                gen_series(recipe)

    def test_divergence_stops_within_one_block(self, monkeypatch):
        # a long series that diverges at step 25 runs at most one block
        steps = []
        predictor = model.predictor

        def counted(spec, w):
            step = predictor(spec, w)
            return lambda z: steps.append(1) or step(z)

        monkeypatch.setattr(model, "predictor", counted)
        recipe = linear_nar_recipe(coef=3.0, n=200_000, burn_in=0, y0=np.array([1.0]))
        with pytest.raises(NonFiniteState, match="step 25$"):
            gen_series(recipe)
        assert len(steps) <= _CHECK_STEPS
        assert len(steps) < recipe.n


class TestRecipeRoundTrip:
    def test_round_trip(self, gamma_strong):
        recipe = linear_nar_recipe(n=25, seed=9, y0=np.array([0.5]))
        back = recipe_from_dict(recipe_to_dict(recipe))
        assert back.mode is recipe.mode
        assert back.n == recipe.n and back.burn_in == recipe.burn_in
        assert back.seed == recipe.seed
        np.testing.assert_array_equal(back.y0, recipe.y0)
        np.testing.assert_array_equal(back.w_true.values, recipe.w_true.values)
        np.testing.assert_array_equal(back.gamma0.entries, recipe.gamma0.entries)
        np.testing.assert_array_equal(
            gen_series(back).outputs, gen_series(recipe).outputs
        )

    def test_burn_in_and_seed_default(self):
        doc = recipe_to_dict(linear_nar_recipe(burn_in=10, seed=9))
        del doc["burn_in"], doc["seed"]
        back = recipe_from_dict(doc)
        assert (back.burn_in, back.seed) == (100, 0)

    def test_missing_params_rejected(self, gamma_strong):
        doc = recipe_to_dict(linear_nar_recipe())
        del doc["model"]["params"]
        with pytest.raises(DimensionMismatch):
            recipe_from_dict(doc)


class TestSubRng:
    def test_counter_based_streams(self):
        a = start_rng(5, 0).standard_normal(4)
        b = start_rng(5, 0).standard_normal(4)
        c = start_rng(5, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestRunMc:
    OPTS = OptimOptions(n_starts=2, seed=5)

    def recipe(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        w = ParamVector(np.array([0.5, -0.3, 0.2, 0.8]), spec)
        gamma = spd_from_symmetric([[1.0, 0.4], [0.4, 1.0]])
        return SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=120, seed=0)

    def test_two_replications(self):
        report = run_mc(self.recipe(), ["mse", "logdet"], 2, 7, self.OPTS)
        assert list(report.estimators) == ["mse", "logdet"]  # requested order
        assert report.replications == 2
        assert report.rng_kind == RNG_KIND
        for name in ("logdet", "mse"):
            s = report.estimators[name]
            assert s.mean_gamma.shape == (2, 2)
            assert s.failures == 0
            assert len(s.gammas) == 2
            assert s.det_mean_gamma > 0

    def test_deterministic(self):
        a = run_mc(self.recipe(), ["logdet"], 3, 7, self.OPTS)
        b = run_mc(self.recipe(), ["logdet"], 3, 7, self.OPTS)
        np.testing.assert_array_equal(
            a.estimators["logdet"].mean_gamma, b.estimators["logdet"].mean_gamma
        )

    def test_shorter_run_is_prefix(self):
        # counter-based seeds: replication r does not depend on R
        short, long = (
            run_mc(self.recipe(), ["logdet"], reps, 7, self.OPTS).estimators["logdet"].gammas
            for reps in (2, 4)
        )
        assert len(short) == 2
        for a, b in zip(short, long[:2]):
            np.testing.assert_array_equal(a, b)

    def test_seed_contract(self):
        # task j of replication r fits the recipe regenerated at the data
        # seed of (seed, r) with the optimizer seed opts.seed + 1_000_003 r + j;
        # the MLP fits stop early, so another optimizer seed gives other gammas
        spec = ModelSpec(ModelKind.MLP, 1, 2, hidden_units=1)
        w = ParamVector(np.array([1.2, 0.0, 0.9, -0.7, 0.1, -0.2]), spec)
        gamma = spd_from_symmetric([[1.0, 0.7], [0.7, 1.0]])
        recipe = SimRecipe(SimMode.IID_REGRESSION, spec, w, gamma, n=80, seed=0)
        opts = OptimOptions(n_starts=2, seed=5, max_iters=8)
        report = run_mc(recipe, ["mse", "logdet"], 2, 7, opts)
        for r in range(2):
            for j, (name, fitter) in enumerate((("mse", fit_ols), ("logdet", fit_logdet))):
                data, fit_opts = replication_inputs(recipe, 7, r, opts, j)
                got = report.estimators[name].gammas[r]
                assert got.tobytes() == fitter(spec, data, fit_opts).gamma_hat.entries.tobytes()
                other = fitter(spec, data, replace(fit_opts, seed=fit_opts.seed + 1))
                assert got.tobytes() != other.gamma_hat.entries.tobytes()

    def test_too_few_replications(self):
        with pytest.raises(McFailure):
            run_mc(self.recipe(), ["logdet"], 1, 7, self.OPTS)

    def test_summary_counts_failures_by_cause(self, monkeypatch):
        # the logdet task fails on the 4th of 40 replications; mse on none
        calls = []

        def logdet(spec, data, opts):
            calls.append(opts.seed)
            if len(calls) == 4:
                raise NotPositiveDefinite("planted failure")
            return SimpleNamespace(gamma_hat=spd_from_symmetric(np.eye(2)))

        monkeypatch.setitem(simulate.ESTIMATORS, "logdet", logdet)
        report = run_mc(self.recipe(), ["logdet", "mse"], 40, 7, self.OPTS)
        ld, ms = report.estimators["logdet"], report.estimators["mse"]
        assert (ld.failures, ld.failure_causes) == (1, {"NotPositiveDefinite": 1})
        assert (ms.failures, ms.failure_causes) == (0, {})

    def test_unknown_estimator(self):
        with pytest.raises(McFailure):
            run_mc(self.recipe(), ["bogus"], 2, 7, self.OPTS)

    def test_repeated_estimator(self):
        # a repeated name would shift the optimizer seed of every later task
        with pytest.raises(McFailure, match="repeat"):
            run_mc(self.recipe(), ["mse", "mse", "logdet"], 2, 7, self.OPTS)

    def test_unknown_summary_name(self):
        report = run_mc(self.recipe(), ["mse"], 2, 7, self.OPTS)
        with pytest.raises(KeyError):
            report.estimators["logdet"]


class TestReplicateFailureCauses:
    """``replicate`` counts each task's failed replications by exception
    class, sorted by class name, and names the classes when it aborts."""

    @staticmethod
    def run(replications, failing):
        """replicate a task whose replication r raises ``failing[r]``."""
        def task(data, fit_opts):
            r = (fit_opts.seed - 5) // 1_000_003
            if r in failing:
                raise failing[r]("planted failure")
            return r

        def source(data_seed):
            return None

        return replicate(source, {"t": task}, replications, 7, OptimOptions(seed=5))

    def test_two_classes_counted_and_sorted(self):
        failing = {2: NotPositiveDefinite, 9: NegativeStatistic}
        results, causes = self.run(40, failing)
        assert results["t"] == {r: r for r in range(40) if r not in failing}
        assert causes == {"t": {"NegativeStatistic": 1, "NotPositiveDefinite": 1}}
        assert list(causes["t"]) == ["NegativeStatistic", "NotPositiveDefinite"]

    def test_no_failures_is_an_empty_count(self):
        assert self.run(3, {}) == ({"t": {0: 0, 1: 1, 2: 2}}, {"t": {}})

    def test_abort_names_the_classes(self):
        failing = {0: NotPositiveDefinite, 4: NegativeStatistic, 7: NegativeStatistic}
        want = "3/20 replications failed for 't' (NegativeStatistic: 2, NotPositiveDefinite: 1)"
        with pytest.raises(McFailure) as caught:
            self.run(20, failing)
        assert str(caught.value) == want
