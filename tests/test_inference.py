from dataclasses import replace

import numpy as np
import pytest

from logdetreg import (
    Dataset,
    ModelKind,
    ModelSpec,
    OptimOptions,
    ParamVector,
    SimMode,
    SimRecipe,
    chi2_sf,
    fit_logdet,
    gen_series,
    mc_null_calibrate,
    sn_statistic,
    spd_from_symmetric,
    tn_test,
)
from logdetreg import simulate
from logdetreg.errors import (
    EmptyCalibration,
    McFailure,
    NegativeStatistic,
    NotNested,
    NotPositiveDefinite,
)
from logdetreg.estimate import CostKind, FitResult
from logdetreg.inference import TestMethod as Method
from logdetreg.inference import _difference_statistic
from logdetreg.optimize import OptimOutcome, StartRecord
from conftest import calibration_quantile, replication_inputs


def nested_pair():
    mask = np.ones(6, dtype=bool)
    mask[[2, 5]] = False
    restricted = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
    full = ModelSpec(ModelKind.LINEAR, 3, 2)
    return restricted, full


def fake_fit(spec, cost_value, n=100, kind=CostKind.LOGDET):
    w = ParamVector(np.zeros(spec.param_count), spec)
    record = StartRecord(0, cost_value, 0, 1, 0.0, "grad_tol")
    outcome = OptimOutcome(w, cost_value, (record,), True)
    return FitResult(
        w_hat=w,
        cost_kind=kind,
        cost_value=cost_value,
        gamma_hat=spd_from_symmetric(np.eye(spec.output_dim)),
        n=n,
        optim=outcome,
    )


class TestChi2Sf:
    # x from 0 to 1e4: a fine grid where the tail is of order one, and a
    # geometric one out to where it underflows for every k here
    XS = np.unique(np.concatenate([np.linspace(0.0, 20.0, 401), np.geomspace(1e-10, 1e4, 1500)]))

    def test_at_zero(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(0.0, 5) == 1.0
        assert all(chi2_sf(0.0, k) == 1.0 for k in range(1, 61))

    @pytest.mark.parametrize("k", range(1, 61))
    def test_matches_scipy_gammaincc(self, k):
        from scipy.special import gammaincc

        vals = np.array([chi2_sf(float(x), k) for x in self.XS])
        ref = gammaincc(k / 2.0, self.XS / 2.0)
        live = ref > 1e-300
        assert np.all(np.abs(vals[live] - ref[live]) <= 1e-12 * ref[live])
        assert np.all(vals[~live] <= 1e-299)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) <= 0.0)

    def test_large_k_and_x_do_not_overflow(self):
        from scipy.special import gammaincc

        # about sqrt(k) terms around j = k / 2, each of relative error ~ eps * x
        for x in (9.99e5, 1e6, 1.003e6):
            assert chi2_sf(x, 10**6) == pytest.approx(gammaincc(5e5, x / 2.0), rel=1e-9)
        assert chi2_sf(1e4, 60) == 0.0
        assert chi2_sf(1e300, 3) == 0.0
        assert chi2_sf(np.inf, 2) == 0.0
        assert chi2_sf(1e-300, 400) == 1.0

    def test_k2_closed_form(self):
        # k = 2 is exponential(1/2): sf(x) = exp(-x/2)
        for x in (0.5, 2.0, 5.99146455):
            assert chi2_sf(x, 2) == pytest.approx(np.exp(-x / 2.0), rel=1e-12)
        assert chi2_sf(2.0 * np.log(20.0), 2) == pytest.approx(0.05, rel=1e-12)

    def test_k1_critical_value(self):
        # 95th percentile of chi-square(1)
        assert chi2_sf(3.8414588, 1) == pytest.approx(0.05, abs=1e-4)

    def test_k1_erfc_oracle(self):
        from scipy.special import erfc

        for x in (0.3, 1.7, 4.2):
            assert chi2_sf(x, 1) == pytest.approx(erfc(np.sqrt(x / 2.0)), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_monotone_decreasing_in_unit_interval(self, k):
        xs = np.linspace(0.0, 30.0, 50)
        vals = [chi2_sf(x, k) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chi2_sf(-0.1, 2)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)
        with pytest.raises(ValueError, match="integer"):
            chi2_sf(1.0, 2.5)


class TestNesting:
    def test_dof_counts_freed_parameters(self):
        restricted, full = nested_pair()
        report = tn_test(fake_fit(restricted, 1.0), fake_fit(full, 0.5), 0.05)
        assert report.dof == 2

    def test_identical_masks_not_nested(self):
        restricted, _ = nested_pair()
        with pytest.raises(NotNested):
            tn_test(fake_fit(restricted, 1.0), fake_fit(restricted, 0.5), 0.05)

    def test_different_grids_not_nested(self):
        _, full = nested_pair()
        other = ModelSpec(ModelKind.LINEAR, 2, 2)
        with pytest.raises(NotNested):
            tn_test(fake_fit(other, 1.0), fake_fit(full, 0.5), 0.05)

    def test_conflicting_masks_not_nested(self):
        mask_a = np.ones(6, dtype=bool)
        mask_a[[2, 5]] = False
        mask_b = np.ones(6, dtype=bool)
        mask_b[[0, 1]] = False
        a = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask_a)
        b = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask_b)
        with pytest.raises(NotNested):
            tn_test(fake_fit(a, 1.0), fake_fit(b, 0.5), 0.05)

    def test_different_sample_sizes_rejected(self):
        restricted, full = nested_pair()
        with pytest.raises(NotNested):
            tn_test(fake_fit(restricted, 1.0, n=100), fake_fit(full, 0.5, n=200), 0.05)

    def test_tn_requires_logdet_fits(self):
        restricted, full = nested_pair()
        with pytest.raises(NotNested):
            tn_test(
                fake_fit(restricted, 1.0, kind=CostKind.MSE),
                fake_fit(full, 0.5, kind=CostKind.MSE),
                0.05,
            )

    def test_sn_requires_mse_fits(self):
        restricted, full = nested_pair()
        with pytest.raises(NotNested):
            sn_statistic(fake_fit(restricted, 1.0), fake_fit(full, 0.5))


class TestTnStatistic:
    def test_equal_costs_give_zero_and_p_one(self):
        restricted, full = nested_pair()
        report = tn_test(fake_fit(restricted, 0.7), fake_fit(full, 0.7), 0.05)
        assert report.statistic == 0.0
        assert report.p_value == 1.0
        assert not report.reject
        assert report.method is Method.CHI_SQUARE_ASYMPTOTIC

    def test_hand_value(self):
        restricted, full = nested_pair()
        report = tn_test(fake_fit(restricted, 1.25, n=100), fake_fit(full, 1.0, n=100), 0.05)
        assert report.statistic == pytest.approx(25.0, rel=1e-12)
        assert report.p_value == pytest.approx(np.exp(-12.5), rel=1e-10)
        assert report.reject

    def test_tiny_negative_clamps_to_zero(self):
        # rounding-level inversions inside the 1e-6 * n window clamp to 0
        restricted, full = nested_pair()
        report = tn_test(
            fake_fit(restricted, 1.0 - 1e-9, n=100), fake_fit(full, 1.0, n=100), 0.05
        )
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_large_negative_raises(self):
        restricted, full = nested_pair()
        with pytest.raises(NegativeStatistic):
            tn_test(fake_fit(restricted, 0.0, n=100), fake_fit(full, 1.0, n=100), 0.05)

    def test_sn_same_arithmetic(self):
        restricted, full = nested_pair()
        stat = sn_statistic(
            fake_fit(restricted, 2.5, n=50, kind=CostKind.MSE),
            fake_fit(full, 2.0, n=50, kind=CostKind.MSE),
        )
        assert stat == pytest.approx(25.0, rel=1e-12)

    def test_rotation_invariance(self):
        # T_n built from log-det fits is invariant to rotating the outputs
        # when the restriction pattern (whole regressor columns) commutes
        # with the rotation
        restricted, full = nested_pair()
        w = ParamVector(np.array([1.0, -0.5, 0.8, 0.6]), restricted)
        gamma = spd_from_symmetric([[1.0, 0.4], [0.4, 1.0]])
        data = gen_series(SimRecipe(SimMode.IID_REGRESSION, restricted, w, gamma, n=80, seed=3))
        c, s = np.cos(0.3), np.sin(0.3)
        q = np.array([[c, -s], [s, c]])
        rotated = Dataset(data.inputs, data.outputs @ q.T)
        opts = OptimOptions(n_starts=3, seed=7, grad_tol=1e-9)
        t1 = tn_test(fit_logdet(restricted, data, opts), fit_logdet(full, data, opts), 0.05)
        t2 = tn_test(
            fit_logdet(restricted, rotated, opts), fit_logdet(full, rotated, opts), 0.05
        )
        assert t2.statistic == pytest.approx(t1.statistic, abs=1e-6)


def calibration_setup(n=80):
    restricted, full = nested_pair()
    w = ParamVector(np.array([1.0, -0.5, 0.8, 0.6]), restricted)
    gamma = spd_from_symmetric([[1.0, 0.4], [0.4, 1.0]])
    recipe = SimRecipe(SimMode.IID_REGRESSION, restricted, w, gamma, n=n, seed=0)
    return restricted, full, recipe


class TestMcNullCalibrate:
    OPTS = OptimOptions(n_starts=2, seed=5)

    def test_deterministic_per_seed(self):
        restricted, full, recipe = calibration_setup()
        a = mc_null_calibrate(restricted, full, recipe, 5, 99, self.OPTS)
        b = mc_null_calibrate(restricted, full, recipe, 5, 99, self.OPTS)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.failures == 0

    def test_samples_sorted_nonnegative(self):
        restricted, full, recipe = calibration_setup()
        res = mc_null_calibrate(restricted, full, recipe, 6, 7, self.OPTS)
        assert res.samples.size == 6
        assert np.all(np.diff(res.samples) >= 0)
        assert np.all(res.samples >= 0)

    def test_p_value_bounds(self):
        restricted, full, recipe = calibration_setup()
        res = mc_null_calibrate(restricted, full, recipe, 5, 11, self.OPTS)
        # all draws exceed 0, none exceed +inf: (1 + count) / (R + 1)
        assert res.p_value(0.0) == 1.0
        assert res.p_value(np.inf) == pytest.approx(1.0 / 6.0)

    def test_seed_contract(self):
        # replication r fits both models on the recipe regenerated at the
        # data seed of (seed, r), with the optimizer seed opts.seed + 1_000_003 r;
        # the MLP fits stop early, so another optimizer seed gives other draws
        full = ModelSpec(ModelKind.MLP, 1, 2, hidden_units=1)
        mask = np.ones(6, dtype=bool)
        mask[1] = False  # the hidden bias, zero in the truth
        restricted = ModelSpec(ModelKind.MLP, 1, 2, hidden_units=1, mask=mask)
        w = ParamVector(np.array([1.2, 0.9, -0.7, 0.1, -0.2]), restricted)
        gamma = spd_from_symmetric([[1.0, 0.7], [0.7, 1.0]])
        recipe = SimRecipe(SimMode.IID_REGRESSION, restricted, w, gamma, n=80, seed=0)
        opts = OptimOptions(n_starts=2, seed=5, max_iters=30)
        res = mc_null_calibrate(restricted, full, recipe, 3, 11, opts)
        direct, other = [], []
        for r in range(3):
            data, fit_opts = replication_inputs(recipe, 11, r, opts)
            for stats, o in ((direct, fit_opts), (other, replace(fit_opts, seed=fit_opts.seed + 1))):
                fits = (fit_logdet(spec, data, o) for spec in (restricted, full))
                try:
                    stats.append(_difference_statistic(*fits))
                except NegativeStatistic:
                    stats.append(None)
        assert res.samples.tobytes() == np.sort(direct).tobytes()
        assert other != direct

    def test_zero_replications_rejected(self):
        restricted, full, recipe = calibration_setup()
        with pytest.raises(EmptyCalibration):
            mc_null_calibrate(restricted, full, recipe, 0, 1, self.OPTS)

    def test_unknown_statistic_rejected(self):
        restricted, full, recipe = calibration_setup()
        with pytest.raises(ValueError):
            mc_null_calibrate(
                restricted, full, recipe, 2, 1, self.OPTS, cost="bogus"
            )

    def test_callable_generator_path(self):
        restricted, full, recipe = calibration_setup()
        base = gen_series(recipe)
        gamma = spd_from_symmetric([[1.0, 0.4], [0.4, 1.0]])

        def generator(data_seed):
            from logdetreg import sample_gaussian
            from logdetreg.model import eval_batch

            eps = sample_gaussian(gamma, base.n, np.random.default_rng(data_seed))
            pred = eval_batch(recipe.spec, recipe.w_true, base.inputs)
            return Dataset(base.inputs, pred + eps)

        a = mc_null_calibrate(restricted, full, generator, 4, 21, self.OPTS)
        b = mc_null_calibrate(restricted, full, generator, 4, 21, self.OPTS)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.samples.size == 4

    def test_sn_statistic_path(self):
        restricted, full, recipe = calibration_setup()
        res = mc_null_calibrate(
            restricted, full, recipe, 4, 13, self.OPTS, cost="mse"
        )
        assert res.samples.size == 4
        assert np.all(res.samples >= 0)

    def test_failure_rate_aborts(self):
        restricted, full, _ = calibration_setup()

        def generator(data_seed):
            # 2 observations can never support a 6-parameter fit
            return Dataset(np.ones((2, 3)), np.ones((2, 2)))

        with pytest.raises(McFailure):
            mc_null_calibrate(restricted, full, generator, 4, 1, self.OPTS)

    def test_failures_counted_by_cause(self, monkeypatch):
        # one of 40 replications fails in its full fit
        restricted, full, recipe = calibration_setup()
        real, calls = simulate.ESTIMATORS["logdet"], []

        def fit(spec, data, opts):
            calls.append(spec)
            if len(calls) == 6:
                raise NotPositiveDefinite("planted failure")
            return real(spec, data, opts)

        monkeypatch.setitem(simulate.ESTIMATORS, "logdet", fit)
        res = mc_null_calibrate(restricted, full, recipe, 40, 1, self.OPTS)
        assert (res.failures, res.failure_causes) == (1, {"NotPositiveDefinite": 1})
        assert res.samples.size == 39
        assert mc_null_calibrate(restricted, full, recipe, 2, 1, self.OPTS).failure_causes == {}

    def test_generator_type_error_propagates(self):
        restricted, full, _ = calibration_setup()

        def generator(data_seed):
            raise TypeError("bug in the generator")

        with pytest.raises(TypeError, match="bug in the generator"):
            mc_null_calibrate(restricted, full, generator, 4, 1, self.OPTS)

    def test_fit_type_error_is_not_a_failed_replication(self, monkeypatch):
        # only package and linear-algebra errors count as failed
        # replications; a programming error must surface, not become McFailure
        restricted, full, recipe = calibration_setup()

        def broken(spec, data, opts):
            raise TypeError("bug in the estimator")

        monkeypatch.setitem(simulate.ESTIMATORS, "logdet", broken)
        with pytest.raises(TypeError, match="bug in the estimator"):
            mc_null_calibrate(restricted, full, recipe, 4, 1, self.OPTS)

    def test_quantile(self):
        restricted, full, recipe = calibration_setup()
        res = mc_null_calibrate(restricted, full, recipe, 5, 31, self.OPTS)
        assert calibration_quantile(res, 0.0) == res.samples[0]
        assert calibration_quantile(res, 1.0) == res.samples[-1]
