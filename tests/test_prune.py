import logging

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
    bic_penalty,
    gen_series,
    spd_from_symmetric,
    ssm_prune,
)
from logdetreg import prune
from logdetreg.errors import InitialFitFailed, SingularDesign

OPTS = OptimOptions(n_starts=3, seed=17)


def sparse_linear_data(n=1000, seed=2):
    """Unconstrained 2x3 linear grid whose true coefficient matrix has
    zeros in the third column."""
    mask = np.ones(6, dtype=bool)
    mask[[2, 5]] = False
    truth = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
    w = ParamVector(np.array([1.0, -0.5, 0.8, 0.6]), truth)
    gamma = spd_from_symmetric([[1.0, 0.4], [0.4, 1.0]])
    data = gen_series(SimRecipe(SimMode.IID_REGRESSION, truth, w, gamma, n=n, seed=seed))
    return ModelSpec(ModelKind.LINEAR, 3, 2), data


class TestBicPenalty:
    def test_hand_value(self):
        # 15 free parameters at n = 1000
        assert bic_penalty(15, 1000) == pytest.approx(15.0 * np.log(1000.0) / 1000.0)
        assert bic_penalty(15, 1000) == pytest.approx(0.1036163, abs=1e-6)

    def test_linear_in_q(self):
        assert bic_penalty(2, 500) == pytest.approx(2.0 * bic_penalty(1, 500), rel=1e-12)

    def test_vanishes_with_n(self):
        assert bic_penalty(5, 10**9) < 1e-6


class TestSsmPrune:
    def test_recovers_sparse_support(self):
        full, data = sparse_linear_data()
        trace = ssm_prune(full, data, OPTS)
        # the two structurally-zero grid entries are the ones eliminated
        assert {s.frozen_grid_index for s in trace.steps} == {2, 5}
        expected = np.ones(6, dtype=bool)
        expected[[2, 5]] = False
        np.testing.assert_array_equal(trace.final_spec.effective_mask, expected)
        assert trace.final_fit.spec.param_count == 4

    def test_criterion_strictly_decreasing(self):
        full, data = sparse_linear_data(seed=3)
        trace = ssm_prune(full, data, OPTS)
        assert len(trace.steps) >= 1
        for step in trace.steps:
            assert step.criterion_after < step.criterion_before
        # consecutive steps chain: after_k == before_{k+1}
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert b.criterion_before == pytest.approx(a.criterion_after, abs=1e-12)

    def test_already_minimal_zero_steps(self):
        mask = np.ones(6, dtype=bool)
        mask[[2, 5]] = False
        truth = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
        w = ParamVector(np.array([1.0, -0.5, 0.8, 0.6]), truth)
        gamma = spd_from_symmetric([[1.0, 0.4], [0.4, 1.0]])
        data = gen_series(SimRecipe(SimMode.IID_REGRESSION, truth, w, gamma, n=1000, seed=4))
        trace = ssm_prune(truth, data, OPTS)
        assert trace.steps == ()
        np.testing.assert_array_equal(trace.final_spec.effective_mask, mask)

    def test_last_free_parameter_never_frozen(self, monkeypatch, caplog):
        # one free parameter: the baseline fit, no candidate refit, no warning
        mask = np.zeros(6, dtype=bool)
        mask[0] = True
        spec = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
        _, data = sparse_linear_data(n=200)
        fits = []
        real = prune.fit_logdet

        def recorded(spec, data, opts, x0=None):
            fits.append(x0)
            return real(spec, data, opts, x0=x0)

        monkeypatch.setattr(prune, "fit_logdet", recorded)
        with caplog.at_level(logging.WARNING, logger="logdetreg.prune"):
            trace = ssm_prune(spec, data, OPTS)
        assert (trace.steps, fits, caplog.text) == ((), [None], "")
        assert trace.final_spec is spec
        np.testing.assert_array_equal(trace.final_fit.w_hat.values,
                                      real(spec, data, OPTS).w_hat.values)

    def test_frozen_stays_frozen(self):
        full, data = sparse_linear_data(seed=5)
        trace = ssm_prune(full, data, OPTS)
        frozen = set()
        mask = np.ones(6, dtype=bool)
        for step in trace.steps:
            assert step.frozen_grid_index not in frozen
            assert mask[step.frozen_grid_index]
            mask[step.frozen_grid_index] = False
            frozen.add(step.frozen_grid_index)
        np.testing.assert_array_equal(trace.final_spec.effective_mask, mask)

    def test_gate_records_p_values(self):
        full, data = sparse_linear_data(seed=6)
        trace = ssm_prune(full, data, OPTS, gate=0.05)
        assert len(trace.steps) >= 1
        for step in trace.steps:
            assert step.p_value is not None
            assert step.p_value >= 0.05  # accepted eliminations were not rejected

    def test_ungated_p_values_none(self):
        full, data = sparse_linear_data(seed=7)
        trace = ssm_prune(full, data, OPTS)
        assert all(step.p_value is None for step in trace.steps)

    def test_gate_rejection_stops(self):
        # at level 0.99 the test rejects the first elimination the
        # criterion accepts, so pruning stops before it
        full, data = sparse_linear_data(seed=6)
        assert ssm_prune(full, data, OPTS).steps
        trace = ssm_prune(full, data, OPTS, gate=0.99)
        assert trace.steps == ()
        assert trace.final_spec == full

    def test_failed_candidate_skipped_with_warning(self, monkeypatch, caplog):
        # the refit that freezes grid entry 2 fails; the other candidates run
        full, data = sparse_linear_data()
        real = prune.fit_logdet

        def failing(spec, data, opts, x0=None):
            if x0 is not None and not spec.effective_mask[2]:
                raise SingularDesign("refit failed")
            return real(spec, data, opts, x0=x0)

        monkeypatch.setattr(prune, "fit_logdet", failing)
        with caplog.at_level(logging.WARNING, logger="logdetreg.prune"):
            trace = ssm_prune(full, data, OPTS)
        assert "candidate freeze of grid entry 2 failed: refit failed" in caplog.text
        assert [s.frozen_grid_index for s in trace.steps] == [5]
        assert trace.final_spec.effective_mask[2]

    def test_initial_fit_failed(self):
        spec = ModelSpec(ModelKind.LINEAR, 3, 2)
        data = Dataset(np.ones((2, 3)), np.ones((2, 2)))  # under-determined
        with pytest.raises(InitialFitFailed):
            ssm_prune(spec, data, OPTS)

    def test_deterministic(self):
        full, data = sparse_linear_data(seed=8)
        t1 = ssm_prune(full, data, OPTS)
        t2 = ssm_prune(full, data, OPTS)
        assert [s.frozen_grid_index for s in t1.steps] == [
            s.frozen_grid_index for s in t2.steps
        ]
        np.testing.assert_array_equal(t1.final_fit.w_hat.values, t2.final_fit.w_hat.values)
