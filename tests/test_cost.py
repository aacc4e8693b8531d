from functools import partial

import numpy as np
import pytest

from logdetreg import ModelKind, ModelSpec, ParamVector, spd_from_symmetric
from logdetreg.cost import (
    CostReport,
    ResidualSet,
    empirical_covariance,
    gls_gradient,
    gls_terms,
    information,
    logdet_gradient,
    logdet_hessian,
    logdet_terms,
    mse_terms,
)
from logdetreg.errors import DimensionMismatch, NonIdentifiable, NotPositiveDefinite
from logdetreg.estimate import _objective, fisher_info
from conftest import (
    _residuals_oracle,
    fd_gradient,
    fd_jacobian,
    fisher_info_oracle,
    gls_cost,
    logdet_cost,
    logdet_gradient_entrywise,
    logdet_objective_oracle,
    make_instance,
    mse_cost,
    mse_gradient,
    residual_set,
    spd_inverse,
    trace_product,
    weighted_objective_oracle,
)


class TestEmpiricalCovariance:
    def test_d1_mean_of_squares(self):
        rs = ResidualSet(np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(empirical_covariance(rs).entries, [[1.0]])

    def test_two_orthogonal_rows(self):
        rs = ResidualSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(empirical_covariance(rs).entries, 0.5 * np.eye(2))

    def test_rank_deficient(self):
        with pytest.raises(NotPositiveDefinite):
            empirical_covariance(ResidualSet(np.array([[1.0, 2.0]])))


class TestResidualSet:
    @pytest.mark.parametrize(
        "residuals", [np.empty((0, 2)), np.ones(3), [[1.0, np.nan]], [[np.inf, 0.0]]],
        ids=["no_rows", "one_dimensional", "nan", "inf"],
    )
    def test_rejects_empty_or_non_finite(self, residuals):
        with pytest.raises(DimensionMismatch, match="residuals"):
            ResidualSet(residuals)


class TestMseCost:
    def test_zero(self):
        assert mse_cost(ResidualSet(np.zeros((3, 2)))) == 0.0

    def test_d1(self):
        assert mse_cost(ResidualSet(np.array([[1.0], [-1.0]]))) == 1.0

    def test_trace_identity(self):
        rs = ResidualSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert mse_cost(rs) == pytest.approx(np.trace(empirical_covariance(rs).entries))


class TestGlsCost:
    def test_identity_weight_equals_mse(self):
        rng = np.random.default_rng(7)
        rs = ResidualSet(rng.standard_normal((20, 2)))
        w = spd_from_symmetric(np.eye(2))
        assert gls_cost(rs, w) == pytest.approx(mse_cost(rs), rel=1e-12)

    def test_scalar_division(self):
        rs = ResidualSet(np.array([[2.0]]))
        w = spd_from_symmetric([[4.0]])
        assert gls_cost(rs, w) == pytest.approx(1.0)

    def test_trace_product_identity(self):
        rng = np.random.default_rng(8)
        rs = ResidualSet(rng.standard_normal((30, 2)))
        a = rng.standard_normal((2, 2))
        weight = spd_from_symmetric(a @ a.T + np.eye(2))
        expected = trace_product(spd_inverse(weight), empirical_covariance(rs).entries)
        assert gls_cost(rs, weight) == pytest.approx(expected, rel=1e-10)

    def test_dimension_mismatch(self):
        rs = ResidualSet(np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            gls_cost(rs, spd_from_symmetric(np.eye(3)))


class TestQuadraticGradients:
    @pytest.mark.parametrize("index", range(6))
    def test_mse_matches_finite_differences(self, index):
        spec, w, data = make_instance(index, n=60)

        def v_of(x):
            return mse_cost(residual_set(spec, ParamVector(x, spec), data))

        rep = mse_gradient(residual_set(spec, w, data))
        assert rep.value == v_of(w.values)
        fd = fd_gradient(v_of, w.values)
        assert np.max(np.abs(rep.gradient - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6

    @pytest.mark.parametrize("index", range(6))
    def test_gls_matches_finite_differences(self, index):
        spec, w, data = make_instance(index, n=60)
        weight = spd_from_symmetric([[2.0, 0.6], [0.6, 0.5]])

        def v_of(x):
            return gls_cost(residual_set(spec, ParamVector(x, spec), data), weight)

        rep = gls_gradient(residual_set(spec, w, data), weight)
        assert rep.value == v_of(w.values)
        fd = fd_gradient(v_of, w.values)
        assert np.max(np.abs(rep.gradient - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6


class TestModelLess:
    @pytest.mark.parametrize(
        "gradient",
        [mse_gradient, lambda rs: gls_gradient(rs, spd_from_symmetric(np.eye(2))), logdet_gradient],
        ids=["mse", "gls", "logdet"],
    )
    def test_gradient_needs_a_model(self, gradient):
        rs = ResidualSet(np.random.default_rng(12).standard_normal((20, 2)))
        with pytest.raises(DimensionMismatch, match="built without a model"):
            gradient(rs)


class TestLogdetCost:
    def test_d1_scalar_reduction(self):
        rng = np.random.default_rng(9)
        rs = ResidualSet(rng.standard_normal((25, 1)))
        assert logdet_cost(rs).value == pytest.approx(np.log(mse_cost(rs)), abs=1e-12)

    def test_diagonal_case(self):
        rs = ResidualSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert logdet_cost(rs).value == pytest.approx(2 * np.log(0.5), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(10)
        r = rng.standard_normal((40, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v0 = logdet_cost(ResidualSet(r)).value
        v1 = logdet_cost(ResidualSet(r @ q.T)).value
        assert v1 == pytest.approx(v0, abs=1e-9)


class TestLogdetGradient:
    def test_masked_column_zero_gradient(self):
        # a parameter F does not depend on has A_n(w_k) = 0, hence grad 0
        mask = np.array([True, True, True, True, False, True])
        spec = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
        rng = np.random.default_rng(11)
        w = ParamVector(rng.standard_normal(5), spec)
        z = rng.uniform(-1, 1, (50, 3))
        z[:, 1] = 0.0  # regressor 2 identically zero: columns (0,1) and (1,1)
        from logdetreg import Dataset
        from logdetreg.model import eval_batch

        y = eval_batch(spec, w, z) + rng.standard_normal((50, 2))
        rs = residual_set(spec, w, Dataset(z, y))
        rep = logdet_gradient(rs)
        # free-parameter index of grid entry (0,1) = 1
        assert rep.gradient[1] == pytest.approx(0.0, abs=1e-14)

    def test_d1_chain_rule(self):
        spec, w, data = make_instance(0, n=60, d=1)
        rs = residual_set(spec, w, data)
        rep = logdet_gradient(rs)
        mse_grad = -2.0 / rs.n * np.einsum("tik,ti->k", rs.jacobians, rs.residuals)
        np.testing.assert_allclose(rep.gradient, mse_grad / mse_cost(rs), rtol=1e-10)

    @pytest.mark.parametrize("index", range(12))
    def test_matches_finite_differences(self, index):
        spec, w, data = make_instance(index, n=80)

        def u_of(x):
            return logdet_cost(residual_set(spec, ParamVector(x, spec), data)).value

        fd = fd_gradient(u_of, w.values)
        rep = logdet_gradient(residual_set(spec, w, data))
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(rep.gradient - fd) / scale) < 1e-6

    @pytest.mark.parametrize("index", range(9))
    def test_trace_and_entrywise_forms_agree(self, index):
        spec, w, data = make_instance(index, n=60)
        rs = residual_set(spec, w, data)
        rep = logdet_gradient(rs)
        entrywise = logdet_gradient_entrywise(rs)
        assert np.max(np.abs(rep.gradient - entrywise)) < 1e-12

    def test_dgamma_symmetric(self):
        # each dGamma/dw_k = A_k + A_k^T is symmetric by construction
        from logdetreg.cost import _a_tensor

        spec, w, data = make_instance(4, n=40)
        rs = residual_set(spec, w, data)
        a = _a_tensor(rs)
        dgamma = a + a.transpose(0, 2, 1)
        np.testing.assert_array_equal(dgamma, dgamma.transpose(0, 2, 1))


class TestLogdetHessian:
    def test_linear_c_term_vanishes(self):
        # for a linear model the Hessian must be reproducible without any
        # second-derivative contribution
        spec, w, data = make_instance(0, n=50)
        assert spec.kind is ModelKind.LINEAR
        rs = residual_set(spec, w, data)
        rep = logdet_hessian(rs)

        def grad_of(x):
            return logdet_gradient(residual_set(spec, ParamVector(x, spec), data)).gradient

        fd = fd_jacobian(grad_of, w.values)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(rep.hessian - 0.5 * (fd + fd.T)) / scale) < 1e-6

    @pytest.mark.parametrize("index", range(12))
    def test_matches_fd_of_gradient(self, index):
        spec, w, data = make_instance(index, n=60)
        rs = residual_set(spec, w, data)
        rep = logdet_hessian(rs)

        def grad_of(x):
            return logdet_gradient(residual_set(spec, ParamVector(x, spec), data)).gradient

        fd = fd_jacobian(grad_of, w.values)
        fd = 0.5 * (fd + fd.T)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(rep.hessian - fd) / scale) < 1e-4

    def test_symmetric(self):
        spec, w, data = make_instance(5, n=60)
        rep = logdet_hessian(residual_set(spec, w, data))
        asym = np.abs(rep.hessian - rep.hessian.T)
        assert np.max(asym) <= 1e-10 * max(1.0, np.max(np.abs(rep.hessian)))

    def test_report_fields(self):
        spec, w, data = make_instance(1, n=40)
        rep = logdet_hessian(residual_set(spec, w, data))
        assert isinstance(rep, CostReport)
        assert rep.gradient is not None and rep.hessian is not None
        assert rep.gamma_n is not None


# make_instance's d = 2 instances by index, then instances (index, d) with
# d = 3 and d = 5 outputs: Cholesky factors and solves beyond 2 x 2
ORACLE_INSTANCES = [*range(12), *(pytest.param((i, d), id=f"{i}-d{d}")
                                  for d in (3, 5) for i in range(6))]


def oracle_instance(index):
    if isinstance(index, tuple):
        return make_instance(index[0], d=index[1])
    return make_instance(index)


class TestEvaluationPathOracle:
    """The BFGS log-det objective, ``information`` and ``fisher_info`` are
    bitwise those of the oracle path through the general-purpose wrappers
    (zero-filled grid, block-written pullback, ``np.diag`` log-det), on
    unmasked and masked linear specs and on masked and unmasked MLPs."""

    @staticmethod
    def points(spec, w):
        rng = np.random.default_rng(spec.param_count)
        yield w.values
        yield np.zeros(spec.param_count)
        for scale in (0.1, 3.0):
            yield w.values + scale * rng.standard_normal(spec.param_count)

    @staticmethod
    def assert_same(got, want):
        (f, g), (f_o, g_o) = got, want
        assert np.float64(f).tobytes() == np.float64(f_o).tobytes()
        assert (g is None) == (g_o is None)
        assert g is None or g.tobytes() == g_o.tobytes()

    @pytest.mark.parametrize("index", ORACLE_INSTANCES)
    def test_objective_bitwise(self, index):
        spec, w, data = oracle_instance(index)
        got, want = _objective(spec, data, logdet_terms), logdet_objective_oracle(spec, data)
        for x in self.points(spec, w):
            self.assert_same(got(x), want(x))
            assert np.isfinite(got(x)[0])

    @pytest.mark.parametrize("index", ORACLE_INSTANCES)
    def test_extreme_points_bitwise(self, index):
        # overflowing predictions and covariances take the infinite-cost
        # branches
        spec, w, data = oracle_instance(index)
        got, want = _objective(spec, data, logdet_terms), logdet_objective_oracle(spec, data)
        for value in (1e200, 1e308, -1e308):
            x = np.full(spec.param_count, value)
            x[::2] *= -1.0
            with np.errstate(over="ignore", invalid="ignore"):
                self.assert_same(got(x), want(x))

    @pytest.mark.parametrize("index", ORACLE_INSTANCES)
    def test_information_and_fisher_info_bitwise(self, index):
        spec, w, data = oracle_instance(index)
        for x in self.points(spec, w):
            info_o, sym_o, cov_o = fisher_info_oracle(spec, x, data)
            rs = residual_set(spec, ParamVector(x, spec), data)
            assert information(rs, empirical_covariance(rs)).tobytes() == info_o.tobytes()
            if cov_o is None:
                with pytest.raises(NonIdentifiable):
                    fisher_info(spec, ParamVector(x, spec), data)
                continue
            info_hat, cov = fisher_info(spec, ParamVector(x, spec), data)
            assert info_hat.entries.tobytes() == sym_o.tobytes()
            assert cov.tobytes() == cov_o.tobytes()

    @staticmethod
    def extreme_points(spec):
        for value in (1e200, 1e308, -1e308):
            x = np.full(spec.param_count, value)
            x[::2] *= -1.0
            yield x

    @staticmethod
    def weighted_pair(spec, data, cost):
        """(objective, oracle) of the MSE, or of the GLS cost at a fixed weight."""
        if cost == "mse":
            return _objective(spec, data, mse_terms), weighted_objective_oracle(spec, data)
        d = data.output_dim
        weight = spd_from_symmetric([[2.0, 0.6], [0.6, 0.5]] if d == 2 else
                                    np.eye(d) + 0.3 * (np.eye(d, k=1) + np.eye(d, k=-1)))
        return (_objective(spec, data, partial(gls_terms, weight=weight)),
                weighted_objective_oracle(spec, data, weight))

    @pytest.mark.parametrize("cost", ["mse", "gls"])
    @pytest.mark.parametrize("index", ORACLE_INSTANCES)
    def test_weighted_objective_bitwise(self, index, cost):
        spec, w, data = oracle_instance(index)
        got, want = self.weighted_pair(spec, data, cost)
        for x in self.points(spec, w):
            self.assert_same(got(x), want(x))
            assert np.isfinite(got(x)[0])

    @pytest.mark.parametrize("cost", ["mse", "gls"])
    @pytest.mark.parametrize("index", ORACLE_INSTANCES)
    def test_weighted_extreme_points_bitwise(self, index, cost):
        spec, _, data = oracle_instance(index)
        got, want = self.weighted_pair(spec, data, cost)
        for x in self.extreme_points(spec):
            with np.errstate(over="ignore", invalid="ignore"):
                self.assert_same(got(x), want(x))

    @pytest.mark.parametrize("index", ORACLE_INSTANCES)
    def test_gram_matrix_bitwise_symmetric(self, index):
        # the log-det cost factors r^T r / n without an asymmetry test; the
        # overflowing extreme points are checked too
        spec, w, data = oracle_instance(index)
        checked = 0
        for x in [*self.points(spec, w), *self.extreme_points(spec)]:
            with np.errstate(over="ignore", invalid="ignore"):
                found = _residuals_oracle(spec, data, x)
                if found is None:  # the prediction overflowed
                    continue
                r = found[0]
                m = r.T @ r / r.shape[0]
            assert m.tobytes() == m.T.tobytes()
            checked += 1
        assert checked >= 5
