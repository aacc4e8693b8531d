from functools import partial

import numpy as np
import pytest

from logdetreg import Dataset, ModelKind, ModelSpec, ParamVector, spd_from_symmetric
from logdetreg.cost import (
    ResidualSet,
    gls_terms,
    information,
    logdet_hessian,
    logdet_terms,
    mse_terms,
)
from logdetreg.errors import DimensionMismatch, NonIdentifiable, NotPositiveDefinite
from logdetreg.estimate import _objective, fisher_info
from logdetreg.model import eval_batch
from conftest import (
    _residuals_oracle,
    a_tensor,
    fd_gradient,
    fd_jacobian,
    fisher_info_oracle,
    gls_gradient,
    logdet_gradient,
    logdet_gradient_entrywise,
    logdet_objective_oracle,
    make_instance,
    mse_gradient,
    residual_set,
    spd_inverse,
    trace_product,
    weighted_objective_oracle,
)


def covariance(r):
    """Gamma_n of the residuals ``r``, as the log-det terms factor it."""
    return logdet_terms(np.asarray(r, dtype=float))[2]


class TestEmpiricalCovariance:
    def test_d1_mean_of_squares(self):
        np.testing.assert_allclose(covariance([[1.0], [-1.0]]).entries, [[1.0]])

    def test_two_orthogonal_rows(self):
        np.testing.assert_allclose(covariance([[1.0, 0.0], [0.0, 1.0]]).entries, 0.5 * np.eye(2))

    def test_rank_deficient(self):
        with pytest.raises(NotPositiveDefinite):
            covariance([[1.0, 2.0]])


class TestResidualSet:
    def test_one_linearizer_call(self):
        # the residuals y - F_w(z) and the Linearization they were read from
        spec, w, data = make_instance(2, n=30)
        r, lin = ResidualSet.from_model(spec, w, data)
        pred = eval_batch(spec, w, data.inputs)
        assert lin.pred.tobytes() == pred.tobytes()
        assert r.tobytes() == (data.outputs - pred).tobytes()

    @pytest.mark.parametrize("row", [[10.0, -10.0], [10.0, 10.0]], ids=["nan", "inf"])
    def test_rejects_empty_or_non_finite(self, row):
        # from_model's residuals are an (n, d) matrix by construction, so
        # the shape cases went with the bare constructor.  With both weights
        # 1e308 the prediction at (10, -10) is inf - inf, a NaN, and at
        # (10, 10) it is inf
        spec = ModelSpec(ModelKind.LINEAR, 2, 1)
        w = ParamVector(np.array([1e308, 1e308]), spec)
        data = Dataset(np.array([[1.0, 0.0], row]), np.zeros((2, 1)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DimensionMismatch, match="residuals must be finite"):
            ResidualSet.from_model(spec, w, data)


class TestMseCost:
    def test_zero(self):
        assert mse_terms(np.zeros((3, 2)))[0] == 0.0

    def test_d1(self):
        assert mse_terms(np.array([[1.0], [-1.0]]))[0] == 1.0

    def test_trace_identity(self):
        r = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert mse_terms(r)[0] == pytest.approx(np.trace(covariance(r).entries))


class TestGlsCost:
    def test_identity_weight_equals_mse(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal((20, 2))
        w = spd_from_symmetric(np.eye(2))
        assert gls_terms(r, w)[0] == pytest.approx(mse_terms(r)[0], rel=1e-12)

    def test_scalar_division(self):
        w = spd_from_symmetric([[4.0]])
        assert gls_terms(np.array([[2.0]]), w)[0] == pytest.approx(1.0)

    def test_trace_product_identity(self):
        rng = np.random.default_rng(8)
        r = rng.standard_normal((30, 2))
        a = rng.standard_normal((2, 2))
        weight = spd_from_symmetric(a @ a.T + np.eye(2))
        expected = trace_product(spd_inverse(weight), covariance(r).entries)
        assert gls_terms(r, weight)[0] == pytest.approx(expected, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gls_terms(np.ones((3, 2)), spd_from_symmetric(np.eye(3)))


class TestQuadraticGradients:
    @pytest.mark.parametrize("index", range(6))
    def test_mse_matches_finite_differences(self, index):
        spec, w, data = make_instance(index, n=60)

        def v_of(x):
            return mse_terms(residual_set(spec, ParamVector(x, spec), data).residuals)[0]

        rep = mse_gradient(residual_set(spec, w, data))
        assert rep.value == v_of(w.values)
        fd = fd_gradient(v_of, w.values)
        assert np.max(np.abs(rep.gradient - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6

    @pytest.mark.parametrize("index", range(6))
    def test_gls_matches_finite_differences(self, index):
        spec, w, data = make_instance(index, n=60)
        weight = spd_from_symmetric([[2.0, 0.6], [0.6, 0.5]])

        def v_of(x):
            return gls_terms(residual_set(spec, ParamVector(x, spec), data).residuals, weight)[0]

        rep = gls_gradient(residual_set(spec, w, data), weight)
        assert rep.value == v_of(w.values)
        fd = fd_gradient(v_of, w.values)
        assert np.max(np.abs(rep.gradient - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6


class TestLogdetCost:
    def test_d1_scalar_reduction(self):
        rng = np.random.default_rng(9)
        r = rng.standard_normal((25, 1))
        assert logdet_terms(r)[0] == pytest.approx(np.log(mse_terms(r)[0]), abs=1e-12)

    def test_diagonal_case(self):
        r = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert logdet_terms(r)[0] == pytest.approx(2 * np.log(0.5), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(10)
        r = rng.standard_normal((40, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v0 = logdet_terms(r)[0]
        v1 = logdet_terms(r @ q.T)[0]
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
        y = eval_batch(spec, w, z) + rng.standard_normal((50, 2))
        rep = logdet_gradient(residual_set(spec, w, Dataset(z, y)))
        # free-parameter index of grid entry (0,1) = 1
        assert rep.gradient[1] == pytest.approx(0.0, abs=1e-14)

    def test_d1_chain_rule(self):
        spec, w, data = make_instance(0, n=60, d=1)
        rs = residual_set(spec, w, data)
        rep = logdet_gradient(rs)
        r, lin = rs
        mse_grad = -2.0 / len(r) * np.einsum("tik,ti->k", lin.jacobian(), r)
        np.testing.assert_allclose(rep.gradient, mse_grad / mse_terms(r)[0], rtol=1e-10)

    @pytest.mark.parametrize("index", range(12))
    def test_matches_finite_differences(self, index):
        spec, w, data = make_instance(index, n=80)

        def u_of(x):
            return logdet_terms(residual_set(spec, ParamVector(x, spec), data).residuals)[0]

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
        spec, w, data = make_instance(4, n=40)
        a = a_tensor(residual_set(spec, w, data))
        dgamma = a + a.transpose(0, 2, 1)
        np.testing.assert_array_equal(dgamma, dgamma.transpose(0, 2, 1))


class TestLogdetHessian:
    def test_linear_c_term_vanishes(self):
        # for a linear model the Hessian must be reproducible without any
        # second-derivative contribution
        spec, w, data = make_instance(0, n=50)
        assert spec.kind is ModelKind.LINEAR
        hess = logdet_hessian(residual_set(spec, w, data))

        def grad_of(x):
            return logdet_gradient(residual_set(spec, ParamVector(x, spec), data)).gradient

        fd = fd_jacobian(grad_of, w.values)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(hess - 0.5 * (fd + fd.T)) / scale) < 1e-6

    @pytest.mark.parametrize("index", range(12))
    def test_matches_fd_of_gradient(self, index):
        spec, w, data = make_instance(index, n=60)
        hess = logdet_hessian(residual_set(spec, w, data))

        def grad_of(x):
            return logdet_gradient(residual_set(spec, ParamVector(x, spec), data)).gradient

        fd = fd_jacobian(grad_of, w.values)
        fd = 0.5 * (fd + fd.T)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(hess - fd) / scale) < 1e-4

    def test_symmetric(self):
        spec, w, data = make_instance(5, n=60)
        hess = logdet_hessian(residual_set(spec, w, data))
        asym = np.abs(hess - hess.T)
        assert np.max(asym) <= 1e-10 * max(1.0, np.max(np.abs(hess)))

    def test_report_fields(self):
        # the report is the (K, K) float array alone
        spec, w, data = make_instance(1, n=40)
        hess = logdet_hessian(residual_set(spec, w, data))
        assert isinstance(hess, np.ndarray) and hess.dtype == float
        assert hess.shape == (spec.param_count, spec.param_count)


# make_instance's d = 2 instances by index, then instances (index, d) with
# d = 3 and d = 5 outputs: Cholesky factors and solves beyond 2 x 2, on the
# LAPACK route
ORACLE_INSTANCES = [*range(12), *(pytest.param((i, d), id=f"{i}-d{d}")
                                  for d in (3, 5) for i in range(6))]


def oracle_instance(index):
    if isinstance(index, tuple):
        return make_instance(index[0], d=index[1])
    return make_instance(index)


class TestEvaluationPathOracle:
    """The BFGS log-det objective, ``information`` and ``fisher_info`` are
    bitwise those of the oracle path through the general-purpose wrappers
    (zero-filled grid, block-written pullback, Gamma_n factored by
    ``small_factor_oracle``: on index loops at d = 2, by LAPACK above), on unmasked and masked linear specs
    and on masked and unmasked MLPs."""

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
            r, lin = residual_set(spec, ParamVector(x, spec), data)
            assert information(lin.jacobian(), covariance(r)).tobytes() == info_o.tobytes()
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
                r = _residuals_oracle(spec, data, x)[0]
                if not np.all(np.isfinite(r)):  # the prediction overflowed
                    continue
                m = r.T @ r / r.shape[0]
            assert m.tobytes() == m.T.tobytes()
            checked += 1
        assert checked >= 5
