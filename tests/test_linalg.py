import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from logdetreg.errors import AsymmetricInput, DimensionMismatch, NotPositiveDefinite
from logdetreg.cost import logdet_terms
from logdetreg.linalg import factor_small, factor_symmetric, logdet, spd_from_symmetric
from conftest import cho_solve_oracle, small_factor_oracle, spd_inverse, trace_product

EPS = np.finfo(float).eps


class TestSpdFromSymmetric:
    def test_identity(self):
        g = spd_from_symmetric(np.eye(2))
        np.testing.assert_allclose(g.chol, np.eye(2))
        assert not g.regularized

    def test_hand_cholesky_pivots(self):
        # oracle: hand Cholesky of [[a,b],[b,a]] gives l11 = sqrt(a),
        # l22 = sqrt(a - b^2/a)
        g = spd_from_symmetric([[1.81, 1.8], [1.8, 1.81]])
        l11 = np.sqrt(1.81)
        l22 = np.sqrt(1.81 - 1.8**2 / 1.81)
        assert g.chol[0, 0] == pytest.approx(l11, rel=1e-12)  # 1.3454...
        assert g.chol[1, 1] == pytest.approx(l22, rel=1e-12)  # 0.14122...
        assert g.chol[0, 1] == 0.0

    def test_rank_one_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            spd_from_symmetric([[1.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize(
        "m", [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, np.inf]]]
    )
    def test_nan_factor_rejected(self, m):
        # both factor to a NaN without a factorization error
        with np.errstate(invalid="ignore"), pytest.raises(NotPositiveDefinite):
            spd_from_symmetric(m)

    @pytest.mark.parametrize(
        "m", [[[np.inf, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.inf]],
              [[np.inf, np.inf], [np.inf, np.inf]]],
        ids=["first_pivot", "last_pivot", "all_infinite"],
    )
    def test_infinite_diagonal_rejected(self, m):
        # each factors to an infinite pivot and no NaN without a
        # factorization error, the last one to [[inf, 0], [0, inf]]
        with np.errstate(invalid="ignore"), pytest.raises(NotPositiveDefinite):
            spd_from_symmetric(m)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(AsymmetricInput):
            spd_from_symmetric([[1.0, 0.5], [0.2, 1.0]])

    def test_small_asymmetry_symmetrized(self):
        m = np.array([[1.0, 0.5 + 1e-10], [0.5, 1.0]])
        g = spd_from_symmetric(m)
        np.testing.assert_array_equal(g.entries, g.entries.T)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            spd_from_symmetric(np.ones((2, 3)))

    def test_reconstruction_error(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            m = a @ a.T + np.eye(4)
            g = spd_from_symmetric(m)
            rel = np.linalg.norm(g.chol @ g.chol.T - g.entries) / np.linalg.norm(g.entries)
            assert rel < 1e-10

    def test_reconstruction_high_condition(self):
        # condition number up to 1e8
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
        m = q @ np.diag([1e8, 1.0, 1.0]) @ q.T
        g = spd_from_symmetric(0.5 * (m + m.T))
        rel = np.linalg.norm(g.chol @ g.chol.T - g.entries) / np.linalg.norm(g.entries)
        assert rel < 1e-10

    def test_solve(self):
        g = spd_from_symmetric([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(g.solve(np.array([2.0, 4.0])), [1.0, 1.0])


class TestLogdet:
    def test_identity(self):
        for d in (1, 2, 5):
            assert logdet(spd_from_symmetric(np.eye(d))) == 0.0

    def test_2x2_determinant_oracle(self):
        # oracle: det = ad - bc = 1.81^2 - 1.8^2 = 0.0361
        g = spd_from_symmetric([[1.81, 1.8], [1.8, 1.81]])
        assert logdet(g) == pytest.approx(np.log(1.81**2 - 1.8**2), abs=1e-12)

    def test_diagonal(self):
        g = spd_from_symmetric(np.diag([2.0, 3.0]))
        assert logdet(g) == pytest.approx(np.log(6.0), abs=1e-12)

    def test_inverse_negates_logdet(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            g = spd_from_symmetric(a @ a.T + np.eye(3))
            assert logdet(spd_inverse(g)) == pytest.approx(-logdet(g), abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        g = spd_from_symmetric(a @ a.T + np.eye(3))
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            rotated = spd_from_symmetric(q @ g.entries @ q.T)
            assert logdet(rotated) == pytest.approx(logdet(g), abs=1e-9)


def conditioned(d, cond, seed):
    """A d x d SPD matrix with eigenvalues spaced geometrically from 1 down
    to 1/cond, scaled by a random power of ten and rotated at random."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    m = q @ np.diag(np.geomspace(1.0, 1.0 / cond, d) * 10.0 ** rng.uniform(-3, 3)) @ q.T
    return spd_from_symmetric(0.5 * (m + m.T)), q


class TestSolve:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_bitwise_equal_to_cho_solve(self, d):
        # the oracle spells out the solve, L^{-T} L^{-1} b, independently
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        g = spd_from_symmetric(a @ a.T + np.eye(d))
        rhs = (
            rng.standard_normal(d),
            rng.standard_normal((d, 40)),
            rng.standard_normal((d, d)),
            rng.standard_normal((40, d)).T,  # Fortran-ordered view
            rng.standard_normal((d, 80))[:, ::2],  # strided view
        )
        for b in rhs:
            x = g.solve(b)
            assert x.shape == b.shape
            np.testing.assert_array_equal(x, cho_solve_oracle(g, b))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
    def test_agrees_with_scipy_cho_solve(self, d, cond):
        # Multiplying by the inverse is not backward stable as the
        # triangular solves of scipy's cho_solve are: its normwise backward
        # error |G x - b| / (|G| |x|) and its gap to cho_solve are both of
        # order eps * cond(G).  Both stay within 4 d eps cond(G), up to
        # cond 1e12, where _nonsingular stops; the right-hand sides include
        # the eigenvectors, the worst directions (measured: at most 0.43
        # and 0.93 eps * cond).
        for seed in range(20):
            g, q = conditioned(d, cond, seed)
            kappa = np.linalg.cond(g.entries)
            bound = 4 * d * EPS * kappa
            b = np.column_stack([q, np.random.default_rng(seed).standard_normal((d, 3))])
            x, ref = g.solve(b), cho_solve((g.chol, True), b)
            for j in range(b.shape[1]):
                xj = x[:, j]
                backward = np.linalg.norm(g.entries @ xj - b[:, j]) / (
                    np.linalg.norm(g.entries, 2) * np.linalg.norm(xj))
                assert backward <= bound
                assert np.linalg.norm(xj - ref[:, j]) <= bound * np.linalg.norm(ref[:, j])

    def test_inverse_symmetric_and_cached(self):
        for d in range(1, 9):
            g, _ = conditioned(d, 1e6, d)
            assert g.inverse is g.inverse
            np.testing.assert_array_equal(g.inverse, g.inverse.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        g = spd_from_symmetric([[2.0, 0.5], [0.5, 1.0]])
        b = np.ones((2, 3))
        b[1, 2] = bad
        with pytest.raises(ValueError):
            g.solve(b)

    def test_dimension_mismatch_rejected(self):
        g = spd_from_symmetric(np.eye(2))
        for b in (np.ones(3), np.ones((3, 2))):
            with pytest.raises(ValueError):
                g.solve(b)


class TestFactorSmall:
    """The factorization of the residual covariance, written out in Python
    floats at d <= 2 and the LAPACK route's above, checked against numpy's
    LAPACK routines and against the LAPACK route's rejections."""

    REJECTED = "^Cholesky failed under Reject policy$"

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
    def test_agrees_with_numpy(self, d, cond):
        # factor, inverse and log-det within 4 d eps cond of numpy's (the
        # log-det relative to max(1, |log det|), as each log adds a rounding
        # of its own; measured at most 0.25 of the bound over 200 seeds)
        for seed in range(20):
            m = conditioned(d, cond, seed)[0].entries
            bound = 4 * d * EPS * np.linalg.cond(m)
            g = factor_small(m)
            assert g.entries is m and not g.regularized
            ref = np.linalg.cholesky(m)
            assert np.linalg.norm(g.chol - ref) <= bound * np.linalg.norm(ref)
            np.testing.assert_array_equal(np.triu(g.chol, 1), 0.0)
            inv = np.linalg.inv(m)
            assert np.linalg.norm(g.inverse - inv) <= bound * np.linalg.norm(inv)
            np.testing.assert_array_equal(g.inverse, g.inverse.T)
            ld = np.linalg.slogdet(m)[1]
            assert abs(logdet(g) - ld) <= bound * max(1.0, abs(ld))

    @staticmethod
    def written_out_inputs(d):
        """Inputs of the d <= 2 route: residual Gram matrices, the
        conditioned matrices up to cond 1e12, a Gamma_0-like pair with
        correlation 1.8/1.81 and diagonal matrices, whose zero off-diagonal
        entries pin the signs of the zeros in L and the inverse."""
        for seed in range(8):
            r = np.random.default_rng([d, seed]).standard_normal((30, d))
            yield r.T @ r / 30
        for cond in (1.0, 1e3, 1e6, 1e9, 1e12):
            for seed in range(4):
                yield conditioned(d, cond, seed)[0].entries
        if d == 2:
            yield np.array([[1.81, 1.8], [1.8, 1.81]])
            yield np.array([[2.0, 0.0], [0.0, 3.0]])
            yield np.array([[2.0, -0.0], [-0.0, 3.0]])
        else:
            yield np.array([[3.0]])

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_bitwise_equal_to_oracle(self, d):
        r = np.random.default_rng(d).standard_normal((30, d))
        for m in [r.T @ r / 30, *(self.written_out_inputs(d) if d <= 2 else ())]:
            g = factor_small(m)
            chol, inv, ld = small_factor_oracle(g.entries)
            assert g.chol.tobytes() == chol.tobytes()
            assert g.inverse.tobytes() == inv.tobytes()
            assert np.float64(logdet(g)).tobytes() == np.float64(ld).tobytes()

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_larger_matrices_take_lapack_route(self, d):
        # above 2 x 2 the factor and the inverse are bitwise the LAPACK route's
        for seed in range(8):
            r = np.random.default_rng([d, seed]).standard_normal((30, d))
            for m in (r.T @ r / 30, conditioned(d, 1e8, seed)[0].entries):
                g, ref = factor_small(m), factor_symmetric(m)
                assert g.entries is m
                assert g.chol.tobytes() == ref.chol.tobytes()
                assert g.inverse.tobytes() == ref.inverse.tobytes()

    def test_inverse_is_cached(self):
        g = factor_small(np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert g.inverse is g.inverse
        np.testing.assert_allclose(g.solve(np.array([2.5, 1.5])), [1.0, 1.0], rtol=1e-15)

    @pytest.mark.parametrize(
        "m",
        [
            [[1.0, 2.0], [2.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[-1.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
            [[1e-300, 1e10], [1e10, 1.0]],
            [[np.nan, 0.0], [0.0, 1.0]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[1.0, 0.0], [0.0, np.nan]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, np.inf]],
            [[-np.inf, 0.0], [0.0, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
            [[1.0, -np.inf], [-np.inf, 1.0]],
            [[np.inf, np.inf], [np.inf, np.inf]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.inf]],
            [[0.0]],
            [[np.nan]],
            [[np.inf]],
        ],
        ids=["indefinite", "rank_one", "zero", "negative_1x1", "rank_two_3x3",
             "overflowing_pivot", "nan_first_pivot", "nan_off_diagonal", "nan_last_pivot",
             "inf_first_pivot", "inf_last_pivot", "minus_inf_pivot", "inf_off_diagonal",
             "minus_inf_off_diagonal", "all_infinite", "inf_last_pivot_3x3", "zero_1x1",
             "nan_1x1", "inf_1x1"],
    )
    def test_rejections_match_lapack_route(self, m):
        # the same matrices fail with the same text as on the LAPACK route,
        # a NaN or infinite entry included, which a `<= 0` pivot test alone
        # would let through
        m = np.array(m)
        with pytest.raises(NotPositiveDefinite, match=self.REJECTED):
            factor_small(m)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(NotPositiveDefinite, match=self.REJECTED):
            factor_symmetric(m)

    def test_fewer_rows_than_outputs(self):
        r = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
        with pytest.raises(NotPositiveDefinite, match=r"^n=2 < d=3: covariance cannot be PD$"):
            logdet_terms(r)


class TestSpdInverse:
    def test_identity(self):
        g = spd_from_symmetric(np.eye(3))
        np.testing.assert_allclose(spd_inverse(g).entries, np.eye(3))

    def test_diagonal(self):
        g = spd_from_symmetric(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(spd_inverse(g).entries, np.diag([0.5, 0.25]))

    def test_multiply_back(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            g = spd_from_symmetric(a @ a.T + np.eye(4))
            prod = g.entries @ spd_inverse(g).entries
            rel = np.linalg.norm(prod - np.eye(4)) / np.linalg.norm(np.eye(4))
            assert rel < 1e-8


class TestTraceProduct:
    def test_identity_gives_trace(self):
        g = spd_from_symmetric(np.eye(3))
        a = np.arange(9.0).reshape(3, 3)
        assert trace_product(g, a) == pytest.approx(np.trace(a))

    def test_hand_2x2(self):
        g = spd_from_symmetric(np.diag([1.0, 2.0]))
        a = np.array([[3.0, 0.0], [0.0, 5.0]])
        assert trace_product(g, a) == pytest.approx(13.0)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3, 3))
        g = spd_from_symmetric(b @ b.T + np.eye(3))
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            assert trace_product(g, a) == pytest.approx(trace_product(g, a.T), abs=1e-12)

    def test_dimension_mismatch(self):
        g = spd_from_symmetric(np.eye(2))
        with pytest.raises(DimensionMismatch):
            trace_product(g, np.eye(3))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_logdet_inverse_property(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    a = rng.standard_normal((d, d))
    g = spd_from_symmetric(a @ a.T + np.eye(d))
    assert abs(logdet(spd_inverse(g)) + logdet(g)) < 1e-9
