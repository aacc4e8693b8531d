import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logdetreg import ModelKind, ModelSpec, ParamVector, load_model, save_model
from logdetreg.errors import DimensionMismatch
from logdetreg.model import eval_batch, linearize
from conftest import fd_jacobian, make_instance


def evaluate(spec, w, z):
    """F_w(z) at a single input."""
    return eval_batch(spec, w, np.asarray(z, dtype=float)[None, :])[0]


def jacobian_at(spec, w, z):
    """d x K Jacobian at a single input."""
    return linearize(spec, w, np.asarray(z, dtype=float)[None, :]).jacobian()[0]


class TestModelSpec:
    def test_param_counts(self):
        assert ModelSpec(ModelKind.LINEAR, 3, 2).param_count == 6
        mlp = ModelSpec(ModelKind.MLP, 2, 2, hidden_units=3)
        assert mlp.param_count == 3 * 2 + 3 + 3 * 2 + 2  # 17

    def test_masked_count(self):
        mask = np.array([True, False, True, True, False, False])
        spec = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
        assert spec.param_count == 3

    @pytest.mark.parametrize("input_dim, output_dim", [(0, 2), (2, 0), (-1, 1)])
    def test_dimensions_must_be_positive(self, input_dim, output_dim):
        with pytest.raises(DimensionMismatch, match="positive"):
            ModelSpec(ModelKind.LINEAR, input_dim, output_dim)

    def test_mlp_requires_hidden(self):
        with pytest.raises(DimensionMismatch):
            ModelSpec(ModelKind.MLP, 2, 2)

    def test_bad_mask_length(self):
        with pytest.raises(DimensionMismatch):
            ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=np.ones(5, dtype=bool))

    def test_with_frozen(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        sub = spec.with_frozen(1)
        assert sub.kind is ModelKind.MASKED_LINEAR
        assert sub.param_count == 3
        with pytest.raises(DimensionMismatch):
            sub.with_frozen(1)


class TestParamVector:
    def test_length_check(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        with pytest.raises(DimensionMismatch):
            ParamVector(np.zeros(3), spec)

    def test_finite_check(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, 1)
        with pytest.raises(DimensionMismatch):
            ParamVector(np.array([1.0, np.nan]), spec)

    def test_full_grid_places_zeros(self):
        mask = np.array([True, False, True])
        spec = ModelSpec(ModelKind.MASKED_LINEAR, 3, 1, mask=mask)
        w = ParamVector(np.array([2.0, 5.0]), spec)
        np.testing.assert_array_equal(w.full_grid(), [2.0, 0.0, 5.0])


class TestEval:
    def test_linear_identity_map(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        w = ParamVector(np.eye(2).reshape(-1), spec)
        np.testing.assert_allclose(evaluate(spec, w, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_mlp_zeroed_hidden(self):
        spec = ModelSpec(ModelKind.MLP, 2, 2, hidden_units=3)
        grid = np.zeros(spec.param_count)
        grid[-2:] = [0.5, -0.5]  # output bias only
        w = ParamVector(grid, spec)
        for z in ([0.0, 0.0], [3.0, -1.0]):
            np.testing.assert_allclose(evaluate(spec, w, np.array(z)), [0.5, -0.5])

    def test_mlp_scalar_hand_value(self):
        # F(z) = b * tanh(a z + c) + bias with a=1, c=0, b=2, bias=0, z=0.5
        spec = ModelSpec(ModelKind.MLP, 1, 1, hidden_units=1)
        w = ParamVector(np.array([1.0, 0.0, 2.0, 0.0]), spec)
        val = evaluate(spec, w, np.array([0.5]))[0]
        assert val == pytest.approx(2.0 * np.tanh(0.5), rel=1e-12)  # 0.92423...

    def test_dimension_mismatch(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        w = ParamVector(np.zeros(4), spec)
        with pytest.raises(DimensionMismatch):
            evaluate(spec, w, np.array([1.0, 2.0, 3.0]))

    def test_mlp_output_bound(self):
        rng = np.random.default_rng(6)
        spec = ModelSpec(ModelKind.MLP, 2, 2, hidden_units=3)
        w = ParamVector(rng.uniform(-2, 2, spec.param_count), spec)
        grid = w.full_grid()
        b = grid[3 * 2 + 3 : 3 * 2 + 3 + 3 * 2].reshape(3, 2)
        bias = grid[-2:]
        bound = np.abs(b).sum(axis=0) + np.abs(bias)
        z = rng.uniform(-50, 50, size=(500, 2))
        vals = eval_batch(spec, w, z)
        assert np.all(np.abs(vals) <= bound + 1e-12)


class TestJacobian:
    def test_linear_identity_case(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        w = ParamVector(np.eye(2).reshape(-1), spec)
        jac = jacobian_at(spec, w, np.array([1.0, 2.0]))
        np.testing.assert_allclose(jac, [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]])

    def test_mlp_scalar_db(self):
        spec = ModelSpec(ModelKind.MLP, 1, 1, hidden_units=1)
        w = ParamVector(np.array([1.0, 0.0, 2.0, 0.0]), spec)
        jac = jacobian_at(spec, w, np.array([0.5]))
        assert jac[0, 2] == pytest.approx(np.tanh(0.5), rel=1e-12)  # 0.46212...

    @pytest.mark.parametrize("index", range(18))
    def test_matches_finite_differences(self, index):
        spec, w, data = make_instance(index, n=5)
        z = data.inputs[0]

        def f(x):
            return evaluate(spec, ParamVector(x, spec), z)

        fd = fd_jacobian(f, w.values)
        jac = jacobian_at(spec, w, z)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(jac - fd) / scale) < 1e-6

    def test_masked_invariance(self):
        # frozen entries are structurally zero: evaluation and derivatives
        # only see the free parameters
        mask = np.array([True, False, True, False, True, True])
        spec = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
        w = ParamVector(np.array([1.0, 2.0, 3.0, 4.0]), spec)
        z = np.array([0.3, -0.7, 1.1])
        jac = jacobian_at(spec, w, z)
        assert jac.shape == (2, 4)
        full = ModelSpec(ModelKind.LINEAR, 3, 2)
        wf = ParamVector(w.full_grid(), full)
        np.testing.assert_allclose(evaluate(spec, w, z), evaluate(full, wf, z))


def check_linearize(spec, seed, n=50):
    """linearize at a seeded random point: the prediction is bitwise
    eval_batch's, and the pullback matches the contraction of the record's
    Jacobians up to rounding.  The rounding of entry k scales with
    sum_t |J_t[:, k]| . |v_t|, not with the entry, which can cancel to far
    below it; over every seed test_random_masks can draw, the worst error
    is 2.4 eps of that sum, and the bound is 16 eps."""
    rng = np.random.default_rng(seed)
    w = ParamVector(rng.uniform(-1.5, 1.5, spec.param_count), spec)
    z = rng.standard_normal((n, spec.input_dim))
    v = rng.standard_normal((n, spec.output_dim))
    lin = linearize(spec, w, z)
    np.testing.assert_array_equal(lin.pred, eval_batch(spec, w, z))
    grad = lin.pullback(v)
    jac = lin.jacobian()
    ref = np.einsum("tik,ti->k", jac, v)
    scale = np.einsum("tik,ti->k", np.abs(jac), np.abs(v))
    assert grad.shape == (spec.param_count,)
    assert np.all(np.abs(grad - ref) <= 16 * np.finfo(float).eps * scale)


class TestLinearize:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(ModelKind.LINEAR, 3, 2),
            ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=[True, False, True, True, True, False]),
            ModelSpec(ModelKind.MLP, 2, 2, hidden_units=3),
            ModelSpec(ModelKind.MLP, 3, 2, hidden_units=4,
                      mask=np.arange(4 * 3 + 4 + 4 * 2 + 2) % 3 != 1),
        ],
        ids=["linear", "masked_linear", "mlp", "masked_mlp"],
    )
    def test_matches_jacobian_contraction(self, spec):
        check_linearize(spec, seed=spec.param_count, n=500)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    @example(5523)  # masked linear, 1 input, 2 outputs: an entry that cancels
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        din, dout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kind = ModelKind.MLP if rng.random() < 0.5 else ModelKind.MASKED_LINEAR
        hidden = int(rng.integers(1, 5)) if kind is ModelKind.MLP else None
        grid_k = ModelSpec(kind, din, dout, hidden).full_param_count
        mask = rng.random(grid_k) < 0.6
        mask[int(rng.integers(grid_k))] = True
        check_linearize(ModelSpec(kind, din, dout, hidden, mask), seed)


def vdot_against_fd(spec, w, data):
    """(contraction, FD Jacobian of the VJP x -> sum_t J_t(x)^T v_t) for a
    seeded random weight array v."""
    v = np.random.default_rng(spec.param_count).standard_normal(data.outputs.shape)

    def vjp(x):
        jac = linearize(spec, ParamVector(x, spec), data.inputs).jacobian()
        return np.einsum("tik,ti->k", jac, v)

    return linearize(spec, w, data.inputs).second_derivs_vdot(v), fd_jacobian(vjp, w.values)


class TestSecondDerivs:
    def test_linear_all_zero(self):
        z = np.array([[1.0, 2.0, 3.0], [-0.5, 0.1, 0.7]])
        v = np.array([[0.3, -1.2], [2.0, 0.4]])
        mask = np.array([True, False, True, True, True, False])
        for spec in (
            ModelSpec(ModelKind.LINEAR, 3, 2),
            ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask),
        ):
            w = ParamVector(np.arange(float(spec.param_count)), spec)
            sec = linearize(spec, w, z).second_derivs_vdot(v)
            assert sec.shape == (spec.param_count, spec.param_count)
            assert np.all(sec == 0.0)

    @pytest.mark.parametrize("index", [2, 5, 8, 11, 14])
    def test_schwarz_symmetry(self, index):
        spec, w, data = make_instance(index, n=3)
        sec, _ = vdot_against_fd(spec, w, data)
        assert np.max(np.abs(sec - sec.T)) <= 1e-14 * max(1.0, np.max(np.abs(sec)))

    @pytest.mark.parametrize("index", [2, 5, 8, 11, 14, 17])
    def test_matches_fd_of_jacobian(self, index):
        sec, fd = vdot_against_fd(*make_instance(index, n=3))
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(sec - fd) / scale) < 1e-5

    @pytest.mark.parametrize("index", [2, 11, 17])
    def test_single_output_matches_fd(self, index):
        sec, fd = vdot_against_fd(*make_instance(index, n=3, d=1))
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(sec - fd) / scale) < 1e-5


class TestModelFile:
    def test_round_trip(self, tmp_path):
        mask = np.array([True, True, False, True, True, True])
        spec = ModelSpec(ModelKind.MASKED_LINEAR, 3, 2, mask=mask)
        w = ParamVector(np.array([1.0, -0.5, 0.8, 0.6, 0.1]), spec)
        path = tmp_path / "m.json"
        save_model(path, spec, w)
        spec2, w2 = load_model(path)
        assert spec2.kind == spec.kind
        assert spec2.param_count == spec.param_count
        np.testing.assert_array_equal(spec2.mask, mask)
        np.testing.assert_array_equal(w2.values, w.values)

    def test_field_names(self, tmp_path):
        spec = ModelSpec(ModelKind.MLP, 2, 2, hidden_units=3)
        path = tmp_path / "m.json"
        save_model(path, spec)
        doc = json.loads(path.read_text())
        assert doc == {"kind": "mlp", "input_dim": 2, "output_dim": 2, "hidden_units": 3}
