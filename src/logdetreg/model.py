"""Parametric regression families with analytic parameter derivatives.

Three members: an unconstrained linear map, a masked (constrained) linear
map, and a one-hidden-layer tanh MLP.  Parameters live on a fixed "full
grid"; a boolean mask selects the free entries, and masked-out entries are
structurally zero.

Flattening order (stable contract for JSON round trips and pruning masks):

* linear / masked_linear: ``vec(W)`` row-major, ``W`` being the ``d x d'``
  coefficient matrix (``y = W z``).
* mlp: ``[a_1..a_H | c_1..c_H | b_1..b_H | output bias]`` with the ``a``
  block shaped ``(H, d')`` row-major, ``c`` shaped ``(H,)``, the ``b``
  block shaped ``(H, d)`` row-major, and the bias shaped ``(d,)``, for
  ``F_w(z) = sum_h b_h tanh(a_h . z + c_h) + bias``.

:func:`predictor` is the one-row forward map (``w`` unpacked once) of the
NAR recursion.  :func:`linearizer` resolves the input check, the mask and
the MLP layout once for a fit, and maps each parameter point to its
:class:`Linearization`: the batch prediction (the MLP's forward pass runs
feature-major, n on the fast axis) and, from the same forward pass, every
derivative the costs use.  :func:`eval_batch` is the prediction of one
such call; ``_mlp_blocks`` is the one statement of the MLP grid layout.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch


class ModelKind(str, enum.Enum):
    LINEAR = "linear"
    MASKED_LINEAR = "masked_linear"
    MLP = "mlp"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: family, dimensions and free-parameter mask."""

    kind: ModelKind
    input_dim: int
    output_dim: int
    hidden_units: int | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise DimensionMismatch("dimensions must be positive")
        if self.kind is ModelKind.MLP and (self.hidden_units is None or self.hidden_units < 1):
            raise DimensionMismatch("mlp requires hidden_units >= 1")
        if self.kind is not ModelKind.MLP and self.hidden_units is not None:
            raise DimensionMismatch("hidden_units applies to mlp only")
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != (self.full_param_count,):
                raise DimensionMismatch(
                    f"mask length {mask.shape} != full grid {self.full_param_count}"
                )
            if not mask.any():
                raise DimensionMismatch("mask frees no parameter")
            object.__setattr__(self, "mask", mask)

    @property
    def full_param_count(self) -> int:
        if self.kind is ModelKind.MLP:
            h = self.hidden_units
            return h * self.input_dim + h + h * self.output_dim + self.output_dim
        return self.output_dim * self.input_dim

    @property
    def param_count(self) -> int:
        """Number of free parameters K."""
        if self.mask is None:
            return self.full_param_count
        return int(self.mask.sum())

    @cached_property
    def effective_mask(self) -> np.ndarray:
        """The mask; for an unmasked spec, one read-only all-True array."""
        if self.mask is None:
            mask = np.ones(self.full_param_count, dtype=bool)
            mask.flags.writeable = False
            return mask
        return self.mask

    def with_frozen(self, grid_index: int) -> "ModelSpec":
        """Copy of this spec with one more grid entry frozen at zero."""
        mask = self.effective_mask.copy()
        if not mask[grid_index]:
            raise DimensionMismatch(f"grid entry {grid_index} already frozen")
        mask[grid_index] = False
        kind = self.kind
        if kind is ModelKind.LINEAR:
            kind = ModelKind.MASKED_LINEAR
        return replace(self, kind=kind, mask=mask)


@dataclass(frozen=True)
class ParamVector:
    """Flat vector of the free parameters, tied to its owning spec."""

    values: np.ndarray
    spec: ModelSpec

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        check_params(values, self.spec)
        object.__setattr__(self, "values", values)

    def full_grid(self) -> np.ndarray:
        """Expand to the full grid, masked entries set to zero."""
        return _full_grid(self.values, self.spec.mask, self.spec.full_param_count)


def check_params(x: np.ndarray, spec: ModelSpec) -> None:
    """Raise DimensionMismatch unless the float array ``x`` holds the
    ``spec.param_count`` free parameters, all finite."""
    if x.shape != (spec.param_count,):
        raise DimensionMismatch(f"expected {spec.param_count} parameters, got {x.shape}")
    if not np.isfinite(x).all():
        raise DimensionMismatch("parameters must be finite")


def _full_grid(x: np.ndarray, mask: np.ndarray | None, size: int) -> np.ndarray:
    """The free parameters ``x`` on a new grid of ``size`` entries, zero
    off ``mask`` (``None``: every entry free)."""
    if mask is None:
        return x.copy()
    grid = np.zeros(size)
    grid[mask] = x
    return grid


def _mlp_blocks(spec: ModelSpec, arr: np.ndarray):
    """The MLP grid layout: views of the a, c, b and bias blocks on the last
    axis of ``arr`` (a grid, a Jacobian, or an array of grid indices), with
    the a and b blocks split into ``(H, d')`` and ``(H, d)``."""
    h, din, dout = spec.hidden_units, spec.input_dim, spec.output_dim
    lead = arr.shape[:-1]
    i_c, i_b, i_bias = h * din, h * din + h, h * din + h + h * dout
    a = arr[..., :i_c].reshape(*lead, h, din)
    b = arr[..., i_b:i_bias].reshape(*lead, h, dout)
    return a, arr[..., i_c:i_b], b, arr[..., i_bias:]


def _check_inputs(spec: ModelSpec, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != spec.input_dim:
        raise DimensionMismatch(f"input dim {z.shape[-1]} != {spec.input_dim}")
    return z


def predictor(spec: ModelSpec, w: ParamVector):
    """The map ``z -> F_w(z)``, with ``w`` unpacked and its weight blocks
    transposed once: one (d',) row, such as a NAR step's input, gives its
    (d,) output, and a linear family's (n, d') batch its (n, d) outputs,
    both through ``ndarray.dot``.  The map does not check its input."""
    grid = w.full_grid()
    if spec.kind is ModelKind.MLP:
        a, c, b, bias = _mlp_blocks(spec, grid)
        a_t = a.T
        return lambda z: np.tanh(z.dot(a_t) + c).dot(b) + bias
    w_t = grid.reshape(spec.output_dim, spec.input_dim).T
    return lambda z: z.dot(w_t)


def eval_batch(spec: ModelSpec, w: ParamVector, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the model on an (n, d') input batch; returns (n, d), the
    prediction of :func:`linearizer` at ``w``."""
    return linearizer(spec, inputs)(w.values).pred


class Linearization(NamedTuple):
    """F_w on an (n, d') input batch and its parameter derivatives, all read
    from one forward pass.

    ``pred`` is the (n, d) prediction, which :func:`eval_batch` returns;
    ``pullback(v)`` is ``sum_t J_t^T v_t`` over the K free parameters for
    (n, d) weights ``v``; ``jacobian()`` gives the (n, d, K) per-row
    Jacobians; ``second_derivs_vdot(v)`` is the (K, K) matrix
    ``sum_t sum_i v[t, i] d2F_i(z_t)/dw_k dw_l``.  Neither contraction forms
    its per-row tensors.

    Linear families: the pullback is ``v^T z`` on the mask and the second
    derivatives are exact zeros.  The MLP works feature-major, with n on
    the fast axis: from ``z^T``, held once per fit, the forward pass gives
    the (H, n) hidden values ``t = tanh(a z^T + c)`` and the (d, n)
    prediction ``b^T t + bias``, and ``pred`` is its transposed (n, d)
    view.  With ``dt = 1 - t^2``, ``beta = b v^T`` (H, n) and
    ``zt = [z | 1]``, the pullback's a and c blocks are the columns of one
    product ``(beta dt) zt`` (the c block, ``sum_t (beta dt)_t``, is its
    last column), the b block is ``t v`` and the bias block ``sum_t v_t`` is
    the product ``v^T 1``; sums over the rows are products, not ``sum``
    reductions.  Second derivatives couple only parameters of one hidden
    unit; with ``zt`` (its ``a_h`` entries and ``c_h``) they are
    ``sum_t tanh''(u_ht) beta_ht zt_t zt_t^T`` on ``(a|c, a|c)`` and
    ``sum_t dt_ht zt_t v_t^T`` on ``(a|c, b_h)``.  A point forms only
    ``t`` and the prediction; the pullback, the Jacobian and the second
    derivatives each form ``dt`` when called, so a trial point rejected on
    its cost value costs the forward pass alone.
    """

    pred: np.ndarray
    pullback: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[], np.ndarray]
    second_derivs_vdot: Callable[[np.ndarray], np.ndarray]


def linearizer(spec: ModelSpec, inputs: np.ndarray) -> Callable[[np.ndarray], Linearization]:
    """The map from free parameters ``x`` to the :class:`Linearization` of
    F_w, ``w = ParamVector(x, spec)``, at the rows of ``inputs``, with the
    input check, the mask and (MLP) the feature-major inputs and grid
    layout resolved once for every point; the map does not check ``x``."""
    z = _check_inputs(spec, inputs)
    n, d, size = z.shape[0], spec.output_dim, spec.full_param_count
    mask, masked = spec.effective_mask, spec.mask is not None

    if spec.kind is not ModelKind.MLP:
        # every derivative of a linear map is the same at every point
        def jacobian():
            jac, idx = np.zeros((n, d, size)), np.arange(d)
            jac.reshape(n, d, d, spec.input_dim)[:, idx, idx, :] = z[:, None, :]
            return jac[:, :, mask]

        def pullback(v):
            return (v.T @ z).ravel()[mask]

        def second_vdot(v):
            return np.zeros((spec.param_count, spec.param_count))

        def linear_at(x):
            wmat = _full_grid(x, spec.mask, size).reshape(d, spec.input_dim)
            return Linearization(z @ wmat.T, pullback, jacobian, second_vdot)

        return linear_at

    # the grid layout of _mlp_blocks, fixed once per fit: the slices and
    # block shapes of the a, c, b and bias blocks, and the grid indices of
    # unit h's [a_h | c_h] and b_h entries, where its second derivatives go
    ia, ic, ib, ibias = _mlp_blocks(spec, np.arange(size))
    (sa, ha), (sc, _), (sb, hb), (sz, _) = [
        (slice(int(ix.flat[0]), int(ix.flat[-1]) + 1), ix.shape) for ix in (ia, ic, ib, ibias)]
    iac = np.concatenate([ia, ic[:, None]], axis=1)
    at_acac, at_acb, at_bac = ((iac[:, :, None], iac[:, None, :]),
                               (iac[:, :, None], ib[:, None, :]),
                               (ib[:, :, None], iac[:, None, :]))
    free = np.ix_(mask, mask)
    # sums over the rows as products: [z | 1] gives the a and c blocks in one
    # product, and a column of ones the bias block
    zt, ones = np.ascontiguousarray(z.T), np.ones(n)
    z1 = np.concatenate([z, ones[:, None]], axis=1)

    def mlp_at(x):
        grid = _full_grid(x, spec.mask, size) if masked else x  # unmasked: x is the grid
        a, c, b, bias = grid[sa].reshape(ha), grid[sc], grid[sb].reshape(hb), grid[sz]
        # the forward pass, feature-major: each bias added down the columns
        t = a @ zt
        t += c[:, None]
        np.tanh(t, out=t)
        out = b.T @ t
        out += bias[:, None]

        def pullback(v):
            delta = b @ v.T
            delta *= 1.0 - t * t
            ac = delta @ z1
            # the a, c, b and bias blocks, in the order of _mlp_blocks
            grad = np.concatenate([ac[:, :-1], ac[:, -1], t @ v, v.T @ ones], axis=None)
            return grad[mask] if masked else grad

        def jacobian():
            dt = 1.0 - t * t
            jac, idx = np.zeros((n, d, size)), np.arange(d)
            ja, jc, jb, jbias = _mlp_blocks(spec, jac)
            # a block: dF_i/da_{hj} = b[h,i] * dt[h,t] * z[t,j]
            ja[...] = np.einsum("hi,ht,tj->tihj", b, dt, z)
            # c block: dF_i/dc_h = b[h,i] * dt[h,t]
            jc[...] = np.einsum("hi,ht->tih", b, dt)
            # b block: dF_i/db_{hi'} = delta_{ii'} * t[h,t]
            jb[:, idx, :, idx] = t.T
            # output bias: identity
            jbias[...] = np.eye(d)
            return jac[:, :, mask]

        def second_vdot(v):
            dt = 1.0 - t * t
            ddt = -2.0 * t * dt  # tanh'' reusing the forward value
            acac = np.einsum("ht,tj,tk->hjk", ddt * (b @ v.T), z1, z1)
            acb = np.einsum("ht,tj,ti->hji", dt, z1, v)
            full = np.zeros((size, size))
            full[at_acac] = acac
            full[at_acb] = acb
            full[at_bac] = acb.transpose(0, 2, 1)
            return full[free]

        return Linearization(out.T, pullback, jacobian, second_vdot)

    return mlp_at


# --- model file round trip -------------------------------------------------

def spec_to_dict(spec: ModelSpec, params: ParamVector | None = None) -> dict:
    doc = {
        "kind": spec.kind.value,
        "input_dim": spec.input_dim,
        "output_dim": spec.output_dim,
    }
    if spec.hidden_units is not None:
        doc["hidden_units"] = spec.hidden_units
    if spec.mask is not None:
        doc["mask"] = [bool(x) for x in spec.mask]
    if params is not None:
        doc["params"] = [float(x) for x in params.values]
    return doc


def int_field(doc: dict, name: str, default: int | None = None) -> int:
    """The JSON integer ``doc[name]`` (``default`` when the field is absent
    and a default is given); raises KeyError for a missing field and
    TypeError naming the field for any other value, a bool, float or
    string included, quoted as JSON."""
    if name not in doc and default is not None:
        return default
    value = doc[name]
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"field {name!r} must be an integer, got {json.dumps(value)}")
    return value


def array_field(doc: dict, name: str, kind: type = float) -> np.ndarray:
    """The JSON list ``doc[name]``, lists nested in it allowed, as an array
    of ``kind``; TypeError naming the field, and quoting its value as JSON,
    unless every entry is a JSON number (``float``, a bool excluded) or a
    boolean (``bool``)."""
    def typed(v):
        if isinstance(v, list):
            return all(map(typed, v))
        return isinstance(v, (int, float)) and isinstance(v, bool) == (kind is bool)

    if not isinstance(doc[name], list) or not typed(doc[name]):
        what = "booleans" if kind is bool else "numbers"
        raise TypeError(f"field {name!r} must be a list of {what}, got {json.dumps(doc[name])}")
    return np.asarray(doc[name], dtype=kind)


def spec_from_dict(doc: dict) -> tuple[ModelSpec, ParamVector | None]:
    spec = ModelSpec(
        kind=ModelKind(doc["kind"]),
        input_dim=int_field(doc, "input_dim"),
        output_dim=int_field(doc, "output_dim"),
        hidden_units=int_field(doc, "hidden_units") if "hidden_units" in doc else None,
        mask=array_field(doc, "mask", bool) if "mask" in doc else None,
    )
    params = ParamVector(array_field(doc, "params"), spec) if "params" in doc else None
    return spec, params


def save_model(path, spec: ModelSpec, params: ParamVector | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec, params), fh, indent=2)
        fh.write("\n")


def load_model(path) -> tuple[ModelSpec, ParamVector | None]:
    with open(path, encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))
