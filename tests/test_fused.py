"""Fused attention and MLP nodes against their composite references.

Bounds, fixed before the nodes were written: forwards bit-equal to the
composition in float64, every gradient within 1e-12 max relative error,
float32 in gives float32 out, and nothing recorded under no_grad. The
float32 forwards turn out bit-equal to the composition too, and are held
to that. A node's ``residual`` is bit-equal to adding it outside, and the
nodes that recompute buffers in backward are bit-equal to keeping them.
"""

import numpy as np
import pytest

from gradcheck import max_relative_error
from reference import (composite_attention, composite_mlp,
                       keeping_layer_norm, keeping_mlp)
from vld.attention import AttentionWeights, multi_head_attention
from vld.errors import ShapeError
from vld.rng import Rng
from vld.tensor import (Tensor, _row_max, layer_norm, mlp, no_grad,
                        set_default_dtype)

ATTENTION_CASES = ("self", "readout", "distinct")
DTYPES = (np.float64, np.float32)
# The score shapes [..., Lq, Lk] of one desk step's attentions: vision
# blocks before and after the hub joins, the pruned last block, the hub
# readout, and the text encoder's blocks, the last one pruned.
DESK_SCORE_SHAPES = ((16, 4, 4, 9, 9), (16, 4, 4, 13, 13), (16, 4, 4, 5, 13),
                     (16, 4, 4, 16), (20, 4, 14, 14), (20, 4, 1, 14))


def attention_problem(case, seed=0):
    """(q, k, v, weights, output weighting) with every parameter random."""
    rng = Rng(700 + seed)
    w = AttentionWeights.create(16, 4, rng.split("w"))
    for _, p in w.named(""):
        p.data[...] = rng.normal(p.data.shape)
    q = Tensor(rng.normal((3, 2, 5, 16)), requires_grad=True)
    if case == "self":
        k = v = q
    elif case == "readout":     # keys are the values, of another length
        k = v = Tensor(rng.normal((3, 2, 9, 16)), requires_grad=True)
    else:
        k = Tensor(rng.normal((3, 2, 9, 16)), requires_grad=True)
        v = Tensor(rng.normal((3, 2, 9, 16)), requires_grad=True)
    return q, k, v, w, rng.normal(q.shape)


def mlp_problem(seed=0):
    rng = Rng(800 + seed)
    params = [Tensor(rng.normal(shape), requires_grad=True)
              for shape in ((3, 5, 16), (16, 64), (64,), (64, 16), (16,))]
    return params, rng.normal((3, 5, 16))


def layer_norm_problem(seed=0):
    rng = Rng(850 + seed)
    params = [Tensor(rng.normal(shape), requires_grad=True)
              for shape in ((3, 5, 16), (16,), (16,))]
    return params, rng.normal((3, 5, 16))


def in_dtype(dtype, fn):
    """fn() with ``dtype`` the default, restored to float64 after."""
    set_default_dtype(dtype)
    try:
        return fn()
    finally:
        set_default_dtype(np.float64)


def assert_bit_equal(got, want):
    """Two run() results hold the same arrays, dtype and bytes."""
    for got_arrays, want_arrays in zip(got, want):
        assert len(got_arrays) == len(want_arrays)
        for a, b in zip(got_arrays, want_arrays):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def run(fn, args, params, weighting):
    """Forward outputs and the gradient of every param under one weighting."""
    for p in params:
        p.grad = None
    outs = fn(*args)
    outs = outs if isinstance(outs, tuple) else (outs,)
    (outs[0] * Tensor(weighting)).sum().backward()
    return [o.data for o in outs], [np.array(p.grad) for p in params]


@pytest.mark.parametrize("case", ATTENTION_CASES)
def test_attention_matches_composite(case):
    q, k, v, w, weighting = attention_problem(case)
    params = list(dict.fromkeys([q, k, v])) + [p for _, p in w.named("")]
    fused_out, fused_grads = run(
        lambda: multi_head_attention(q, k, v, w), (), params, weighting)
    ref_out, ref_grads = run(
        lambda: composite_attention(q, k, v, w), (), params, weighting)
    assert np.array_equal(fused_out[0], ref_out[0])
    for fused, ref in zip(fused_grads, ref_grads):
        assert max_relative_error(fused, ref) < 1e-12


def test_mlp_matches_composite():
    params, weighting = mlp_problem()
    fused_out, fused_grads = run(mlp, params, params, weighting)
    ref_out, ref_grads = run(composite_mlp, params, params, weighting)
    assert np.array_equal(fused_out[0], ref_out[0])
    for fused, ref in zip(fused_grads, ref_grads):
        assert max_relative_error(fused, ref) < 1e-12


@pytest.mark.parametrize("case", ATTENTION_CASES)
def test_float32_in_float32_out(case):
    set_default_dtype(np.float32)
    try:
        q, k, v, w, weighting = attention_problem(case)
        params, mlp_weighting = mlp_problem()
        params32 = list(dict.fromkeys([q, k, v])) + [p for _, p in w.named("")]
        outs, grads = run(
            lambda: multi_head_attention(q, k, v, w), (), params32, weighting)
        mlp_outs, mlp_grads = run(mlp, params, params, mlp_weighting)
        ref_out = composite_attention(q, k, v, w).data
        ref_mlp = composite_mlp(*params).data
    finally:
        set_default_dtype(np.float64)
    for arr in outs + grads + mlp_outs + mlp_grads:
        assert arr.dtype == np.float32
    # The float32 path of training keeps its numerics too.
    assert np.array_equal(outs[0], ref_out)
    assert np.array_equal(mlp_outs[0], ref_mlp)


@pytest.mark.parametrize("case", ATTENTION_CASES)
def test_no_grad_records_nothing(case):
    q, k, v, w, _ = attention_problem(case)
    params, _ = mlp_problem()
    with no_grad():
        out = multi_head_attention(q, k, v, w)
        hidden = mlp(*params)
    for t in (out, hidden):
        assert t._parents == () and t._vjp is None and not t.requires_grad


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", ATTENTION_CASES)
def test_attention_residual_is_bit_equal_to_an_add(case, dtype):
    def both():
        q, k, v, w, weighting = attention_problem(case)
        r = Tensor(Rng(900).normal(q.shape), requires_grad=True)
        params = list(dict.fromkeys([q, k, v, r])) + [p for _, p in w.named("")]
        fused = run(lambda: multi_head_attention(q, k, v, w, residual=r), (),
                    params, weighting)
        added = run(lambda: r + multi_head_attention(q, k, v, w), (),
                    params, weighting)
        return fused, added

    fused, added = in_dtype(dtype, both)
    assert fused[0][0].dtype == dtype
    assert_bit_equal(fused, added)


@pytest.mark.parametrize("dtype", DTYPES)
def test_mlp_residual_is_bit_equal_to_an_add(dtype):
    def both():
        params, weighting = mlp_problem()
        r = Tensor(Rng(901).normal(weighting.shape), requires_grad=True)
        fused = run(lambda: mlp(*params, residual=r), (), params + [r],
                    weighting)
        added = run(lambda: r + mlp(*params), (), params + [r], weighting)
        return fused, added

    fused, added = in_dtype(dtype, both)
    assert fused[0][0].dtype == dtype
    assert_bit_equal(fused, added)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("node, keeping, problem", [
    (mlp, keeping_mlp, mlp_problem),
    (layer_norm, keeping_layer_norm, layer_norm_problem)])
def test_recomputed_buffers_give_the_kept_gradients(node, keeping, problem,
                                                    dtype):
    def both():
        params, weighting = problem()
        return (run(node, params, params, weighting),
                run(keeping, params, params, weighting))

    recomputed, kept = in_dtype(dtype, both)
    assert recomputed[0][0].dtype == dtype
    assert_bit_equal(recomputed, kept)


def test_residual_of_another_shape_is_shape_error():
    params, weighting = mlp_problem()
    with pytest.raises(ShapeError, match="residual"):
        mlp(*params, residual=Tensor(weighting[:, :1]))


@pytest.mark.parametrize("dtype", DTYPES)
def test_row_max_equals_numpy_max_bit_for_bit(dtype):
    rows = np.array([[0.0, -0.0], [-0.0, 0.0], [np.nan, 1.0], [1.0, np.nan],
                     [-np.inf, -np.inf], [np.inf, -np.inf]])
    arrays = [rows, rows[:, :1]]
    for i, shape in enumerate(DESK_SCORE_SHAPES + ((6, 1), (2, 3, 1))):
        a = Rng(950 + i).normal(shape)
        flat = a.reshape(-1)
        flat[::7], flat[3::11], flat[5::13] = np.nan, np.inf, -np.inf
        arrays.append(a)
    for a in arrays:
        a = a.astype(dtype)
        got, want = _row_max(a), a.max(axis=-1, keepdims=True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
