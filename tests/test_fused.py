"""Fused attention and MLP nodes against their composite references.

Bounds, fixed before the nodes were written: forwards bit-equal to the
composition in float64, every gradient within 1e-12 max relative error,
float32 in gives float32 out, and nothing recorded under no_grad. The
float32 forwards turn out bit-equal to the composition too, and are held
to that.
"""

import numpy as np
import pytest

from gradcheck import max_relative_error
from reference import composite_attention, composite_mlp
from vld.attention import AttentionWeights, multi_head_attention
from vld.rng import Rng
from vld.tensor import Tensor, mlp, no_grad, set_default_dtype

ATTENTION_CASES = ("self", "readout", "distinct")


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
