"""Tensor core: op semantics plus finite-difference gradient checks."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients, max_relative_error, numeric_gradient
from vld.errors import ContractError, ShapeError
from vld.rng import Rng
from reference import gelu, softmax, tlog, ttanh
from vld.tensor import (Tensor, broadcast_to, clamp_max, concat, div,
                        layer_norm, linear, logsumexp, matmul, no_grad,
                        reshape, softplus, swap_axes, texp, transpose, tsqrt)


def rand(shape, seed=0, std=1.0):
    return Rng(100 + seed).normal(shape, std=std)


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    b = rand((3, 5))
    out = matmul(Tensor(np.eye(3)), Tensor(b))
    np.testing.assert_array_equal(out.data, b)


def test_matmul_permutation_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(matmul(a, b).data, [[2.0, 1.0], [4.0, 3.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(Tensor(np.zeros((4, 5))), Tensor(np.zeros((4, 3))))
    assert "(4, 5)" in str(exc.value) and "(4, 3)" in str(exc.value)


def test_matmul_gradients_match_finite_differences():
    a = Tensor(rand((4, 5), 1), requires_grad=True)
    b = Tensor(rand((5, 3), 2), requires_grad=True)
    weight = rand((4, 3), 3)

    def loss():
        return (matmul(a, b) * weight).sum()

    errs = check_gradients(loss, [("a", a), ("b", b)])
    assert max(errs.values()) < 1e-6


def test_matmul_batched_broadcast_gradients():
    a = Tensor(rand((2, 3, 4, 5), 4, std=0.5), requires_grad=True)
    b = Tensor(rand((5, 3), 5), requires_grad=True)
    weight = rand((2, 3, 4, 3), 6)

    def loss():
        return (matmul(a, b) * weight).sum()

    errs = check_gradients(loss, [("a", a), ("b", b)])
    assert max(errs.values()) < 1e-6


# -- softmax (the reference the attention node is checked against) -----------


def test_softmax_uniform():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_no_overflow():
    out = softmax(Tensor([1000.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)


def test_softmax_jacobian_matches_finite_differences():
    x = Tensor(rand((7,), 7), requires_grad=True)
    base = softmax(x).data
    h = 1e-5
    for i in range(7):
        x.grad = None
        y = softmax(x)
        y[i].backward()
        analytic = np.array(x.grad)
        numeric = np.zeros(7)
        with no_grad():
            for j in range(7):
                saved = x.data[j]
                x.data[j] = saved + h
                up = softmax(x).data[i]
                x.data[j] = saved - h
                down = softmax(x).data[i]
                x.data[j] = saved
                numeric[j] = (up - down) / (2 * h)
        assert max_relative_error(analytic, numeric) < 1e-6
    np.testing.assert_allclose(softmax(x).data, base)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=9))
def test_softmax_slices_sum_to_one(values):
    out = softmax(Tensor(values))
    assert abs(out.data.sum() - 1.0) < 1e-12
    assert (out.data >= 0).all()


# -- layer norm ---------------------------------------------------------------


def test_layer_norm_constant_row_collapses_to_zero():
    x = Tensor(np.full((2, 6), 3.7))
    out = layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_symmetric_row():
    out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)
    assert out.data[0, 0] < 1.0  # epsilon pulls slightly inside unit variance


def test_layer_norm_gradients_match_finite_differences():
    x = Tensor(rand((3, 8), 8), requires_grad=True)
    g = Tensor(rand((8,), 9, std=0.5) + 1.0, requires_grad=True)
    b = Tensor(rand((8,), 10, std=0.5), requires_grad=True)
    weight = rand((3, 8), 11)

    # The in-place forward equals the out-of-place formula bit for bit.
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    xhat = centered * (1.0 / np.sqrt(var + 1e-5))
    np.testing.assert_array_equal(layer_norm(x, g, b).data,
                                  xhat * g.data + b.data)

    def loss():
        return (layer_norm(x, g, b) * weight).sum()

    errs = check_gradients(loss, [("x", x), ("g", g), ("b", b)])
    assert max(errs.values()) < 1e-5


# -- elementwise / shape ops ---------------------------------------------------


@pytest.mark.parametrize("name,fn", [
    ("exp", texp),
    ("log", lambda t: tlog(t * t + 1.0)),
    ("tanh", ttanh),
    ("sqrt", lambda t: tsqrt(t * t + 0.5)),
    ("gelu", gelu),
    ("softplus", softplus),
    ("softmax", lambda t: softmax(t, axis=-1)),
    ("logsumexp", lambda t: logsumexp(t, axis=-1)),
    ("div", lambda t: div(1.0, t * t + 2.0)),
    ("clamp", lambda t: clamp_max(t, 0.4)),
    ("mean", lambda t: t.mean()),
    ("slice", lambda t: t[1:, 2:5] * 3.0),
    ("transpose", lambda t: transpose(t, (1, 0))),
    ("reshape", lambda t: reshape(t, (2, 12))),
    ("broadcast", lambda t: broadcast_to(reshape(t, (4, 1, 6)), (4, 5, 6))),
])
def test_elementwise_gradients(name, fn):
    x = Tensor(rand((4, 6), 20), requires_grad=True)
    out_shape = fn(Tensor(x.data)).shape
    weight = rand(out_shape, 21)

    def loss():
        return (fn(x) * weight).sum()

    errs = check_gradients(loss, [(name, x)])
    assert errs[name] < 1e-6, f"{name}: {errs[name]}"


def test_linear_gradients():
    from vld.tensor import linear
    x = Tensor(rand((3, 4, 6), 27), requires_grad=True)
    w = Tensor(rand((6, 5), 28), requires_grad=True)
    b = Tensor(rand((5,), 29), requires_grad=True)
    weight = rand((3, 4, 5), 30)

    # The in-place bias add equals the out-of-place formula bit for bit.
    np.testing.assert_array_equal(
        linear(x, w, b).data,
        (x.data.reshape(-1, 6) @ w.data + b.data).reshape(3, 4, 5))

    def loss():
        return (linear(x, w, b) * weight).sum()

    errs = check_gradients(loss, [("x", x), ("w", w), ("b", b)])
    assert max(errs.values()) < 1e-6


def test_mlp_and_self_attention_gradients():
    from vld.attention import AttentionWeights
    from vld.tensor import attention, mlp
    x = Tensor(rand((2, 5, 6), 31), requires_grad=True)
    mlp_params = [(name, Tensor(rand(shape, 32 + i, std=0.5),
                                requires_grad=True))
                  for i, (name, shape) in enumerate(
                      [("w1", (6, 12)), ("b1", (12,)), ("w2", (12, 6)),
                       ("b2", (6,))])]
    attn_params = list(AttentionWeights.create(6, 2, Rng(36)).named("attn"))
    w_mlp, w_attn = rand((2, 5, 6), 40), rand((2, 5, 6), 41)

    def loss():
        out_mlp = mlp(x, *[p for _, p in mlp_params])
        out_attn = attention(x, x, x, [p for _, p in attn_params], 2)
        return (out_mlp * w_mlp).sum() + (out_attn * w_attn).sum()

    errs = check_gradients(loss, [("x", x)] + mlp_params + attn_params)
    assert max(errs.values()) < 1e-6, errs


def test_concat_gradients():
    a = Tensor(rand((3, 4), 22), requires_grad=True)
    b = Tensor(rand((3, 2), 23), requires_grad=True)
    weight = rand((3, 6), 24)

    def loss():
        return (concat([a, b], axis=1) * weight).sum()

    errs = check_gradients(loss, [("a", a), ("b", b)])
    assert max(errs.values()) < 1e-6


def test_transpose_reshape_round_trip_exact():
    x = rand((3, 4, 5), 25)
    t = Tensor(x)
    back = transpose(transpose(t, (2, 0, 1)), (1, 2, 0))
    np.testing.assert_array_equal(back.data, x)
    again = reshape(reshape(t, (12, 5)), (3, 4, 5))
    np.testing.assert_array_equal(again.data, x)


def test_swap_axes_round_trip():
    x = rand((2, 3, 4), 26)
    out = swap_axes(swap_axes(Tensor(x), 0, 2), 0, 2)
    np.testing.assert_array_equal(out.data, x)


# -- backward semantics ---------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(rand((3, 4), 30), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_half_square_gives_x():
    x = Tensor(rand((5,), 31), requires_grad=True)
    ((x * x).sum() * 0.5).backward()
    np.testing.assert_allclose(x.grad, x.data, rtol=1e-12)


def test_backward_requires_scalar():
    x = Tensor(rand((3,), 32), requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_backward_accumulates_without_reset():
    x = Tensor(rand((4,), 33), requires_grad=True)
    x.sum().backward()
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, 2.0 * np.ones(4))
    x.grad = None
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones(4))


def test_add_fanout_does_not_leak_between_parents():
    # add's vjp hands the same gradient array to both parents; a later
    # contribution into one parent must not corrupt the other.
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    z = a + b
    w = a * 3.0
    (z.sum() + w.sum()).backward()
    np.testing.assert_array_equal(a.grad, [4.0, 4.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_backward_fanout_accumulates():
    x = Tensor(rand((3,), 34), requires_grad=True)
    y = x * 2.0
    (y.sum() + (y * y).sum()).backward()
    np.testing.assert_allclose(x.grad, 2.0 + 8.0 * x.data, rtol=1e-12)


def test_no_grad_blocks_graph():
    x = Tensor(rand((3,), 35), requires_grad=True)
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad


def test_no_grad_in_one_thread_leaves_recording_in_another():
    x = Tensor(rand((3,), 35), requires_grad=True)
    entered, done = threading.Event(), threading.Event()
    seen = {}

    def other():
        with no_grad():
            entered.set()
            done.wait(10)
            seen["other"] = (x * x).requires_grad

    thread = threading.Thread(target=other)
    thread.start()
    try:
        assert entered.wait(10)
        recorded = (x * x).sum()
    finally:
        done.set()
        thread.join(10)
    assert not thread.is_alive()
    assert recorded.requires_grad and seen == {"other": False}
    recorded.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def _vjp_grads(build, inputs, frozen):
    """The VJP's outputs for a unit cotangent, with the parents ``frozen``
    (indices into ``inputs``) not requiring a gradient."""
    tensors = [Tensor(a, requires_grad=i not in frozen)
               for i, a in enumerate(inputs)]
    out = build(*tensors)
    return out._vjp(np.ones_like(out.data))


@pytest.mark.parametrize("build, shapes, frozen", [
    (linear, [(2, 3, 4), (4, 5), (5,)], (0,)),          # the patch embed
    (layer_norm, [(2, 3, 4), (4,), (4,)], (1, 2)),      # frozen text norms
    (matmul, [(3, 4), (4, 5)], (1,)),                   # frozen projection
    (matmul, [(3, 4), (4, 5)], (0,)),
], ids=["linear-input", "layer_norm-affine", "matmul-right", "matmul-left"])
def test_vjp_skips_gradients_no_parent_needs(build, shapes, frozen):
    inputs = [rand(shape, 40 + i) for i, shape in enumerate(shapes)]
    full = _vjp_grads(build, inputs, ())
    skipped = _vjp_grads(build, inputs, frozen)
    for i, (want, got) in enumerate(zip(full, skipped)):
        if i in frozen:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)


def test_forward_backward_deterministic():
    def run():
        x = Tensor(Rng(5).normal((6, 6)), requires_grad=True)
        w = Tensor(Rng(6).normal((6, 6)), requires_grad=True)
        loss = (softmax(matmul(x, w)) * Tensor(Rng(7).normal((6, 6)))).sum()
        loss.backward()
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_tensor_invariants():
    x = Tensor(rand((3, 4), 36), requires_grad=True)
    assert int(np.prod(x.shape)) == x.data.size
    (x.sum()).backward()
    assert x.grad.shape == x.data.shape


def test_numeric_gradient_oracle_on_quadratic():
    # The oracle itself is sanity-checked against a hand-differentiable case.
    x = Tensor(np.array([1.5, -2.0, 0.5]))

    def f():
        return float((x.data ** 2).sum())

    np.testing.assert_allclose(numeric_gradient(f, x), 2 * x.data, atol=1e-8)
