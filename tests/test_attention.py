"""Multi-head attention: contract cases plus full gradient check."""

import numpy as np
import pytest

from gradcheck import check_gradients
from reference import composite_attention
from vld.attention import AttentionWeights, multi_head_attention
from vld.errors import ConfigError
from vld.rng import Rng
from vld.tensor import Tensor, matmul


def make_weights(dim=8, heads=2, seed=3):
    return AttentionWeights.create(dim, heads, Rng(seed))


def test_heads_must_divide_dim():
    w = AttentionWeights.create(10, 3, Rng(0))
    x = Tensor(Rng(1).normal((4, 10)))
    with pytest.raises(ConfigError, match="not divisible by 3 heads"):
        multi_head_attention(x, x, x, w)


def test_single_key_ignores_query():
    w = make_weights()
    k = Tensor(Rng(4).normal((1, 8)))
    v = Tensor(Rng(5).normal((1, 8)))
    out_a = multi_head_attention(Tensor(Rng(6).normal((3, 8))), k, v, w)
    out_b = multi_head_attention(Tensor(Rng(7).normal((3, 8))), k, v, w)
    np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)
    # and equals the projected single value row
    expected = (matmul(v, w.wv) + w.bv)
    expected = (matmul(expected, w.wo) + w.bo).data
    np.testing.assert_allclose(out_a.data, np.repeat(expected, 3, axis=0),
                               atol=1e-12)


def test_identical_keys_give_uniform_weights():
    w = make_weights()
    key_row = Rng(8).normal((1, 8))
    k = Tensor(np.repeat(key_row, 5, axis=0))
    q = Tensor(Rng(9).normal((2, 8)))
    out, attn = composite_attention(q, k, k, w, return_weights=True)
    assert np.array_equal(multi_head_attention(q, k, k, w).data, out.data)
    np.testing.assert_allclose(attn.data, 0.2, atol=1e-12)


def test_attention_rows_sum_to_one():
    w = make_weights()
    q = Tensor(Rng(10).normal((4, 8)))
    k = Tensor(Rng(11).normal((6, 8)))
    out, attn = composite_attention(q, k, k, w, return_weights=True)
    assert np.array_equal(multi_head_attention(q, k, k, w).data, out.data)
    np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-10)


def test_gradients_match_finite_differences():
    w = make_weights()
    q = Tensor(Rng(12).normal((2, 8)), requires_grad=True)
    k = Tensor(Rng(13).normal((3, 8)), requires_grad=True)
    v = Tensor(Rng(14).normal((3, 8)), requires_grad=True)
    weight = Rng(15).normal((2, 8))
    params = [("q", q), ("k", k), ("v", v)] + list(w.named("w"))

    def loss():
        return (multi_head_attention(q, k, v, w) * weight).sum()

    errs = check_gradients(loss, params)
    assert max(errs.values()) < 1e-4, errs


def test_batched_matches_per_slice():
    w = make_weights()
    x = Tensor(Rng(16).normal((2, 3, 5, 8)))
    batched = multi_head_attention(x, x, x, w).data
    for i in range(2):
        for j in range(3):
            single = multi_head_attention(x[i, j], x[i, j], x[i, j], w).data
            np.testing.assert_allclose(batched[i, j], single, atol=1e-12)
