"""Multi-head scaled dot-product attention over the tensor core."""

from __future__ import annotations

from dataclasses import dataclass

from .rng import Rng
from .tensor import Tensor, attention


@dataclass
class AttentionWeights:
    """Q/K/V/output projections (each dim x dim with bias) plus head count."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    heads: int

    @classmethod
    def create(cls, dim: int, heads: int, rng: Rng,
               trainable: bool = True) -> "AttentionWeights":
        std = dim ** -0.5

        def w():
            return Tensor(rng.normal((dim, dim), std=std), requires_grad=trainable)

        def b():
            return Tensor([0.0] * dim, requires_grad=trainable)

        return cls(w(), b(), w(), b(), w(), b(), w(), b(), heads)

    def named(self, prefix: str):
        for key in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            yield f"{prefix}/{key}", getattr(self, key)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor,
                         w: AttentionWeights, residual: Tensor | None = None
                         ) -> Tensor:
    """Attention of queries over keys/values along the second-to-last axis,
    plus ``residual`` (of q's shape) when given.

    q is [..., Lq, D]; k and v are [..., Lk, D]. Scores use the usual
    1/sqrt(D/heads) scale and each attention row sums to one. Runs as the
    single ``vld.tensor.attention`` node, which adds the residual itself.
    """
    return attention(q, k, v, (w.wq, w.bq, w.wk, w.bk, w.wv, w.bv, w.wo, w.bo),
                     w.heads, residual=residual)
