"""Identity cross-entropy, weighted regularized triplet, and the total
training objective.

The triplet term follows the soft-margin form used throughout the re-id
literature: per anchor, positive distances are softmax-weighted by +d and
negative distances by -d, and the loss is softplus of the weighted gap.
Anchors lacking a positive or negative are a hard error since the batch
sampler guarantees both; silent skipping would mask sampler bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, DivergenceError
from .rng import Rng
from .tensor import (Tensor, as_tensor, linear, logsumexp, reshape,
                     softplus, texp, tsqrt)

# Keeps sqrt differentiable at coincident points; error is ~1e-24, far
# below every stated tolerance.
_DIST_EPS = 1e-24

# Arbitrary large shift applied to masked-out entries before exp so they
# underflow instead of overflowing; exact for the masked softmax.
_MASK_SHIFT = 50.0


class IdentityHead:
    """Linear classifier over features; each head owns independent storage."""

    def __init__(self, dim: int, num_classes: int, rng: Rng):
        self.w = Tensor(rng.normal((dim, num_classes), std=dim ** -0.5),
                        requires_grad=True)
        self.b = Tensor(np.zeros(num_classes), requires_grad=True)

    def logits(self, features: Tensor) -> Tensor:
        return linear(features, self.w, self.b)

    def named_parameters(self, prefix: str):
        yield f"{prefix}/w", self.w
        yield f"{prefix}/b", self.b


def cross_entropy_from_logits(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy with one-hot targets."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise DataError(f"label outside [0, {c}): {labels.min()}..{labels.max()}")
    onehot = Tensor(np.eye(c)[labels])
    true_logit = (logits * onehot).sum(axis=1)
    return (logsumexp(logits, axis=1) - true_logit).mean()


def identity_cross_entropy(features: Tensor, labels, head: IdentityHead) -> Tensor:
    return cross_entropy_from_logits(head.logits(features), labels)


def pairwise_distances(features: Tensor) -> Tensor:
    """Symmetric Euclidean distance matrix over batch rows."""
    n, d = features.shape
    a = reshape(features, (n, 1, d))
    b = reshape(features, (1, n, d))
    diff = a - b
    return tsqrt((diff * diff).sum(axis=-1) + _DIST_EPS)


def weighted_regularized_triplet(features: Tensor, labels) -> Tensor:
    """Soft-margin triplet with distance-softmax weighting per anchor."""
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    same = labels[:, None] == labels[None, :]
    eye = np.eye(n, dtype=bool)
    pos_mask = same & ~eye
    neg_mask = ~same
    for i in range(n):
        if not pos_mask[i].any():
            raise ContractError(f"anchor {i} has no positive in batch")
        if not neg_mask[i].any():
            raise ContractError(f"anchor {i} has no negative in batch")

    d = pairwise_distances(features)
    pos = Tensor(pos_mask)
    neg = Tensor(neg_mask)

    # Detached row maxima; softmax is shift-invariant so this is exact.
    pos_shift = np.where(pos_mask, d.data, -np.inf).max(axis=1, keepdims=True)
    neg_shift = np.where(neg_mask, -d.data, -np.inf).max(axis=1, keepdims=True)

    pos_arg = (d - Tensor(pos_shift)) * pos - _MASK_SHIFT * (1.0 - pos)
    neg_arg = (-d - Tensor(neg_shift)) * neg - _MASK_SHIFT * (1.0 - neg)
    wp_num = pos * texp(pos_arg)
    wn_num = neg * texp(neg_arg)
    wp = wp_num / wp_num.sum(axis=1, keepdims=True)
    wn = wn_num / wn_num.sum(axis=1, keepdims=True)

    gap = (wp * d).sum(axis=1) - (wn * d).sum(axis=1)
    return softplus(gap).mean()


@dataclass(frozen=True)
class LossWeights:
    lambda_v2t: float = 0.08
    lambda_id_hub: float = 0.4
    lambda_wrt_hub: float = 1.0


def total_loss(id_cls: Tensor, wrt_cls: Tensor,
               v2t: Tensor | None = None,
               id_hub: Tensor | None = None,
               wrt_hub: Tensor | None = None,
               weights: LossWeights = LossWeights()) -> Tensor:
    """Weighted sum of the five objective parts; None means branch disabled."""
    parts = {
        "id_cls": (id_cls, 1.0),
        "wrt_cls": (wrt_cls, 1.0),
        "v2t": (v2t, weights.lambda_v2t),
        "id_hub": (id_hub, weights.lambda_id_hub),
        "wrt_hub": (wrt_hub, weights.lambda_wrt_hub),
    }
    total = None
    for name, (part, lam) in parts.items():
        if part is None:
            continue
        if not np.isfinite(part.data).all():
            raise DivergenceError(f"loss part {name} is not finite")
        term = part * lam
        total = term if total is None else total + term
    return total
