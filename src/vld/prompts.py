"""Identity prompts and the frozen text encoder that turns them into
classifier prototypes.

Each identity owns M learnable token slots spliced into a fixed template;
the template's surrounding token embeddings are deterministic draws keyed
by (template id, position) and are shared, frozen storage. The text
encoder itself is a 2-layer transformer fixed by its seed (``TEXT_SEED``
in training): none of its weights ever enter an optimizer, so prototypes
stay a pure function of the prompt tokens while its shared weights couple
all identities.
"""

from __future__ import annotations

import numpy as np

from .encoder import TransformerBlock
from .errors import ConfigError
from .losses import cross_entropy_from_logits
from .rng import Rng
from .tensor import (Tensor, broadcast_to, clamp_max, concat, layer_norm,
                     matmul, reshape, swap_axes, tsqrt)

# template id -> (prefix length, suffix length) around the learnable slots
TEMPLATES = {1: (0, 2), 2: (1, 2), 3: (1, 8), 4: (1, 9)}

LOGIT_SCALE_INIT = 1.0 / 0.07
LOGIT_SCALE_MAX = 100.0
TEXT_SEED = 101    # the seed training draws the frozen text encoder from


class PromptBank:
    """Per-identity learnable slots plus shared frozen template embeddings."""

    def __init__(self, num_identities: int, slots: int, template_id: int,
                 dim: int, rng: Rng):
        if slots < 1:
            raise ConfigError(f"need at least 1 learnable slot, got {slots}")
        if template_id not in TEMPLATES:
            raise ConfigError(f"unknown prompt template id {template_id}")
        self.num_identities = num_identities
        self.slots = slots
        self.dim = dim
        self.tokens = Tensor(rng.normal((num_identities, slots, dim), std=0.02),
                             requires_grad=True)
        prefix_len, suffix_len = TEMPLATES[template_id]
        template_rng = Rng(9000 + template_id)
        self.prefix = Tensor(template_rng.normal((prefix_len, dim), std=0.02))
        self.suffix = Tensor(template_rng.normal((suffix_len, dim), std=0.02))

    @property
    def length(self) -> int:
        return self.prefix.shape[0] + self.slots + self.suffix.shape[0]

    def sequences(self) -> Tensor:
        """Token embeddings [N_y, length, D] with template parts broadcast."""
        n = self.num_identities
        parts = []
        if self.prefix.shape[0]:
            parts.append(broadcast_to(
                reshape(self.prefix, (1,) + self.prefix.shape),
                (n,) + self.prefix.shape))
        parts.append(self.tokens)
        if self.suffix.shape[0]:
            parts.append(broadcast_to(
                reshape(self.suffix, (1,) + self.suffix.shape),
                (n,) + self.suffix.shape))
        return concat(parts, axis=1)

    def named_parameters(self):
        yield "imlp/prompts", self.tokens


class FrozenTextEncoder:
    """Seed-fixed transformer producing unit-norm prototypes in the visual dim.

    Weights are drawn once from the given seed and never trained; gradients
    flow through them to the prompt tokens but are never stored on them.
    """

    DEPTH = 2
    HEADS = 4

    def __init__(self, dim: int, seq_len: int, seed: int):
        rng = Rng(seed).split("text-encoder")
        self.dim = dim
        self.seq_len = seq_len
        self.pos = Tensor(rng.normal((seq_len, dim), std=0.02))
        self.blocks = [
            TransformerBlock(dim, self.HEADS, rng.split(f"block{i}"),
                             trainable=False)
            for i in range(self.DEPTH)
        ]
        self.ln_g = Tensor(np.ones(dim))
        self.ln_b = Tensor(np.zeros(dim))
        self.proj = Tensor(rng.normal((dim, dim), std=dim ** -0.5))

    def encode(self, bank: PromptBank) -> Tensor:
        """Prototypes [N_y, dim], unit-normalized, all identities at once."""
        if bank.dim != self.dim:
            raise ConfigError(
                f"prompt dim {bank.dim} does not match text encoder dim {self.dim}"
            )
        if bank.length != self.seq_len:
            raise ConfigError(
                f"prompt length {bank.length} does not match encoder length "
                f"{self.seq_len}"
            )
        x = bank.sequences() + self.pos
        for block in self.blocks[:-1]:
            x = block(x)
        # Only the last token is read: the last block computes it alone
        # (numerics as in ``VisionEncoder.encode`` for a single row).
        x = self.blocks[-1](x, rows=(slice(-1, None),))
        x = layer_norm(x, self.ln_g, self.ln_b)
        out = matmul(x[:, -1, :], self.proj)
        return unit_normalize(out)


def unit_normalize(x: Tensor) -> Tensor:
    """Rows scaled to unit L2 norm along the last axis."""
    norm = tsqrt((x * x).sum(axis=-1, keepdims=True) + 1e-24)
    return x / norm


def make_logit_scale() -> Tensor:
    return Tensor(np.array(LOGIT_SCALE_INIT), requires_grad=True)


def visual_text_loss(features: Tensor, labels, prototypes: Tensor,
                     logit_scale: Tensor) -> Tensor:
    """Cross-entropy of pooled visual features against all prototypes.

    Similarity is cosine times the (capped) learnable scale; features come
    in raw and are normalized here; ``cross_entropy_from_logits`` checks
    the labels.
    """
    scale = clamp_max(logit_scale, LOGIT_SCALE_MAX)
    sims = matmul(unit_normalize(features), swap_axes(prototypes, -1, -2)) * scale
    return cross_entropy_from_logits(sims, labels)
