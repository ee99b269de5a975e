"""ViT-style per-frame encoder with temporal average pooling.

Frames are cut into non-overlapping patches, linearly projected, prepended
with a CLS token and given a learned spatial position embedding. Blocks are
pre-norm (LN before attention and before the MLP) with residual
connections and a GELU MLP at 4x expansion. The sequence-level feature is
the mean of the per-frame CLS features after the final layer norm.

Without a hub attached, every frame is encoded independently; the hub (see
vld.hub) widens each frame's token axis and is the only cross-frame path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionWeights, multi_head_attention
from .errors import ConfigError, DataError
from .rng import Rng
from .tensor import (Tensor, as_tensor, broadcast_to, concat, layer_norm,
                     linear, mlp, reshape, sorted_mean, transpose)

CHANNELS = 3       # frames are stored and encoded as 3 channels
MLP_RATIO = 4      # every block's MLP is MLP_RATIO * dim wide


@dataclass(frozen=True)
class EncoderConfig:
    image_h: int
    image_w: int
    patch: int
    depth: int
    dim: int
    heads: int

    def __post_init__(self):
        if self.image_h % self.patch or self.image_w % self.patch:
            raise ConfigError(
                f"image {self.image_h}x{self.image_w} not divisible by patch {self.patch}"
            )
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by {self.heads} heads")

    @property
    def num_patches(self) -> int:
        return (self.image_h * self.image_w) // (self.patch * self.patch)

    @property
    def tokens_per_frame(self) -> int:
        return self.num_patches + 1

    @property
    def patch_dim(self) -> int:
        return CHANNELS * self.patch * self.patch


def count_layer_tokens(cfg: EncoderConfig, hub_active: bool, frames: int) -> int:
    """Token count a layer attends over per frame: N+1, plus T hub rows."""
    return cfg.tokens_per_frame + (frames if hub_active else 0)


def take_rows(x: Tensor, rows) -> Tensor:
    """The token-axis (-2) slices ``rows`` of x, concatenated in order."""
    parts = [x[..., s, :] for s in rows]
    return parts[0] if len(parts) == 1 else concat(parts, axis=-2)


class TransformerBlock:
    """Pre-norm block: x + MHA(LN(x)), then x + MLP(LN(x))."""

    def __init__(self, dim: int, heads: int, rng: Rng, trainable: bool = True):
        hidden = dim * MLP_RATIO

        def param(data):
            return Tensor(data, requires_grad=trainable)

        self.ln1_g = param(np.ones(dim))
        self.ln1_b = param(np.zeros(dim))
        self.attn = AttentionWeights.create(dim, heads, rng, trainable=trainable)
        self.ln2_g = param(np.ones(dim))
        self.ln2_b = param(np.zeros(dim))
        self.mlp_w1 = param(rng.normal((dim, hidden), std=dim ** -0.5))
        self.mlp_b1 = param(np.zeros(hidden))
        self.mlp_w2 = param(rng.normal((hidden, dim), std=hidden ** -0.5))
        self.mlp_b2 = param(np.zeros(dim))

    def __call__(self, x: Tensor, rows=None) -> Tensor:
        """``rows``, basic slices of the token axis (-2), limits the queries,
        the residual and the MLP to those rows, concatenated in order; the
        keys and values stay every row of LN(x)."""
        h = layer_norm(x, self.ln1_g, self.ln1_b)
        if rows is None:
            x = multi_head_attention(h, h, h, self.attn, residual=x)
        else:
            x = multi_head_attention(take_rows(h, rows), h, h, self.attn,
                                     residual=take_rows(x, rows))
        h = layer_norm(x, self.ln2_g, self.ln2_b)
        return mlp(h, self.mlp_w1, self.mlp_b1, self.mlp_w2, self.mlp_b2,
                   residual=x)

    def named_parameters(self, prefix: str):
        yield f"{prefix}/ln1_g", self.ln1_g
        yield f"{prefix}/ln1_b", self.ln1_b
        yield from self.attn.named(f"{prefix}/attn")
        yield f"{prefix}/ln2_g", self.ln2_g
        yield f"{prefix}/ln2_b", self.ln2_b
        yield f"{prefix}/mlp_w1", self.mlp_w1
        yield f"{prefix}/mlp_b1", self.mlp_b1
        yield f"{prefix}/mlp_w2", self.mlp_w2
        yield f"{prefix}/mlp_b2", self.mlp_b2


@dataclass
class EncodeOutput:
    frame_features: Tensor      # [B, T, D] per-frame CLS after final norm
    sequence: Tensor            # [B, D] temporal average of frame_features
    hub_block: Tensor | None
    """[B, T, T, D] hub rows from the final layer. None when no hub is
    attached (none given, or an inactive one) or when ``encode`` was
    called with ``hub_rows=False``: the last block then computes the [CLS]
    row alone."""


class VisionEncoder:
    def __init__(self, cfg: EncoderConfig, rng: Rng):
        self.cfg = cfg
        d = cfg.dim
        self.patch_w = Tensor(rng.normal((cfg.patch_dim, d),
                                         std=cfg.patch_dim ** -0.5),
                              requires_grad=True)
        self.patch_b = Tensor(np.zeros(d), requires_grad=True)
        self.cls = Tensor(rng.normal((d,), std=0.02), requires_grad=True)
        # Position embeddings start at the scale of the projected patches,
        # otherwise position is invisible early in short trainings.
        self.pos = Tensor(rng.normal((cfg.tokens_per_frame, d), std=0.3),
                          requires_grad=True)
        self.blocks = [
            TransformerBlock(d, cfg.heads, rng.split(f"block{i}"))
            for i in range(cfg.depth)
        ]
        self.ln_f_g = Tensor(np.ones(d), requires_grad=True)
        self.ln_f_b = Tensor(np.zeros(d), requires_grad=True)

    # -- embedding ---------------------------------------------------------

    def _check_extents(self, shape):
        cfg = self.cfg
        if shape[-3:] != (cfg.image_h, cfg.image_w, CHANNELS):
            raise ConfigError(
                f"frame extents {shape[-3:]} do not match configured "
                f"{(cfg.image_h, cfg.image_w, CHANNELS)}"
            )

    def patch_tokens(self, frames: Tensor) -> Tensor:
        """[B, T, H, W, C] -> [B, T, N, P*P*C] in raster patch order."""
        cfg = self.cfg
        b, t = frames.shape[0], frames.shape[1]
        p = cfg.patch
        hp, wp = cfg.image_h // p, cfg.image_w // p
        x = reshape(frames, (b, t, hp, p, wp, p, CHANNELS))
        x = transpose(x, (0, 1, 2, 4, 3, 5, 6))
        return reshape(x, (b, t, cfg.num_patches, cfg.patch_dim))

    def embed(self, frames: Tensor) -> Tensor:
        """Project patches, prepend CLS, add the spatial position embedding.

        Pixels arrive in [0, 1] and are centered here so the projection does
        not start dominated by the shared DC component.
        """
        frames = as_tensor(frames)
        self._check_extents(frames.shape)
        b, t = frames.shape[0], frames.shape[1]
        d = self.cfg.dim
        tokens = linear(self.patch_tokens(frames - 0.5), self.patch_w,
                        self.patch_b)
        cls = broadcast_to(reshape(self.cls, (1, 1, 1, d)), (b, t, 1, d))
        return concat([cls, tokens], axis=2) + self.pos

    # -- encoding ------------------------------------------------------------

    def encode(self, frames, hub=None, hub_rows: bool = True) -> EncodeOutput:
        """Encode tracklets [B, T, H, W, C]; hub, when given, joins mid-stack.

        Only [CLS] and the hub rows of the final layer are read, so the last
        block runs its queries, residual and MLP on [CLS] and the hub rows
        when a hub is attached and ``hub_rows`` is true, and on [CLS] alone
        otherwise; its keys and values stay every row.

        Numerics contract against the same last block run on every row and
        then sliced: with the hub rows kept the forward is bit-identical.
        A single kept row ([CLS] alone here, the last token in the text
        encoder) takes numpy's matrix-vector path in the attention, so its
        forward agrees within 1e-12 relative error instead. Gradients agree
        within 1e-12 relative error, except ``attn/bk``, whose true
        gradient is zero and whose entries are rounding noise either way.
        """
        frames = as_tensor(frames)
        if frames.ndim != 5:
            raise DataError(f"expected [B, T, H, W, C] frames, got {frames.shape}")
        if frames.shape[1] == 0:
            raise DataError("tracklet has no frames")
        x = self.embed(frames)
        del frames   # decoded pixels are dead once embedded
        attached = False
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            if hub is not None and i == hub.insertion_layer:
                x = hub.attach(x)
                attached = True
            elif attached and i > hub.insertion_layer:
                x = hub.flip(x)
            rows = None
            if i == last:
                rows = (slice(0, 1),)      # [CLS]
                if attached and hub_rows:
                    rows += (slice(self.cfg.tokens_per_frame, None),)
            x = block(x, rows)
        # Rows left: [CLS], then the hub rows when they were kept.
        hub_block = x[:, :, 1:, :] if attached and hub_rows else None
        cls = layer_norm(x[:, :, 0, :], self.ln_f_g, self.ln_f_b)
        return EncodeOutput(frame_features=cls, sequence=sorted_mean(cls, axis=1),
                            hub_block=hub_block)

    def named_parameters(self, prefix: str = "enc"):
        yield f"{prefix}/patch_w", self.patch_w
        yield f"{prefix}/patch_b", self.patch_b
        yield f"{prefix}/cls", self.cls
        yield f"{prefix}/pos", self.pos
        for i, block in enumerate(self.blocks):
            yield from block.named_parameters(f"{prefix}/block{i}")
        yield f"{prefix}/ln_f_g", self.ln_f_g
        yield f"{prefix}/ln_f_b", self.ln_f_b
