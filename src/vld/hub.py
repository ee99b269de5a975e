"""Learnable space-time hub and its readout attention.

The hub is one [T, T, D] parameter shared by every tracklet. Frame t's
token row is widened with hub rows h[t, :, :] from some insertion layer
onward; between consecutive hub-active layers the hub block is transposed
across the (frame, row) axes, so rows written by one frame are handed to
the others. The readout lets each frame's CLS token query the flattened
hub, producing an auxiliary per-sequence feature under its own losses.

A ``VideoModel`` built with ``insertion_layer=None``, as a run with
``stp.enabled = false`` builds it, has no hub and no readout.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionWeights, multi_head_attention
from .encoder import EncoderConfig, VisionEncoder
from .errors import ConfigError, DataError
from .rng import Rng
from .tensor import (Tensor, broadcast_to, concat, layer_norm, reshape,
                     sorted_mean, swap_axes)


class TemporalHub:
    """[T, T, D] hub parameter plus its insertion bookkeeping.

    ``insertion_layer`` is 0-based. A hub built with ``insertion_layer =
    depth`` is inactive: it never joins the encoder, which then runs as
    without a hub. Configs cannot ask for one; the mechanism tests build it.
    """

    def __init__(self, frames: int, dim: int, insertion_layer: int, depth: int,
                 rng: Rng):
        if not 0 <= insertion_layer <= depth:
            raise ConfigError(
                f"insertion layer {insertion_layer} outside [0, {depth}]"
            )
        self.frames = frames
        self.dim = dim
        self.insertion_layer = insertion_layer
        self.depth = depth
        self.h = Tensor(rng.normal((frames, frames, dim), std=0.02),
                        requires_grad=True)

    @property
    def active(self) -> bool:
        return self.insertion_layer < self.depth

    def attach(self, x: Tensor) -> Tensor:
        """Concatenate hub rows after the N+1 frame tokens: frame t gets h[t]."""
        b, t = x.shape[0], x.shape[1]
        if t != self.frames:
            raise ConfigError(
                f"hub built for {self.frames} frames, tracklet has {t}"
            )
        rows = broadcast_to(reshape(self.h, (1, t, t, self.dim)),
                            (b, t, t, self.dim))
        return concat([x, rows], axis=2)

    def flip(self, x: Tensor) -> Tensor:
        """Transpose the hub block across (frame, row); frame tokens untouched."""
        t = self.frames
        frame_tokens = x[:, :, :-t, :]
        block = swap_axes(x[:, :, -t:, :], 1, 2)
        return concat([frame_tokens, block], axis=2)


def flatten_hub(block: Tensor) -> Tensor:
    """[B, T, T, D] -> [B, T*T, D], raster order over (frame, row)."""
    b, t, t2, d = block.shape
    return reshape(block, (b, t * t2, d))


class HubReadout:
    """Per-frame CLS queries over the flattened hub, LN'd and pooled."""

    def __init__(self, dim: int, heads: int, rng: Rng):
        self.attn = AttentionWeights.create(dim, heads, rng)
        self.ln_g = Tensor(np.ones(dim), requires_grad=True)
        self.ln_b = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, cls_frames: Tensor, hub_block: Tensor):
        """cls_frames [B, T, D], hub_block [B, T, T, D] -> ([B,T,D], [B,D])."""
        keys = flatten_hub(hub_block)
        mixed = multi_head_attention(cls_frames, keys, keys, self.attn)
        frame_feats = layer_norm(mixed, self.ln_g, self.ln_b)
        return frame_feats, sorted_mean(frame_feats, axis=1)

    def named_parameters(self, prefix: str = "stp/sta"):
        yield from self.attn.named(prefix)
        yield f"{prefix}/ln_g", self.ln_g
        yield f"{prefix}/ln_b", self.ln_b


class VideoModel:
    """Vision encoder plus optional hub and readout; the retrieval model."""

    def __init__(self, cfg: EncoderConfig, frames: int, rng: Rng,
                 insertion_layer: int | None):
        self.cfg = cfg
        self.encoder = VisionEncoder(cfg, rng.split("encoder"))
        self.hub = None
        self.readout = None
        if insertion_layer is not None:
            self.hub = TemporalHub(frames, cfg.dim, insertion_layer, cfg.depth,
                                   rng.split("hub"))
            self.readout = HubReadout(cfg.dim, cfg.heads, rng.split("readout"))

    def forward(self, frames: np.ndarray, hub_feature: bool = True):
        """Stored uint8 frames [B,T,H,W,3], decoded here to [0, 1] in the
        default dtype -> (sequence [B,D], hub sequence [B,D] or None).

        With ``hub_feature`` false the final layer's hub rows are not
        computed and the readout does not run, so the hub sequence is None.
        """
        frames = np.asarray(frames)
        if frames.dtype != np.uint8:   # decoded frames would be decoded again
            raise DataError(f"expected stored uint8 frames, got {frames.dtype}")
        out = self.encoder.encode(Tensor(frames) / 255.0, hub=self.hub,
                                  hub_rows=hub_feature)
        hub_seq = None
        if out.hub_block is not None:
            _, hub_seq = self.readout(out.frame_features, out.hub_block)
        return out.sequence, hub_seq

    def named_parameters(self):
        yield from self.encoder.named_parameters()
        if self.hub is not None:
            yield "stp/hub", self.hub.h
            yield from self.readout.named_parameters()
