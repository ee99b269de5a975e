"""Shared fixtures for integration-level tests and the acceptance suite."""

import numpy as np

from vld.config import parse_config
from vld.rng import Rng
from vld.train import build_state, compute_losses

# Smallest config that exercises every mechanism: hub active in both layers,
# prompts with prefix+suffix template, two identities in both modalities.
E2E_TEXT = """
data.train_identities = 2
data.test_identities = 2
data.tracklets_per_identity = 1
data.frames = 2
data.image_h = 4
data.image_w = 4
encoder.patch = 2
encoder.dim = 8
encoder.depth = 2
encoder.heads = 2
stp.insertion_layer = 0
imlp.tokens = 2
imlp.template = 2
"""


def random_frames(seed: int, shape) -> np.ndarray:
    """Stored-form frames: uint8 pixels drawn uniformly."""
    return np.round(Rng(seed).uniform(shape) * 255.0).astype(np.uint8)


def tiny_e2e_problem(seed: int = 1):
    """(named params, loss closure) for a full five-part objective on a
    2-identity micro-batch."""
    cfg = parse_config(E2E_TEXT)
    cfg.values["train.seed"] = seed
    state = build_state(cfg, 2)
    model, heads = state.model, state.heads
    frames = random_frames(seed + 100, (4, 2, 4, 4, 3))
    labels = np.array([0, 0, 1, 1])

    def build_loss():
        return compute_losses(cfg, model, heads, frames, labels)["total"]

    params = list(model.named_parameters()) + list(heads.named_parameters())
    return params, build_loss
