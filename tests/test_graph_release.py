"""Backward consumes its graph: a desk-sized step's graph is freed by the
time ``backward()`` returns, even while the loss and its parts are held.
Before that, the graph keeps only what its VJPs cannot cheaply recompute,
and a forward without a graph drops each buffer once it is dead."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from util import random_frames
from vld.config import load_config
from vld.errors import ContractError
from vld.losses import total_loss
from vld.rng import Rng
from vld.tensor import Tensor, no_grad
from vld.train import (TrainingHeads, all_parameters, build_model,
                       compute_losses, configured_precision)

DESK_CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"
MIB = 1 << 20


@pytest.fixture(scope="module")
def desk_step():
    """A closure building one desk batch's loss and parts, in float32."""
    cfg = load_config(DESK_CONFIG_PATH).validate()
    with configured_precision(cfg):
        rng = Rng(9)
        model = build_model(cfg, rng.split("init"))
        heads = TrainingHeads(cfg, cfg["data.train_identities"], rng.split("init"))
    plan = cfg.batch_plan()
    per_identity = 2 * plan.tracklets_per_identity   # both modalities
    labels = np.repeat(np.arange(plan.identities), per_identity)
    frames = random_frames(10, (len(labels), cfg["data.frames"],
                                cfg["data.image_h"], cfg["data.image_w"], 3))
    params = [p for _, p in all_parameters(model, heads)]

    def build():
        for p in params:
            p.grad = None
        with configured_precision(cfg):
            parts = compute_losses(cfg, model, heads, frames, labels)
            loss = total_loss(parts["id_cls"], parts["wrt_cls"], parts["v2t"],
                              parts["id_hub"], parts["wrt_hub"],
                              cfg.loss_weights())
        return loss, parts

    build()[0].backward()   # warm any first-call caches
    return build, params, model


def reachable(loss):
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_backward_releases_every_non_leaf_and_fills_every_leaf(desk_step):
    build, _, model = desk_step
    loss, _ = build()
    nodes = reachable(loss)
    inner = [n for n in nodes if n._vjp is not None]
    leaves = [n for n in nodes if n._vjp is None and n.requires_grad]
    assert len(inner) > 100 and any(n is model.encoder.patch_w for n in leaves)
    loss.backward()
    assert all(n._parents == () and n.grad is None for n in inner)
    assert all(n.grad is not None for n in leaves)


def test_second_backward_through_a_consumed_graph_is_contract_error(desk_step):
    build = desk_step[0]
    loss, parts = build()
    loss.backward()
    with pytest.raises(ContractError, match="consumed"):
        loss.backward()
    with pytest.raises(ContractError, match="consumed"):
        (parts["id_cls"] * 2.0).backward()


def test_held_loss_and_parts_keep_only_the_leaf_gradients(desk_step):
    build, params, _ = desk_step
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss, parts = build()
        loss.backward()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in params if p.grad is not None)
    assert loss is not None and parts["id_cls"] is not None
    assert held <= grads + 512 * 1024, (held, grads)


def test_desk_step_graph_has_no_residual_add_nodes(desk_step):
    """Each block's two residuals are added inside its attention and MLP
    nodes. Adding them outside, as separate nodes, would make 266."""
    loss, _ = desk_step[0]()
    assert sum(n.requires_grad for n in reachable(loss)) == 254
    loss.backward()


def test_desk_step_graph_keeps_only_what_backward_cannot_recompute(desk_step):
    """Graph memory after forward and at the backward peak. Keeping the MLP's
    GELU buffers, LayerNorm's normalized input, the outputs separate
    residual adds would hold, slice copies and concatenated weights would
    put them at about 19.4 and 19.7 MiB."""
    build = desk_step[0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss, _ = build()
        after_forward = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        backward_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert after_forward < 12 * MIB, after_forward / MIB
    assert backward_peak < 12.5 * MIB, backward_peak / MIB


def test_desk_no_grad_forward_peak(desk_step):
    """Peak memory of one extraction batch's forward: 16 desk tracklets in
    float32. Keeping the decoded frames through the blocks and the GELU
    gate through the MLP's second product would put it at about 2.85 MiB."""
    model = desk_step[2]
    cfg = load_config(DESK_CONFIG_PATH).validate()
    frames = random_frames(11, (16, cfg["data.frames"], cfg["data.image_h"],
                                cfg["data.image_w"], 3))
    with configured_precision(cfg), no_grad():
        tracemalloc.start()
        try:
            model.forward(frames, hub_feature=cfg["eval.use_hub_feature"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2.4 * MIB, peak / MIB


def test_getitem_is_a_view_and_scatters_its_gradient():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    parts = [x[:, 1, :], x[..., 2:, :], x[1]]
    for part in parts:
        assert np.shares_memory(part.data, x.data)
    weights = [np.full(p.shape, float(i + 1)) for i, p in enumerate(parts)]
    sum((p * w).sum() for p, w in zip(parts, weights)).backward()
    want = np.zeros((2, 3, 4))
    want[:, 1, :] += 1.0
    want[..., 2:, :] += 2.0
    want[1] += 3.0
    assert np.array_equal(x.grad, want)
