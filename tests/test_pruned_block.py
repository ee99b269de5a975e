"""A transformer block run on some rows against the same block run on every
row and then sliced.

Bounds, fixed before the pruned block was written: with the hub rows kept
the forward is bit-equal; with one row kept ([CLS] alone, the text
encoder's last token) it is within 1e-12 relative error, since a single
query takes numpy's matrix-vector path; every gradient is within 1e-12 max
relative error; float32 in gives float32 out.
"""

import numpy as np
import pytest

from gradcheck import max_relative_error
from vld.encoder import EncoderConfig, TransformerBlock, VisionEncoder
from vld.hub import TemporalHub
from vld.prompts import FrozenTextEncoder, PromptBank, unit_normalize
from vld.rng import Rng
from vld.tensor import (Tensor, layer_norm, matmul, set_default_dtype,
                        sorted_mean)

TOKENS, HUB = 5, 3          # frame tokens ([CLS] + patches) and hub rows
CASES = {
    "hub": (slice(0, 1), slice(TOKENS, None)),
    "cls": (slice(0, 1),),
    "text": (slice(-1, None),),
}
TINY = EncoderConfig(image_h=8, image_w=8, patch=4, depth=3, dim=16, heads=4)


def rel(a, b) -> float:
    """Largest difference relative to the reference's largest entry."""
    return float(np.abs(a - b).max() / np.abs(b).max())


def block_problem(case, seed=0):
    """(block, input, rows, output weighting on the kept rows)."""
    rng = Rng(900 + seed)
    rows = CASES[case]
    if case == "text":
        block = FrozenTextEncoder(16, 7, seed=3).blocks[-1]
        x = Tensor(rng.normal((5, 7, 16)), requires_grad=True)
    else:
        block = TransformerBlock(16, 4, rng.split("block"))
        for _, p in block.named_parameters(""):
            p.data[...] = rng.normal(p.data.shape, std=0.3)
        x = Tensor(rng.normal((2, 3, TOKENS + HUB, 16)), requires_grad=True)
    kept = sum(len(range(*s.indices(x.shape[-2]))) for s in rows)
    return block, x, rows, rng.normal(x.shape[:-2] + (kept, 16))


def run(block, x, rows, weighting):
    """Pruned and full-then-sliced outputs, each with its gradients."""
    params = [x] + [p for _, p in block.named_parameters("")]
    results = []
    for pruned in (True, False):
        for p in params:
            p.grad = None
        if pruned:
            out = block(x, rows)
            (out * Tensor(weighting)).sum().backward()
            data = out.data
        else:
            # Weight the kept rows of the full output, zero the others.
            out = block(x)
            full = np.zeros(out.shape)
            offset = 0
            for s in rows:
                n = len(range(*s.indices(out.shape[-2])))
                full[..., s, :] = weighting[..., offset:offset + n, :]
                offset += n
            (out * Tensor(full)).sum().backward()
            data = np.concatenate([out.data[..., s, :] for s in rows], axis=-2)
        results.append((data, [None if p.grad is None else np.array(p.grad)
                               for p in params]))
    return results


@pytest.mark.parametrize("case", CASES)
def test_pruned_block_matches_full_block(case):
    block, x, rows, weighting = block_problem(case)
    (out, grads), (ref, ref_grads) = run(block, x, rows, weighting)
    if case == "hub":
        assert np.array_equal(out, ref)
    else:
        assert out.shape == ref.shape and rel(out, ref) < 1e-12
    assert grads[0] is not None
    for grad, ref_grad in zip(grads, ref_grads):
        assert (grad is None) == (ref_grad is None)
        if grad is not None:
            assert max_relative_error(grad, ref_grad) < 1e-12


@pytest.mark.parametrize("case", CASES)
def test_pruned_block_float32_in_float32_out(case):
    set_default_dtype(np.float32)
    try:
        block, x, rows, weighting = block_problem(case)
        (out, grads), _ = run(block, x, rows, weighting)
    finally:
        set_default_dtype(np.float64)
    for arr in [out] + [g for g in grads if g is not None]:
        assert arr.dtype == np.float32


def full_row_encode(enc, frames, hub):
    """Every block on every row, then [CLS] and the hub rows read off."""
    x = enc.embed(frames)
    for i, block in enumerate(enc.blocks):
        if hub is not None and i == hub.insertion_layer:
            x = hub.attach(x)
        elif hub is not None and i > hub.insertion_layer:
            x = hub.flip(x)
        x = block(x)
    cls = layer_norm(x[:, :, 0, :], enc.ln_f_g, enc.ln_f_b)
    return sorted_mean(cls, axis=1), x[:, :, enc.cfg.tokens_per_frame:, :]


def test_encode_with_hub_rows_is_bit_identical_to_full_rows():
    rng = Rng(910)
    enc = VisionEncoder(TINY, rng.split("encoder"))
    hub = TemporalHub(HUB, TINY.dim, 1, TINY.depth, rng.split("hub"))
    frames = Tensor(Rng(911).uniform((2, HUB, 8, 8, 3)))
    out = enc.encode(frames, hub=hub)
    seq, hub_block = full_row_encode(enc, frames, hub)
    assert np.array_equal(out.sequence.data, seq.data)
    assert np.array_equal(out.hub_block.data, hub_block.data)


@pytest.mark.parametrize("with_hub", [False, True])
def test_encode_of_cls_alone_matches_full_rows(with_hub):
    rng = Rng(912)
    enc = VisionEncoder(TINY, rng.split("encoder"))
    hub = TemporalHub(HUB, TINY.dim, 1, TINY.depth,
                      rng.split("hub")) if with_hub else None
    frames = Tensor(Rng(913).uniform((2, HUB, 8, 8, 3)))
    out = enc.encode(frames, hub=hub, hub_rows=False)
    seq, _ = full_row_encode(enc, frames, hub)
    assert out.hub_block is None
    assert rel(out.sequence.data, seq.data) < 1e-12


def test_text_encoder_matches_full_rows():
    bank = PromptBank(4, 4, 16, Rng(914))
    enc = FrozenTextEncoder(16, bank.length, seed=5)
    x = bank.sequences() + enc.pos
    for block in enc.blocks:
        x = block(x)
    x = layer_norm(x, enc.ln_g, enc.ln_b)
    ref = unit_normalize(matmul(x[:, -1, :], enc.proj)).data
    assert rel(enc.encode(bank).data, ref) < 1e-12
