"""Frame encoder: patch bookkeeping, pooling, and frame independence."""

import numpy as np
import pytest

from vld.encoder import EncoderConfig, VisionEncoder, count_layer_tokens
from vld.errors import ConfigError, DataError
from vld.rng import Rng
from vld.tensor import Tensor, sorted_mean

DESK = EncoderConfig(image_h=32, image_w=16, patch=8, depth=4, dim=64, heads=4)
TINY = EncoderConfig(image_h=8, image_w=8, patch=4, depth=2, dim=8, heads=2)


def make_encoder(cfg=TINY, seed=1):
    return VisionEncoder(cfg, Rng(seed).split("encoder"))


def test_patch_count_paper_shape():
    cfg = EncoderConfig(image_h=288, image_w=144, patch=16, depth=12, dim=768,
                        heads=12)
    assert cfg.num_patches == 162
    assert cfg.tokens_per_frame == 163


def test_patch_count_desk_shape():
    assert DESK.num_patches == 8
    assert DESK.tokens_per_frame == 9


def test_config_rejects_indivisible_patch():
    with pytest.raises(ConfigError):
        EncoderConfig(image_h=30, image_w=16, patch=8, depth=2, dim=16, heads=2)


def test_count_layer_tokens():
    paper = EncoderConfig(image_h=288, image_w=144, patch=16, depth=12,
                          dim=768, heads=12)
    assert count_layer_tokens(paper, hub_active=True, frames=6) == 169
    assert count_layer_tokens(paper, hub_active=False, frames=6) == 163
    assert count_layer_tokens(DESK, hub_active=True, frames=4) == 13


def test_zero_image_with_zero_projection_yields_position_embedding():
    enc = make_encoder()
    enc.patch_w.data[...] = 0.0
    enc.patch_b.data[...] = 0.0
    enc.cls.data[...] = 0.0
    tokens = enc.embed(np.zeros((1, 1, 8, 8, 3)))
    np.testing.assert_array_equal(tokens.data[0, 0], enc.pos.data)


def test_patchify_rejects_wrong_extents():
    enc = make_encoder()
    with pytest.raises(ConfigError):
        enc.embed(np.zeros((1, 1, 8, 10, 3)))


def test_patch_raster_order():
    enc = make_encoder()
    frame = np.zeros((8, 8, 3))
    frame[0:4, 4:8, :] = 1.0  # patch at raster position 1 of the 2x2 grid
    patches = enc.patch_tokens(Tensor(frame.reshape(1, 1, 8, 8, 3)))
    assert patches.data[0, 0, 1].sum() == pytest.approx(4 * 4 * 3)
    assert patches.data[0, 0, 0].sum() == 0.0


def test_identical_frames_pool_to_single_frame_feature():
    enc = make_encoder()
    frame = Rng(10).uniform((8, 8, 3))
    frames = np.stack([frame] * 5)[None]
    out = enc.encode(Tensor(frames))
    np.testing.assert_allclose(out.sequence.data[0], out.frame_features.data[0, 0],
                               atol=1e-12)


def test_frame_permutation_leaves_pooled_feature_identical():
    enc = make_encoder()
    frames = Rng(11).uniform((1, 4, 8, 8, 3))
    base = enc.encode(Tensor(frames)).sequence.data
    permuted = frames[:, [2, 0, 3, 1]]
    out = enc.encode(Tensor(permuted)).sequence.data
    np.testing.assert_array_equal(base, out)


def test_desk_output_shape_and_finite():
    enc = make_encoder(DESK)
    frames = Rng(12).uniform((1, 4, 32, 16, 3))
    out = enc.encode(Tensor(frames))
    assert out.sequence.shape == (1, 64)
    assert np.isfinite(out.sequence.data).all()


def test_empty_tracklet_rejected():
    enc = make_encoder()
    with pytest.raises(DataError):
        enc.encode(Tensor(np.zeros((1, 0, 8, 8, 3))))


def test_pooling_linearity():
    enc = make_encoder()
    a = Rng(13).normal((1, 3, 8))
    b = Rng(14).normal((1, 3, 8))
    mean = lambda x: sorted_mean(Tensor(x), axis=1).data
    np.testing.assert_allclose(mean(a + b), mean(a) + mean(b), atol=1e-12)


def test_frames_are_independent_without_hub():
    """d f_cls^t / d frame_{t'} == 0 exactly for t' != t."""
    enc = make_encoder()
    frames = Tensor(Rng(15).uniform((1, 3, 8, 8, 3)), requires_grad=True)
    out = enc.encode(frames)
    # Weighted sum: a plain sum of an LN output has a degenerate gradient.
    (out.frame_features[0, 1] * Tensor(Rng(16).normal((8,)))).sum().backward()
    grads = frames.grad[0]
    assert np.abs(grads[1]).max() > 0
    assert np.abs(grads[0]).max() == 0.0
    assert np.abs(grads[2]).max() == 0.0


def test_parameter_names_are_unique():
    enc = make_encoder(DESK)
    names = [name for name, _ in enc.named_parameters()]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("with_hub", [False, True])
def test_each_block_calls_attention_by_its_encoder_name(monkeypatch, with_hub):
    # The benchmark trace times attention by wrapping this exact name; a
    # block that reached attention another way would read 0 there.
    import vld.encoder
    from vld.hub import TemporalHub
    calls = []
    real = vld.encoder.multi_head_attention

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(vld.encoder, "multi_head_attention", counted)
    enc = make_encoder(DESK)
    hub = TemporalHub(4, DESK.dim, 2, DESK.depth, Rng(17)) if with_hub else None
    enc.encode(Tensor(Rng(18).uniform((2, 4, 32, 16, 3))), hub=hub)
    assert len(calls) == DESK.depth


@pytest.mark.parametrize("hub_rows", [True, False])
def test_encode_gradients_through_pruned_last_block(hub_rows):
    # Criterion 3's finite-difference bound, through the last block run on
    # [CLS] and the hub rows, or on [CLS] alone.
    from gradcheck import check_gradients
    from vld.hub import TemporalHub
    enc = make_encoder()
    hub = TemporalHub(2, TINY.dim, 0, TINY.depth, Rng(19))
    frames = Tensor(Rng(20).uniform((2, 2, 8, 8, 3)))
    w_cls = Rng(21).normal((2, 2, 8))
    w_hub = Rng(22).normal((2, 2, 2, 8))

    def loss():
        out = enc.encode(frames, hub=hub, hub_rows=hub_rows)
        total = (out.frame_features * Tensor(w_cls)).sum()
        if hub_rows:
            total = total + (out.hub_block * Tensor(w_hub)).sum()
        return total

    params = [("hub", hub.h), ("cls", enc.cls), ("pos", enc.pos)]
    params += list(enc.blocks[-1].named_parameters("last"))
    errs = check_gradients(loss, params)
    assert max(errs.values()) < 1e-4, errs
