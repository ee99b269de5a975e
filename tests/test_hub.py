"""Space-time hub: attach/transpose bookkeeping, ablation equivalence,
cross-frame gradient flow, and the readout attention."""

import numpy as np
import pytest

from reference import composite_attention
from util import random_frames
from vld.encoder import EncoderConfig, VisionEncoder
from vld.errors import ConfigError, DataError
from vld.hub import HubReadout, TemporalHub, VideoModel, flatten_hub
from vld.rng import Rng
from vld.tensor import Tensor, layer_norm

TINY = EncoderConfig(image_h=8, image_w=8, patch=4, depth=4, dim=8, heads=2)
DESK = EncoderConfig(image_h=32, image_w=16, patch=8, depth=4, dim=64, heads=4)


def make_hub(frames=4, dim=8, insertion=1, depth=4, seed=2):
    return TemporalHub(frames, dim, insertion, depth, Rng(seed).split("hub"))


def test_attach_shapes_desk_and_paper_dims():
    hub = make_hub(frames=4, dim=64)
    x = Tensor(Rng(3).normal((2, 4, 9, 64)))
    assert hub.attach(x).shape == (2, 4, 13, 64)
    paper_hub = TemporalHub(6, 768, 9, 12, Rng(4))
    x = Tensor(np.zeros((1, 6, 163, 768)))
    assert paper_hub.attach(x).shape == (1, 6, 169, 768)


def test_attach_rejects_frame_mismatch():
    hub = make_hub(frames=4)
    with pytest.raises(ConfigError):
        hub.attach(Tensor(np.zeros((1, 3, 9, 8))))


def test_insertion_layer_range_checked():
    with pytest.raises(ConfigError):
        TemporalHub(4, 8, 5, 4, Rng(0))
    with pytest.raises(ConfigError):
        TemporalHub(4, 8, -1, 4, Rng(0))
    assert not TemporalHub(4, 8, 4, 4, Rng(0)).active  # inactive hub


def test_zero_hub_slices_back_to_original_tokens():
    hub = make_hub()
    hub.h.data[...] = 0.0
    x = Rng(5).normal((2, 4, 9, 8))
    attached = hub.attach(Tensor(x))
    np.testing.assert_array_equal(attached.data[:, :, :9, :], x)
    np.testing.assert_array_equal(attached.data[:, :, 9:, :], 0.0)


def test_attach_places_hub_rows_per_frame():
    hub = make_hub(frames=3)
    x = Tensor(np.zeros((1, 3, 9, 8)))
    attached = hub.attach(x).data
    for t in range(3):
        np.testing.assert_array_equal(attached[0, t, 9:, :], hub.h.data[t])


def test_transpose_is_involution_bitwise():
    hub = make_hub()
    x = Tensor(Rng(6).normal((2, 4, 9, 8)))
    attached = hub.attach(x)
    twice = hub.flip(hub.flip(attached))
    np.testing.assert_array_equal(twice.data, attached.data)


def test_transpose_noop_for_symmetric_hub():
    hub = make_hub(frames=3)
    sym = Rng(7).normal((3, 3, 8))
    hub.h.data[...] = sym + sym.transpose(1, 0, 2)
    attached = hub.attach(Tensor(np.zeros((1, 3, 5, 8))))
    flipped = hub.flip(attached)
    np.testing.assert_array_equal(flipped.data, attached.data)


def test_transpose_index_bookkeeping_t2():
    """After one flip, frame 0 carries rows (h[0,0], h[1,0])."""
    hub = make_hub(frames=2)
    labeled = np.zeros((2, 2, 8))
    for a in range(2):
        for b in range(2):
            labeled[a, b, :] = 10 * a + b
    hub.h.data[...] = labeled
    attached = hub.attach(Tensor(np.zeros((1, 2, 3, 8))))
    flipped = hub.flip(attached).data
    np.testing.assert_array_equal(flipped[0, 0, 3:, 0], [0.0, 10.0])
    np.testing.assert_array_equal(flipped[0, 1, 3:, 0], [1.0, 11.0])


def test_orientation_schedule_paper_config():
    """Attached at layer 9 of 12 and flipped before each later layer, as
    the encoder does: frame t holds h[t] at layers 9 and 11, h[:, t] at 10."""
    hub = TemporalHub(6, 8, 9, 12, Rng(8))
    x = hub.attach(Tensor(np.zeros((1, 6, 3, 8))))
    seen = []
    for layer in range(hub.insertion_layer, hub.depth):
        if layer > hub.insertion_layer:
            x = hub.flip(x)
        rows = x.data[0, :, 3:, :]
        if np.array_equal(rows, hub.h.data):
            seen.append("H")
        elif np.array_equal(rows, hub.h.data.transpose(1, 0, 2)):
            seen.append("HT")
        else:
            seen.append("?")
    assert seen == ["H", "HT", "H"]


def test_sentinel_insertion_is_bit_identical_to_baseline():
    rng = Rng(9)
    enc = VisionEncoder(TINY, rng.split("encoder"))
    frames = Rng(10).uniform((2, 4, 8, 8, 3))
    baseline = enc.encode(Tensor(frames))
    hub = TemporalHub(4, 8, TINY.depth, TINY.depth, rng.split("hub"))
    with_hub = enc.encode(Tensor(frames), hub=hub)
    np.testing.assert_array_equal(baseline.sequence.data, with_hub.sequence.data)
    np.testing.assert_array_equal(baseline.frame_features.data,
                                  with_hub.frame_features.data)
    assert with_hub.hub_block is None


def test_hub_enables_cross_frame_gradient_flow():
    rng = Rng(11)
    enc = VisionEncoder(TINY, rng.split("encoder"))
    hub = TemporalHub(3, 8, 1, TINY.depth, rng.split("hub"))
    weights = Rng(12).normal((8,))

    def cross_frame_grad(h):
        frames = Tensor(Rng(13).uniform((1, 3, 8, 8, 3)), requires_grad=True)
        out = enc.encode(frames, hub=h)
        (out.frame_features[0, 1] * Tensor(weights)).sum().backward()
        other = np.abs(frames.grad[0, [0, 2]]).max()
        own = np.abs(frames.grad[0, 1]).max()
        return own, other

    own, other = cross_frame_grad(None)
    assert own > 0 and other == 0.0
    own, other = cross_frame_grad(hub)
    assert own > 0 and other > 0


def test_single_hub_layer_cannot_cross_frames():
    # Aggregation without a subsequent diffusion layer keeps frames separate.
    rng = Rng(14)
    enc = VisionEncoder(TINY, rng.split("encoder"))
    hub = TemporalHub(3, 8, TINY.depth - 1, TINY.depth, rng.split("hub"))
    frames = Tensor(Rng(15).uniform((1, 3, 8, 8, 3)), requires_grad=True)
    out = enc.encode(frames, hub=hub)
    (out.frame_features[0, 1] * Tensor(Rng(16).normal((8,)))).sum().backward()
    assert np.abs(frames.grad[0, [0, 2]]).max() == 0.0


def test_flatten_hub_shape_paper_dims():
    block = Tensor(np.zeros((1, 6, 6, 768)))
    assert flatten_hub(block).shape == (1, 36, 768)


def test_flatten_hub_raster_order():
    block = np.arange(2 * 3 * 3 * 1).reshape(2, 3, 3, 1).astype(float)
    flat = flatten_hub(Tensor(block)).data
    np.testing.assert_array_equal(flat[0, :, 0], np.arange(9))


def test_readout_single_frame_ignores_query():
    readout = HubReadout(8, 2, Rng(17))
    block = Tensor(Rng(18).normal((1, 1, 1, 8)))
    a, _ = readout(Tensor(Rng(19).normal((1, 1, 8))), block)
    b, _ = readout(Tensor(Rng(20).normal((1, 1, 8))), block)
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_readout_attention_rows_sum_to_one_over_t2_keys():
    readout = HubReadout(8, 2, Rng(21))
    block = Tensor(Rng(22).normal((2, 4, 4, 8)))
    cls = Tensor(Rng(23).normal((2, 4, 8)))
    frame_feats, pooled = readout(cls, block)
    keys = flatten_hub(block)
    mixed, weights = composite_attention(cls, keys, keys, readout.attn,
                                         return_weights=True)
    expected = layer_norm(mixed, readout.ln_g, readout.ln_b)
    assert np.array_equal(frame_feats.data, expected.data)
    assert weights.shape[-1] == 16
    np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-10)
    assert pooled.shape == (2, 8)


def test_readout_pool_is_mean_of_frame_features():
    readout = HubReadout(8, 2, Rng(24))
    block = Tensor(Rng(25).normal((1, 3, 3, 8)))
    cls = Tensor(Rng(26).normal((1, 3, 8)))
    frame_feats, pooled = readout(cls, block)
    np.testing.assert_allclose(pooled.data, frame_feats.data.mean(axis=1),
                               atol=1e-12)


def test_video_model_parameter_names():
    model = VideoModel(DESK, frames=4, rng=Rng(27), insertion_layer=1)
    names = dict(model.named_parameters())
    assert "stp/hub" in names
    assert "stp/sta/wq" in names and "stp/sta/ln_g" in names
    assert names["stp/hub"].shape == (4, 4, 64)


def test_hub_gradient_reaches_hub_parameter():
    model = VideoModel(TINY, frames=3, rng=Rng(28), insertion_layer=1)
    seq, hub_seq = model.forward(random_frames(29, (2, 3, 8, 8, 3)))
    (hub_seq * Tensor(Rng(30).normal((2, 8)))).sum().backward()
    assert np.abs(model.hub.h.grad).max() > 0


def test_forward_rejects_frames_that_are_not_stored_uint8():
    model = VideoModel(TINY, frames=3, rng=Rng(28), insertion_layer=1)
    frames = random_frames(29, (2, 3, 8, 8, 3))
    for decoded in (frames / 255.0, (frames / 255.0).astype(np.float32),
                    Tensor(frames)):
        with pytest.raises(DataError, match="uint8"):
            model.forward(decoded)
