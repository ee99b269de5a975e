"""Prompt bank, frozen text encoder, and the visual-to-text loss."""

import math

import numpy as np
import pytest

from gradcheck import check_gradients
from vld.errors import ConfigError, DataError
from vld.prompts import (FrozenTextEncoder, PromptBank, make_logit_scale,
                         unit_normalize, visual_text_loss, LOGIT_SCALE_INIT)
from vld.rng import Rng
from vld.tensor import Tensor


def make_pair(num_ids=4, slots=4, dim=16, text_seed=101, seed=5):
    bank = PromptBank(num_ids, slots, dim, Rng(seed).split("prompts"))
    enc = FrozenTextEncoder(dim, bank.length, text_seed)
    return bank, enc


def test_bank_shapes_default_and_minimal():
    bank, _ = make_pair(num_ids=20, slots=4, dim=16)
    assert bank.tokens.shape == (20, 4, 16)
    assert bank.length == 1 + 4 + 9
    minimal = PromptBank(2, 1, 8, Rng(1))
    assert minimal.tokens.shape == (2, 1, 8)
    assert minimal.length == 1 + 1 + 9


def test_bank_preconditions():
    with pytest.raises(ConfigError):
        PromptBank(4, 0, 8, Rng(0))


def test_template_embeddings_are_shared_frozen_storage():
    a = PromptBank(3, 4, 8, Rng(1))
    b = PromptBank(3, 4, 8, Rng(2))
    np.testing.assert_array_equal(a.prefix.data, b.prefix.data)
    np.testing.assert_array_equal(a.suffix.data, b.suffix.data)
    assert not a.prefix.requires_grad and not a.suffix.requires_grad
    assert (a.tokens.data != b.tokens.data).any()


def test_identical_slots_give_identical_prototypes():
    bank, enc = make_pair()
    bank.tokens.data[1] = bank.tokens.data[0]
    protos = enc.encode(bank).data
    np.testing.assert_array_equal(protos[0], protos[1])


def test_prototypes_unit_norm_and_reproducible():
    bank, enc = make_pair()
    protos = enc.encode(bank)
    np.testing.assert_allclose(np.linalg.norm(protos.data, axis=1), 1.0,
                               atol=1e-9)
    again = enc.encode(bank)
    np.testing.assert_array_equal(protos.data, again.data)


def test_frozen_encoder_receives_zero_gradient():
    bank, enc = make_pair()
    protos = enc.encode(bank)
    (protos * Tensor(Rng(6).normal(protos.shape))).sum().backward()
    assert bank.tokens.grad is not None and np.abs(bank.tokens.grad).max() > 0
    for block in enc.blocks:
        for _, p in block.named_parameters(""):
            assert p.grad is None
    assert enc.proj.grad is None and enc.pos.grad is None


def test_cross_identity_slot_gradient_is_zero():
    bank, enc = make_pair()
    protos = enc.encode(bank)
    (protos[1] * Tensor(Rng(7).normal((16,)))).sum().backward()
    assert np.abs(bank.tokens.grad[1]).max() > 0
    assert np.abs(bank.tokens.grad[0]).max() == 0.0
    assert np.abs(bank.tokens.grad[2:]).max() == 0.0


def test_encoder_not_in_optimizer_contract():
    bank, enc = make_pair()
    named = dict(bank.named_parameters())
    assert set(named) == {"imlp/prompts"}


def test_uniform_similarities_give_log_ny():
    features = Tensor(Rng(8).normal((5, 16)))
    protos = unit_normalize(Tensor(Rng(9).normal((7, 16))))
    loss = visual_text_loss(features, [0, 1, 2, 3, 4], protos,
                            Tensor(np.array(0.0)))
    assert loss.item() == pytest.approx(math.log(7), abs=1e-12)


def test_saturated_similarity_drives_loss_to_zero():
    protos = unit_normalize(Tensor(np.eye(3, 8)))
    features = Tensor(np.eye(3, 8) * 5.0)
    loss = visual_text_loss(features, [0, 1, 2], protos,
                            Tensor(np.array(400.0)))  # clamped to 100
    assert loss.item() < 1e-10


def test_label_out_of_range():
    features = Tensor(Rng(10).normal((2, 16)))
    protos = unit_normalize(Tensor(Rng(11).normal((3, 16))))
    with pytest.raises(DataError):
        visual_text_loss(features, [0, 3], protos, make_logit_scale())


def test_scale_preserves_argmax():
    features = Tensor(Rng(12).normal((4, 16)))
    protos = unit_normalize(Tensor(Rng(13).normal((6, 16))))
    sims = features.data / np.linalg.norm(features.data, axis=1, keepdims=True)
    sims = sims @ protos.data.T
    base = np.argmax(sims, axis=1)
    for scale in (0.5, 3.0, 50.0):
        np.testing.assert_array_equal(np.argmax(scale * sims, axis=1), base)


def test_logit_scale_initial_value():
    assert make_logit_scale().item() == pytest.approx(LOGIT_SCALE_INIT)


def test_v2t_gradients_match_finite_differences():
    bank, enc = make_pair(num_ids=3, slots=2, dim=8)
    features = Tensor(Rng(14).normal((4, 8)), requires_grad=True)
    scale = make_logit_scale()
    labels = [0, 1, 2, 1]

    def loss():
        protos = enc.encode(bank)
        return visual_text_loss(features, labels, protos, scale)

    errs = check_gradients(loss, [("features", features),
                                  ("prompts", bank.tokens),
                                  ("scale", scale)])
    assert max(errs.values()) < 1e-4, errs
