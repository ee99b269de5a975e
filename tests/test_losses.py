"""Loss suite: frozen scalar oracles, brute-force enumeration, gradients."""

import math

import numpy as np
import pytest

from gradcheck import check_gradients
from vld.errors import ContractError, DataError, DivergenceError
from vld.losses import (IdentityHead, LossWeights, cross_entropy_from_logits,
                        identity_cross_entropy, pairwise_distances, total_loss,
                        weighted_regularized_triplet)
from vld.rng import Rng
from vld.tensor import Tensor


def brute_force_wrt(features: np.ndarray, labels: np.ndarray) -> float:
    """Direct evaluation of the weighted soft-margin triplet objective."""
    n = len(labels)
    total = 0.0
    for i in range(n):
        pos = [j for j in range(n) if labels[j] == labels[i] and j != i]
        neg = [k for k in range(n) if labels[k] != labels[i]]
        dp = [np.linalg.norm(features[i] - features[j]) for j in pos]
        dn = [np.linalg.norm(features[i] - features[k]) for k in neg]
        wp = np.exp(dp) / np.exp(dp).sum()
        wn = np.exp([-d for d in dn]) / np.exp([-d for d in dn]).sum()
        gap = float(np.dot(wp, dp) - np.dot(wn, dn))
        total += math.log(1.0 + math.exp(gap))
    return total / n


# -- identity cross-entropy ----------------------------------------------------


def test_uniform_logits_equal_log_ny():
    logits = Tensor(np.zeros((4, 7)))
    loss = cross_entropy_from_logits(logits, [0, 1, 2, 3])
    assert loss.item() == pytest.approx(math.log(7), abs=1e-12)


def test_saturated_logits_near_zero():
    logits = Tensor(np.eye(3) * 1000.0)
    assert cross_entropy_from_logits(logits, [0, 1, 2]).item() < 1e-12


def test_two_class_scalar_oracle():
    # logits [[1,0],[0,1]] with matching labels: loss = -log(e/(e+1))
    logits = Tensor([[1.0, 0.0], [0.0, 1.0]])
    expected = -math.log(math.e / (math.e + 1.0))
    assert cross_entropy_from_logits(logits, [0, 1]).item() == pytest.approx(
        expected, abs=1e-12)
    assert expected == pytest.approx(0.31326168751822286, abs=1e-12)


def test_identity_head_applies_weights_and_bias():
    head = IdentityHead(2, 2, Rng(1))
    head.w.data[...] = np.eye(2)
    head.b.data[...] = 0.0
    features = Tensor([[1.0, 0.0], [0.0, 1.0]])
    loss = identity_cross_entropy(features, [0, 1], head)
    assert loss.item() == pytest.approx(0.31326168751822286, abs=1e-12)


def test_ce_label_out_of_range():
    with pytest.raises(DataError):
        cross_entropy_from_logits(Tensor(np.zeros((2, 3))), [0, 3])


def test_v2t_similarity_matrix_scalar_oracle():
    # Hand-set similarity matrix [[2,0,0],[0,1,1]], labels [0,1].
    logits = Tensor([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    e = math.e
    expected = -(math.log(e**2 / (e**2 + 2.0)) + math.log(e / (2 * e + 1.0))) / 2.0
    assert cross_entropy_from_logits(logits, [0, 1]).item() == pytest.approx(
        expected, abs=1e-12)


# -- weighted regularized triplet ---------------------------------------------


def test_equal_distances_give_log_two():
    # Regular tetrahedron: every positive and negative sits at the same
    # distance, so the weighted gap is exactly zero and each anchor
    # contributes log(1 + exp(0)) = ln 2.
    features = Tensor([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                       [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    loss = weighted_regularized_triplet(features, [0, 0, 1, 1])
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_weights_sum_to_one_per_anchor():
    rng = Rng(2)
    features = rng.normal((8, 4))
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    d = pairwise_distances(Tensor(features)).data
    same = labels[:, None] == labels[None, :]
    for i in range(8):
        pos = same[i] & (np.arange(8) != i)
        neg = ~same[i]
        wp = np.exp(d[i][pos])
        wn = np.exp(-d[i][neg])
        assert wp.sum() > 0 and wn.sum() > 0
        assert (wp / wp.sum()).sum() == pytest.approx(1.0, abs=1e-12)
        assert (wn / wn.sum()).sum() == pytest.approx(1.0, abs=1e-12)


def test_matches_brute_force_enumeration_to_1e12():
    # 4 hand-placed points in 2-D, two identities.
    features = np.array([[0.0, 0.0], [1.0, 0.5], [3.0, 0.0], [3.5, -1.0]])
    labels = np.array([0, 0, 1, 1])
    loss = weighted_regularized_triplet(Tensor(features), labels)
    assert loss.item() == pytest.approx(brute_force_wrt(features, labels),
                                        abs=1e-12)


def test_matches_brute_force_on_random_batches():
    for seed in range(5):
        rng = Rng(40 + seed)
        features = rng.normal((6, 5), std=2.0)
        labels = np.array([0, 0, 1, 1, 2, 2])
        loss = weighted_regularized_triplet(Tensor(features), labels)
        assert loss.item() == pytest.approx(brute_force_wrt(features, labels),
                                            abs=1e-12)


def test_anchor_without_positive_is_contract_error():
    features = Tensor(Rng(3).normal((3, 4)))
    with pytest.raises(ContractError, match="anchor 2"):
        weighted_regularized_triplet(features, [0, 0, 1])


def test_anchor_without_negative_is_contract_error():
    features = Tensor(Rng(4).normal((3, 4)))
    with pytest.raises(ContractError, match="no negative"):
        weighted_regularized_triplet(features, [0, 0, 0])


def test_gradients_match_finite_differences():
    features = Tensor(Rng(5).normal((6, 4)), requires_grad=True)
    labels = np.array([0, 0, 1, 1, 2, 2])

    def loss():
        return weighted_regularized_triplet(features, labels)

    errs = check_gradients(loss, [("features", features)])
    assert errs["features"] < 1e-5


def test_rigid_motion_invariance():
    rng = Rng(6)
    features = rng.normal((6, 4))
    labels = np.array([0, 0, 1, 1, 2, 2])
    base = weighted_regularized_triplet(Tensor(features), labels).item()
    # Random rotation (QR orthogonal factor) plus translation.
    q, _ = np.linalg.qr(rng.normal((4, 4)))
    moved = features @ q + rng.normal((1, 4), std=3.0)
    rotated = weighted_regularized_triplet(Tensor(moved), labels).item()
    assert rotated == pytest.approx(base, abs=1e-9)


def test_large_scale_concentrates_on_hardest_pairs():
    """Scaling all distances up concentrates weight on the farthest positive
    and the nearest negative."""
    anchor = np.zeros((1, 2))
    pos = np.array([[1.0, 0.0], [1.5, 0.0], [2.0, 0.0]])
    neg = np.array([[3.0, 0.0], [4.0, 0.0], [5.0, 0.0]])
    labels = np.array([0, 0, 0, 0, 1, 1, 1])
    for scale, tol in ((1.0, 0.5), (20.0, 1e-4)):
        features = np.concatenate([anchor, pos, neg]) * scale
        d = pairwise_distances(Tensor(features)).data
        wp = np.exp(d[0][1:4])
        wp /= wp.sum()
        wn = np.exp(-d[0][4:])
        wn /= wn.sum()
        assert wp[2] == max(wp)   # farthest positive dominates
        assert wn[0] == max(wn)   # nearest negative dominates
        if scale == 20.0:
            assert wp[2] > 1.0 - tol
            assert wn[0] > 1.0 - tol


# -- total objective -----------------------------------------------------------


def one() -> Tensor:
    return Tensor(np.array(1.0))


def test_total_loss_default_weights():
    loss = total_loss(one(), one(), one(), one(), one(), LossWeights())
    assert loss.item() == pytest.approx(3.48, abs=1e-12)


def test_total_loss_zero_lambdas_is_baseline_objective():
    weights = LossWeights(0.0, 0.0, 0.0)
    loss = total_loss(one(), one(), one(), one(), one(), weights)
    assert loss.item() == pytest.approx(2.0, abs=1e-12)


def test_total_loss_disabled_branches():
    loss = total_loss(one(), one(), None, None, None, LossWeights())
    assert loss.item() == pytest.approx(2.0, abs=1e-12)


def test_total_loss_scales_linearly_in_lambda():
    for lam in (0.1, 0.2, 0.4):
        weights = LossWeights(lambda_v2t=lam, lambda_id_hub=0.0,
                              lambda_wrt_hub=0.0)
        part = Tensor(np.array(2.0), requires_grad=True)
        loss = total_loss(one(), one(), part, None, None, weights)
        loss.backward()
        assert part.grad == pytest.approx(lam, abs=1e-12)


def test_total_loss_monotone_in_lambda_for_positive_parts():
    lo = total_loss(one(), one(), one(), one(), one(),
                    LossWeights(0.1, 0.1, 0.1)).item()
    hi = total_loss(one(), one(), one(), one(), one(),
                    LossWeights(0.2, 0.3, 0.4)).item()
    assert hi > lo


def test_total_loss_nan_names_the_part():
    bad = Tensor(np.array(float("nan")))
    with pytest.raises(DivergenceError, match="wrt_hub"):
        total_loss(one(), one(), one(), one(), bad, LossWeights())
