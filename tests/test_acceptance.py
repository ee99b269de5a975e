"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 1-6 and 8 are
fast; criterion 7 trains twelve desk-scale models and dominates runtime.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import check_gradients
from reference import brute_force_eval, tlog, ttanh
from util import tiny_e2e_problem
from vld.config import load_config
from vld.encoder import EncoderConfig, VisionEncoder
from vld.hub import TemporalHub
from vld.losses import cross_entropy_from_logits, weighted_regularized_triplet
from vld.prompts import FrozenTextEncoder, PromptBank
from vld.profiler import cost_report, format_report
from vld.rng import Rng
from vld.tensor import (Tensor, attention, broadcast_to, clamp_max, concat,
                        div, layer_norm, linear, logsumexp, matmul, mlp,
                        reshape, softplus, sorted_mean, texp, transpose, tsqrt)
from vld.train import train

PAPER_CFG = EncoderConfig(image_h=288, image_w=144, patch=16, depth=12,
                          dim=768, heads=12)
DESK_CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"

PUBLISHED_STP_PARAM_DELTA = 2_391_552      # the +2.39M figure
PUBLISHED_BASELINE_PARAMS = 86.17e6
PUBLISHED_BASELINE_GMACS = 13.96e9
PUBLISHED_STP_GFLOPS = 0.12e9


def announce(criterion: int, message: str) -> None:
    print(f"\nPASS criterion {criterion}: {message}")


def test_criterion_1_parameter_cost_reproduction():
    start = time.time()
    report = cost_report(PAPER_CFG, frames=6, stp_enabled=True,
                         insertion_layer=9)
    assert report.stp_param_delta == PUBLISHED_STP_PARAM_DELTA
    baseline = report.params_total - report.stp_param_delta
    rel = abs(baseline - PUBLISHED_BASELINE_PARAMS) / PUBLISHED_BASELINE_PARAMS
    assert rel < 0.02
    elapsed = time.time() - start
    assert elapsed < 1.0
    announce(1, f"stp param delta {report.stp_param_delta:,} (= published "
                f"2.39M); baseline {baseline / 1e6:.2f}M within "
                f"{rel * 100:.2f}% of 86.17M; {elapsed * 1000:.0f} ms")


def test_criterion_2_flop_bracket():
    start = time.time()
    report = cost_report(PAPER_CFG, frames=6, stp_enabled=True,
                         insertion_layer=9)
    baseline_macs = report.macs_total - report.stp_macs_delta
    rel = abs(baseline_macs - PUBLISHED_BASELINE_GMACS) / PUBLISHED_BASELINE_GMACS
    assert rel < 0.10
    assert 0.05e9 <= report.stp_macs_delta <= 0.5e9
    text = format_report(report)
    assert "+0.12G FLOPs" in text          # published delta printed alongside
    assert "multiply-accumulate counted as 2 FLOPs" in text
    elapsed = time.time() - start
    assert elapsed < 1.0
    announce(2, f"baseline {baseline_macs / 1e9:.2f} GMACs within "
                f"{rel * 100:.1f}% of 13.96G; stp delta "
                f"{report.stp_macs_delta / 1e9:.3f}G in [0.05, 0.5] "
                f"(published 0.12G printed; MACs-as-2-FLOPs documented)")


def test_criterion_3_gradient_suite():
    start = time.time()
    rng = Rng(300)

    per_op = {}

    def check(name, params, build):
        errs = check_gradients(build, params)
        per_op[name] = max(errs.values())

    a = Tensor(rng.normal((4, 5)), requires_grad=True)
    b = Tensor(rng.normal((5, 3)), requires_grad=True)
    w_ab = rng.normal((4, 3))
    check("matmul", [("a", a), ("b", b)],
          lambda: (matmul(a, b) * w_ab).sum())

    ln_x = Tensor(rng.normal((3, 8)), requires_grad=True)
    ln_g = Tensor(rng.normal((8,), std=0.3) + 1.0, requires_grad=True)
    ln_b = Tensor(rng.normal((8,), std=0.3), requires_grad=True)
    w_ln = rng.normal((3, 8))
    check("layer_norm", [("x", ln_x), ("g", ln_g), ("b", ln_b)],
          lambda: (layer_norm(ln_x, ln_g, ln_b) * w_ln).sum())

    from vld.attention import AttentionWeights, multi_head_attention
    attn_w = AttentionWeights.create(8, 2, Rng(301))
    q = Tensor(rng.normal((2, 8)), requires_grad=True)
    k = Tensor(rng.normal((3, 8)), requires_grad=True)
    v = Tensor(rng.normal((3, 8)), requires_grad=True)
    w_mha = rng.normal((2, 8))
    check("multi_head_attention",
          [("q", q), ("k", k), ("v", v)] + list(attn_w.named("w")),
          lambda: (multi_head_attention(q, k, v, attn_w) * w_mha).sum())

    lx = Tensor(rng.normal((3, 4, 6)), requires_grad=True)
    lw = Tensor(rng.normal((6, 5)), requires_grad=True)
    lb = Tensor(rng.normal((5,)), requires_grad=True)
    w_lin = rng.normal((3, 4, 5))
    check("linear", [("x", lx), ("w", lw), ("b", lb)],
          lambda: (linear(lx, lw, lb) * w_lin).sum())

    mx = Tensor(rng.normal((5, 6)), requires_grad=True)
    mparams = [("w1", Tensor(rng.normal((6, 12)), requires_grad=True)),
               ("b1", Tensor(rng.normal((12,)), requires_grad=True)),
               ("w2", Tensor(rng.normal((12, 6)), requires_grad=True)),
               ("b2", Tensor(rng.normal((6,)), requires_grad=True))]
    w_mlp = rng.normal((5, 6))
    check("mlp", [("x", mx)] + mparams,
          lambda: (mlp(mx, *[p for _, p in mparams]) * w_mlp).sum())

    sx = Tensor(rng.normal((2, 5, 8)), requires_grad=True)
    self_w = list(AttentionWeights.create(8, 2, Rng(302)).named("w"))
    w_self = rng.normal((2, 5, 8))
    check("self_attention", [("x", sx)] + self_w,
          lambda: (attention(sx, sx, sx, [p for _, p in self_w], 2)
                   * w_self).sum())

    unary = {
        "exp": texp, "log": lambda t: tlog(t * t + 1.0), "tanh": ttanh,
        "sqrt": lambda t: tsqrt(t * t + 0.5),
        "softplus": softplus, "logsumexp": lambda t: logsumexp(t, axis=-1),
        "div": lambda t: div(1.0, t * t + 2.0),
        "clamp_max": lambda t: clamp_max(t, 0.3),
        "sorted_mean": lambda t: sorted_mean(t, axis=0),
        "transpose": lambda t: transpose(t, (1, 0)),
        "reshape": lambda t: reshape(t, (12, 2)),
        "slice": lambda t: t[1:, 1:5],
        "broadcast_to": lambda t: broadcast_to(reshape(t, (4, 1, 6)),
                                               (4, 3, 6)),
        "concat": lambda t: concat([t, t * 2.0], axis=1),
    }
    for name, fn in unary.items():
        ux = Tensor(rng.normal((4, 6)), requires_grad=True)
        shape = fn(Tensor(ux.data)).shape
        w_u = rng.normal(shape)
        check(name, [("x", ux)], lambda fn=fn, ux=ux, w_u=w_u:
              (fn(ux) * w_u).sum())

    worst_op = max(per_op.values())
    assert worst_op < 1e-4, sorted(per_op.items(), key=lambda kv: -kv[1])[:3]

    params, build_loss = tiny_e2e_problem()
    e2e_errs = check_gradients(build_loss, params)
    worst_e2e = max(e2e_errs.values())
    assert worst_e2e < 1e-3, \
        sorted(e2e_errs.items(), key=lambda kv: -kv[1])[:5]

    elapsed = time.time() - start
    assert elapsed < 120.0
    announce(3, f"{len(per_op)} ops max rel err {worst_op:.2e} (< 1e-4); "
                f"end-to-end objective over {len(params)} parameter tensors "
                f"max rel err {worst_e2e:.2e} (< 1e-3); {elapsed:.1f} s")


def test_criterion_4_formula_oracles():
    # Weighted triplet vs direct enumeration on hand-built batches.
    def brute(features, labels):
        n = len(labels)
        total = 0.0
        for i in range(n):
            pos = [j for j in range(n) if labels[j] == labels[i] and j != i]
            neg = [k for k in range(n) if labels[k] != labels[i]]
            dp = [np.linalg.norm(features[i] - features[j]) for j in pos]
            dn = [np.linalg.norm(features[i] - features[k]) for k in neg]
            wp = np.exp(dp) / np.exp(dp).sum()
            wn = np.exp([-d for d in dn]) / np.exp([-d for d in dn]).sum()
            total += math.log(1.0 + math.exp(np.dot(wp, dp) - np.dot(wn, dn)))
        return total / n

    hand = np.array([[0.0, 0.0], [1.0, 0.5], [3.0, 0.0], [3.5, -1.0]])
    labels = np.array([0, 0, 1, 1])
    ours = weighted_regularized_triplet(Tensor(hand), labels).item()
    gap_hand = abs(ours - brute(hand, labels))
    assert gap_hand < 1e-12

    rng = Rng(400)
    worst = gap_hand
    for _ in range(5):
        feats = rng.normal((6, 3), std=1.5)
        lab = np.array([0, 0, 1, 1, 2, 2])
        gap = abs(weighted_regularized_triplet(Tensor(feats), lab).item()
                  - brute(feats, lab))
        worst = max(worst, gap)
    assert worst < 1e-12

    # Visual-to-text similarity matrix oracle.
    logits = Tensor([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    e = math.e
    expected = -(math.log(e**2 / (e**2 + 2)) + math.log(e / (2 * e + 1))) / 2
    v2t_gap = abs(cross_entropy_from_logits(logits, [0, 1]).item() - expected)
    assert v2t_gap < 1e-12

    # Uniform logits hit ln(N_y) exactly.
    for n_y in (3, 7, 20):
        loss = cross_entropy_from_logits(Tensor(np.zeros((4, n_y))),
                                         [0, 1, 2, 0]).item()
        assert abs(loss - math.log(n_y)) < 1e-12

    announce(4, f"triplet vs enumeration max gap {worst:.1e}; 2x3 similarity "
                f"oracle gap {v2t_gap:.1e}; uniform logits equal ln(N_y) "
                f"to 1e-12")


def test_criterion_5_retrieval_oracle():
    from vld.retrieval import GalleryIndex, evaluate
    from vld.errors import DataError

    rng = Rng(500)
    checked = 0
    trials = 0
    while checked < 200:
        trials += 1
        nq = 1 + rng.randint(8)
        ng = 2 + rng.randint(49)
        dim = 3 + rng.randint(6)
        ids = 1 + rng.randint(6)

        def index(n, modality):
            feats = rng.normal((n, dim))
            feats /= np.linalg.norm(feats, axis=1, keepdims=True)
            return GalleryIndex(feats, rng.integers(n, ids),
                                np.asarray([modality] * n),
                                rng.permutation(1000)[:n])

        q, g = index(nq, "infrared"), index(ng, "visible")
        try:
            report = evaluate(q, g)
        except DataError:
            continue
        cmc, mean_ap = brute_force_eval(q, g)
        np.testing.assert_array_equal(report.cmc, cmc)
        assert report.mean_ap == mean_ap
        checked += 1
    announce(5, f"evaluate() equals the brute-force oracle exactly on "
                f"{checked} random instances (gallery <= 50, {trials} drawn)")


def test_criterion_6_mechanism_invariants():
    cfg = EncoderConfig(image_h=8, image_w=8, patch=4, depth=4, dim=8, heads=2)
    rng = Rng(600)
    enc = VisionEncoder(cfg, rng.split("encoder"))
    frames_np = Rng(601).uniform((2, 3, 8, 8, 3))

    # (a) ablation equivalence: sentinel insertion is bit-identical.
    baseline = enc.encode(Tensor(frames_np))
    off_hub = TemporalHub(3, 8, cfg.depth, cfg.depth, rng.split("hub"))
    routed = enc.encode(Tensor(frames_np), hub=off_hub)
    np.testing.assert_array_equal(baseline.sequence.data, routed.sequence.data)

    # (b) hub transpose involution, bitwise.
    hub = TemporalHub(3, 8, 1, cfg.depth, rng.split("hub2"))
    attached = hub.attach(enc.embed(Tensor(frames_np)))
    np.testing.assert_array_equal(hub.flip(hub.flip(attached)).data,
                                  attached.data)

    # (c) cross-frame gradient flow: nonzero with the hub, zero without.
    probe = Rng(602).normal((8,))

    def cross_grad(h):
        frames = Tensor(frames_np[:1], requires_grad=True)
        out = enc.encode(frames, hub=h)
        (out.frame_features[0, 1] * Tensor(probe)).sum().backward()
        return np.abs(frames.grad[0, [0, 2]]).max()

    assert cross_grad(None) == 0.0
    assert cross_grad(hub) > 0.0

    # (d) frozen text encoder receives zero gradient.
    bank = PromptBank(3, 2, 8, rng.split("prompts"))
    text_enc = FrozenTextEncoder(8, bank.length, seed=17)
    protos = text_enc.encode(bank)
    (protos * Tensor(Rng(603).normal(protos.shape))).sum().backward()
    frozen = [p for blk in text_enc.blocks for _, p in blk.named_parameters("")]
    frozen += [text_enc.proj, text_enc.pos, text_enc.ln_g, text_enc.ln_b]
    assert all(p.grad is None for p in frozen)
    assert np.abs(bank.tokens.grad).max() > 0

    # (e) temporal pooling is bit-identical under frame permutation.
    permuted = frames_np[:, [2, 0, 1]]
    np.testing.assert_array_equal(
        enc.encode(Tensor(frames_np)).sequence.data,
        enc.encode(Tensor(permuted)).sequence.data)

    announce(6, "ablation bit-equivalence, transpose involution, cross-frame "
                "gradient flow (on with hub, exactly zero without), frozen "
                "text encoder zero-gradient, pooling permutation invariance")


@pytest.mark.slow
def test_criterion_7_ablation_ordering(tmp_path):
    """Twelve short trainings on one seeded benchmark: the ablation ordering
    must hold on mean test mAP over training seeds 1-3."""
    from vld.data import generate
    start = time.time()
    base = load_config(DESK_CONFIG_PATH)
    data_root = tmp_path / "benchmark"
    generate(base.synthetic_spec(), seed=1, root=data_root)
    seeds = (1, 2, 3)
    variants = {
        "B": (False, False),
        "B+IMLP": (False, True),
        "B+STP": (True, False),
        "B+STP+IMLP": (True, True),
    }
    means = {}
    for name, (stp, imlp) in variants.items():
        finals = []
        for seed in seeds:
            cfg = load_config(DESK_CONFIG_PATH)
            cfg.values["stp.enabled"] = stp
            cfg.values["imlp.enabled"] = imlp
            cfg.values["train.seed"] = seed
            cfg.values["data.root"] = str(data_root)
            summary = train(cfg, tmp_path / f"run-{name}-s{seed}")
            finals.append(float(np.mean(list(summary["final_maps"].values()))))
        means[name] = float(np.mean(finals))
        print(f"  {name}: per-seed {['%.4f' % f for f in finals]} "
              f"mean {means[name]:.4f}", flush=True)
    elapsed = time.time() - start
    assert means["B+STP+IMLP"] >= means["B+STP"] >= means["B"], means
    assert means["B+IMLP"] >= means["B"], means
    assert elapsed < 600.0
    announce(7, "mean test mAP over seeds 1-3: "
                + ", ".join(f"{k}={v:.4f}" for k, v in means.items())
                + f"; orderings hold; {elapsed:.0f} s")


def test_criterion_8_bitwise_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        cfg = load_config(DESK_CONFIG_PATH)
        cfg.values.update({"data.train_identities": 6,
                           "data.test_identities": 3, "train.epochs": 2,
                           "train.epoch_passes": 1, "train.seed": 1,
                           "data.root": str(tmp_path / "data")})
        out = tmp_path / f"run_{tag}"
        train(cfg, out)
        runs.append(out)
    compared = []
    for name in ("final.vldt", "best.vldt", "metrics.log",
                 "report_ir2vis.json", "report_vis2ir.json",
                 "cmc_ir2vis.csv", "cmc_vis2ir.csv", "resolved.cfg"):
        a = (runs[0] / name).read_bytes()
        b = (runs[1] / name).read_bytes()
        assert a == b, f"{name} differs between seed-1 runs"
        compared.append(name)
    announce(8, f"two seed-1 runs byte-identical across {len(compared)} "
                f"artifacts (checkpoints, logs, reports, resolved config)")
