"""Analytic cost model: exact parameter counts, FLOP structure, and the
enumeration oracle against constructed models."""

from vld.encoder import EncoderConfig
from vld.hub import VideoModel
from vld.profiler import (cost_report, count_params, estimate_flops,
                          format_report, layer_flops, readout_params)
from vld.rng import Rng

PAPER = EncoderConfig(image_h=288, image_w=144, patch=16, depth=12, dim=768,
                      heads=12)
DESK = EncoderConfig(image_h=32, image_w=16, patch=8, depth=4, dim=64, heads=4)


def enumerate_model_params(model: VideoModel) -> int:
    return sum(p.data.size for _, p in model.named_parameters())


def test_stp_param_delta_is_exactly_2391552():
    report = count_params(PAPER, frames=6, stp_enabled=True)
    assert report.stp_param_delta == 2_391_552
    assert report.params_by_module["hub"] == 27_648
    assert report.params_by_module["readout"] == 2_359_296 + 3_072 + 1_536


def test_baseline_total_within_two_percent_of_published():
    report = count_params(PAPER, frames=6, stp_enabled=False)
    published = 86.17e6
    assert abs(report.params_total - published) / published < 0.02


def test_toy_hub_param_count():
    cfg = EncoderConfig(image_h=4, image_w=4, patch=2, depth=1, dim=2, heads=1)
    report = count_params(cfg, frames=2, stp_enabled=True)
    assert report.params_by_module["hub"] == 8


def test_module_sums_equal_totals():
    for stp in (False, True):
        report = cost_report(DESK, frames=4, stp_enabled=stp, insertion_layer=1)
        assert sum(report.params_by_module.values()) == report.params_total
        assert sum(report.flops_by_module.values()) == report.flops_total


def test_param_formula_matches_enumerated_model_exactly():
    for cfg, frames, stp, layer in [
        (DESK, 4, True, 1),
        (DESK, 4, False, 1),
        (EncoderConfig(image_h=16, image_w=8, patch=4, depth=3, dim=32,
                       heads=2), 5, True, 0),
        (EncoderConfig(image_h=8, image_w=8, patch=4, depth=2, dim=8,
                       heads=2), 2, True, 0),
    ]:
        model = VideoModel(cfg, frames=frames, rng=Rng(1),
                           insertion_layer=layer if stp else None)
        report = count_params(cfg, frames=frames, stp_enabled=stp)
        assert enumerate_model_params(model) == report.params_total


def test_readout_params_match_enumerated_readout():
    from vld.hub import HubReadout
    readout = HubReadout(64, 4, Rng(2))
    total = sum(p.data.size for _, p in readout.named_parameters())
    assert total == readout_params(64)


def test_doubling_tokens_scales_attention_4x_projections_2x():
    base = layer_flops(tokens=100, dim=64)
    doubled = layer_flops(tokens=200, dim=64)
    assert doubled["attention"] == 4 * base["attention"]
    assert doubled["projections"] == 2 * base["projections"]
    assert doubled["mlp"] == 2 * base["mlp"]


def test_baseline_macs_within_ten_percent_of_published():
    report = estimate_flops(PAPER, frames=6, stp_enabled=False,
                            insertion_layer=9)
    published = 13.96e9
    assert abs(report.macs_total - published) / published < 0.10


def test_stp_flops_delta_bracket_and_dominant_term():
    report = estimate_flops(PAPER, frames=6, stp_enabled=True,
                            insertion_layer=9)
    baseline = estimate_flops(PAPER, frames=6, stp_enabled=False,
                              insertion_layer=9)
    delta_macs = report.macs_total - baseline.macs_total
    assert report.stp_macs_delta == delta_macs
    assert 0.05e9 <= delta_macs <= 0.5e9
    # The widened-attention layers dominate the readout cost.
    by_module = report.stp_flops_delta_by_module
    assert by_module["hub_layers"] > by_module["readout"]


def test_token_counts_per_layer():
    report = estimate_flops(PAPER, frames=6, stp_enabled=True,
                            insertion_layer=9)
    assert report.tokens_per_layer == [163] * 9 + [169] * 3
    desk = estimate_flops(DESK, frames=4, stp_enabled=True, insertion_layer=1)
    assert desk.tokens_per_layer == [9] + [13] * 3


def test_flops_monotone_in_config_axes():
    def total(cfg, frames):
        return estimate_flops(cfg, frames, True, 1).flops_total

    base = total(DESK, 4)
    wider = EncoderConfig(image_h=32, image_w=16, patch=8, depth=4, dim=128,
                          heads=4)
    deeper = EncoderConfig(image_h=32, image_w=16, patch=8, depth=6, dim=64,
                           heads=4)
    finer = EncoderConfig(image_h=32, image_w=16, patch=4, depth=4, dim=64,
                          heads=4)
    assert total(wider, 4) > base       # dim up
    assert total(deeper, 4) > base      # depth up
    assert total(finer, 4) > base       # more patches (N up)
    assert total(DESK, 6) > base        # more frames


def test_disabling_stp_zeroes_both_deltas():
    report = cost_report(PAPER, frames=6, stp_enabled=False, insertion_layer=9)
    assert report.stp_param_delta == 0
    assert report.stp_flops_delta == 0


def test_report_text_mentions_conventions_and_reference():
    report = cost_report(PAPER, frames=6, stp_enabled=True, insertion_layer=9)
    text = format_report(report)
    assert "multiply-accumulate counted as 2 FLOPs" in text
    assert "2,391,552" in text
    assert "+2.39M params, +0.12G FLOPs" in text
