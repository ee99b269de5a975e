"""Analytic parameter counts and FLOP estimates for any configuration.

Counting conventions, also printed in every report:
  - one multiply-accumulate = 2 FLOPs; MAC totals are reported alongside
    because published cost tables usually quote MACs as "FLOPs";
  - softmax, layer norm, and GELU are excluded (matrix terms dominate);
  - FLOPs are per single-frame forward pass; the hub readout runs once per
    sequence, so its cost is attributed per frame as cost / T.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from .encoder import EncoderConfig, count_layer_tokens

CONVENTION_NOTES = (
    "multiply-accumulate counted as 2 FLOPs (MAC totals also shown)",
    "softmax/layer-norm/GELU excluded; matrix products dominate",
    "FLOPs are per frame; per-sequence readout cost divided by T",
)


@dataclass
class CostReport:
    params_total: int
    params_by_module: dict = field(default_factory=dict)
    flops_total: int = 0
    flops_by_module: dict = field(default_factory=dict)
    tokens_per_layer: list = field(default_factory=list)
    stp_param_delta: int = 0
    stp_flops_delta: int = 0
    stp_flops_delta_by_module: dict = field(default_factory=dict)
    notes: tuple = CONVENTION_NOTES

    @property
    def macs_total(self) -> int:
        return self.flops_total // 2

    @property
    def stp_macs_delta(self) -> int:
        return self.stp_flops_delta // 2


def block_params(dim: int) -> int:
    """One transformer block: MHA 4D^2+4D, 4x-wide MLP 8D^2+5D, two LNs 4D."""
    return (4 * dim * dim + 4 * dim) + (8 * dim * dim + 5 * dim) + 4 * dim


def readout_params(dim: int) -> int:
    """Hub readout attention (4D^2+4D) plus its layer norm (2D)."""
    return 4 * dim * dim + 4 * dim + 2 * dim


def count_params(cfg: EncoderConfig, frames: int,
                 stp_enabled: bool) -> CostReport:
    d = cfg.dim
    by_module = {
        "patch_embed": cfg.patch_dim * d + d,
        "pos_embed": cfg.tokens_per_frame * d,
        "cls_token": d,
        "blocks": cfg.depth * block_params(d),
        "final_norm": 2 * d,
    }
    delta = 0
    if stp_enabled:
        by_module["hub"] = frames * frames * d
        by_module["readout"] = readout_params(d)
        delta = by_module["hub"] + by_module["readout"]
    return CostReport(params_total=sum(by_module.values()),
                      params_by_module=by_module,
                      stp_param_delta=delta)


def layer_flops(tokens: int, dim: int) -> dict:
    """Per-frame FLOPs for one block at a given token count."""
    return {
        "projections": 8 * tokens * dim * dim,
        "attention": 4 * tokens * tokens * dim,
        "mlp": 16 * tokens * dim * dim,
    }


def readout_flops(frames: int, dim: int) -> int:
    """Per-sequence FLOPs of the hub readout: K/V over T^2 rows, T queries."""
    t = frames
    kv = 2 * (2 * t * t * dim * dim)
    query = t * 2 * dim * dim
    output = t * 2 * dim * dim
    attention = 4 * t * (t * t) * dim
    return kv + query + output + attention


def estimate_flops(cfg: EncoderConfig, frames: int, stp_enabled: bool,
                   insertion_layer: int) -> CostReport:
    d = cfg.dim
    tokens = []
    blocks_total = 0
    hub_delta_layers = 0
    for layer in range(cfg.depth):
        hub_here = stp_enabled and layer >= insertion_layer
        count = count_layer_tokens(cfg, hub_here, frames)
        tokens.append(count)
        cost = sum(layer_flops(count, d).values())
        blocks_total += cost
        if hub_here:
            hub_delta_layers += cost - sum(
                layer_flops(cfg.tokens_per_frame, d).values()
            )
    by_module = {
        "patch_embed": 2 * cfg.num_patches * cfg.patch_dim * d,
        "blocks": blocks_total,
    }
    delta_by_module = {}
    delta = 0
    if stp_enabled:
        per_frame_readout = readout_flops(frames, d) // frames
        by_module["readout"] = per_frame_readout
        delta_by_module = {
            "hub_layers": hub_delta_layers,
            "readout": per_frame_readout,
        }
        delta = hub_delta_layers + per_frame_readout
    return CostReport(params_total=0, flops_total=sum(by_module.values()),
                      flops_by_module=by_module, tokens_per_layer=tokens,
                      stp_flops_delta=delta,
                      stp_flops_delta_by_module=delta_by_module)


def cost_report(cfg: EncoderConfig, frames: int, stp_enabled: bool,
                insertion_layer: int) -> CostReport:
    """Combined parameter and FLOP report for one configuration."""
    params = count_params(cfg, frames, stp_enabled)
    flops = estimate_flops(cfg, frames, stp_enabled, insertion_layer)
    return replace(flops, params_total=params.params_total,
                   params_by_module=params.params_by_module,
                   stp_param_delta=params.stp_param_delta)


def format_report(report: CostReport) -> str:
    lines = ["cost report"]
    for note in report.notes:
        lines.append(f"  # {note}")
    lines.append(f"  params total          {report.params_total:>14,}")
    for name, value in report.params_by_module.items():
        lines.append(f"    params {name:<14} {value:>14,}")
    lines.append(f"  flops/frame total     {report.flops_total:>14,}")
    lines.append(f"  macs/frame total      {report.macs_total:>14,}")
    for name, value in report.flops_by_module.items():
        lines.append(f"    flops {name:<15} {value:>14,}")
    lines.append(f"  tokens per layer      {report.tokens_per_layer}")
    lines.append(f"  stp param delta       {report.stp_param_delta:>14,}")
    lines.append(f"  stp flops delta       {report.stp_flops_delta:>14,}")
    lines.append(f"  stp macs delta        {report.stp_macs_delta:>14,}")
    for name, value in report.stp_flops_delta_by_module.items():
        lines.append(f"    delta {name:<15} {value:>14,}")
    if report.stp_param_delta >= 1_000_000:
        lines.append("  published costs for this architecture family:"
                     " +2.39M params, +0.12G FLOPs")
    return "\n".join(lines) + "\n"


def report_json(report: CostReport) -> dict:
    return {**asdict(report), "macs_total": report.macs_total,
            "stp_macs_delta": report.stp_macs_delta}
