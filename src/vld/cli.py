"""Command-line entry point.

Subcommands: gen-data, train, eval, profile, plot. Exit codes: 0 success,
2 configuration errors, 3 data errors, 4 numeric divergence, 5 parse
errors, 1 anything else. VLD_SEED overrides the configured seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Desk-scale kernels run fastest on one BLAS thread. OpenBLAS reads these
# once, when numpy loads it, so they are set before the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import checkpoint
from .config import RunConfig, default_config, load_config, write_config
from .data import generate, load_dataset
from .errors import (ConfigError, DataError, DivergenceError, ParseError,
                     VldError)
from .profiler import cost_report, format_report, report_json
from .retrieval import load_cmc_csv, save_report
from .rng import Rng

EXIT_CODES = {ConfigError: 2, DataError: 3, DivergenceError: 4, ParseError: 5}


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    env_seed = os.environ.get("VLD_SEED")
    if env_seed is not None:
        try:
            cfg.values["train.seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"VLD_SEED must be an integer, got {env_seed!r}")
    if getattr(args, "seed", None) is not None:
        cfg.values["train.seed"] = args.seed
    return cfg.validate()


def cmd_gen_data(args) -> int:
    cfg = _load(args)
    root = Path(args.root or cfg["data.root"])
    generate(cfg.synthetic_spec(), cfg["train.seed"], root)
    print(f"dataset written to {root}")
    return 0


def cmd_train(args) -> int:
    from .train import train
    cfg = _load(args)
    out = Path(args.out) if args.out else Path(
        f"runs/{time.strftime('%Y%m%d-%H%M%S')}-seed{cfg['train.seed']}"
    )
    summary = train(cfg, out, log=print if args.verbose else None)
    print(f"run complete: out={summary['out_dir']} "
          f"best_map={summary['best_map']:.4f}")
    return 0


def cmd_eval(args) -> int:
    from .train import (TrainingHeads, build_model, configured_precision,
                        evaluate_model, load_into)
    cfg = _load(args)
    dataset = load_dataset(args.data or cfg["data.root"])
    with configured_precision(cfg):
        rng = Rng(cfg["train.seed"])
        model = build_model(cfg, rng.split("init"))
        heads = TrainingHeads(cfg, dataset.num_train_identities,
                              rng.split("init"))
        load_into(model, heads, args.checkpoint)
        reports, vis_index, ir_index = evaluate_model(cfg, model, dataset,
                                                      args.direction)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    checkpoint.save(out / "features.vldt", {
        f"feat/{tid}": row
        for index in (ir_index, vis_index)
        for row, tid in zip(index.features, index.tracklet_ids)})
    for direction, report in reports.items():
        save_report(report, out / f"report_{direction}.json",
                    out / f"cmc_{direction}.csv")
        print(f"{direction}: rank1={report.rank(1):.4f} map={report.mean_ap:.4f}")
    return 0


def cmd_profile(args) -> int:
    from .train import hub_enabled
    cfg = _load(args)
    stp = hub_enabled(cfg) and not args.no_stp
    report = cost_report(cfg.encoder_config(), cfg["data.frames"], stp,
                         cfg["stp.insertion_layer"])
    text = format_report(report)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        checkpoint.write_atomic(out / "cost_report.txt", [text.encode()])
        checkpoint.write_atomic(out / "cost_report.json", [
            (json.dumps(report_json(report), indent=2, sort_keys=True)
             + "\n").encode()])
    return 0


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f")


def render_cmc_svg(curves: list[tuple[str, np.ndarray, np.ndarray]]) -> str:
    """Deterministic SVG overlay of CMC curves with a legend."""
    width, height, margin = 640, 420, 60
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    max_rank = max(int(r.max()) for _, r, _ in curves)

    def x(rank):
        return margin + plot_w * (rank - 1) / max(1, max_rank - 1)

    def y(value):
        return margin + plot_h * (1.0 - value)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{margin + plot_w}" '
        f'y2="{margin + plot_h}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{margin + plot_h}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">rank</text>',
        f'<text x="18" y="{height // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height // 2})">matching rate</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<text x="{margin - 8}" y="{y(frac) + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{frac:.2f}</text>')
    for i, (label, ranks, values) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points = " ".join(f"{x(r):.2f},{y(v):.2f}" for r, v in zip(ranks, values))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        ly = margin + 18 * (i + 1)
        parts.append(f'<line x1="{margin + plot_w - 150}" y1="{ly - 4}" '
                     f'x2="{margin + plot_w - 120}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{margin + plot_w - 112}" y="{ly}" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    curves = []
    for path in args.csv:
        ranks, values = load_cmc_csv(path)
        curves.append((Path(path).stem, ranks, values))
    checkpoint.write_atomic(args.out, [render_cmc_svg(curves).encode()])
    print(f"plot written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vld",
        description="Cross-modality video re-identification lab: synthetic "
                    "benchmark, training, retrieval evaluation, and cost "
                    "profiling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--config", help="run config file")
    p.add_argument("--root", help="output directory (default: data.root)")
    p.add_argument("--seed", type=int, help="override train.seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model end to end")
    p.add_argument("--config", help="run config file")
    p.add_argument("--out", help="run directory (default: runs/<time>-seed<n>)")
    p.add_argument("--seed", type=int, help="override train.seed")
    p.add_argument("--verbose", action="store_true", help="echo metrics lines")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--config", help="run config file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset root (default: data.root)")
    p.add_argument("--direction", default="both",
                   choices=("ir2vis", "vis2ir", "both"))
    p.add_argument("--out", help="report directory (default: cwd)")
    p.add_argument("--seed", type=int, help="override train.seed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("profile", help="analytic parameter/FLOP report")
    p.add_argument("--config", help="run config file")
    p.add_argument("--no-stp", action="store_true",
                   help="profile the baseline without the hub")
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("plot", help="overlay CMC curve CSVs as an SVG")
    p.add_argument("csv", nargs="+", help="CMC csv files")
    p.add_argument("--out", default="cmc.svg")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for err_type, code in EXIT_CODES.items():
            if isinstance(exc, err_type):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
