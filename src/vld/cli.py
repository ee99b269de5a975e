"""Command-line entry point.

Subcommands: gen-data, train, eval, profile. Exit codes: 0 success,
2 configuration errors, 3 data errors, 4 numeric divergence, 5 parse
errors, 1 anything else. ``train.seed`` in the config is the one seed;
``eval`` reads none, since the checkpoint sets every parameter.
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

from . import checkpoint
from .config import RunConfig, default_config, load_config
from .data import generate
from .errors import (ConfigError, DataError, DivergenceError, ParseError,
                     VldError)
from .profiler import cost_report, format_report, report_json
from .retrieval import save_report

EXIT_CODES = {ConfigError: 2, DataError: 3, DivergenceError: 4, ParseError: 5}


def _load(args) -> RunConfig:
    return load_config(args.config) if args.config else default_config()


def cmd_gen_data(args) -> int:
    cfg = _load(args)
    generate(cfg.synthetic_spec(), cfg["train.seed"], cfg["data.root"])
    print(f"dataset written to {cfg['data.root']}")
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
    from .train import (build_state, configured_dataset,
                        configured_precision, evaluate_model, load_into)
    cfg = _load(args)
    dataset = configured_dataset(cfg)
    with configured_precision(cfg):
        state = build_state(cfg, dataset.num_train_identities)
        load_into(state, args.checkpoint)
        reports, vis_index, ir_index = evaluate_model(cfg, state.model,
                                                      dataset)
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
    cfg = _load(args)
    report = cost_report(cfg.encoder_config(), cfg["data.frames"],
                         cfg["stp.enabled"], cfg["stp.insertion_layer"])
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
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model end to end")
    p.add_argument("--config", help="run config file")
    p.add_argument("--out", help="run directory (default: runs/<time>-seed<n>)")
    p.add_argument("--verbose", action="store_true", help="echo metrics lines")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--config", help="run config file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="report directory (default: cwd)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("profile", help="analytic parameter/FLOP report")
    p.add_argument("--config", help="run config file")
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=cmd_profile)
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
