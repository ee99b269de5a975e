"""Flat "section.key = value" run configuration.

``SCHEMA`` holds one row per key: its kind, its default and, for a size,
its lower bound. ``validate`` checks every value against its row, then the
checks that span keys; unknown keys are rejected so typos fail loudly.
Each run writes its resolved configuration next to its outputs in the
same format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import checkpoint
from .data import BatchPlan, SyntheticSpec
from .encoder import EncoderConfig
from .errors import ConfigError
from .losses import LossWeights
from .prompts import FrozenTextEncoder

_BOOL = {"true": True, "false": False}


class Setting(NamedTuple):
    kind: type
    default: object
    # The smallest value of a size a run divides by, loops over or pads by.
    minimum: int | None = None


SCHEMA: dict[str, Setting] = {
    "data.root": Setting(str, "data/desk"),
    "data.train_identities": Setting(int, 20, 1),
    "data.test_identities": Setting(int, 10, 1),
    "data.tracklets_per_identity": Setting(int, 2, 1),
    "data.frames": Setting(int, 4, 1),
    "data.image_h": Setting(int, 32, 1),
    "data.image_w": Setting(int, 16, 1),
    "data.pattern_amp": Setting(float, 0.2),
    "data.stripe_amp": Setting(float, 0.2),
    "data.occlusion": Setting(float, 0.25),
    "data.augment": Setting(bool, True),
    "data.pad": Setting(int, 10, 0),
    "encoder.patch": Setting(int, 8, 1),
    # A layer norm over one feature has zero variance.
    "encoder.dim": Setting(int, 64, 2),
    "encoder.depth": Setting(int, 4, 1),
    "encoder.heads": Setting(int, 4, 1),
    "stp.enabled": Setting(bool, True),
    "stp.insertion_layer": Setting(int, 1),
    "imlp.enabled": Setting(bool, True),
    "optim.base_lr": Setting(float, 0.002),
    "train.epochs": Setting(int, 8, 0),
    "train.epoch_passes": Setting(int, 3, 1),
    # A batch of one identity has no negative for the triplet loss.
    "train.batch_identities": Setting(int, 4, 2),
    "train.batch_tracklets": Setting(int, 2, 1),
    "train.seed": Setting(int, 1),
    "train.precision": Setting(str, "single"),
    "eval.use_hub_feature": Setting(bool, False),
}


def _parse_value(key: str, raw: str):
    kind = SCHEMA[key].kind
    raw = raw.strip()
    try:
        return _BOOL[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key}: {raw!r} "
                          f"(expected {kind.__name__})") from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    # -- typed views --------------------------------------------------------

    def encoder_config(self) -> EncoderConfig:
        v = self.values
        return EncoderConfig(
            image_h=v["data.image_h"], image_w=v["data.image_w"],
            patch=v["encoder.patch"], depth=v["encoder.depth"],
            dim=v["encoder.dim"], heads=v["encoder.heads"],
        )

    def synthetic_spec(self) -> SyntheticSpec:
        v = self.values
        return SyntheticSpec(
            num_train_identities=v["data.train_identities"],
            num_test_identities=v["data.test_identities"],
            tracklets_per_identity=v["data.tracklets_per_identity"],
            frames=v["data.frames"], image_h=v["data.image_h"],
            image_w=v["data.image_w"], pattern_amp=v["data.pattern_amp"],
            stripe_amp=v["data.stripe_amp"],
            occlusion=v["data.occlusion"],
        )

    def batch_plan(self) -> BatchPlan:
        return BatchPlan(identities=self.values["train.batch_identities"],
                         tracklets_per_identity=self.values["train.batch_tracklets"])

    def loss_weights(self) -> LossWeights:
        """The objective's fixed weights; no key sets them."""
        return LossWeights()

    def validate(self) -> "RunConfig":
        v = self.values
        unknown = sorted(set(v) - set(SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        for key, (kind, _, low) in SCHEMA.items():
            value = v.get(key)
            # A bool is an int to isinstance, and resolved.cfg cannot hold
            # a value of another kind, so the type must match exactly.
            if type(value) is not kind:
                raise ConfigError(f"{key} must be {kind.__name__}, "
                                  f"got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if low is not None and value < low:
                raise ConfigError(f"{key} must be at least {low}, got {value}")
        self.encoder_config()
        if not 0 <= v["stp.insertion_layer"] < v["encoder.depth"]:
            raise ConfigError(
                f"stp.insertion_layer {v['stp.insertion_layer']} outside "
                f"[0, {v['encoder.depth']}): the hub joins at an encoder block "
                f"(stp.enabled = false, not insertion_layer = depth, turns "
                f"STP off)"
            )
        if v["eval.use_hub_feature"] and not v["stp.enabled"]:
            raise ConfigError("eval.use_hub_feature needs stp.enabled = true")
        if v["imlp.enabled"] and v["data.train_identities"] < 2:
            raise ConfigError(
                f"imlp.enabled needs at least 2 training identities for the "
                f"prompt classifier, got data.train_identities = "
                f"{v['data.train_identities']}"
            )
        heads = FrozenTextEncoder.HEADS
        if v["imlp.enabled"] and v["encoder.dim"] % heads:
            raise ConfigError(
                f"encoder.dim {v['encoder.dim']} not divisible by the text "
                f"encoder's {heads} heads (imlp.enabled)"
            )
        if v["train.precision"] not in ("double", "single"):
            raise ConfigError(f"train.precision must be double or single, "
                              f"got {v['train.precision']!r}")
        return self

    def validate_for_training(self) -> "RunConfig":
        """``validate``, and a batch of no more identities than the training
        split holds (each has both modalities): only training samples one."""
        self.validate()
        v = self.values
        if v["train.batch_identities"] > v["data.train_identities"]:
            raise ConfigError(
                f"train.batch_identities {v['train.batch_identities']} "
                f"exceeds data.train_identities {v['data.train_identities']}"
            )
        return self


def default_config() -> RunConfig:
    return RunConfig({key: row.default for key, row in SCHEMA.items()})


def parse_config(text: str) -> RunConfig:
    cfg = default_config()
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', "
                              f"got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: {key} repeats line {seen[key]}")
        seen[key] = lineno
        cfg.values[key] = _parse_value(key, raw)
    return cfg.validate()


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())


def write_config(cfg: RunConfig, path) -> None:
    lines = [f"{key} = {_format_value(cfg.values[key])}" for key in SCHEMA]
    checkpoint.write_atomic(path, [("\n".join(lines) + "\n").encode()])
