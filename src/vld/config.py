"""Flat "section.key = value" run configuration.

Every known key has a typed default below; unknown keys are rejected so
typos fail loudly. Each run writes its resolved configuration next to its
outputs in the same format.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import checkpoint
from .data import BatchPlan, SyntheticSpec
from .encoder import EncoderConfig
from .errors import ConfigError
from .losses import LossWeights
from .prompts import TEMPLATES, FrozenTextEncoder

_BOOL = {"true": True, "false": False}

# key -> (type tag, default)
SCHEMA: dict[str, tuple[str, object]] = {
    "data.root": ("str", "data/desk"),
    "data.train_identities": ("int", 20),
    "data.test_identities": ("int", 10),
    "data.tracklets_per_identity": ("int", 2),
    "data.frames": ("int", 4),
    "data.image_h": ("int", 32),
    "data.image_w": ("int", 16),
    "data.pattern_amp": ("float", 0.2),
    "data.stripe_amp": ("float", 0.2),
    "data.occlusion": ("float", 0.25),
    "data.augment": ("bool", True),
    "data.pad": ("int", 10),
    "encoder.patch": ("int", 8),
    "encoder.dim": ("int", 64),
    "encoder.depth": ("int", 4),
    "encoder.heads": ("int", 4),
    "stp.enabled": ("bool", True),
    "stp.insertion_layer": ("int", 1),
    "imlp.enabled": ("bool", True),
    "imlp.tokens": ("int", 4),
    "imlp.template": ("int", 4),
    "loss.lambda_v2t": ("float", 0.08),
    "loss.lambda_id_hub": ("float", 0.4),
    "loss.lambda_wrt_hub": ("float", 1.0),
    "optim.base_lr": ("float", 0.002),
    "optim.prompt_lr_multiplier": ("float", 25.0),
    "train.epochs": ("int", 8),
    "train.epoch_passes": ("int", 3),
    "train.batch_identities": ("int", 4),
    "train.batch_tracklets": ("int", 2),
    "train.seed": ("int", 1),
    "train.precision": ("str", "single"),
    "eval.use_hub_feature": ("bool", False),
}

# The smallest value of each size a run divides by, loops over or pads by.
_MINIMUMS: dict[str, int] = {
    **dict.fromkeys((
        "data.train_identities", "data.test_identities",
        "data.tracklets_per_identity", "data.frames", "data.image_h",
        "data.image_w", "encoder.patch", "encoder.dim", "encoder.depth",
        "encoder.heads", "train.epoch_passes", "train.batch_tracklets",
        "imlp.tokens"), 1),
    # A batch of one identity has no negative for the triplet loss.
    "train.batch_identities": 2,
    "train.epochs": 0,
    "data.pad": 0,
}


def _parse_value(key: str, raw: str):
    kind, _ = SCHEMA[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() not in _BOOL:
                raise ValueError
            return _BOOL[raw.lower()]
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected {kind})") from None


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
        return LossWeights(lambda_v2t=self.values["loss.lambda_v2t"],
                           lambda_id_hub=self.values["loss.lambda_id_hub"],
                           lambda_wrt_hub=self.values["loss.lambda_wrt_hub"])

    def validate(self) -> "RunConfig":
        v = self.values
        for key, low in _MINIMUMS.items():
            if v[key] < low:
                raise ConfigError(f"{key} must be at least {low}, got {v[key]}")
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
        if v["imlp.template"] not in TEMPLATES:
            raise ConfigError(f"imlp.template must be one of "
                              f"{sorted(TEMPLATES)}, got {v['imlp.template']}")
        if v["train.precision"] not in ("double", "single"):
            raise ConfigError(f"train.precision must be double or single, "
                              f"got {v['train.precision']!r}")
        return self


def default_config() -> RunConfig:
    return RunConfig({key: default for key, (_, default) in SCHEMA.items()})


def parse_config(text: str) -> RunConfig:
    cfg = default_config()
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
