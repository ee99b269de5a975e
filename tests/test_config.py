"""Flat config parsing, validation, and round-tripping."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vld import checkpoint
from vld.config import (SCHEMA, RunConfig, default_config, load_config,
                        parse_config, write_config)
from vld.data import generate, load_dataset
from vld.errors import ConfigError
from vld.train import (build_state, configured_precision, evaluate_model,
                       train_step)


def test_defaults_validate():
    cfg = default_config().validate()
    assert cfg["encoder.dim"] == 64
    assert cfg["loss.lambda_v2t"] == 0.08
    assert cfg["loss.lambda_id_hub"] == 0.4
    assert cfg["loss.lambda_wrt_hub"] == 1.0
    assert len(SCHEMA) == 30


def test_parse_overrides_and_comments():
    cfg = parse_config("""
# a comment
encoder.dim = 32
stp.enabled = false
optim.base_lr = 1e-3
data.root = /tmp/somewhere
""")
    assert cfg["encoder.dim"] == 32
    assert cfg["stp.enabled"] is False
    assert cfg["optim.base_lr"] == pytest.approx(1e-3)
    assert cfg["data.root"] == "/tmp/somewhere"


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("encoder.dim = 32\nencoder.width = 9\n")


@pytest.mark.parametrize("line", [
    "train.eval_direction = both",
    "data.noise_visible = 0.03",
    "data.noise_infrared = 0.05",
    "encoder.mlp_ratio = 4",
    "imlp.text_seed = 101",
    "optim.beta1 = 0.9",
    "optim.beta2 = 0.999",
    "optim.eps = 1e-08",
    "imlp.tokens = 4",
    "imlp.template = 4",
    "optim.prompt_lr_multiplier = 25.0",
], ids=lambda line: line.partition(" ")[0])
def test_removed_key_is_an_unknown_key(line):
    """Keys deleted for fixed values (evaluation always ranks both ways;
    noise, MLP width, text seed, Adam's constants, the prompt's tokens and
    template and its learning-rate multiplier live in code) are rejected
    like any unknown one, also in an older run's resolved.cfg."""
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(line + "\n")


def test_unknown_key_set_in_code_rejected():
    """An override that bypasses the parser is checked like a file's."""
    cfg = default_config()
    cfg.values["imlp.template"] = 4
    with pytest.raises(ConfigError, match="imlp.template"):
        cfg.validate()


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError, match="encoder.dim"):
        parse_config("encoder.dim = wide\n")


def test_bad_bool_rejected():
    with pytest.raises(ConfigError):
        parse_config("stp.enabled = maybe\n")


def test_insertion_layer_validated_against_depth():
    with pytest.raises(ConfigError, match="insertion_layer"):
        parse_config("encoder.depth = 4\nstp.insertion_layer = 5\n")
    # stp.enabled = false is the one way to turn STP off.
    with pytest.raises(ConfigError, match="stp.enabled = false"):
        parse_config("encoder.depth = 4\nstp.insertion_layer = 4\n")
    cfg = parse_config("encoder.depth = 4\nstp.insertion_layer = 3\n")
    assert cfg["stp.insertion_layer"] == 3


def test_hub_feature_without_stp_rejected():
    with pytest.raises(ConfigError, match="eval.use_hub_feature"):
        parse_config("stp.enabled = false\neval.use_hub_feature = true\n")
    cfg = parse_config("stp.enabled = true\neval.use_hub_feature = true\n")
    assert cfg["eval.use_hub_feature"] is True


def test_patch_divisibility_validated():
    with pytest.raises(ConfigError):
        parse_config("data.image_h = 30\n")


def test_write_and_reload_round_trip(tmp_path):
    cfg = default_config()
    cfg.values["encoder.dim"] = 48
    cfg.values["optim.base_lr"] = 0.00125
    cfg.values["data.augment"] = False
    path = tmp_path / "run.cfg"
    write_config(cfg, path)
    again = load_config(path)
    assert again.values == cfg.values


def test_failed_overwrite_keeps_old_config_and_leaves_no_stray(tmp_path,
                                                               monkeypatch):
    path = tmp_path / "resolved.cfg"
    write_config(default_config(), path)
    old = path.read_bytes()
    cfg = default_config()
    cfg.values["encoder.dim"] = 48

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_config(cfg, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["resolved.cfg"]


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/nowhere.cfg")


def test_typed_views_are_consistent():
    cfg = default_config()
    enc = cfg.encoder_config()
    assert enc.num_patches == 8
    plan = cfg.batch_plan()
    assert plan.batch_size == 2 * 4 * 2
    spec = cfg.synthetic_spec()
    assert spec.num_identities == 30


AT_LEAST_ONE = (
    "data.train_identities", "data.test_identities",
    "data.tracklets_per_identity", "data.frames", "data.image_h",
    "data.image_w", "encoder.patch", "encoder.dim", "encoder.depth",
    "encoder.heads", "train.epoch_passes", "train.batch_identities",
    "train.batch_tracklets",
)
AT_LEAST_ZERO = ("train.epochs", "data.pad")


@pytest.mark.parametrize("key, value",
                         [(key, 0) for key in AT_LEAST_ONE]
                         + [(key, -1) for key in AT_LEAST_ZERO])
def test_sizes_below_their_minimum_are_config_errors(key, value, tmp_path):
    from vld.cli import main
    path = tmp_path / "run.cfg"
    path.write_text(f"data.root = {tmp_path / 'data'}\n{key} = {value}\n")
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "data").exists()


# Any value of a key's type at tiny geometry, below every minimum too.
WIDE = {
    "int": st.integers(-1, 9),
    "float": st.floats(-1.0, 2.0),
    "bool": st.booleans(),
}
WIDE_STR = {
    "data.root": st.sampled_from(["data", "nested/data"]),
    "train.precision": st.sampled_from(["single", "double", "half"]),
}


@st.composite
def tiny_configs(draw):
    """Every SCHEMA key: a tiny run that the checks should accept, then up
    to three keys redrawn from their whole ``WIDE`` range."""
    patch, depth = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    stp, identities = draw(st.booleans()), draw(st.integers(2, 3))
    values = {
        "data.root": "data",
        "data.train_identities": identities,
        "data.test_identities": draw(st.integers(1, 2)),
        "data.tracklets_per_identity": draw(st.integers(1, 2)),
        "data.frames": draw(st.integers(1, 3)),
        "data.image_h": patch * draw(st.integers(1, 3)),
        "data.image_w": patch * draw(st.integers(1, 3)),
        "data.pattern_amp": draw(st.floats(0.0, 0.5)),
        "data.stripe_amp": draw(st.floats(0.0, 0.5)),
        "data.occlusion": draw(st.floats(0.0, 0.5)),
        "data.augment": draw(st.booleans()),
        "data.pad": draw(st.integers(0, 2)),
        "encoder.patch": patch,
        # A multiple of 4: every head count drawn and the text encoder's 4
        # heads divide it.
        "encoder.dim": 4 * draw(st.integers(1, 2)),
        "encoder.depth": depth,
        "encoder.heads": draw(st.sampled_from([1, 2, 4])),
        "stp.enabled": stp,
        "stp.insertion_layer": draw(st.integers(0, depth - 1)),
        "imlp.enabled": draw(st.booleans()),
        "loss.lambda_v2t": draw(st.floats(0.0, 1.0)),
        "loss.lambda_id_hub": draw(st.floats(0.0, 1.0)),
        "loss.lambda_wrt_hub": draw(st.floats(0.0, 1.0)),
        "optim.base_lr": draw(st.floats(0.0, 0.01)),
        "train.epochs": draw(st.integers(0, 2)),
        "train.epoch_passes": draw(st.integers(1, 2)),
        "train.batch_identities": draw(st.integers(2, identities)),
        "train.batch_tracklets": draw(st.integers(1, 2)),
        "train.seed": draw(st.integers(0, 3)),
        "train.precision": draw(st.sampled_from(["single", "double"])),
        "eval.use_hub_feature": stp and draw(st.booleans()),
    }
    assert values.keys() == SCHEMA.keys()
    for key in draw(st.lists(st.sampled_from(sorted(SCHEMA)), max_size=3,
                             unique=True)):
        kind = SCHEMA[key][0]
        values[key] = draw(WIDE_STR[key] if kind == "str" else WIDE[kind])
    return values


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(tiny_configs())
def test_a_config_is_rejected_by_its_checks_or_runs(values):
    """The checks are the one owner of what a config can trip: either
    they raise ConfigError, or a dataset, a built state, one training
    step and the evaluation all run."""
    with tempfile.TemporaryDirectory() as tmp:
        values["data.root"] = str(Path(tmp) / values["data.root"])
        cfg = RunConfig(values)
        try:
            cfg.validate_for_training()
        except ConfigError:
            return
        with configured_precision(cfg):
            root = Path(cfg["data.root"])
            generate(cfg.synthetic_spec(), cfg["train.seed"], root)
            dataset = load_dataset(root)
            state = build_state(cfg, dataset.num_train_identities)
            train_step(cfg, state, dataset, dataset.train,
                       cfg["optim.base_lr"])
            evaluate_model(cfg, state.model, dataset)
