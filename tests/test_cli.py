"""Command-line interface: subcommands, exit codes, artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vld.cli import main

TINY_TEXT = """
data.train_identities = 4
data.test_identities = 2
data.tracklets_per_identity = 2
data.frames = 2
data.image_h = 8
data.image_w = 8
encoder.patch = 4
encoder.dim = 16
encoder.depth = 2
encoder.heads = 2
stp.insertion_layer = 0
train.epochs = 2
train.epoch_passes = 4
train.batch_identities = 2
train.batch_tracklets = 1
optim.base_lr = 0.01
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_TEXT + f"\ndata.root = {tmp_path / 'data'}\n")
    return path


def test_gen_data_and_train_and_eval(tiny_cfg, tmp_path, capsys):
    assert main(["gen-data", "--config", str(tiny_cfg)]) == 0
    assert (tmp_path / "data" / "frames.vldt").exists()

    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_cfg), "--out", str(out)]) == 0
    assert (out / "final.vldt").exists()

    eval_out = tmp_path / "eval"
    assert main(["eval", "--config", str(tiny_cfg),
                 "--checkpoint", str(out / "final.vldt"),
                 "--out", str(eval_out)]) == 0
    for direction in ("ir2vis", "vis2ir"):
        assert (eval_out / f"report_{direction}.json").exists()
        assert (eval_out / f"cmc_{direction}.csv").exists()
    assert (eval_out / "features.vldt").exists()
    from vld import checkpoint
    feats = checkpoint.load(eval_out / "features.vldt")
    assert all(name.startswith("feat/") for name in feats)
    assert len(feats) == 8  # 2 test ids x 2 modalities x 2 tracklets


def test_eval_same_checkpoint_twice_identical(tiny_cfg, tmp_path):
    main(["gen-data", "--config", str(tiny_cfg)])
    out = tmp_path / "run"
    main(["train", "--config", str(tiny_cfg), "--out", str(out)])
    a, b = tmp_path / "eval_a", tmp_path / "eval_b"
    for target in (a, b):
        main(["eval", "--config", str(tiny_cfg),
              "--checkpoint", str(out / "final.vldt"),
              "--out", str(target)])
    for direction in ("ir2vis", "vis2ir"):
        for name in (f"report_{direction}.json", f"cmc_{direction}.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_eval_runs_in_the_configured_precision(tiny_cfg, tmp_path):
    """vld eval extracts in train.precision: its features are those of
    evaluate_model in that precision, and its reports the run's own."""
    from vld import checkpoint
    from vld.config import load_config
    from vld.data import load_dataset
    from vld.train import (build_state, configured_precision, evaluate_model,
                           load_into)

    tiny_cfg.write_text(tiny_cfg.read_text() + "train.precision = single\n")
    main(["gen-data", "--config", str(tiny_cfg)])
    run, out = tmp_path / "run", tmp_path / "eval"
    assert main(["train", "--config", str(tiny_cfg), "--out", str(run)]) == 0
    assert main(["eval", "--config", str(tiny_cfg),
                 "--checkpoint", str(run / "final.vldt"),
                 "--out", str(out)]) == 0

    cfg = load_config(tiny_cfg)
    dataset = load_dataset(cfg["data.root"])
    with configured_precision(cfg):
        state = build_state(cfg, dataset.num_train_identities)
        load_into(state, run / "final.vldt")
        _, vis_index, ir_index = evaluate_model(cfg, state.model, dataset)
    assert state.model.encoder.patch_w.data.dtype == np.float32
    feats = checkpoint.load(out / "features.vldt")
    for index in (vis_index, ir_index):
        for row, tid in zip(index.features, index.tracklet_ids):
            assert feats[f"feat/{tid}"].dtype == np.float64
            np.testing.assert_array_equal(feats[f"feat/{tid}"], row)
    for direction in ("ir2vis", "vis2ir"):
        name = f"report_{direction}.json"
        assert (out / name).read_bytes() == (run / name).read_bytes()


def test_smoke_training_reduces_loss(tiny_cfg, tmp_path):
    out = tmp_path / "smoke"
    assert main(["train", "--config", str(tiny_cfg), "--out", str(out)]) == 0
    lines = (out / "metrics.log").read_text().splitlines()
    losses = [float(dict(p.split("=") for p in ln.split())["loss_total"])
              for ln in lines if ln.startswith("step=")]
    steps_per_epoch = len(losses) // 2
    first_epoch = np.mean(losses[:steps_per_epoch])
    last_epoch = np.mean(losses[-steps_per_epoch:])
    assert last_epoch < first_epoch


def test_gen_data_writes_one_file_and_rewrites_the_same_bytes(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    root = tmp_path / "smoke"
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text((repo / "configs" / "smoke.cfg").read_text().replace(
        "data.root = data/smoke", f"data.root = {root}"))
    command = [sys.executable, "-m", "vld.cli", "gen-data", "--config",
               str(cfg)]
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    written = []
    for _ in range(2):
        proc = subprocess.run(command, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        written.append({p.name: p.read_bytes() for p in root.iterdir()})
    assert list(written[0]) == ["frames.vldt"]
    assert written[1] == written[0]


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense.key = 1\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    # No command takes --seed: train.seed is the one spelling, and in eval
    # the checkpoint sets every parameter a seed draws.
    for argv in (["gen-data"], ["train"],
                 ["eval", "--checkpoint", str(tmp_path / "x.vldt")]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3"])
        assert exc.value.code == 2
    # data.root is the one spelling of the dataset root.
    for argv in (["gen-data", "--root", str(tmp_path)],
                 ["eval", "--checkpoint", str(tmp_path / "x.vldt"),
                  "--data", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_non_finite_learning_rate_checked_before_anything_is_written(
        tmp_path, capsys):
    """optim.base_lr = nan would train to NaN checkpoints; the run stops
    at validation, before it writes a dataset or any run file."""
    path = tmp_path / "nan.cfg"
    path.write_text(TINY_TEXT.replace("optim.base_lr = 0.01",
                                      "optim.base_lr = nan")
                    + f"data.root = {tmp_path / 'data'}\n")
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 2
    assert "optim.base_lr" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "run").exists()


def test_eval_rejects_a_checkpoint_of_another_model(tiny_cfg, tmp_path,
                                                    capsys):
    """A checkpoint of an STP run names the hub and its readout; a config
    with stp.enabled = false builds neither, and evaluating it would rank
    an untrained model, so eval stops before it writes anything."""
    main(["gen-data", "--config", str(tiny_cfg)])
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_cfg), "--out", str(run)]) == 0
    off = tmp_path / "off.cfg"
    off.write_text(tiny_cfg.read_text() + "stp.enabled = false\n")
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(off),
                 "--checkpoint", str(run / "final.vldt"),
                 "--out", str(out)]) == 2
    assert "stp/hub" in capsys.readouterr().err
    assert not out.exists()


def test_data_error_exit_code(tiny_cfg, tmp_path):
    # Checkpoint for eval exists, but dataset root is empty -> data error.
    main(["gen-data", "--config", str(tiny_cfg)])
    out = tmp_path / "run"
    main(["train", "--config", str(tiny_cfg), "--out", str(out)])
    empty = tmp_path / "empty.cfg"
    empty.write_text(TINY_TEXT + f"data.root = {tmp_path / 'empty'}\n")
    code = main(["eval", "--config", str(empty),
                 "--checkpoint", str(out / "final.vldt"),
                 "--out", str(tmp_path / "e")])
    assert code == 3


@pytest.mark.parametrize("setting, differs", [
    ("data.test_identities = 3", "num_test_identities 2 (config 3)"),
    ("data.image_h = 16", "image_h 8 (config 16)"),
])
def test_train_and_eval_refuse_a_dataset_of_another_spec(
        tiny_cfg, tmp_path, capsys, setting, differs):
    """data.root holds the tiny config's dataset; a config that describes
    other data stops `vld train` and `vld eval` before either writes a
    file, naming the field that differs."""
    main(["gen-data", "--config", str(tiny_cfg)])
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_cfg), "--out", str(run)]) == 0
    key = setting.partition(" ")[0]
    other = tmp_path / "other.cfg"
    other.write_text("".join(
        setting + "\n" if line.startswith(key + " ") else line + "\n"
        for line in tiny_cfg.read_text().splitlines()))
    capsys.readouterr()
    assert main(["train", "--config", str(other),
                 "--out", str(tmp_path / "run2")]) == 2
    assert differs in capsys.readouterr().err
    assert not (tmp_path / "run2").exists()
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(other),
                 "--checkpoint", str(run / "final.vldt"),
                 "--out", str(out)]) == 2
    assert differs in capsys.readouterr().err
    assert not out.exists()


def test_profile_writes_reports(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "prof"
    assert main(["profile", "--config", str(tiny_cfg), "--out", str(out)]) == 0
    text = (out / "cost_report.txt").read_text()
    assert "params total" in text
    payload = json.loads((out / "cost_report.json").read_text())
    assert payload["stp_param_delta"] > 0
    captured = capsys.readouterr()
    assert "macs/frame total" in captured.out


def test_profile_no_stp_zero_delta(tiny_cfg, tmp_path):
    tiny_cfg.write_text(tiny_cfg.read_text() + "stp.enabled = false\n")
    out = tmp_path / "prof0"
    assert main(["profile", "--config", str(tiny_cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "cost_report.json").read_text())
    assert payload["stp_param_delta"] == 0
    assert payload["stp_flops_delta"] == 0


@pytest.mark.parametrize("stp", [True, False])
@pytest.mark.parametrize("layer", range(4))
def test_profile_counts_the_parameters_of_the_built_model(tmp_path, layer,
                                                           stp):
    """At every valid insertion layer, with STP on and off, the profile
    counts the parameters of the model the config builds."""
    from vld.config import load_config
    from vld.rng import Rng
    from vld.train import build_model
    path = tmp_path / "p.cfg"
    path.write_text(TINY_TEXT.replace("encoder.depth = 2", "encoder.depth = 4")
                    .replace("stp.insertion_layer = 0",
                             f"stp.insertion_layer = {layer}")
                    + f"stp.enabled = {str(stp).lower()}\n")
    assert main(["profile", "--config", str(path),
                 "--out", str(tmp_path / "prof")]) == 0
    payload = json.loads((tmp_path / "prof" / "cost_report.json").read_text())
    model = build_model(load_config(path).validate(), Rng(1))
    assert payload["params_total"] == sum(p.data.size for _, p
                                          in model.named_parameters())


def test_text_encoder_heads_checked_before_anything_is_written(tmp_path):
    """With imlp.enabled, encoder.dim must divide into the frozen text
    encoder's 4 heads; the run stops at validation, before it writes a
    dataset or its resolved config."""
    path = tmp_path / "odd.cfg"
    path.write_text(TINY_TEXT.replace("encoder.dim = 16", "encoder.dim = 6")
                    + f"data.root = {tmp_path / 'data'}\n")
    assert "encoder.heads = 2" in TINY_TEXT
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "run" / "resolved.cfg").exists()


def test_one_identity_batches_checked_before_anything_is_written(tmp_path,
                                                                 capsys):
    """A batch of one identity has no negative for the triplet loss; the
    run stops at validation, before it writes a dataset or any run
    file."""
    path = tmp_path / "one.cfg"
    path.write_text(TINY_TEXT.replace("train.batch_identities = 2",
                                      "train.batch_identities = 1")
                    + f"data.root = {tmp_path / 'data'}\n")
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 2
    assert "train.batch_identities" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "run").exists()


def test_batch_larger_than_the_training_split_checked_before_anything_is_written(
        tmp_path, capsys):
    """Every training identity has both modalities, so a batch can hold at
    most all of them; a larger one stops the run before it writes a
    dataset or any run file."""
    path = tmp_path / "wide.cfg"
    path.write_text(TINY_TEXT.replace("data.train_identities = 4",
                                      "data.train_identities = 2")
                    .replace("train.batch_identities = 2",
                             "train.batch_identities = 3")
                    + f"data.root = {tmp_path / 'data'}\n")
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 2
    assert "train.batch_identities" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "run").exists()


def test_one_feature_encoder_checked_before_anything_is_written(tmp_path,
                                                                 capsys):
    """A layer norm over one feature has zero variance: encoder.dim = 1
    stops the run before it writes a dataset or any run file, also with
    one head and no prompts, which would otherwise allow it."""
    path = tmp_path / "thin.cfg"
    path.write_text(TINY_TEXT.replace("encoder.dim = 16", "encoder.dim = 1")
                    .replace("encoder.heads = 2", "encoder.heads = 1")
                    + "imlp.enabled = false\n"
                    + f"data.root = {tmp_path / 'data'}\n")
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 2
    assert "encoder.dim" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "run").exists()


def test_prompts_for_one_identity_checked_before_anything_is_written(
        tmp_path, capsys):
    """IMLP's prompt classifier needs two training identities; with one,
    the run stops at validation, before it writes a dataset or its
    resolved config."""
    path = tmp_path / "one.cfg"
    path.write_text(TINY_TEXT.replace("data.train_identities = 4",
                                      "data.train_identities = 1")
                    + f"data.root = {tmp_path / 'data'}\n")
    assert "imlp.enabled" not in TINY_TEXT   # on by default
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 2
    assert "imlp.enabled" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "run" / "resolved.cfg").exists()


def test_missing_checkpoint_is_error(tiny_cfg, tmp_path):
    main(["gen-data", "--config", str(tiny_cfg)])
    code = main(["eval", "--config", str(tiny_cfg),
                 "--checkpoint", str(tmp_path / "nope.vldt"),
                 "--out", str(tmp_path / "e2")])
    assert code != 0


def test_profile_reference_config_exact_delta(tmp_path):
    import pathlib
    profile_cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "profile.cfg"
    out = tmp_path / "prof_ref"
    assert main(["profile", "--config", str(profile_cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "cost_report.json").read_text())
    assert payload["stp_param_delta"] == 2_391_552
    assert abs(payload["params_total"] - payload["stp_param_delta"] - 86.17e6) \
        < 0.02 * 86.17e6
