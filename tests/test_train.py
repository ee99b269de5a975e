"""Training loop: determinism, checkpointing, divergence handling."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from util import generated
from vld import checkpoint, tensor
from vld import train as train_module
from vld.config import parse_config
from vld.errors import ConfigError
from vld.train import (build_state, checkpoint_records, compute_losses,
                       load_into, train, train_step)

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
train.epoch_passes = 1
train.batch_identities = 2
train.batch_tracklets = 1
optim.base_lr = 0.003
"""


def tiny_config(root, **overrides):
    cfg = parse_config(TINY_TEXT)
    cfg.values["data.root"] = str(root)
    for key, value in overrides.items():
        cfg.values[key] = value
    return cfg.validate()


def test_train_produces_run_artifacts(tmp_path):
    cfg = tiny_config(tmp_path / "data")
    summary = train(cfg, tmp_path / "run")
    out = tmp_path / "run"
    for name in ("resolved.cfg", "metrics.log", "final.vldt", "best.vldt",
                 "last.vldt", "report_ir2vis.json", "cmc_ir2vis.csv"):
        assert (out / name).exists(), name
    assert summary["steps"] == 2 * 4  # 8 tracklets / batch 4 -> 4 steps/epoch
    text = (out / "metrics.log").read_text()
    assert "loss_total=" in text and "eval epoch=" in text


@pytest.mark.parametrize("epochs, evaluations", [(2, 2), (0, 1)])
def test_final_reports_reuse_the_last_epoch_evaluation(tmp_path, monkeypatch,
                                                        epochs, evaluations):
    """The model does not change after the last epoch's evaluation, so the
    final reports reuse it; a run of no epochs still evaluates once."""
    calls = []
    evaluate_model = train_module.evaluate_model

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate_model(*args, **kwargs)

    monkeypatch.setattr(train_module, "evaluate_model", counting)
    cfg = tiny_config(tmp_path / "data", **{"train.epochs": epochs})
    train(cfg, tmp_path / "run")
    assert len(calls) == evaluations
    assert (tmp_path / "run" / "report_ir2vis.json").exists()


PRECISIONS = {"double": np.float64, "single": np.float32}


def train_from_other_default(cfg, out, monkeypatch):
    """``train`` called from a caller whose default dtype is the other
    precision; checks that the caller's default is back afterwards."""
    other = (np.float64 if PRECISIONS[cfg["train.precision"]] is np.float32
             else np.float32)
    monkeypatch.setattr(tensor, "_DEFAULT_DTYPE", other)
    summary = train(cfg, out)
    assert tensor.default_dtype() is other
    return summary


@pytest.mark.parametrize("precision", PRECISIONS)
def test_two_runs_same_seed_bit_identical(tmp_path, monkeypatch, precision):
    cfg_a = tiny_config(tmp_path / "data", **{"train.precision": precision})
    cfg_b = tiny_config(tmp_path / "data", **{"train.precision": precision})
    train_from_other_default(cfg_a, tmp_path / "run_a", monkeypatch)
    train_from_other_default(cfg_b, tmp_path / "run_b", monkeypatch)
    for name in ("final.vldt", "metrics.log", "report_ir2vis.json",
                 "cmc_ir2vis.csv", "resolved.cfg"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    records = checkpoint.load(tmp_path / "run_a" / "final.vldt")
    assert all(r.dtype == PRECISIONS[precision] for r in records.values())


def test_different_seed_changes_outcome(tmp_path):
    train(tiny_config(tmp_path / "data"), tmp_path / "run_a")
    train(tiny_config(tmp_path / "data", **{"train.seed": 2}),
          tmp_path / "run_b")
    a = checkpoint.load(tmp_path / "run_a" / "final.vldt")
    b = checkpoint.load(tmp_path / "run_b" / "final.vldt")
    assert any((a[k] != b[k]).any() for k in a)


def test_checkpoint_round_trip_into_fresh_model(tmp_path):
    cfg = tiny_config(tmp_path / "data")
    train(cfg, tmp_path / "run")
    other = tiny_config(tmp_path / "data", **{"train.seed": 99})
    state = build_state(other, 4)
    load_into(state, tmp_path / "run" / "final.vldt")
    saved = checkpoint.load(tmp_path / "run" / "final.vldt")
    for name, value in checkpoint_records(state).items():
        np.testing.assert_array_equal(value, saved[name])


def test_checkpoint_shape_mismatch_is_load_error(tmp_path):
    cfg = tiny_config(tmp_path / "data")
    train(cfg, tmp_path / "run")
    other = tiny_config(tmp_path / "data", **{"encoder.dim": 32})
    state = build_state(other, 4)
    with pytest.raises(ConfigError, match="shape"):
        load_into(state, tmp_path / "run" / "final.vldt")


def test_baseline_ablation_flags_drop_branches(tmp_path):
    cfg = tiny_config(tmp_path / "data", **{"stp.enabled": False,
                                            "imlp.enabled": False})
    dataset = generated(cfg.synthetic_spec(), 1, tmp_path / "data2")
    state = build_state(cfg, dataset.num_train_identities)
    model, heads = state.model, state.heads
    assert model.hub is None and heads.prompts is None
    picks = [dataset.train[i] for i in (0, 2, 4, 6)]  # ids 0,0,1,1 across modalities
    frames = np.stack([dataset.load_frames(t) for t in picks])
    labels = np.array([t.identity for t in picks])
    parts = compute_losses(cfg, model, heads, frames, labels)
    assert list(parts) == ["total", "id_cls", "wrt_cls", "v2t", "id_hub",
                           "wrt_hub"]
    assert parts["v2t"] is None and parts["id_hub"] is None
    assert parts["wrt_hub"] is None
    names = [name for name, _ in heads.named_parameters()]
    assert names == ["head/cls/w", "head/cls/b"]


def test_prompt_group_gets_lr_multiplier(tmp_path):
    opt = build_state(tiny_config(tmp_path / "data"), 4).optimizer
    prompt_entries = [e for e in opt._entries if "imlp/prompts" in e["name"]]
    assert len(prompt_entries) == 1
    assert prompt_entries[0]["mult"] == 25.0
    others = [e for e in opt._entries if "imlp/prompts" not in e["name"]]
    assert all(e["mult"] == 1.0 for e in others)


def test_frozen_text_encoder_stays_frozen_through_a_step(tmp_path):
    cfg = tiny_config(tmp_path / "data")
    dataset = generated(cfg.synthetic_spec(), 1, tmp_path / "data3")
    state = build_state(cfg, dataset.num_train_identities)
    model, heads = state.model, state.heads
    frozen_before = {
        name: p.data.copy()
        for i, block in enumerate(heads.text_encoder.blocks)
        for name, p in block.named_parameters(f"blk{i}")
    }
    prompts_before = heads.prompts.tokens.data.copy()
    encoder_before = model.encoder.patch_w.data.copy()

    train_step(cfg, state, dataset, dataset.train, cfg["optim.base_lr"])

    for i, block in enumerate(heads.text_encoder.blocks):
        for name, p in block.named_parameters(f"blk{i}"):
            np.testing.assert_array_equal(p.data, frozen_before[name])
    assert (heads.prompts.tokens.data != prompts_before).any()
    assert (model.encoder.patch_w.data != encoder_before).any()


@pytest.mark.parametrize("precision", PRECISIONS)
def test_single_precision_flag(tmp_path, monkeypatch, precision):
    cfg = tiny_config(tmp_path / "data", **{"train.precision": precision,
                                            "train.epochs": 1})
    summary = train_from_other_default(cfg, tmp_path / "run", monkeypatch)
    assert np.isfinite(summary["epoch_losses"]).all()
    for name in ("final.vldt", "best.vldt", "last.vldt"):
        records = checkpoint.load(tmp_path / "run" / name)
        assert all(r.dtype == PRECISIONS[precision] for r in records.values())


def test_divergence_aborts_with_last_good_checkpoint(tmp_path, monkeypatch):
    from vld.errors import DivergenceError
    from vld.tensor import Tensor

    cfg = tiny_config(tmp_path / "data")
    real = train_module.identity_cross_entropy
    heads = []   # the head of every call; each step calls id_cls first

    def poisoned(features, labels, head):
        heads.append(head)
        if head is heads[0] and heads.count(head) >= 3:
            return Tensor(np.array(float("nan")))
        return real(features, labels, head)

    monkeypatch.setattr(train_module, "identity_cross_entropy", poisoned)
    with pytest.raises(DivergenceError, match="id_cls"):
        train(cfg, tmp_path / "run")
    out = tmp_path / "run"
    assert (out / "last.vldt").exists()       # last-good retained
    assert (out / "metrics.log").exists()     # partial metrics flushed
    assert not (out / "final.vldt").exists()
    lines = (out / "metrics.log").read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("step=")) == 2


def test_failed_run_keeps_the_metrics_log(tmp_path, monkeypatch):
    """A run that fails for any reason still logs every line before it."""
    from vld.errors import DataError
    real = train_module.evaluate_model
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise DataError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(train_module, "evaluate_model", failing)
    with pytest.raises(DataError, match="injected"):
        train(tiny_config(tmp_path / "data"), tmp_path / "run")
    lines = (tmp_path / "run" / "metrics.log").read_text().splitlines()
    evals = [ln for ln in lines if ln.startswith("eval ")]
    assert len(evals) == 2 and all("epoch=0" in ln for ln in evals)
    assert sum(1 for ln in lines if ln.startswith("step=")) == 2 * 4


def test_killed_run_keeps_the_finished_epochs_metrics(tmp_path):
    """A killed process runs no ``finally``: the lines of every epoch it
    finished are already in metrics.log."""
    script = f"""
import os
from vld import train
from vld.config import parse_config

real, calls = train.evaluate_model, []

def dying(*args, **kwargs):
    calls.append(1)
    if len(calls) == 2:
        os._exit(9)
    return real(*args, **kwargs)

train.evaluate_model = dying
cfg = parse_config({TINY_TEXT!r})
cfg.values["data.root"] = {str(tmp_path / "data")!r}
train.train(cfg.validate(), {str(tmp_path / "run")!r})
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 9, proc.stderr
    lines = (tmp_path / "run" / "metrics.log").read_text().splitlines()
    assert [ln.split()[0] for ln in lines] == ["step=0", "step=1", "step=2",
                                               "step=3", "eval", "eval"]
    assert all("epoch=0" in ln for ln in lines)
    assert not (tmp_path / "run" / "final.vldt").exists()


def test_cli_maps_divergence_to_exit_4(tmp_path, monkeypatch):
    import vld.cli as cli_mod
    from vld.errors import DivergenceError

    def explode(cfg, out, log=None):
        raise DivergenceError("loss part id_cls is not finite")

    import vld.train as train_mod
    monkeypatch.setattr(train_mod, "train", explode)
    cfg_path = tmp_path / "t.cfg"
    cfg_path.write_text(TINY_TEXT + f"\ndata.root = {tmp_path / 'data'}\n")
    code = cli_mod.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "run")])
    assert code == 4
