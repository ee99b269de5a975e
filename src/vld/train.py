"""End-to-end training: sampling, both modalities through the shared
encoder, the five-part objective, Adam with cosine decay, per-epoch
retrieval evaluation, and checkpointing.

Every run is built one way and stepped one way. ``build_state`` draws the
model, the loss-side heads, the optimizer and the sampler stream from
``train.seed`` into a ``TrainState``; ``train_step`` samples a batch,
forms the weighted objective with ``compute_losses`` and takes one Adam
update over the encoder and the prompt learner together (IMLP's joint
fine-tuning). ``train`` is a loop over epochs around that step, with
evaluation and checkpoints; ``vld eval`` builds the same state and loads a
checkpoint into it.

``stp.enabled`` alone decides whether the hub, its readout and its
identity head are built; ``imlp.enabled`` whether the prompts are.

Metrics lines carry logical timestamps (step and epoch counters) rather
than wall-clock time so identical seeds reproduce identical logs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint
from .config import RunConfig
from .data import (FRAMES_FILE, Dataset, generate, load_dataset, sample_batch,
                   INFRARED, VISIBLE)
from .errors import ConfigError
from .hub import VideoModel
from .losses import (IdentityHead, identity_cross_entropy, total_loss,
                     weighted_regularized_triplet)
from .optim import Adam, cosine_lr
from .prompts import (TEXT_SEED, TOKENS, FrozenTextEncoder, PromptBank,
                      make_logit_scale, visual_text_loss)
from .retrieval import evaluate, extract_features, save_report
from .rng import Rng
from .tensor import Tensor, default_dtype, set_default_dtype


def build_model(cfg: RunConfig, rng: Rng) -> VideoModel:
    layer = cfg["stp.insertion_layer"] if cfg["stp.enabled"] else None
    return VideoModel(cfg.encoder_config(), frames=cfg["data.frames"],
                      rng=rng, insertion_layer=layer)


class TrainingHeads:
    """Loss-side modules: identity heads, prompt bank, frozen text encoder."""

    def __init__(self, cfg: RunConfig, num_train_identities: int, rng: Rng):
        dim = cfg["encoder.dim"]
        self.id_head_cls = IdentityHead(dim, num_train_identities,
                                        rng.split("head-cls"))
        self.id_head_hub = None
        if cfg["stp.enabled"]:
            self.id_head_hub = IdentityHead(dim, num_train_identities,
                                            rng.split("head-hub"))
        self.prompts: PromptBank | None = None
        self.text_encoder: FrozenTextEncoder | None = None
        self.logit_scale: Tensor | None = None
        if cfg["imlp.enabled"]:
            self.prompts = PromptBank(num_train_identities, TOKENS, dim,
                                      rng.split("prompts"))
            self.text_encoder = FrozenTextEncoder(dim, self.prompts.length,
                                                  TEXT_SEED)
            self.logit_scale = make_logit_scale()

    def named_parameters(self):
        yield from self.id_head_cls.named_parameters("head/cls")
        if self.id_head_hub is not None:
            yield from self.id_head_hub.named_parameters("head/hub")
        if self.prompts is not None:
            yield from self.prompts.named_parameters()
            yield "imlp/logit_scale", self.logit_scale


PROMPT_LR_MULTIPLIER = 25.0


def build_optimizer(cfg: RunConfig, model: VideoModel,
                    heads: TrainingHeads) -> Adam:
    """Adam, with the prompt tokens at ``PROMPT_LR_MULTIPLIER`` times the
    step's rate. ``cfg`` is not read; callers pass it."""
    base_params = list(model.named_parameters())
    prompt_params = []
    for name, param in heads.named_parameters():
        if name == "imlp/prompts":
            prompt_params.append((name, param))
        else:
            base_params.append((name, param))
    groups = {"": (base_params, 1.0)}
    if prompt_params:
        groups["prompt"] = (prompt_params, PROMPT_LR_MULTIPLIER)
    return Adam(groups)


@dataclass
class TrainState:
    """What a training step updates: the model, the loss-side heads, the
    optimizer over both, and the stream the batches are sampled from."""

    model: VideoModel
    heads: TrainingHeads
    optimizer: Adam
    sampler: Rng


def build_state(cfg: RunConfig, num_train_identities: int) -> TrainState:
    """The run's initial state, drawn from ``train.seed``."""
    rng = Rng(cfg["train.seed"])
    model = build_model(cfg, rng.split("init"))
    heads = TrainingHeads(cfg, num_train_identities, rng.split("init"))
    return TrainState(model, heads, build_optimizer(cfg, model, heads),
                      rng.split("sampler"))


def all_parameters(state: TrainState):
    yield from state.model.named_parameters()
    yield from state.heads.named_parameters()


def checkpoint_records(state: TrainState) -> dict:
    return {name: p.data for name, p in all_parameters(state)}


def load_into(state: TrainState, path) -> None:
    records = checkpoint.load(path)
    for name, param in all_parameters(state):
        if name not in records:
            raise ConfigError(f"checkpoint missing parameter {name}")
        if records[name].shape != param.data.shape:
            raise ConfigError(
                f"checkpoint parameter {name} has shape {records[name].shape}, "
                f"model expects {param.data.shape}"
            )
        param.data[...] = records[name]


def compute_losses(cfg: RunConfig, model: VideoModel, heads: TrainingHeads,
                   frames: np.ndarray, labels: np.ndarray) -> dict:
    """Forward one mixed-modality batch and return the weighted ``"total"``
    followed by the five named loss parts (None for a disabled branch)."""
    seq, hub_seq = model.forward(frames)
    parts = {
        "id_cls": identity_cross_entropy(seq, labels, heads.id_head_cls),
        "wrt_cls": weighted_regularized_triplet(seq, labels),
        "v2t": None,
        "id_hub": None,
        "wrt_hub": None,
    }
    if heads.prompts is not None:
        prototypes = heads.text_encoder.encode(heads.prompts)
        parts["v2t"] = visual_text_loss(seq, labels, prototypes,
                                        heads.logit_scale)
    if hub_seq is not None:
        parts["id_hub"] = identity_cross_entropy(hub_seq, labels,
                                                 heads.id_head_hub)
        parts["wrt_hub"] = weighted_regularized_triplet(hub_seq, labels)
    return {"total": total_loss(**parts, weights=cfg.loss_weights()), **parts}


def train_step(cfg: RunConfig, state: TrainState, dataset: Dataset,
               tracklets, lr: float) -> dict:
    """One joint update of every trained parameter at base rate ``lr`` on a
    batch sampled from ``tracklets``; returns ``compute_losses``' parts."""
    batch = sample_batch(cfg.batch_plan(), dataset, tracklets, state.sampler,
                         apply_augment=cfg["data.augment"], pad=cfg["data.pad"])
    parts = compute_losses(cfg, state.model, state.heads, batch.frames,
                           batch.labels)
    state.optimizer.zero_grad()
    parts["total"].backward()
    state.optimizer.step(lr=lr)
    return parts


def evaluate_model(cfg: RunConfig, model: VideoModel, dataset: Dataset):
    """RetrievalReports on the test split, ranked both ways.

    Returns ``(reports, vis_index, ir_index)``: the reports keyed by
    direction, then the visible and infrared feature indexes they rank.
    """
    test = dataset.test
    vis = [t for t in test if t.modality == VISIBLE]
    ir = [t for t in test if t.modality == INFRARED]
    use_hub = cfg["eval.use_hub_feature"]
    vis_index = extract_features(model, dataset, vis, use_hub_feature=use_hub)
    ir_index = extract_features(model, dataset, ir, use_hub_feature=use_hub)
    reports = {
        "ir2vis": evaluate(ir_index, vis_index, direction="ir2vis"),
        "vis2ir": evaluate(vis_index, ir_index, direction="vis2ir"),
    }
    return reports, vis_index, ir_index


def _fmt(x: float) -> str:
    return repr(float(x))


@contextmanager
def configured_precision(cfg: RunConfig):
    """Make ``train.precision`` the default dtype inside the block; the
    caller's default is back in place when the block exits or raises."""
    previous = default_dtype()
    set_default_dtype(np.float32 if cfg["train.precision"] == "single"
                      else np.float64)
    try:
        yield
    finally:
        set_default_dtype(previous)


def train(cfg: RunConfig, out_dir, log=None) -> dict:
    """Run the configured training, in the configured precision; returns a
    summary of losses and metrics. The config is checked before anything
    is written."""
    cfg.validate_for_training()
    with configured_precision(cfg):
        return _run(cfg, out_dir, log)


def _run(cfg: RunConfig, out_dir, log) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    from .config import write_config
    write_config(cfg, out / "resolved.cfg")

    root = Path(cfg["data.root"])
    if not (root / FRAMES_FILE).exists():
        generate(cfg.synthetic_spec(), cfg["train.seed"], root)
    dataset = load_dataset(root)
    state = build_state(cfg, dataset.num_train_identities)

    train_tracklets = dataset.train
    # An epoch makes `epoch_passes` sweeps over the training tracklets.
    steps_per_epoch = cfg["train.epoch_passes"] * max(
        1, len(train_tracklets) // cfg.batch_plan().batch_size)
    total_steps = cfg["train.epochs"] * steps_per_epoch

    lines: list[str] = []

    def emit(line: str) -> None:
        lines.append(line)
        if log is not None:
            log(line)

    def write_metrics() -> None:
        checkpoint.write_atomic(out / "metrics.log",
                                [("\n".join(lines) + "\n").encode()])

    checkpoint.save(out / "last.vldt", checkpoint_records(state))
    best_map = -1.0
    epoch_losses = []
    step = 0
    reports = None
    try:
        for epoch in range(cfg["train.epochs"]):
            epoch_total = 0.0
            for _ in range(steps_per_epoch):
                lr = cosine_lr(step, total_steps, cfg["optim.base_lr"])
                parts = train_step(cfg, state, dataset, train_tracklets, lr)
                pieces = [f"step={step}", f"epoch={epoch}", f"lr={_fmt(lr)}"]
                for name, part in parts.items():
                    if part is not None:
                        pieces.append(f"loss_{name}={_fmt(part.item())}")
                emit(" ".join(pieces))
                epoch_total += parts["total"].item()
                step += 1
            epoch_losses.append(epoch_total / steps_per_epoch)

            reports, _, _ = evaluate_model(cfg, state.model, dataset)
            epoch_map = float(np.mean([r.mean_ap for r in reports.values()]))
            for name, report in reports.items():
                emit(f"eval epoch={epoch} direction={name} "
                     f"rank1={_fmt(report.rank(1))} rank5={_fmt(report.rank(5))} "
                     f"rank10={_fmt(report.rank(10))} map={_fmt(report.mean_ap)}")
            if epoch_map > best_map:
                best_map = epoch_map
                checkpoint.save(out / "best.vldt", checkpoint_records(state))
            checkpoint.save(out / "last.vldt", checkpoint_records(state))
            # A killed process runs no `finally`: each finished epoch's
            # lines are on disk before the next epoch starts.
            write_metrics()

        checkpoint.save(out / "final.vldt", checkpoint_records(state))
        # The last epoch's evaluation already ranks the final model.
        if reports is None:
            reports, _, _ = evaluate_model(cfg, state.model, dataset)
        for name, report in reports.items():
            save_report(report, out / f"report_{name}.json",
                        out / f"cmc_{name}.csv")
    finally:
        # Whatever ends the run, its log keeps every line emitted so far.
        write_metrics()
    return {
        "epoch_losses": epoch_losses,
        "best_map": best_map,
        "final_maps": {name: r.mean_ap for name, r in reports.items()},
        "steps": step,
        "out_dir": str(out),
    }
