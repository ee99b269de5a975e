"""Span tracing around the public functions of each vld layer.

Tracing lives entirely in the benchmark: ``patched(tracer)`` swaps the
layer functions for timing wrappers on the module or class attribute each
caller looks them up through, and restores the originals on exit, so the
untraced phases of a run execute the unmodified program.

A span records (name, start, end, parent, unit). ``unit`` names the step,
evaluation pass or run the span belongs to; the benchmark's own root span
for that unit is named ``unit``, so its self time is the part of the unit
no layer span covers.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from vld import (checkpoint, data, encoder, hub, losses, optim, profiler,
                 prompts, retrieval, tensor, train)

# Spans that lie inside these are not recorded: the frozen text encoder
# reuses TransformerBlock, and its blocks are told apart from the vision
# blocks by this parent, so their time stays in the text encoder's span.
_FOLD_INTO = ("prompts.text_encoder",)


class Tracer:
    """In-memory span and counter store for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, unit]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.unit = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def within(self, names) -> bool:
        return any(self.spans[i][0] in names for i in self._stack)

    @contextmanager
    def unit_span(self, unit: str):
        """Root span of one step, evaluation pass or run."""
        self.unit = unit
        idx = self.open("unit")
        try:
            yield
        finally:
            self.close(idx)
            self.unit = None

    def totals(self):
        """{name: (total seconds, self seconds, calls)} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += end - start
            entry[1] += end - start - child[i]
            entry[2] += 1
        return {name: tuple(v) for name, v in out.items()}

    def dump(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "unit": u}
                      for n, s, e, p, u in self.spans],
            "counters": dict(self.counters),
        }


def _graph_nodes(loss) -> int:
    """Nodes backward visits: reachable from the loss through ``_parents``
    that require a gradient, leaf parameters included."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@functools.lru_cache(maxsize=None)
def _block_flops(cfg, frames: int, stp: bool, insertion_layer: int) -> int:
    """Per-frame forward FLOPs of the vision blocks."""
    return profiler.estimate_flops(cfg, frames, stp,
                                   insertion_layer).flops_by_module["blocks"]


def _encode_counts(args, kwargs, counters):
    enc, frames = args[0], args[1]
    hub_ = kwargs.get("hub", args[2] if len(args) > 2 else None)
    b, t = frames.shape[0], frames.shape[1]
    if hub_ is None:
        flops = _block_flops(enc.cfg, t, False, enc.cfg.depth)
    else:
        flops = _block_flops(enc.cfg, t, hub_.active, hub_.insertion_layer)
    counters["encoder.blocks.flops"] += flops * b * t


def _readout_counts(args, kwargs, counters):
    b, t, d = args[1].shape
    counters["hub.readout.flops"] += profiler.readout_flops(t, d) * b


def _backward_counts(args, kwargs, counters):
    counters["tensor.graph_nodes"] += _graph_nodes(args[0])


def _extract_counts(args, kwargs, counters):
    counters["retrieval.tracklets"] += len(args[2])


def _evaluate_counts(args, kwargs, counters):
    counters["retrieval.queries"] += len(args[0].tracklet_ids)


# (owner, attribute, span name, counter hook). A function imported by name
# into another module is patched at each module that calls it.
LAYER_FUNCTIONS = [
    (data, "generate", "data.generate", None),
    (data, "sample_batch", "data.sample_batch", None),
    (train, "sample_batch", "data.sample_batch", None),
    (data.Dataset, "load_frames", "data.load_frames", None),
    (checkpoint, "save", "checkpoint.save", None),
    (checkpoint, "load", "checkpoint.load", None),
    (encoder.VisionEncoder, "encode", "encoder.encode", _encode_counts),
    (encoder.VisionEncoder, "embed", "encoder.embed", None),
    (encoder.TransformerBlock, "__call__", "encoder.block", None),
    (encoder, "multi_head_attention", "attention.mha", None),
    (hub.TemporalHub, "attach", "hub.attach", None),
    (hub.TemporalHub, "flip", "hub.flip", None),
    (hub.HubReadout, "__call__", "hub.readout", _readout_counts),
    (prompts.FrozenTextEncoder, "encode", "prompts.text_encoder", None),
    (train, "visual_text_loss", "prompts.v2t_loss", None),
    (train, "identity_cross_entropy", "losses.id_ce", None),
    (train, "weighted_regularized_triplet", "losses.wrt", None),
    (losses, "total_loss", "losses.total", None),
    (train, "total_loss", "losses.total", None),
    (tensor.Tensor, "backward", "tensor.backward", _backward_counts),
    (optim.Adam, "step", "optim.adam", None),
    (retrieval, "extract_features", "retrieval.extract_features",
     _extract_counts),
    (train, "extract_features", "retrieval.extract_features",
     _extract_counts),
    (retrieval, "evaluate", "retrieval.evaluate", _evaluate_counts),
    (train, "evaluate", "retrieval.evaluate", _evaluate_counts),
    (train, "evaluate_model", "train.evaluate_model", None),
    (train, "train", "train.train", None),
]


def _wrap(tracer: Tracer, fn, name: str, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.within(_FOLD_INTO):
            return fn(*args, **kwargs)
        if count is not None:
            count(args, kwargs, tracer.counters)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


@contextmanager
def patched(tracer: Tracer):
    """Route every layer function through ``tracer`` for the block's duration."""
    saved = []
    try:
        for owner, attr, name, count in LAYER_FUNCTIONS:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, count))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, units: int, setup_tracer: Tracer,
                  setups: int, overhead: float) -> dict:
    """Per-layer figures, each span time averaged per unit of work.

    ``retrieval.extract_features.*`` is per extracted tracklet instead, and
    ``data.generate.s`` and ``checkpoint.save.setup_*`` per set-up. Layers a
    workload never calls read 0.
    """
    totals = tracer.totals()
    counters = tracer.counters

    def total_ms(name, per=units):
        return 1e3 * totals.get(name, (0.0, 0.0, 0))[0] / max(per, 1)

    def self_ms(name, per=units):
        return 1e3 * totals.get(name, (0.0, 0.0, 0))[1] / max(per, 1)

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2] / max(units, 1)

    def rate(flops, seconds):
        return flops / seconds / 1e9 if seconds > 0 else 0.0

    block_s = totals.get("encoder.block", (0.0, 0.0, 0))[0]
    readout_s = totals.get("hub.readout", (0.0, 0.0, 0))[0]
    backward_s, _, backward_calls = totals.get("tensor.backward", (0.0, 0.0, 0))
    nodes = counters["tensor.graph_nodes"]
    tracklets = counters["retrieval.tracklets"]
    setup_totals = setup_tracer.totals()
    gen_s = setup_totals.get("data.generate", (0.0, 0.0, 0))[0]
    save_s, _, save_calls = setup_totals.get("checkpoint.save", (0.0, 0.0, 0))
    return {
        "data.generate.s": gen_s / max(setups, 1),
        "data.sample_batch.ms": total_ms("data.sample_batch"),
        "data.sample_batch.self_ms": self_ms("data.sample_batch"),
        "data.load_frames.ms": total_ms("data.load_frames"),
        "data.load_frames.self_ms": self_ms("data.load_frames"),
        "checkpoint.load.ms": total_ms("checkpoint.load"),
        "checkpoint.save.ms": total_ms("checkpoint.save"),
        "checkpoint.save.calls": calls("checkpoint.save"),
        "checkpoint.save.setup_s": save_s / max(setups, 1),
        "checkpoint.save.setup_calls": save_calls / max(setups, 1),
        "encoder.encode.ms": total_ms("encoder.encode"),
        "encoder.encode.self_ms": self_ms("encoder.encode"),
        "encoder.embed.ms": total_ms("encoder.embed"),
        "encoder.block.ms": total_ms("encoder.block"),
        "encoder.block.self_ms": self_ms("encoder.block"),
        "attention.mha.ms": total_ms("attention.mha"),
        "encoder.blocks.gflops": rate(counters["encoder.blocks.flops"], block_s),
        "hub.attach.ms": total_ms("hub.attach"),
        "hub.flip.ms": total_ms("hub.flip"),
        "hub.readout.ms": total_ms("hub.readout"),
        "hub.readout.gflops": rate(counters["hub.readout.flops"], readout_s),
        "prompts.text_encoder.ms": total_ms("prompts.text_encoder"),
        "prompts.v2t_loss.ms": total_ms("prompts.v2t_loss"),
        "losses.id_ce.ms": total_ms("losses.id_ce"),
        "losses.wrt.ms": total_ms("losses.wrt"),
        "losses.total.ms": total_ms("losses.total"),
        "tensor.backward.ms": total_ms("tensor.backward"),
        "tensor.graph_nodes": nodes / backward_calls if backward_calls else 0.0,
        "tensor.backward.us_per_node": 1e6 * backward_s / nodes if nodes else 0.0,
        "optim.adam.ms": total_ms("optim.adam"),
        "retrieval.extract_features.ms":
            total_ms("retrieval.extract_features", tracklets),
        "retrieval.extract_features.self_ms":
            self_ms("retrieval.extract_features", tracklets),
        "retrieval.evaluate.ms": total_ms("retrieval.evaluate"),
        "retrieval.queries": counters["retrieval.queries"] / max(units, 1),
        "train.evaluate_model.ms": total_ms("train.evaluate_model"),
        "train.evaluate_model.self_ms": self_ms("train.evaluate_model"),
        "train.train.ms": total_ms("train.train"),
        "train.train.self_ms": self_ms("train.train"),
        "trace.unattributed_ms": self_ms("unit"),
        "trace.overhead": overhead,
    }
