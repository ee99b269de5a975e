"""The three benchmark workloads, driven through vld's public API.

Each workload has ``setup`` (data generation, dataset load, model build),
``job`` (one timed unit of work plus its output checks, which run outside
the timed region) and ``summary`` (the end-to-end figures). All three are
closed loops in one single-threaded process: the next job starts when the
previous one has finished.
"""

from __future__ import annotations

import math
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vld import checkpoint, data, losses, optim, retrieval, tensor, train
from vld.config import load_config
from vld.errors import VldError
from vld.rng import Rng

DESK_CONFIG = Path("configs/desk.cfg")

# train-step: steps per trajectory, and how many of its last steps make
# final_loss. Every trajectory restarts from the seed's initial state, so
# its loss trace must repeat bit for bit.
TRAJECTORY_STEPS = 20
LOSS_WINDOW = 5

# gallery-eval: test identities and tracklets per identity and modality,
# 500 tracklets per modality against the desk's 40.
GALLERY_IDENTITIES = 125
GALLERY_TRACKLETS = 4
GALLERY_QUERIES = 2 * GALLERY_IDENTITIES * GALLERY_TRACKLETS   # both ways

# ablation-sweep: the criterion-7 variants as (stp.enabled, imlp.enabled),
# each trained for one pass over the desk training split.
VARIANTS = {
    "B": (False, False),
    "B+IMLP": (False, True),
    "B+STP": (True, False),
    "B+STP+IMLP": (True, True),
}
SWEEP_EPOCHS = 1
RUN_ARTIFACTS = ("resolved.cfg", "metrics.log", "last.vldt", "best.vldt",
                 "final.vldt", "report_ir2vis.json", "report_vis2ir.json",
                 "cmc_ir2vis.csv", "cmc_vis2ir.csv")


@dataclass
class Job:
    seconds: float            # wall time of the whole job
    tracklets: int            # tracklets through the throughput phase
    busy_s: float             # time of the throughput phase
    attempted: int            # steps, queries or runs
    failed: int               # of those, raised or failed a check
    samples: list = field(default_factory=list)   # per-step or per-run seconds
    rank_s: float = 0.0       # gallery-eval: time spent ranking


def unit(tracer, name: str):
    return nullcontext() if tracer is None else tracer.unit_span(name)


def report_failure(what: str, exc: BaseException) -> None:
    print(f"# FAILED {what}", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def desk_config(**overrides):
    cfg = load_config(DESK_CONFIG)
    cfg.values.update(overrides)
    return cfg.validate()


def set_precision(cfg) -> None:
    tensor.set_default_dtype(np.float32 if cfg["train.precision"] == "single"
                             else np.float64)


class TrainStep:
    """Back-to-back desk training steps through the public step path."""

    name = "train-step"

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = desk_config(**{"train.seed": seed})
        set_precision(self.cfg)
        self.reference = None

    def setup(self, root: Path) -> None:
        data.generate(self.cfg.synthetic_spec(), self.seed, root)
        self.dataset = data.load_dataset(root)
        self._build()

    def _build(self) -> None:
        rng = Rng(self.seed)
        self.model = train.build_model(self.cfg, rng.split("init"))
        self.heads = train.TrainingHeads(
            self.cfg, self.dataset.num_train_identities, rng.split("init"))
        self.optimizer = train.build_optimizer(self.cfg, self.model, self.heads)
        self.sampler = rng.split("sampler")

    def job(self, index: int, tracer) -> Job:
        cfg, ds = self.cfg, self.dataset
        if index > 0:
            self._build()   # every trajectory starts from the same state
        plan, weights = cfg.batch_plan(), cfg.loss_weights()
        tracklets = ds.train
        trace_losses, samples = [], []
        failed = 0
        start = time.perf_counter()
        for step in range(TRAJECTORY_STEPS):
            t0 = time.perf_counter()
            try:
                with unit(tracer, f"traj{index}/step{step}"):
                    batch = data.sample_batch(plan, ds, tracklets, self.sampler,
                                              apply_augment=cfg["data.augment"],
                                              pad=cfg["data.pad"])
                    parts = train.compute_losses(cfg, self.model, self.heads,
                                                 batch.frames, batch.labels)
                    loss = losses.total_loss(
                        parts["id_cls"], parts["wrt_cls"], parts["v2t"],
                        parts["id_hub"], parts["wrt_hub"], weights)
                    self.optimizer.zero_grad()
                    loss.backward()
                    self.optimizer.step(lr=optim.cosine_lr(
                        step, TRAJECTORY_STEPS, cfg["optim.base_lr"]))
            except Exception as exc:   # counted, and the trajectory ends
                report_failure(f"train step {step} of trajectory {index}", exc)
                failed += TRAJECTORY_STEPS - step
                break
            samples.append(time.perf_counter() - t0)
            values = [p.item() for p in parts.values() if p is not None]
            if not all(math.isfinite(v) for v in values + [loss.item()]):
                failed += 1
            trace_losses.append(loss.item())
        seconds = time.perf_counter() - start
        if self.reference is None:
            self.reference = trace_losses
        elif trace_losses != self.reference[:len(trace_losses)]:
            mismatched = sum(a != b for a, b in zip(trace_losses, self.reference))
            report_failure(f"trajectory {index}",
                           ValueError(f"loss trace differs from the first "
                                      f"trajectory at {mismatched} steps"))
            failed += mismatched
        return Job(seconds=seconds, tracklets=len(samples) * plan.batch_size,
                   busy_s=sum(samples), attempted=TRAJECTORY_STEPS,
                   failed=min(failed, TRAJECTORY_STEPS), samples=samples)

    def summary(self, jobs: list[Job]) -> dict:
        steps_ms = [1e3 * s for job in jobs for s in job.samples]
        window = self.reference[-LOSS_WINDOW:] if self.reference else [math.nan]
        return {
            "train_samples_per_s": (rate(jobs), "1/s"),
            **latency("step_ms", steps_ms),
            "final_loss": (float(np.mean(window)), "loss"),
        }


class GalleryEval:
    """Cold-cache feature extraction and two-way ranking of a large split."""

    name = "gallery-eval"

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = desk_config(**{"data.train_identities": 2,
                                  "data.test_identities": GALLERY_IDENTITIES,
                                  "data.tracklets_per_identity":
                                      GALLERY_TRACKLETS,
                                  "train.seed": seed})
        set_precision(self.cfg)
        self.maps = []

    def setup(self, root: Path) -> None:
        data.generate(self.cfg.synthetic_spec(), self.seed, root)
        data.load_dataset(root)
        self.root = root
        self.model = train.build_model(self.cfg, Rng(self.seed).split("init"))

    def job(self, index: int, tracer) -> Job:
        use_hub = self.cfg["eval.use_hub_feature"]
        start = time.perf_counter()
        try:
            with unit(tracer, f"eval{index}"):
                ds = data.load_dataset(self.root)   # fresh: cold frame cache
                vis = [t for t in ds.test if t.modality == data.VISIBLE]
                ir = [t for t in ds.test if t.modality == data.INFRARED]
                t0 = time.perf_counter()
                vis_index = retrieval.extract_features(self.model, ds, vis,
                                                       use_hub_feature=use_hub)
                ir_index = retrieval.extract_features(self.model, ds, ir,
                                                      use_hub_feature=use_hub)
                t1 = time.perf_counter()
                reports = {
                    "ir2vis": (ir_index, vis_index, retrieval.evaluate(
                        ir_index, vis_index, direction="ir2vis")),
                    "vis2ir": (vis_index, ir_index, retrieval.evaluate(
                        vis_index, ir_index, direction="vis2ir")),
                }
                t2 = time.perf_counter()
        except Exception as exc:   # counted against every query
            report_failure(f"evaluation {index}", exc)
            return Job(seconds=time.perf_counter() - start, tracklets=0,
                       busy_s=0.0, attempted=GALLERY_QUERIES,
                       failed=GALLERY_QUERIES)
        seconds = time.perf_counter() - start
        failed = 0
        for direction, (queries, gallery, report) in reports.items():
            cmc, mean_ap = brute_force_retrieval(queries, gallery)
            if (not np.isfinite(queries.features).all()
                    or report.num_queries != len(queries.tracklet_ids)
                    or not np.array_equal(report.cmc, cmc)
                    or report.mean_ap != mean_ap):
                report_failure(f"evaluation {index} {direction}",
                               ValueError("report differs from brute force"))
                failed += len(queries.tracklet_ids)
        self.maps.append(float(np.mean([r.mean_ap for _, _, r in
                                        reports.values()])))
        return Job(seconds=seconds, tracklets=len(vis) + len(ir),
                   busy_s=t1 - t0, attempted=len(ir) + len(vis), failed=failed,
                   rank_s=t2 - t1)

    def summary(self, jobs: list[Job]) -> dict:
        rank_s = sum(job.rank_s for job in jobs)
        queries = sum(job.attempted for job in jobs if job.rank_s)
        return {
            "extract_tracklets_per_s": (rate(jobs), "1/s"),
            "rank_queries_per_s": (queries / rank_s if rank_s else 0.0, "1/s"),
            **latency("eval_s", [job.seconds for job in jobs], unit="s"),
            "map": (self.maps[0] if self.maps else math.nan, "ratio"),
        }


def brute_force_retrieval(queries, gallery):
    """CMC and mAP straight from the definitions, one query at a time."""
    g = len(gallery.tracklet_ids)
    cmc = [0.0] * g
    aps = []
    for qi in range(len(queries.tracklet_ids)):
        sims = gallery.features @ queries.features[qi]
        ranked = sorted(range(g), key=lambda gi: (-float(sims[gi]),
                                                  int(gallery.tracklet_ids[gi])))
        good = [r for r, gi in enumerate(ranked)
                if gallery.identities[gi] == queries.identities[qi]]
        if not good:
            continue
        for r in range(good[0], g):
            cmc[r] += 1.0
        aps.append(sum((k + 1) / (rank + 1) for k, rank in enumerate(good))
                   / len(good))
    return np.asarray(cmc) / len(aps), sum(aps) / len(aps)


class AblationSweep:
    """The four criterion-7 variants through ``vld.train.train``."""

    name = "ablation-sweep"

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = desk_config()
        self.reference = None

    def setup(self, root: Path) -> None:
        data.generate(self.cfg.synthetic_spec(), self.seed, root)
        data.load_dataset(root)
        self.root = root

    def job(self, index: int, tracer) -> Job:
        sweep_dir = self.root.parent / f"sweep{index}"
        summaries, samples = {}, []
        failed = 0
        start = time.perf_counter()
        for name, (stp, imlp) in VARIANTS.items():
            cfg = desk_config(**{"stp.enabled": stp, "imlp.enabled": imlp,
                                 "train.seed": self.seed,
                                 "train.epochs": SWEEP_EPOCHS,
                                 "train.epoch_passes": 1,
                                 "data.root": str(self.root)})
            t0 = time.perf_counter()
            try:
                with unit(tracer, f"sweep{index}/{name}"):
                    summaries[name] = train.train(cfg, sweep_dir / name)
            except Exception as exc:
                report_failure(f"run {name} of sweep {index}", exc)
                failed += 1
            samples.append(time.perf_counter() - t0)
        seconds = time.perf_counter() - start
        maps = {name: s["final_maps"] for name, s in summaries.items()}
        for name, summary in summaries.items():
            problem = check_run(Path(summary["out_dir"]), summary)
            if self.reference is not None and maps[name] != self.reference.get(name):
                problem = "final mAP differs from the first sweep"
            if problem:
                report_failure(f"run {name} of sweep {index}", ValueError(problem))
                failed += 1
        if self.reference is None:
            self.reference = maps
        shutil.rmtree(sweep_dir, ignore_errors=True)
        steps = sum(s["steps"] for s in summaries.values())
        return Job(seconds=seconds,
                   tracklets=steps * self.cfg.batch_plan().batch_size,
                   busy_s=seconds, attempted=len(VARIANTS), failed=failed,
                   samples=samples)

    def summary(self, jobs: list[Job]) -> dict:
        out = {**latency("sweep_s", [job.seconds for job in jobs], unit="s")}
        for i, name in enumerate(VARIANTS):
            out[f"run_s[{name}]"] = (float(np.median(
                [job.samples[i] for job in jobs])), "s")
        finals = [float(np.mean(list(m.values())))
                  for m in (self.reference or {}).values()]
        out["map"] = (float(np.mean(finals)) if finals else math.nan, "ratio")
        return out


def check_run(out: Path, summary: dict) -> str | None:
    """Why a finished run's outputs are wrong, or None when they are fine."""
    missing = [name for name in RUN_ARTIFACTS if not (out / name).is_file()]
    if missing:
        return f"missing artifacts {missing}"
    names = None
    for path in sorted(out.glob("*.vldt")):
        try:
            records = checkpoint.load(path)
        except VldError as exc:
            return f"{path.name} does not load: {exc}"
        if not records or not all(np.isfinite(a).all() for a in records.values()):
            return f"{path.name} is empty or not finite"
        if names is not None and list(records) != names:
            return f"{path.name} holds other records than its siblings"
        names = list(records)
    maps = list(summary["final_maps"].values())
    if len(maps) != 2 or not all(0.0 <= m <= 1.0 for m in maps):
        return f"final mAPs out of range: {maps}"
    return None


def rate(jobs: list[Job]) -> float:
    busy = sum(job.busy_s for job in jobs)
    return sum(job.tracklets for job in jobs) / busy if busy else 0.0


def latency(name: str, values: list, unit: str = "ms") -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {f"{name}_p50": (float(np.median(values)), unit, n)}
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            out[f"{name}_p{q}"] = (float(np.percentile(values, q)), unit, n)
            break
    return out


WORKLOADS = {w.name: w for w in (TrainStep, GalleryEval, AblationSweep)}
