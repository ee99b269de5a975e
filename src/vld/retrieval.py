"""Cross-modality retrieval evaluation: feature extraction, CMC, and mAP.

Ranking is by cosine similarity, descending, with ties broken by ascending
tracklet id so results are deterministic. A query whose identity never
appears in the gallery is excluded from both curves and counted in the
report. No same-camera filtering is applied.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .data import Dataset, Tracklet
from .errors import ContractError, DataError
from .tensor import no_grad

EXTRACT_BATCH = 16


@dataclass
class GalleryIndex:
    features: np.ndarray       # [G, D] float64, rows unit-norm
    identities: np.ndarray     # [G]
    modalities: np.ndarray     # [G]
    tracklet_ids: np.ndarray   # [G]


@dataclass
class RetrievalReport:
    cmc: np.ndarray            # [G], nondecreasing
    mean_ap: float
    direction: str
    num_queries: int
    num_skipped: int

    def rank(self, k: int) -> float:
        return float(self.cmc[min(k, len(self.cmc)) - 1])


def extract_features(model, dataset: Dataset, tracklets: list[Tracklet],
                     use_hub_feature: bool = False) -> GalleryIndex:
    """One unit-normalized row per tracklet, in the given order.

    The row is the hub readout's sequence feature when ``use_hub_feature``
    is true (a model without a hub is then a ``ContractError``), and the
    [CLS] sequence feature otherwise; then the readout does not run at
    all. Rows are cast to float64 before they are normalised, whatever the
    model's precision: in float32 a matrix product and per-query products
    round similarities differently, and near-ties swap places.

    Every ``EXTRACT_BATCH`` tracklets are one no-grad ``model.forward``.
    When the process may run on more than one CPU, the calling thread runs
    the even batches and one helper thread, joined before return, the odd
    ones: numpy releases the interpreter lock in its BLAS calls and ufunc
    loops, most of a forward, so the two overlap. A batch's rows do not
    depend on the thread that ran it. If a batch raises, the helper's
    queued batches are cancelled and the error reaches the caller.
    """
    if use_hub_feature and model.hub is None:
        raise ContractError("hub feature asked of a model without a hub")
    batches = [tracklets[start:start + EXTRACT_BATCH]
               for start in range(0, len(tracklets), EXTRACT_BATCH)]

    def run(chunk):
        frames = np.stack([dataset.load_frames(t) for t in chunk])
        with no_grad():   # grad mode is per thread
            seq, hub_seq = model.forward(frames, hub_feature=use_hub_feature)
        return (hub_seq if use_hub_feature else seq).data

    helped = (range(1, len(batches), 2) if len(os.sched_getaffinity(0)) > 1
              else ())
    feats = [None] * len(batches)
    # One helper, not a pool of two: glibc gives each new thread its own
    # malloc arena, which keeps that thread's high-water mark. The helper
    # thread starts only once a batch is submitted to it.
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        futures = {i: helper.submit(run, batches[i]) for i in helped}
        for i, chunk in enumerate(batches):
            if i not in futures:
                feats[i] = run(chunk)
        for i, future in futures.items():
            feats[i] = future.result()
    finally:
        # After a raise, the helper's queued batches never start.
        helper.shutdown(cancel_futures=True)
    features = (np.concatenate(feats, axis=0, dtype=np.float64) if feats
                else np.zeros((0, 1)))
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    features = features / np.maximum(norms, 1e-12)
    return GalleryIndex(
        features=features,
        identities=np.asarray([t.identity for t in tracklets]),
        modalities=np.asarray([t.modality for t in tracklets]),
        tracklet_ids=np.asarray([t.tracklet_id for t in tracklets]),
    )


def evaluate(queries: GalleryIndex, gallery: GalleryIndex,
             direction: str = "") -> RetrievalReport:
    """CMC and mAP of queries against a modality-disjoint gallery."""
    if set(queries.modalities) & set(gallery.modalities):
        raise DataError("query and gallery modalities overlap")
    g = len(gallery.tracklet_ids)
    sims = queries.features @ gallery.features.T
    cmc_hits = np.zeros(g)
    aps = []
    skipped = 0
    for qi in range(len(queries.tracklet_ids)):
        # lexsort: last key is primary, so similarity first, then id.
        order = np.lexsort((gallery.tracklet_ids, -sims[qi]))
        hits = gallery.identities[order] == queries.identities[qi]
        if not hits.any():
            skipped += 1
            continue
        first = int(np.argmax(hits))
        cmc_hits[first:] += 1.0
        positions = np.flatnonzero(hits)
        # Sequential sums keep the arithmetic bit-identical to a plain
        # enumeration of the definition.
        precisions = [(k + 1) / (rank + 1) for k, rank in enumerate(positions)]
        aps.append(sum(precisions) / len(precisions))
    evaluated = len(aps)
    if evaluated == 0:
        raise DataError("no query identity appears in the gallery")
    return RetrievalReport(
        cmc=cmc_hits / evaluated,
        mean_ap=sum(aps) / evaluated,
        direction=direction,
        num_queries=evaluated,
        num_skipped=skipped,
    )


def save_report(report: RetrievalReport, json_path, csv_path) -> None:
    """Metrics as JSON text plus the CMC curve as rank,value lines."""
    payload = {
        "direction": report.direction,
        "rank1": report.rank(1),
        "rank5": report.rank(5),
        "rank10": report.rank(10),
        "map": report.mean_ap,
        "num_queries": report.num_queries,
        "num_skipped": report.num_skipped,
    }
    checkpoint.write_atomic(json_path, [
        (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])
    lines = ["rank,value"]
    for i, value in enumerate(report.cmc, start=1):
        lines.append(f"{i},{float(value)!r}")
    checkpoint.write_atomic(csv_path, [("\n".join(lines) + "\n").encode()])

