"""Synthetic two-modality tracklet benchmark: generation, augmentation,
on-disk format, and the identity-balanced cross-modality batch sampler.

Each identity is a low-frequency spatial pattern plus a moving stripe
whose phase advances by an identity-specific speed every frame; the start
phase is random per tracklet, so a single frame reveals the stripe but not
its speed. Cross-frame interaction is therefore genuinely informative in a
way per-frame pooling cannot recover. Visible tracklets mix the pattern
into three channels through an identity color; infrared collapses the same
field to one band with an offset and more pixel noise (standard deviation
``NOISE_INFRARED``, 0.05, against ``NOISE_VISIBLE``, 0.03).

On disk, a dataset root holds one file, ``frames.vldt``, a container in
the package format (``vld.checkpoint``) with these records in order:

- one uint8 record of shape [T, H, W, 3] per tracklet, named ``tr<id>``
  after its five-digit zero-padded tracklet id, in tracklet order;
- ``manifest``, int64 [n, 5]: one row per tracklet (tracklet id, identity,
  modality code, camera, frame count), modality 0 visible and 1 infrared;
- ``num_train_identities``, int64 0-d: identities below it train, the rest
  test, and a split that leaves either side without a manifest identity
  does not load.

The manifest and split come last, so a container cut short anywhere
lacks them and does not load. ``generate`` renders the tracklets in
chunks, on up to two threads, and streams each chunk's records as it is
done; a tracklet's bytes do not depend on its chunk or thread.

Frames stay in their stored form, uint8 [T, H, W, 3], through loading,
augmentation and batching; ``vld.hub.VideoModel.forward`` decodes each
batch to [0, 1].
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint
from .errors import ConfigError, DataError
from .rng import Rng, box_muller, unit_interval

VISIBLE = "visible"
INFRARED = "infrared"
MODALITIES = (VISIBLE, INFRARED)   # indexed by the manifest's modality code
FRAMES_FILE = "frames.vldt"

_VIS_CAMERAS = (0, 1)
_IR_CAMERAS = (2, 3)
_GOLDEN = 0.618033988749895
NOISE_VISIBLE = 0.03
NOISE_INFRARED = 0.05
# Tracklets rendered in one numpy pass: about the words 16 desk tracklets
# draw. Per-call overhead dominates one desk tracklet's render, and two
# threads only gain on arrays this large: at half the budget they ran
# slower than one. Larger chunks raise generation's peak memory.
CHUNK_WORDS = 1 << 16


@dataclass(frozen=True)
class SyntheticSpec:
    num_train_identities: int = 20
    num_test_identities: int = 10
    tracklets_per_identity: int = 2   # per identity per modality
    frames: int = 4
    image_h: int = 32
    image_w: int = 16
    pattern_amp: float = 0.2
    stripe_amp: float = 0.2
    # The identity pattern shows clean in one random frame per tracklet;
    # the rest carry a random distractor identity's pattern at this
    # fraction of full strength (a passer-by crossing the tracklet).
    occlusion: float = 0.25

    @property
    def num_identities(self) -> int:
        return self.num_train_identities + self.num_test_identities


@dataclass(frozen=True)
class Tracklet:
    tracklet_id: int
    identity: int
    modality: str
    camera: int
    frame_count: int

    @property
    def record(self) -> str:
        """Name of this tracklet's frames record in ``frames.vldt``."""
        return f"tr{self.tracklet_id:05d}"


@dataclass
class Dataset:
    """Tracklets, split and the open container their frames are read
    from; no frames are kept, so frame memory is what callers hold."""
    reader: checkpoint.Reader     # the dataset's open ``frames.vldt``
    tracklets: list[Tracklet]
    num_train_identities: int

    @property
    def train(self) -> list[Tracklet]:
        return [t for t in self.tracklets if t.identity < self.num_train_identities]

    @property
    def test(self) -> list[Tracklet]:
        return [t for t in self.tracklets if t.identity >= self.num_train_identities]

    def load_frames(self, tracklet: Tracklet) -> np.ndarray:
        """The tracklet's stored uint8 frames [T, H, W, 3], read from the
        container on every call into a fresh array the caller owns."""
        entry = self.reader.records.get(tracklet.record)
        if entry is None:
            raise DataError(f"{self.reader.path}: no record {tracklet.record} "
                            f"for tracklet {tracklet.tracklet_id}")
        dt, shape, _ = entry
        if (dt != np.uint8 or len(shape) != 4
                or shape[0] != tracklet.frame_count or shape[3] != 3):
            raise DataError(
                f"{self.reader.path}: tracklet {tracklet.tracklet_id} holds "
                f"{dt} frames of shape {shape}, expected uint8 of shape "
                f"({tracklet.frame_count}, H, W, 3)")
        return self.reader.read(tracklet.record)


# -- identity signal ----------------------------------------------------------


def _latents(spec: SyntheticSpec, rng: Rng) -> tuple:
    """Every identity's pattern, channel color, color mean, stripe
    frequency and speed, stacked along a leading identity axis: [L, H, W],
    [L, 3], [L], [L] and [L].

    Identity i's pattern sums nine terms amp * cos(pi u y + phase) *
    cos(pi v x), (u, v) in row-major order over 3 x 3. Its stream
    ``identity<i>`` draws each term's normal amplitude (two words) and
    uniform phase (one word), in the order a term-by-term loop consumes
    them, then three color words."""
    identities = range(spec.num_identities)
    h, w = spec.image_h, spec.image_w
    yy = np.linspace(0.0, 1.0, h)[:, None]
    xx = np.linspace(0.0, 1.0, w)[None, :]
    words = Rng.raw_rows([rng.split(f"identity{i}") for i in identities], 30)
    term_words = words[:, :27].reshape(-1, 9, 3)
    amps = box_muller(term_words[..., :2], 1)[..., None]          # [L, 9, 1, 1]
    phases = 2.0 * np.pi * unit_interval(term_words[..., 2:])[..., None]
    patterns = np.zeros((len(identities), h, w))
    for k in range(9):   # added one by one, in the loop's rounding order
        u, v = divmod(k, 3)
        patterns += (amps[:, k] * np.cos(np.pi * u * yy + phases[:, k])
                     * np.cos(np.pi * v * xx))
    patterns /= np.maximum(1e-9, np.abs(patterns).max(axis=(1, 2)))[
        :, None, None]
    # Hue varies per identity, mean brightness does not: the infrared
    # projection must not leak identity through a scalar brightness cue.
    # Each mean is taken over its own row, as ``ndarray.mean`` rounds it.
    colors = 0.4 + (1.0 - 0.4) * unit_interval(words[:, 27:])
    colors *= (0.7 / np.array([color.mean() for color in colors]))[:, None]
    stripe_freqs = np.array([1 + i % 2 for i in identities])
    # Low-discrepancy spread of per-frame phase speeds across identities.
    speeds = np.array([2.0 * np.pi * (0.08 + 0.84 * ((i * _GOLDEN) % 1.0))
                       for i in identities])
    return (patterns, colors, np.array([color.mean() for color in colors]),
            stripe_freqs, speeds)


def _noise_words(spec: SyntheticSpec, modality: str) -> int:
    """Words one frame's pixel noise draws: an even count, two per pair
    of Box-Muller normals."""
    channels = 3 if modality == VISIBLE else 1
    return 2 * ((spec.image_h * spec.image_w * channels + 1) // 2)


def _tracklet_words(spec: SyntheticSpec, modality: str) -> int:
    """Words one tracklet draws: the start phase, the clear frame, one
    distractor word per occluded frame and every frame's noise."""
    return 2 + (spec.frames - 1) + spec.frames * _noise_words(spec, modality)


def _chunks(spec: SyntheticSpec, rows: list[Tracklet]) -> list[slice]:
    """Runs of consecutive tracklets, each closed before the words its
    tracklets draw would pass ``CHUNK_WORDS``; a tracklet larger than the
    budget is a chunk of its own."""
    cost = {modality: _tracklet_words(spec, modality)
            for modality in MODALITIES}
    chunks, start, words = [], 0, 0
    for i, row in enumerate(rows):
        if i > start and words + cost[row.modality] > CHUNK_WORDS:
            chunks.append(slice(start, i))
            start, words = i, 0
        words += cost[row.modality]
    return chunks + [slice(start, len(rows))]


def _render_chunk(tracklets: list[Tracklet], streams: list[Rng],
                  spec: SyntheticSpec, latents: tuple) -> list[np.ndarray]:
    """The uint8 frames [T, H, W, 3] of each tracklet, drawn from its
    stream; all tracklets of one modality are rendered in one numpy pass,
    so each tracklet's bytes do not depend on the chunk it is in."""
    out = [None] * len(tracklets)
    for modality in MODALITIES:
        picks = [i for i, t in enumerate(tracklets) if t.modality == modality]
        if picks:
            block = _render_modality(
                np.array([tracklets[i].identity for i in picks]), modality,
                [streams[i] for i in picks], spec, latents)
            for i, frames in zip(picks, block):
                out[i] = frames
    return out


def _render_modality(identities: np.ndarray, modality: str,
                     streams: list[Rng], spec: SyntheticSpec,
                     latents: tuple) -> np.ndarray:
    """Frames [n, T, H, W, 3] of n tracklets of one modality. In each,
    all but one random clear frame are crossed by a distractor identity's
    pattern at ``occlusion`` strength (plus extra noise), the way
    passers-by corrupt real tracklets. Frame pooling mixes the
    identities; content-aware cross-frame aggregation can prefer the
    clear frame.

    One ``Rng.raw_rows`` call draws each tracklet's words, in the order a
    frame-by-frame renderer consumes them: the start phase, the clear
    frame, then per frame an optional distractor word and its noise
    words."""
    patterns, colors, color_means, freqs, speeds = latents
    n, frames, h, w = len(identities), spec.frames, spec.image_h, spec.image_w
    channels = 3 if modality == VISIBLE else 1
    noise_words = _noise_words(spec, modality)
    words = Rng.raw_rows(streams, _tracklet_words(spec, modality))
    phase0 = 2.0 * np.pi * unit_interval(words[:, 0])
    clear_frame = (words[:, 1] % np.uint64(frames)).astype(np.int64)
    ts = np.arange(frames)
    occluded = ts != clear_frame[:, None]                           # [n, T]
    # Frame t's noise words start after the two leading words and t blocks
    # of a distractor word and noise words, one word later while the
    # clear frame, which draws no distractor word, is still ahead; each
    # occluded frame's distractor word comes just before its noise.
    ahead = clear_frame[:, None] > ts
    noise_start = 2 + ts * (noise_words + 1) + ahead
    distractor_words = np.take_along_axis(words, noise_start - 1, axis=1)
    noise = np.empty((n, frames, noise_words), np.uint64)
    for t in range(frames):
        at = 2 + t * (noise_words + 1)
        np.copyto(noise[:, t], words[:, at:at + noise_words])
        if t < frames - 1:   # the clear frame is never ahead of the last
            np.copyto(noise[:, t], words[:, at + 1:at + 1 + noise_words],
                      where=ahead[:, t, None])
    del words   # dropped before the normals, which peak the chunk's memory
    noise = box_muller(noise, h * w * channels)

    # An occluded frame shows its distractor's pattern, the clear frame
    # the tracklet's own identity's.
    distractors = (identities[:, None] + 1 + (distractor_words % np.uint64(
        len(patterns) - 1)).astype(np.int64)) % len(patterns)
    shown = np.where(occluded, distractors, identities[:, None])
    amps = np.where(occluded, spec.pattern_amp * spec.occlusion,
                    spec.pattern_amp)
    noise *= np.where(occluded, 1.5, 1.0)[:, :, None] * (
        NOISE_VISIBLE if modality == VISIBLE else NOISE_INFRARED)
    noise = noise.reshape(n, frames, h, w, channels)

    xx = np.linspace(0.0, 1.0, w)[None, :]
    stripe = np.sin((2.0 * np.pi * freqs[identities])[:, None, None, None]
                    * xx + phase0[:, None, None, None]
                    + (ts * speeds[identities][:, None])[:, :, None, None])
    # Amplitudes keep the field inside ~[0.1, 0.9]: quantization should
    # be the only nonlinearity, not clipping. Each in-place step below
    # rounds as the expression 0.5 + content + stripe_amp * stripe and
    # the colour or luminance and noise terms after it would.
    field = patterns[shown]
    field *= amps[:, :, None, None]
    field += 0.5
    field += spec.stripe_amp * stripe
    if modality == VISIBLE:
        img = field[..., None] * colors[identities][:, None, None, None]
    else:
        field *= color_means[identities][:, None, None, None]
        field *= 0.85
        field += 0.12
        img = field[..., None]
    img += noise
    np.clip(img, 0.0, 1.0, out=img)
    img *= 255.0
    np.round(img, out=img)
    return np.ascontiguousarray(np.broadcast_to(img.astype(np.uint8),
                                                (n, frames, h, w, 3)))


def generate(spec: SyntheticSpec, seed: int, root) -> Dataset:
    """Write a deterministic dataset; train/test identities are disjoint.

    Tracklets are rendered in chunks of about ``CHUNK_WORDS`` drawn
    words and streamed into ``frames.vldt`` in tracklet order, then the
    manifest and split. When the process may run on more than one CPU,
    the calling thread renders the even chunks and one helper thread, at
    most one chunk ahead and joined before return, the odd ones, so
    memory holds about two chunks, not the dataset. A tracklet's bytes
    do not depend on its chunk or thread. The container is written
    atomically, so a generation cut short, or a raise in either thread,
    leaves the old dataset, or none."""
    if spec.num_identities < 2:
        raise ConfigError("need at least 2 identities")
    root = Path(root)
    rng = Rng(seed).split("data-synth")
    latents = _latents(spec, rng)
    rows, tags = [], []
    for identity in range(spec.num_identities):
        for modality in MODALITIES:
            cameras = _VIS_CAMERAS if modality == VISIBLE else _IR_CAMERAS
            for k in range(spec.tracklets_per_identity):
                rows.append(Tracklet(len(rows), identity, modality,
                                     cameras[k % len(cameras)], spec.frames))
                tags.append(f"tr{identity}/{modality}/{k}")
    manifest = np.array([(r.tracklet_id, r.identity,
                          MODALITIES.index(r.modality), r.camera,
                          r.frame_count) for r in rows], dtype=np.int64)

    chunks = _chunks(spec, rows)

    def render(chunk: slice) -> list:
        streams = [rng.split(tag) for tag in tags[chunk]]
        return list(zip((row.record for row in rows[chunk]), _render_chunk(
            rows[chunk], streams, spec, latents)))

    helped = len(os.sched_getaffinity(0)) > 1
    # One helper, not a pool of two, as in ``retrieval.extract_features``;
    # its thread starts only once a chunk is submitted to it.
    helper = ThreadPoolExecutor(max_workers=1)

    def records():
        for i in range(0, len(chunks), 2):
            pair = chunks[i:i + 2]
            odd = (helper.submit(render, pair[1])
                   if helped and len(pair) == 2 else None)
            yield from render(pair[0])
            if len(pair) == 2:
                yield from odd.result() if odd else render(pair[1])

    try:
        checkpoint.save(root / FRAMES_FILE, itertools.chain(records(), [
            ("manifest", manifest),
            ("num_train_identities",
             np.array(spec.num_train_identities, dtype=np.int64))]))
    finally:
        helper.shutdown(cancel_futures=True)
    return Dataset(checkpoint.Reader(root / FRAMES_FILE), rows,
                   spec.num_train_identities)


def _int64_record(reader: checkpoint.Reader, name: str,
                  shape: tuple) -> np.ndarray:
    """The named int64 record; its shape must match ``shape`` but for
    the first extent."""
    if name not in reader.records:
        raise DataError(f"{reader.path} has no {name} record, so it is not "
                        f"a whole dataset; re-run `vld gen-data` to write it")
    dt, got, _ = reader.records[name]
    if dt != np.int64 or len(got) != len(shape) or got[1:] != shape[1:]:
        raise DataError(f"{reader.path}: record {name} holds {dt} of shape "
                        f"{got}, expected int64 of shape {shape}")
    return reader.read(name)


def load_dataset(root) -> Dataset:
    """The dataset ``generate`` wrote under ``root``: the manifest and split
    are read now and each tracklet's frames on every use, all from one
    open ``frames.vldt``."""
    reader = checkpoint.Reader(Path(root) / FRAMES_FILE)
    manifest = _int64_record(reader, "manifest", ("n", 5))
    num_train = int(_int64_record(reader, "num_train_identities", ()))
    bad = np.flatnonzero((manifest[:, 2] != 0) & (manifest[:, 2] != 1))
    if bad.size:
        raise DataError(f"{reader.path}: manifest row {bad[0]} has modality "
                        f"code {manifest[bad[0], 2]}, expected 0 (visible) "
                        f"or 1 (infrared)")
    rows = [Tracklet(tid, identity, MODALITIES[code], camera, count)
            for tid, identity, code, camera, count in manifest.tolist()]
    identities = {row.identity for row in rows}
    train = sum(identity < num_train for identity in identities)
    if not 0 < train < len(identities):
        raise DataError(f"{reader.path}: num_train_identities = {num_train} "
                        f"puts {train} of the manifest's {len(identities)} "
                        f"identities in training; each side of the split "
                        f"needs at least one")
    return Dataset(reader, rows, num_train)


# -- batch sampling -----------------------------------------------------------


@dataclass(frozen=True)
class BatchPlan:
    identities: int               # P
    tracklets_per_identity: int   # K, per modality

    @property
    def batch_size(self) -> int:
        return 2 * self.identities * self.tracklets_per_identity


@dataclass
class SequenceBatch:
    frames: np.ndarray        # [n, T, H, W, 3] stored uint8
    labels: np.ndarray        # [n] identity indices
    modalities: np.ndarray    # [n] strings
    tracklet_ids: np.ndarray  # [n]


def sample_batch(plan: BatchPlan, dataset: Dataset, tracklets: list[Tracklet],
                 rng: Rng, apply_augment: bool = True,
                 pad: int = 10) -> SequenceBatch:
    """P identities x K tracklets per modality, loaded and optionally
    augmented (consistently across the frames of a tracklet)."""
    by_identity: dict[int, dict[str, list[Tracklet]]] = {}
    for tr in tracklets:
        by_identity.setdefault(tr.identity, {VISIBLE: [], INFRARED: []})
        by_identity[tr.identity][tr.modality].append(tr)
    eligible = sorted(
        identity for identity, mods in by_identity.items()
        if mods[VISIBLE] and mods[INFRARED]
    )
    if len(eligible) < plan.identities:
        raise DataError(
            f"need {plan.identities} identities with both modalities, "
            f"have {len(eligible)}"
        )
    chosen = [eligible[i] for i in rng.choice(len(eligible), plan.identities)]

    picked: list[Tracklet] = []
    for identity in chosen:
        for modality in (VISIBLE, INFRARED):
            pool = by_identity[identity][modality]
            k = plan.tracklets_per_identity
            if len(pool) >= k:
                idx = rng.choice(len(pool), k)
            else:
                idx = rng.integers(k, len(pool))
            picked.extend(pool[int(i)] for i in idx)

    clips = [dataset.load_frames(tr) for tr in picked]
    if apply_augment:
        clips = [augment_clip(clip, rng, tr.modality == VISIBLE, pad=pad)
                 for clip, tr in zip(clips, picked)]
    return SequenceBatch(np.stack(clips),
                         np.asarray([tr.identity for tr in picked]),
                         np.asarray([tr.modality for tr in picked]),
                         np.asarray([tr.tracklet_id for tr in picked]))


def augment_clip(clip: np.ndarray, rng: Rng, visible: bool,
                 pad: int = 10) -> np.ndarray:
    """Tracklet-consistent augmentation: decisions are drawn once and applied
    to every frame so the cross-frame signal survives. Flip, crop from the
    clip zero-padded by ``pad``, then on visible clips erase and swap."""
    flip = rng.uniform() < 0.5
    oy = rng.randint(2 * pad + 1)
    ox = rng.randint(2 * pad + 1)
    t, h, w, c = clip.shape
    padded = np.zeros((t, h + 2 * pad, w + 2 * pad, c), clip.dtype)
    padded[:, pad:pad + h, pad:pad + w] = clip[:, :, ::-1] if flip else clip
    out = padded[:, oy:oy + h, ox:ox + w]
    if visible:
        erase = rng.uniform() < 0.5
        erase_ch = rng.randint(3)
        swap = rng.uniform() < 0.5
        perm = rng.permutation(3)
        if erase:
            out[..., erase_ch] = 0
        if swap:
            out = out[..., perm]
    return out
