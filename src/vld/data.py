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
- ``spec_sizes``, int64 [6], and ``spec_amps``, float64 [3]: the
  ``SyntheticSpec`` that generated the frames, its fields in declaration
  order.

The rest is derived from the spec: ``tracklet_table`` lists the
tracklets, and identities below ``num_train_identities`` train. The spec
comes last, so a container cut short anywhere does not load. The seed is
not stored: runs that share a root share its frames, drawn from the seed
of whichever run generated them. ``generate`` renders the tracklets in
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
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import checkpoint
from .errors import ConfigError, DataError
from .rng import Rng, box_muller, unit_interval

VISIBLE = "visible"
INFRARED = "infrared"
MODALITIES = (VISIBLE, INFRARED)
FRAMES_FILE = "frames.vldt"

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

    @property
    def record(self) -> str:
        """Name of this tracklet's frames record in ``frames.vldt``."""
        return f"tr{self.tracklet_id:05d}"


def tracklet_table(spec: SyntheticSpec) -> list[Tracklet]:
    """The spec's tracklets in id order: identity-major, then visible
    before infrared, ``tracklets_per_identity`` of each."""
    rows = itertools.product(range(spec.num_identities), MODALITIES,
                             range(spec.tracklets_per_identity))
    return [Tracklet(i, *row[:2]) for i, row in enumerate(rows)]


@dataclass
class Dataset:
    """The spec, its tracklets and the open container their frames are
    read from; no frames are kept, so frame memory is what callers hold."""
    reader: checkpoint.Reader     # the dataset's open ``frames.vldt``
    spec: SyntheticSpec
    tracklets: list[Tracklet]     # ``tracklet_table(spec)``

    @property
    def num_train_identities(self) -> int:
        return self.spec.num_train_identities

    @property
    def train(self) -> list[Tracklet]:
        return [t for t in self.tracklets if t.identity < self.num_train_identities]

    @property
    def test(self) -> list[Tracklet]:
        return [t for t in self.tracklets if t.identity >= self.num_train_identities]

    def load_frames(self, tracklet: Tracklet) -> np.ndarray:
        """The tracklet's stored uint8 frames [T, H, W, 3], read from the
        container on every call into a fresh array the caller owns."""
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


SPEC_RECORDS = {"spec_sizes": (np.int64, 6), "spec_amps": (np.float64, 3)}


def generate(spec: SyntheticSpec, seed: int, root) -> None:
    """Write a deterministic dataset for ``load_dataset``; train/test
    identities are disjoint.

    Tracklets are rendered in chunks of about ``CHUNK_WORDS`` drawn
    words and streamed into ``frames.vldt`` in tracklet order, then the
    spec. When the process may run on more than one CPU, the calling
    thread renders the even chunks and one helper thread, at most one
    chunk ahead and joined before return, the odd ones, so memory holds
    about two chunks, not the dataset. A tracklet's bytes do not depend
    on its chunk or thread. The container is written atomically, so a
    generation cut short, or a raise in either thread, leaves the old
    dataset, or none."""
    fields = iter(astuple(spec))
    spec_records = {name: np.array(list(itertools.islice(fields, n)), dt)
                    for name, (dt, n) in SPEC_RECORDS.items()}
    if spec_records["spec_sizes"].min() < 1:
        raise ConfigError(f"every size must be at least 1 in {spec}")
    rng = Rng(seed).split("data-synth")
    latents = _latents(spec, rng)
    rows = tracklet_table(spec)
    chunks = _chunks(spec, rows)

    def render(chunk: slice) -> list:
        streams = [rng.split(f"tr{row.identity}/{row.modality}/"
                             f"{row.tracklet_id % spec.tracklets_per_identity}")
                   for row in rows[chunk]]
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
        checkpoint.save(Path(root) / FRAMES_FILE,
                        itertools.chain(records(), spec_records.items()))
    finally:
        helper.shutdown(cancel_futures=True)


def load_dataset(root) -> Dataset:
    """The dataset ``generate`` wrote under ``root``: the spec is read and
    every record checked now, each tracklet's frames on every use."""
    reader = checkpoint.Reader(Path(root) / FRAMES_FILE)
    values = {}
    for name, (dtype, n) in SPEC_RECORDS.items():
        if name not in reader.records:
            raise DataError(f"{reader.path} has no {name} record (cut short, "
                            f"or an older layout); re-run `vld gen-data`")
        dt, shape, _ = reader.records[name]
        if dt != dtype or shape != (n,):
            raise DataError(f"{reader.path}: record {name} holds {dt} of "
                            f"shape {shape}, expected {np.dtype(dtype)} of "
                            f"shape ({n},)")
        values[name] = reader.read(name).tolist()
    spec = SyntheticSpec(*values["spec_sizes"], *values["spec_amps"])
    if min(values["spec_sizes"]) < 1:
        raise DataError(f"{reader.path}: every size must be at least 1 in "
                        f"{spec}")
    held = len(reader.records) - len(SPEC_RECORDS)
    if held != spec.num_identities * 2 * spec.tracklets_per_identity:
        raise DataError(f"{reader.path} holds {held} tracklet records, not "
                        f"the number {spec} describes")
    tracklets = tracklet_table(spec)
    shape = (spec.frames, spec.image_h, spec.image_w, 3)
    for t in tracklets:
        dt, got, _ = reader.records.get(t.record, (None, None, None))
        if dt != np.uint8 or got != shape:
            found = "no record" if dt is None else f"{dt} of shape {got}"
            raise DataError(f"{reader.path}: tracklet {t.tracklet_id} has "
                            f"{found}, expected uint8 of shape {shape}")
    return Dataset(reader, spec, tracklets)


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
