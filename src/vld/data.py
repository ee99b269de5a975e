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
lacks them and does not load.

Frames stay in their stored form, uint8 [T, H, W, 3], through loading,
augmentation and batching; ``vld.hub.VideoModel.forward`` decodes each
batch to [0, 1].
"""

from __future__ import annotations

import itertools
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


def _identity_latent(identity: int, spec: SyntheticSpec, rng: Rng):
    """Per-identity pattern, channel color, stripe frequency and speed.

    The pattern sums nine terms amp * cos(pi u y + phase) * cos(pi v x),
    (u, v) in row-major order over 3 x 3; one ``raw`` call draws each
    term's normal amplitude (two words) and uniform phase (one word), in
    the order a term-by-term loop consumes them."""
    id_rng = rng.split(f"identity{identity}")
    h, w = spec.image_h, spec.image_w
    yy = np.linspace(0.0, 1.0, h)[:, None]
    xx = np.linspace(0.0, 1.0, w)[None, :]
    words = id_rng.raw(27).reshape(9, 3)
    amps = box_muller(words[:, :2], 1)[:, :, None]
    phases = 2.0 * np.pi * unit_interval(words[:, 2:])[:, :, None]
    u, v = np.divmod(np.arange(9), 3)
    terms = (amps * np.cos(np.pi * u[:, None, None] * yy + phases)
             * np.cos(np.pi * v[:, None, None] * xx))
    pattern = np.zeros((h, w))
    for term in terms:   # added one by one, in the loop's rounding order
        pattern += term
    pattern /= max(1e-9, np.abs(pattern).max())
    # Hue varies per identity, mean brightness does not: the infrared
    # projection must not leak identity through a scalar brightness cue.
    color = id_rng.uniform((3,), low=0.4, high=1.0)
    color *= 0.7 / color.mean()
    stripe_freq = 1 + identity % 2
    # Low-discrepancy spread of per-frame phase speeds across identities.
    speed = 2.0 * np.pi * (0.08 + 0.84 * ((identity * _GOLDEN) % 1.0))
    return pattern, color, stripe_freq, speed


def _render_tracklet(identity: int, modality: str, spec: SyntheticSpec,
                     latents: list, tr_rng: Rng) -> np.ndarray:
    """All frames of one tracklet at once; all but one random clear frame
    are crossed by a distractor identity's pattern at ``occlusion``
    strength (plus extra noise), the way passers-by corrupt real
    tracklets. Frame pooling mixes the identities; content-aware
    cross-frame aggregation can prefer the clear frame.

    One ``raw`` call draws every word, in the order a frame-by-frame
    renderer consumes them: the start phase, the clear frame, then per
    frame an optional distractor word and its noise words."""
    pattern, color, stripe_freq, speed = latents[identity]
    frames, h, w = spec.frames, spec.image_h, spec.image_w
    channels = 3 if modality == VISIBLE else 1
    noise_words = 2 * ((h * w * channels + 1) // 2)
    words = tr_rng.raw(2 + (frames - 1) + frames * noise_words)
    phase0 = 2.0 * np.pi * float(unit_interval(words[:1])[0])
    clear_frame = int(words[1] % np.uint64(frames))
    ts = np.arange(frames)
    occluded = ts != clear_frame
    # Frame t's noise words start after the two leading words, t blocks of
    # noise words and one distractor word for each occluded frame so far.
    noise_start = 2 + ts * noise_words + np.cumsum(occluded)
    distractor_words = words[noise_start[occluded] - 1]
    noise = box_muller(words[noise_start[:, None] + np.arange(noise_words)],
                       h * w * channels)

    contents = np.empty((frames, h, w))
    contents[clear_frame] = spec.pattern_amp * pattern
    distractors = (identity + 1 + (distractor_words % np.uint64(
        len(latents) - 1)).astype(np.int64)) % len(latents)
    for t, distractor in zip(ts[occluded], distractors.tolist()):
        contents[t] = spec.pattern_amp * spec.occlusion * latents[distractor][0]
    extra_noise = np.where(occluded, 1.5, 1.0)[:, None]

    xx = np.linspace(0.0, 1.0, w)[None, :]
    stripe = np.sin(2.0 * np.pi * stripe_freq * xx + phase0
                    + (ts * speed)[:, None, None])
    # Amplitudes keep the field inside ~[0.1, 0.9]: quantization should
    # be the only nonlinearity, not clipping.
    field = 0.5 + contents + spec.stripe_amp * np.broadcast_to(
        stripe, (frames, h, w))
    if modality == VISIBLE:
        img = field[..., None] * color
        img = img + (0.0 + NOISE_VISIBLE * extra_noise * noise).reshape(
            frames, h, w, 3)
    else:
        lum = field * color.mean() * 0.85 + 0.12
        img = lum[..., None] + (0.0 + NOISE_INFRARED * extra_noise
                                * noise).reshape(frames, h, w, 1)
        img = np.broadcast_to(img, (frames, h, w, 3))
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def generate(spec: SyntheticSpec, seed: int, root) -> Dataset:
    """Write a deterministic dataset; train/test identities are disjoint.

    Tracklets are rendered one at a time and streamed into
    ``frames.vldt``, so memory holds one tracklet, and the manifest and
    split follow them. The container is written atomically, so a
    generation cut short leaves the old dataset, or none."""
    if spec.num_identities < 2:
        raise ConfigError("need at least 2 identities")
    root = Path(root)
    rng = Rng(seed).split("data-synth")
    latents = [_identity_latent(identity, spec, rng)
               for identity in range(spec.num_identities)]
    rows, streams = [], []
    for identity in range(spec.num_identities):
        for modality in MODALITIES:
            cameras = _VIS_CAMERAS if modality == VISIBLE else _IR_CAMERAS
            for k in range(spec.tracklets_per_identity):
                rows.append(Tracklet(len(rows), identity, modality,
                                     cameras[k % len(cameras)], spec.frames))
                streams.append(rng.split(f"tr{identity}/{modality}/{k}"))
    manifest = np.array([(r.tracklet_id, r.identity,
                          MODALITIES.index(r.modality), r.camera,
                          r.frame_count) for r in rows], dtype=np.int64)
    checkpoint.save(root / FRAMES_FILE, itertools.chain(
        ((row.record, _render_tracklet(row.identity, row.modality, spec,
                                       latents, stream))
         for row, stream in zip(rows, streams)),
        [("manifest", manifest),
         ("num_train_identities",
          np.array(spec.num_train_identities, dtype=np.int64))]))
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
