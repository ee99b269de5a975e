"""Synthetic benchmark: determinism, learnability floor, augmentations,
and the identity-balanced cross-modality sampler."""

import dataclasses
import hashlib
import os
import shutil
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference
from util import random_frames
from vld import checkpoint, data
from vld.cli import main
from vld.config import load_config, parse_config
from vld.data import (BatchPlan, Dataset, SyntheticSpec, Tracklet, augment_clip,
                      generate, load_dataset, sample_batch, INFRARED, VISIBLE)
from vld.encoder import EncoderConfig
from vld.errors import ConfigError, DataError, ParseError
from vld.hub import VideoModel
from vld.rng import Rng
from vld.train import configured_precision

SMALL = SyntheticSpec(num_train_identities=4, num_test_identities=2,
                      tracklets_per_identity=2, frames=3, image_h=16,
                      image_w=8)
# A run over SMALL's geometry, for the CLI.
SMALL_RUN_CONFIG = """
data.train_identities = 4
data.test_identities = 2
data.tracklets_per_identity = 2
data.frames = 3
data.image_h = 16
data.image_w = 8
encoder.patch = 4
encoder.dim = 8
encoder.depth = 1
encoder.heads = 2
stp.enabled = false
stp.insertion_layer = 0
train.epochs = 1
"""


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "small"
    return generate(SMALL, seed=1, root=root)


def directory_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_generation_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(SMALL, seed=1, root=a)
    generate(SMALL, seed=1, root=b)
    assert directory_bytes(a) == directory_bytes(b)
    c = tmp_path / "c"
    generate(SMALL, seed=2, root=c)
    assert directory_bytes(a) != directory_bytes(c)


def test_dataset_root_holds_exactly_one_container(small_dataset):
    """The tracklets' frames in order, then the manifest (modality 0
    visible, 1 infrared) and the split."""
    path = small_dataset.reader.path
    assert [p.name for p in path.parent.iterdir()] == ["frames.vldt"]
    records = checkpoint.load(path)
    assert list(records) == [f"tr{i:05d}" for i in range(24)] + [
        "manifest", "num_train_identities"]
    manifest = records["manifest"]
    assert manifest.dtype == np.int64 and manifest.shape == (24, 5)
    np.testing.assert_array_equal(manifest[:, 0], np.arange(24))
    np.testing.assert_array_equal(manifest[:, 1], np.arange(24) // 4)
    np.testing.assert_array_equal(manifest[:, 2], np.arange(24) // 2 % 2)
    np.testing.assert_array_equal(manifest[:, 3], [0, 1, 2, 3] * 6)
    assert (manifest[:, 4] == 3).all()
    split = records["num_train_identities"]
    assert split.dtype == np.int64 and split.shape == () and split == 4


# Frame bytes of the configs/desk.cfg dataset at seed 1, concatenated in
# tracklet order, as written by the frame-by-frame renderer that the
# vectorised one replaced (one file per tracklet).
DESK_SEED1_FRAMES_SHA256 = \
    "43ec8482153c1233dcd023200bb262c430fbdd629e08837669dc975f668febe4"


def test_desk_dataset_frames_are_pinned(tmp_path):
    spec = load_config(Path(__file__).parent.parent / "configs" / "desk.cfg") \
        .synthetic_spec()
    ds = generate(spec, 1, tmp_path / "desk")
    records = checkpoint.load(ds.reader.path)
    digest = hashlib.sha256()
    for tracklet in ds.tracklets:
        digest.update(records[tracklet.record].tobytes())
    assert len(ds.tracklets) == 240
    assert digest.hexdigest() == DESK_SEED1_FRAMES_SHA256


@pytest.mark.parametrize("spec, seed", [
    (SyntheticSpec(num_train_identities=3, num_test_identities=1,
                   tracklets_per_identity=2, frames=1, image_h=7,
                   image_w=5), 1),
    (SyntheticSpec(num_train_identities=2, num_test_identities=1,
                   tracklets_per_identity=3, frames=5, image_h=9, image_w=3,
                   occlusion=0.5), 2),
    (SyntheticSpec(num_train_identities=1, num_test_identities=1,
                   tracklets_per_identity=1, frames=3, image_h=1,
                   image_w=1), 3),
    (SyntheticSpec(num_train_identities=4, num_test_identities=3,
                   tracklets_per_identity=1, frames=7, image_h=16,
                   image_w=8), 4),
])
def test_renderer_equals_frame_by_frame_reference(spec, seed):
    """Every tracklet rendered in chunks of one, of three (straddling both
    modalities) or all at once: its bytes equal the frame-by-frame
    reference's, and its stream ends where the reference leaves it."""
    rng = Rng(seed).split("data-synth")
    latents = data._latents(spec, rng)
    reference_latents = [reference.identity_latent(i, spec, rng)
                         for i in range(spec.num_identities)]
    tracklets, tags = [], []
    for identity in range(spec.num_identities):
        for modality in (VISIBLE, INFRARED):
            for k in range(spec.tracklets_per_identity):
                tracklets.append(Tracklet(len(tracklets), identity, modality,
                                          0, spec.frames))
                tags.append(f"tr{identity}/{modality}/{k}")
    for chunk in (1, 3, len(tracklets)):
        fast = [rng.split(tag) for tag in tags]
        got = []
        for start in range(0, len(tracklets), chunk):
            got += data._render_chunk(tracklets[start:start + chunk],
                                      fast[start:start + chunk], spec,
                                      latents)
        assert len(got) == len(tracklets)
        for tracklet, tag, frames, stream in zip(tracklets, tags, got, fast):
            slow = rng.split(tag)
            want = reference.render_tracklet(tracklet.identity,
                                             tracklet.modality, spec,
                                             reference_latents, slow)
            assert frames.dtype == want.dtype and frames.shape == want.shape
            assert frames.flags.c_contiguous
            assert frames.tobytes() == want.tobytes()
            assert stream.raw(1).tolist() == slow.raw(1).tolist()


def test_raw_rows_equals_one_raw_call_per_stream():
    """Row i is what ``streams[i].raw(n)`` would return, and every stream
    advances as that call would, whatever its position before."""
    streams = [Rng(3).split(f"s{i}") for i in range(4)]
    twins = [Rng(3).split(f"s{i}") for i in range(4)]
    for i, (stream, twin) in enumerate(zip(streams, twins)):
        stream.raw(i)
        twin.raw(i)
    rows = Rng.raw_rows(streams, 5)
    assert rows.dtype == np.uint64 and rows.shape == (4, 5)
    for row, stream, twin in zip(rows, streams, twins):
        assert row.tolist() == twin.raw(5).tolist()
        assert stream.raw(2).tolist() == twin.raw(2).tolist()


class RecordingRng:
    """An ``Rng`` whose ``split`` keeps every child stream it hands out."""

    def __init__(self, rng):
        self.rng, self.children = rng, []

    def split(self, tag):
        self.children.append(self.rng.split(tag))
        return self.children[-1]


@pytest.mark.parametrize("spec", [
    SMALL,
    SyntheticSpec(),
    SyntheticSpec(num_train_identities=2, num_test_identities=1, image_h=7,
                  image_w=5),
    SyntheticSpec(num_train_identities=1, num_test_identities=1, image_h=1,
                  image_w=1),
])
@pytest.mark.parametrize("seed", [1, 2, 9])
def test_identity_latent_equals_term_by_term_reference(spec, seed):
    """Each identity's row of the stacked latents equals the term-by-term
    reference, and each identity stream ends where the reference leaves
    it."""
    rng = Rng(seed).split("data-synth")
    fast = RecordingRng(rng)
    patterns, colors, color_means, freqs, speeds = data._latents(spec, fast)
    assert len(fast.children) == spec.num_identities
    for identity, child in enumerate(fast.children):
        slow = RecordingRng(rng)
        pattern, color, freq, speed = reference.identity_latent(
            identity, spec, slow)
        for a, b in ((patterns[identity], pattern), (colors[identity], color),
                     (color_means[identity], color.mean())):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (freqs[identity], speeds[identity]) == (freq, speed)
        assert child.raw(1).tolist() == slow.children[0].raw(1).tolist()


def test_tracklet_counting():
    spec = SyntheticSpec(num_train_identities=20, num_test_identities=0,
                         tracklets_per_identity=2, frames=4)
    assert spec.num_identities * 2 * spec.tracklets_per_identity == 80


def test_generate_rejects_too_few_identities(tmp_path):
    spec = SyntheticSpec(num_train_identities=1, num_test_identities=0)
    with pytest.raises(ConfigError):
        generate(spec, seed=1, root=tmp_path / "bad")


def test_dataset_counts_and_split_hygiene(small_dataset):
    ds = small_dataset
    assert len(ds.tracklets) == 6 * 2 * 2
    train_ids = {t.identity for t in ds.train}
    test_ids = {t.identity for t in ds.test}
    assert train_ids == {0, 1, 2, 3}
    assert test_ids == {4, 5}
    assert not train_ids & test_ids


def test_frames_shape_and_range(small_dataset):
    ds = small_dataset
    frames = ds.load_frames(ds.tracklets[0])
    assert frames.shape == (3, 16, 8, 3)
    assert frames.dtype == np.uint8    # stored pixels, decoded in forward


def test_infrared_is_single_band(small_dataset):
    ds = small_dataset
    ir = next(t for t in ds.tracklets if t.modality == INFRARED)
    frames = ds.load_frames(ir)
    np.testing.assert_array_equal(frames[..., 0], frames[..., 1])
    np.testing.assert_array_equal(frames[..., 0], frames[..., 2])


def test_manifest_round_trip(small_dataset):
    ds = small_dataset
    loaded = load_dataset(ds.reader.path.parent)
    assert loaded.num_train_identities == 4
    assert loaded.tracklets == ds.tracklets
    for tracklet in ds.tracklets:
        assert loaded.load_frames(tracklet).tobytes() == \
            ds.load_frames(tracklet).tobytes()


@pytest.fixture()
def small_copy(small_dataset, tmp_path):
    """A copy of the small dataset's root, free to corrupt."""
    root = tmp_path / "d"
    shutil.copytree(small_dataset.reader.path.parent, root)
    return root


def rewrite_records(root, **changes):
    """Rewrite ``root``'s container with some records replaced, or dropped
    where the change is None."""
    path = root / "frames.vldt"
    records = checkpoint.load(path)
    for name, arr in changes.items():
        if arr is None:
            del records[name]
        else:
            records[name] = arr
    checkpoint.save(path, records)


def test_regeneration_cut_short_keeps_the_old_container(tmp_path,
                                                        monkeypatch):
    """Killed at the third of six chunks, the regeneration leaves the old
    container byte for byte, no temporary file, and the old dataset."""
    root = tmp_path / "d"
    old = generate(SMALL, 1, root)
    blob = (root / "frames.vldt").read_bytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    # One identity's four tracklets per chunk.
    monkeypatch.setattr(data, "CHUNK_WORDS", 2 * (
        data._tracklet_words(SMALL, VISIBLE)
        + data._tracklet_words(SMALL, INFRARED)))
    rendered = []
    real_render = data._render_chunk

    def render(*args):
        rendered.append(args[0])
        if len(rendered) == 3:
            raise OSError("killed mid-generation")
        return real_render(*args)

    monkeypatch.setattr(data, "_render_chunk", render)
    with pytest.raises(OSError, match="killed"):
        generate(SMALL, 2, root)
    assert [len(chunk) for chunk in rendered] == [4, 4, 4]
    assert [p.name for p in root.iterdir()] == ["frames.vldt"]
    assert (root / "frames.vldt").read_bytes() == blob
    assert load_dataset(root).tracklets == old.tracklets


# Ten tracklets, visible and infrared in turn.
ALTERNATING = SyntheticSpec(num_train_identities=3, num_test_identities=2,
                            tracklets_per_identity=1, frames=3, image_h=16,
                            image_w=8)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_container_bytes_do_not_depend_on_chunks_or_cpus(tmp_path,
                                                         monkeypatch, cpus):
    """Chunks of 3, 3, 3 and 1 tracklets, the full ones holding both
    modalities, rendered by the caller alone or shared with the helper
    thread: the container equals the one-chunk, one-CPU container byte
    for byte, and generate leaves no thread behind."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = generate(ALTERNATING, 4, tmp_path / "want").reader.path.read_bytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(data, "CHUNK_WORDS", 2 * data._tracklet_words(
        ALTERNATING, VISIBLE) + data._tracklet_words(ALTERNATING, INFRARED))
    chunks, threads = [], set()
    real_render = data._render_chunk

    def render(tracklets, *args):
        chunks.append({t.modality for t in tracklets})
        threads.add(threading.get_ident())
        return real_render(tracklets, *args)

    monkeypatch.setattr(data, "_render_chunk", render)
    before = threading.active_count()
    got = generate(ALTERNATING, 4, tmp_path / "got")
    assert threading.active_count() == before
    assert len(chunks) == 4 and chunks.count({VISIBLE, INFRARED}) >= 3
    assert len(threads) == len(cpus)
    assert got.reader.path.read_bytes() == want


def test_helper_thread_error_reaches_the_caller_and_writes_nothing(
        tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(data, "CHUNK_WORDS", 1)   # a tracklet per chunk
    caller = threading.get_ident()
    real_render = data._render_chunk

    def render(*args):
        if threading.get_ident() != caller:
            raise DataError("helper chunk failed")
        return real_render(*args)

    monkeypatch.setattr(data, "_render_chunk", render)
    before = threading.active_count()
    root = tmp_path / "d"
    with pytest.raises(DataError, match="helper chunk failed"):
        generate(ALTERNATING, 4, root)
    assert threading.active_count() == before
    assert list(root.iterdir()) == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_generation_memory_does_not_grow_with_the_tracklets(tmp_path,
                                                            monkeypatch,
                                                            cpus):
    """Four times the desk's tracklets, at its geometry and identities:
    generate's traced peak grows by less than a quarter of the frames
    added (each tracklet's manifest row, record name and index entry
    stay), where keeping the frames would grow it by all of them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    desk = load_config(Path(__file__).parent.parent / "configs" / "desk.cfg") \
        .synthetic_spec()
    peaks, frame_bytes = [], []
    for per_identity in (4, 16):
        spec = dataclasses.replace(desk, tracklets_per_identity=per_identity)
        tracemalloc.start()
        try:
            ds = generate(spec, 1, tmp_path / str(per_identity))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        frame_bytes.append(len(ds.tracklets) * spec.frames * spec.image_h
                           * spec.image_w * 3)
    assert frame_bytes[1] - frame_bytes[0] > peaks[0]
    assert peaks[1] - peaks[0] < (frame_bytes[1] - frame_bytes[0]) / 4


@pytest.mark.parametrize("record", ["manifest", "num_train_identities"])
def test_container_without_a_dataset_record_is_data_error(small_copy, record):
    root = small_copy
    rewrite_records(root, **{record: None})
    with pytest.raises(DataError, match=f"no {record} record.*"
                                        f"re-run `vld gen-data`"):
        load_dataset(root)


def test_three_file_root_asks_to_regenerate(small_dataset, small_copy,
                                            tmp_path):
    """A root in the earlier layout: frames.vldt holds only the frames,
    and manifest.tsv and meta.cfg sit beside it. It does not load, and
    `vld train` exits 3 without regenerating over it."""
    root = small_copy
    rewrite_records(root, manifest=None, num_train_identities=None)
    (root / "manifest.tsv").write_text(
        "tracklet_id\tidentity\tmodality\tcamera\tframe_count\n" + "".join(
            f"{t.tracklet_id}\t{t.identity}\t{t.modality}\t{t.camera}"
            f"\t{t.frame_count}\n" for t in small_dataset.tracklets))
    (root / "meta.cfg").write_text("num_train_identities = 4\n"
                                   "num_test_identities = 2\nseed = 1\n")
    blob = (root / "frames.vldt").read_bytes()
    with pytest.raises(DataError, match="re-run `vld gen-data`"):
        load_dataset(root)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN_CONFIG + f"data.root = {root}\n")
    assert main(["train", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 3
    assert not (tmp_path / "run" / "final.vldt").exists()
    assert (root / "frames.vldt").read_bytes() == blob


@pytest.mark.parametrize("manifest, message", [
    (np.zeros((24, 5)), "float64"),
    (np.zeros((24, 4), dtype=np.int64), r"\(24, 4\)"),
    (np.zeros(24, dtype=np.int64), r"\(24,\)"),
], ids=["float64", "4 fields", "1-d"])
def test_malformed_manifest_record_is_data_error(small_copy, manifest,
                                                 message):
    root = small_copy
    rewrite_records(root, manifest=manifest)
    with pytest.raises(DataError, match=message):
        load_dataset(root)


@pytest.mark.parametrize("code", [2, -1])
def test_unknown_modality_code_is_data_error(small_copy, code):
    root = small_copy
    manifest = checkpoint.load(root / "frames.vldt")["manifest"]
    manifest[5, 2] = code
    rewrite_records(root, manifest=manifest)
    with pytest.raises(DataError, match=f"row 5 has modality code {code}"):
        load_dataset(root)


@pytest.mark.parametrize("num_train", [99, 6, 0, -3])
def test_split_leaving_a_side_empty_is_data_error(small_copy, tmp_path,
                                                  num_train):
    """SMALL has identities 0-5: each count here puts all of them on one
    side of the split, through load_dataset and through `vld train`."""
    root = small_copy
    rewrite_records(root, num_train_identities=np.array(num_train,
                                                        dtype=np.int64))
    with pytest.raises(DataError, match="num_train_identities"):
        load_dataset(root)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN_CONFIG + f"data.root = {root}\n")
    assert main(["train", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 3
    assert not (tmp_path / "run" / "final.vldt").exists()


def test_non_integer_train_identity_count_is_data_error(small_copy):
    """The split is one int64: not a float64, not a 1-element vector."""
    root = small_copy
    for split in (np.array(4.0), np.array([4], dtype=np.int64)):
        rewrite_records(root, num_train_identities=split)
        with pytest.raises(DataError, match="num_train_identities"):
            load_dataset(root)


def test_cross_modal_correlation_floor(tmp_path):
    """Same-identity visible/infrared pairs correlate above cross-identity
    pairs under raw-pixel cosine after per-modality mean removal."""
    spec = SyntheticSpec(num_train_identities=8, num_test_identities=0,
                         tracklets_per_identity=2, frames=4,
                         pattern_amp=0.3, occlusion=0.5)
    ds = generate(spec, seed=3, root=tmp_path / "floor")
    flat = {}
    for modality in (VISIBLE, INFRARED):
        stack, keys = [], []
        for t in ds.tracklets:
            if t.modality == modality:
                stack.append(ds.load_frames(t).mean(axis=0).ravel())
                keys.append(t.identity)
        stack = np.asarray(stack)
        stack -= stack.mean(axis=0, keepdims=True)
        flat[modality] = (stack, np.asarray(keys))

    vis, vis_ids = flat[VISIBLE]
    ir, ir_ids = flat[INFRARED]
    sims = (vis / np.linalg.norm(vis, axis=1, keepdims=True)) @ \
           (ir / np.linalg.norm(ir, axis=1, keepdims=True)).T
    same = sims[vis_ids[:, None] == ir_ids[None, :]]
    diff = sims[vis_ids[:, None] != ir_ids[None, :]]
    assert same.mean() > diff.mean() + 0.01


def test_single_precision_frames_equal_rounded_double_frames(tmp_path):
    """Each of the 256 pixel values decodes in float32 as its float64 value
    rounded to float32, so the model input does not depend on the path."""
    values = np.arange(256, dtype=np.uint8).reshape(1, 16, 16, 1)
    tracklet = Tracklet(0, 0, VISIBLE, 0, 1)
    checkpoint.save(tmp_path / "frames.vldt",
                    {tracklet.record: np.repeat(values, 3, axis=3)})
    frames = Dataset(checkpoint.Reader(tmp_path / "frames.vldt"), [tracklet],
                     1).load_frames(tracklet)[None]
    model = VideoModel(EncoderConfig(image_h=16, image_w=16, patch=8,
                                     depth=1, dim=8, heads=2),
                       frames=1, rng=Rng(1), insertion_layer=None)
    decoded = []
    encode = model.encoder.encode

    def recording_encode(x, **kwargs):
        decoded.append(x.data)
        return encode(x, **kwargs)

    model.encoder.encode = recording_encode
    model.forward(frames)
    with configured_precision(parse_config("train.precision = single")):
        model.forward(frames)
    model.forward(frames)
    double, single, again = decoded
    assert double.dtype == np.float64 and single.dtype == np.float32
    np.testing.assert_array_equal(double.reshape(-1)[::3],
                                  np.arange(256) / 255.0)
    np.testing.assert_array_equal(single, double.astype(np.float32))
    assert again.dtype == np.float64


def test_load_frames_returns_a_fresh_writable_array(small_dataset):
    """Each read is the stored uint8 record in a new array the caller
    owns: writing into one read leaves the next intact."""
    stored = checkpoint.load(small_dataset.reader.path)
    for tracklet in small_dataset.tracklets[:3]:
        first = small_dataset.load_frames(tracklet)
        assert first.dtype == np.uint8 and first.flags.writeable
        np.testing.assert_array_equal(first, stored[tracklet.record])
        first ^= 0xFF
        second = small_dataset.load_frames(tracklet)
        np.testing.assert_array_equal(second, stored[tracklet.record])
        assert not np.shares_memory(first, second)


def test_reading_every_tracklet_twice_keeps_no_frames(tmp_path):
    """Frame memory is what the caller holds: after two passes over the
    dataset only the last read's frames are alive."""
    spec = SyntheticSpec(num_train_identities=4, num_test_identities=2,
                         tracklets_per_identity=2, frames=4)
    generate(spec, seed=1, root=tmp_path)
    ds = data.load_dataset(tmp_path)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            for tracklet in ds.tracklets:
                frames = ds.load_frames(tracklet)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(ds.tracklets) * frames.nbytes > 100_000
    assert grown <= frames.nbytes + 16 * 1024


def test_tracklet_file_without_frames_record_is_data_error(tmp_path):
    """A container cut right after its header is well formed but empty."""
    (tmp_path / "frames.vldt").write_bytes(b"VLDT\x01\x00")
    tracklet = Tracklet(0, 0, VISIBLE, 0, 1)
    reader = checkpoint.Reader(tmp_path / "frames.vldt")
    with pytest.raises(DataError, match="tracklet 0"):
        Dataset(reader, [tracklet], 1).load_frames(tracklet)


@pytest.mark.parametrize("stored", [
    np.zeros((2, 4, 4, 3), dtype=np.uint8),    # fewer frames than listed
    np.zeros((4, 4, 4, 3), dtype=np.uint8),    # more frames than listed
    np.zeros((3, 4, 4, 3)),                    # float64, not uint8
    np.zeros((3, 4, 4, 1), dtype=np.uint8),    # one band
    np.zeros((3, 48), dtype=np.uint8),         # flattened
])
def test_malformed_tracklet_record_is_data_error(tmp_path, stored):
    tracklet = Tracklet(7, 0, VISIBLE, 0, 3)
    checkpoint.save(tmp_path / "frames.vldt", {tracklet.record: stored})
    reader = checkpoint.Reader(tmp_path / "frames.vldt")
    with pytest.raises(DataError, match="tracklet 7"):
        Dataset(reader, [tracklet], 1).load_frames(tracklet)


def test_missing_frames_container_is_data_error(tmp_path):
    (tmp_path / "d").mkdir()
    with pytest.raises(DataError, match="frames.vldt"):
        load_dataset(tmp_path / "d")


def _three_tracklet_container(root):
    """A dataset container of three 2-frame tracklets (identity 0 trains,
    identity 1 tests), its bytes, and the byte positions of every header
    field of its five records."""
    tracklets = [Tracklet(i, i // 2, (VISIBLE, INFRARED)[i % 2], 0, 2)
                 for i in range(3)]
    frames = (Rng(3).uniform((3, 2, 4, 2, 3)) * 255).astype(np.uint8)
    manifest = [(t.tracklet_id, t.identity, data.MODALITIES.index(t.modality),
                 t.camera, t.frame_count) for t in tracklets]
    records = {**{t.record: f for t, f in zip(tracklets, frames)},
               "manifest": np.array(manifest, dtype=np.int64),
               "num_train_identities": np.array(1, dtype=np.int64)}
    checkpoint.save(root / "frames.vldt", records)
    blob = (root / "frames.vldt").read_bytes()
    header, offset = list(range(6)), 6   # magic, version
    for name, arr in records.items():
        # name length u16, name, dtype code u8, ndim u8, extents u32 each
        head = 2 + len(name) + 2 + 4 * arr.ndim
        header.extend(range(offset, offset + head))
        offset += head + arr.nbytes
    assert offset == len(blob)
    return blob, header


def _load_every_tracklet(root):
    ds = load_dataset(root)
    for tracklet in ds.tracklets:
        ds.load_frames(tracklet)


def test_every_prefix_of_the_frames_container_is_rejected(tmp_path):
    """Every prefix lacks at least the split, the last record."""
    root = tmp_path / "d"
    root.mkdir()
    blob, _ = _three_tracklet_container(root)
    _load_every_tracklet(root)
    for n in range(len(blob)):
        (root / "frames.vldt").write_bytes(blob[:n])
        with pytest.raises((ParseError, DataError)):
            _load_every_tracklet(root)


def test_every_frames_header_byte_set_to_ff_is_rejected(tmp_path):
    root = tmp_path / "d"
    root.mkdir()
    blob, header = _three_tracklet_container(root)
    for pos in header:
        corrupt = bytearray(blob)
        corrupt[pos] = 0xFF
        (root / "frames.vldt").write_bytes(bytes(corrupt))
        with pytest.raises((ParseError, DataError)):
            _load_every_tracklet(root)


# -- augmentation ---------------------------------------------------------------


# The per-frame float helpers are the reference ``augment_clip`` is held
# to; these pin their properties.


def test_flip_is_involution():
    frame = Rng(4).uniform((8, 6, 3))
    np.testing.assert_array_equal(reference.hflip(reference.hflip(frame)),
                                  frame)


def test_center_crop_is_identity():
    frame = Rng(5).uniform((8, 6, 3))
    np.testing.assert_array_equal(reference.pad_crop(frame, 10, 10, pad=10),
                                  frame)


def test_pad_crop_shifts_content():
    frame = np.zeros((6, 6, 3))
    frame[2, 3, :] = 1.0
    shifted = reference.pad_crop(frame, 9, 10, pad=10)
    assert shifted[3, 3, 0] == 1.0


def test_channel_swap_identity_on_equal_channels():
    mono = np.repeat(Rng(6).uniform((8, 6, 1)), 3, axis=2)
    np.testing.assert_array_equal(reference.channel_swap(mono, (2, 0, 1)),
                                  mono)


def test_channel_erase_zeroes_one_channel():
    frame = Rng(7).uniform((4, 4, 3))
    erased = reference.channel_erase(frame, 1)
    assert (erased[:, :, 1] == 0).all()
    np.testing.assert_array_equal(erased[:, :, 0], frame[:, :, 0])


@pytest.mark.parametrize("frames", [1, 4])
@pytest.mark.parametrize("pad", [0, 1, 3, 10])
def test_augment_clip_equals_per_frame_float_reference(pad, frames):
    """The whole-clip uint8 augmentation, decoded, equals the per-frame
    helpers on decoded frames byte for byte in both precisions, and draws
    the same words."""
    for seed in range(40):
        clip = random_frames(seed, (frames, 9, 5, 3))
        for visible in (True, False):
            fast, slow = Rng(1000 + seed), Rng(1000 + seed)
            got = augment_clip(clip, fast, visible, pad=pad)
            assert got.dtype == np.uint8 and got.shape == clip.shape
            want = reference.augment_clip(clip / 255.0, slow, visible, pad=pad)
            assert (got / 255.0).tobytes() == want.tobytes()
            assert fast.raw(1).tolist() == slow.raw(1).tolist()
            single = got.astype(np.float32) / 255.0
            assert single.tobytes() == want.astype(np.float32).tobytes()


def test_augment_is_deterministic_given_stream():
    clip = random_frames(8, (3, 16, 8, 3))
    a = augment_clip(clip, Rng(9), visible=True)
    b = augment_clip(clip, Rng(9), visible=True)
    np.testing.assert_array_equal(a, b)


def test_augment_clip_is_frame_consistent():
    clip = np.repeat(random_frames(10, (1, 16, 8, 3)), 4, axis=0)
    out = augment_clip(clip, Rng(11), visible=True)
    for t in range(1, 4):
        np.testing.assert_array_equal(out[t], out[0])


# -- sampler --------------------------------------------------------------------


def test_paper_batch_composition(tmp_path):
    spec = SyntheticSpec(num_train_identities=6, num_test_identities=0,
                         tracklets_per_identity=4, frames=2, image_h=16,
                         image_w=8)
    ds = generate(spec, seed=5, root=tmp_path / "plan")
    plan = BatchPlan(identities=4, tracklets_per_identity=4)
    batch = sample_batch(plan, ds, ds.train, Rng(12), apply_augment=False)
    assert len(batch.labels) == 32
    assert (batch.modalities == VISIBLE).sum() == 16
    assert (batch.modalities == INFRARED).sum() == 16
    values, counts = np.unique(batch.labels, return_counts=True)
    assert len(values) == 4 and (counts == 8).all()


def test_minimal_plan(small_dataset):
    plan = BatchPlan(identities=2, tracklets_per_identity=1)
    batch = sample_batch(plan, small_dataset, small_dataset.train, Rng(13),
                         apply_augment=False)
    assert len(batch.labels) == 4
    values, counts = np.unique(batch.labels, return_counts=True)
    assert len(values) == 2 and (counts == 2).all()


def test_label_multiset_identical_across_modalities(small_dataset):
    plan = BatchPlan(identities=3, tracklets_per_identity=2)
    batch = sample_batch(plan, small_dataset, small_dataset.train, Rng(14),
                         apply_augment=False)
    vis_labels = sorted(batch.labels[batch.modalities == VISIBLE].tolist())
    ir_labels = sorted(batch.labels[batch.modalities == INFRARED].tolist())
    assert vis_labels == ir_labels


def test_sampler_guarantees_triplet_preconditions(small_dataset):
    from vld.losses import weighted_regularized_triplet
    from vld.tensor import Tensor
    plan = BatchPlan(identities=2, tracklets_per_identity=2)
    rng = Rng(15)
    for _ in range(5):
        batch = sample_batch(plan, small_dataset, small_dataset.train, rng,
                             apply_augment=False)
        fake = Rng(16).normal((len(batch.labels), 4))
        weighted_regularized_triplet(Tensor(fake), batch.labels)  # must not raise


def test_sampler_insufficient_identities(small_dataset):
    plan = BatchPlan(identities=10, tracklets_per_identity=1)
    with pytest.raises(DataError):
        sample_batch(plan, small_dataset, small_dataset.train, Rng(17))


def test_sampling_is_deterministic(small_dataset):
    plan = BatchPlan(identities=2, tracklets_per_identity=2)
    a = sample_batch(plan, small_dataset, small_dataset.train, Rng(18))
    b = sample_batch(plan, small_dataset, small_dataset.train, Rng(18))
    np.testing.assert_array_equal(a.frames, b.frames)
    np.testing.assert_array_equal(a.tracklet_ids, b.tracklet_ids)
