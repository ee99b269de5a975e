"""Retrieval evaluation against a from-scratch brute-force oracle."""

import os
import threading

import numpy as np
import pytest

from reference import brute_force_eval
from util import generated
from vld.errors import DataError
from vld.retrieval import GalleryIndex, evaluate, save_report
from vld.rng import Rng


def make_index(features, identities, modality, ids=None):
    features = np.asarray(features, dtype=float)
    features = features / np.linalg.norm(features, axis=1, keepdims=True)
    n = len(identities)
    return GalleryIndex(
        features=features,
        identities=np.asarray(identities),
        modalities=np.asarray([modality] * n),
        tracklet_ids=np.asarray(ids if ids is not None else range(n)),
    )


def test_single_query_single_match():
    q = make_index([[1.0, 0.0]], [7], "infrared")
    g = make_index([[1.0, 0.1]], [7], "visible")
    report = evaluate(q, g)
    assert report.rank(1) == 1.0
    assert report.mean_ap == 1.0


def test_ap_hand_enumeration():
    """Correct items at ranks 1 and 3 of 4: AP = (1/1 + 2/3)/2 = 5/6."""
    q = make_index([[1.0, 0.0]], [0], "infrared")
    gallery_feats = [[1.0, 0.0], [0.9, 0.5], [0.8, 0.7], [0.0, 1.0]]
    g = make_index(gallery_feats, [0, 1, 0, 1], "visible")
    report = evaluate(q, g)
    assert report.mean_ap == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert report.rank(1) == 1.0


def test_matches_brute_force_oracle_on_random_instances():
    rng = Rng(50)
    for trial in range(30):
        nq = 2 + rng.randint(6)
        ng = 5 + rng.randint(46)
        dim = 4 + rng.randint(5)
        q = make_index(rng.normal((nq, dim)), rng.integers(nq, 6), "infrared")
        g = make_index(rng.normal((ng, dim)), rng.integers(ng, 6), "visible")
        try:
            report = evaluate(q, g)
        except DataError:
            continue  # no query identity present at all
        cmc, mean_ap = brute_force_eval(q, g)
        np.testing.assert_array_equal(report.cmc, cmc)
        assert report.mean_ap == mean_ap


def test_modality_overlap_rejected():
    q = make_index([[1.0, 0.0]], [0], "visible")
    g = make_index([[1.0, 0.0]], [0], "visible")
    with pytest.raises(DataError):
        evaluate(q, g)


def test_absent_identity_counted_and_excluded():
    q = make_index([[1.0, 0.0], [0.0, 1.0]], [0, 9], "infrared")
    g = make_index([[1.0, 0.0], [0.5, 0.5]], [0, 0], "visible")
    report = evaluate(q, g)
    assert report.num_queries == 1
    assert report.num_skipped == 1
    assert report.cmc[-1] == 1.0


def test_cmc_monotone_and_terminal_one():
    rng = Rng(51)
    q = make_index(rng.normal((6, 5)), [0, 1, 2, 0, 1, 2], "infrared")
    g = make_index(rng.normal((12, 5)), [0, 1, 2] * 4, "visible")
    report = evaluate(q, g)
    assert (np.diff(report.cmc) >= 0).all()
    assert report.cmc[-1] == 1.0


def test_scale_invariance_of_ranking():
    rng = Rng(52)
    feats_q = rng.normal((4, 6))
    feats_g = rng.normal((20, 6))
    ids_q = [0, 1, 2, 3]
    ids_g = (np.arange(20) % 4).tolist()
    base = evaluate(make_index(feats_q, ids_q, "infrared"),
                    make_index(feats_g, ids_g, "visible"))
    scaled = evaluate(make_index(feats_q * 37.5, ids_q, "infrared"),
                      make_index(feats_g * 0.02, ids_g, "visible"))
    np.testing.assert_array_equal(base.cmc, scaled.cmc)
    assert base.mean_ap == scaled.mean_ap


def test_gallery_storage_order_is_irrelevant():
    rng = Rng(53)
    feats = rng.normal((15, 4))
    ids = (np.arange(15) % 3).tolist()
    q = make_index(rng.normal((5, 4)), [0, 1, 2, 0, 1], "infrared")
    g1 = make_index(feats, ids, "visible", ids=list(range(15)))
    perm = Rng(54).permutation(15)
    g2 = make_index(feats[perm], [ids[i] for i in perm], "visible",
                    ids=perm.tolist())
    a = evaluate(q, g1)
    b = evaluate(q, g2)
    np.testing.assert_array_equal(a.cmc, b.cmc)
    assert a.mean_ap == b.mean_ap


def test_exact_ties_break_by_ascending_tracklet_id():
    q = make_index([[1.0, 0.0]], [0], "infrared")
    same = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
    # Stored as 30, 20, 10, the tied rows must rank as 10, 20, 30: a match
    # at tracklet 10 is rank 1 and a match at tracklet 30 is rank 3.
    for identities, cmc in (([1, 1, 0], [1.0, 1.0, 1.0]),
                            ([0, 1, 1], [0.0, 0.0, 1.0])):
        g = make_index(same, identities, "visible", ids=[30, 20, 10])
        np.testing.assert_array_equal(evaluate(q, g).cmc, cmc)


def test_report_files_round_trip(tmp_path):
    rng = Rng(55)
    q = make_index(rng.normal((4, 5)), [0, 1, 0, 1], "infrared")
    g = make_index(rng.normal((8, 5)), [0, 1] * 4, "visible")
    report = evaluate(q, g, direction="ir2vis")
    save_report(report, tmp_path / "m.json", tmp_path / "c.csv")
    ranks, values = np.loadtxt(tmp_path / "c.csv", delimiter=",",
                               skiprows=1, unpack=True)
    np.testing.assert_array_equal(values, report.cmc)
    assert ranks[0] == 1 and ranks[-1] == 8
    import json
    payload = json.loads((tmp_path / "m.json").read_text())
    assert payload["direction"] == "ir2vis"
    assert payload["map"] == report.mean_ap


def test_failed_report_overwrite_keeps_old_files_and_leaves_no_stray(
        tmp_path, monkeypatch):
    from vld import checkpoint
    rng = Rng(4)
    q = make_index(rng.normal((4, 5)), [0, 1, 0, 1], "infrared")
    g = make_index(rng.normal((8, 5)), [0, 1] * 4, "visible")
    save_report(evaluate(q, g, direction="ir2vis"), tmp_path / "m.json",
                tmp_path / "c.csv")
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save_report(evaluate(g, q, direction="vis2ir"), tmp_path / "m.json",
                    tmp_path / "c.csv")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


# 20 tracklets: more than one extraction chunk.
EXTRACT_CFG = """
data.train_identities = 3
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
"""


def extract_problem(root):
    """(dataset, model with a hub) at the smallest extraction size."""
    from vld.config import parse_config
    from vld.train import build_model

    cfg = parse_config(EXTRACT_CFG)
    dataset = generated(cfg.synthetic_spec(), 1, root)
    return dataset, build_model(cfg, Rng(1).split("init"))


def serial_rows(model, dataset, tracklets, use_hub_feature=False):
    """extract_features' rows from a per-batch forward in this thread."""
    from vld.retrieval import EXTRACT_BATCH
    from vld.tensor import no_grad

    rows = []
    with no_grad():
        for start in range(0, len(tracklets), EXTRACT_BATCH):
            frames = np.stack([dataset.load_frames(t) for t in
                               tracklets[start:start + EXTRACT_BATCH]])
            seq, hub_seq = model.forward(frames, hub_feature=use_hub_feature)
            rows.append((hub_seq if use_hub_feature else seq).data)
    rows = np.concatenate(rows, dtype=np.float64)
    return rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True),
                             1e-12)


def test_extract_features_contract(tmp_path):
    from vld.retrieval import extract_features

    dataset, model = extract_problem(tmp_path / "d")
    picks = dataset.tracklets[:6]
    index = extract_features(model, dataset, picks)
    assert index.features.shape == (6, 16)
    np.testing.assert_allclose(np.linalg.norm(index.features, axis=1), 1.0,
                               atol=1e-9)
    # duplicate tracklet -> identical rows
    dup = extract_features(model, dataset, [picks[0], picks[0]])
    np.testing.assert_array_equal(dup.features[0], dup.features[1])
    # permuting tracklet order permutes rows correspondingly
    perm = [picks[i] for i in (3, 1, 5, 0, 2, 4)]
    permuted = extract_features(model, dataset, perm)
    for row, tr in enumerate(perm):
        base_row = picks.index(tr)
        np.testing.assert_array_equal(permuted.features[row],
                                      index.features[base_row])


def test_readout_runs_only_for_the_hub_feature(tmp_path, monkeypatch):
    from vld.hub import HubReadout
    from vld.retrieval import EXTRACT_BATCH, extract_features

    dataset, model = extract_problem(tmp_path / "d")
    calls = []
    real = HubReadout.__call__

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(HubReadout, "__call__", counted)
    picks = dataset.tracklets
    assert EXTRACT_BATCH < len(picks) <= 2 * EXTRACT_BATCH
    extract_features(model, dataset, picks)
    assert calls == []
    index = extract_features(model, dataset, picks, use_hub_feature=True)
    assert len(calls) == 2
    np.testing.assert_array_equal(index.features,
                                  serial_rows(model, dataset, picks, True))


def test_hub_feature_of_a_model_without_a_hub_is_a_contract_error(tmp_path):
    """Asked for the hub feature, a model without a hub raises rather than
    ranking its [CLS] rows."""
    from vld.config import parse_config
    from vld.errors import ContractError
    from vld.retrieval import extract_features
    from vld.train import build_model

    dataset, _ = extract_problem(tmp_path / "d")
    model = build_model(parse_config(EXTRACT_CFG + "stp.enabled = false\n"),
                        Rng(1).split("init"))
    picks = dataset.tracklets[:2]
    with pytest.raises(ContractError, match="without a hub"):
        extract_features(model, dataset, picks, use_hub_feature=True)
    assert extract_features(model, dataset, picks).features.shape == (2, 16)


@pytest.mark.parametrize("use_hub_feature", [False, True])
@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_extracted_rows_equal_a_serial_forward(tmp_path, monkeypatch,
                                               use_hub_feature, cpus):
    """Three batches, the last one short, with tracklets repeated in other
    batches: the rows equal a serial per-batch forward bit for bit, whether
    a helper thread runs or the caller runs alone."""
    from vld.retrieval import EXTRACT_BATCH, extract_features

    dataset, model = extract_problem(tmp_path / "d")
    picks = dataset.tracklets * 2 + dataset.tracklets[::4]
    assert 2 * EXTRACT_BATCH < len(picks) < 3 * EXTRACT_BATCH
    want = serial_rows(model, dataset, picks, use_hub_feature)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    threads = set()
    real = model.forward

    def forward(*args, **kwargs):
        threads.add(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "forward", forward)
    before = threading.active_count()
    index = extract_features(model, dataset, picks,
                             use_hub_feature=use_hub_feature)
    assert threading.active_count() == before
    assert len(threads) == len(cpus)
    np.testing.assert_array_equal(index.features, want)
    np.testing.assert_array_equal(
        index.tracklet_ids, [t.tracklet_id for t in picks])


def test_helper_thread_data_error_reaches_the_caller(tmp_path, monkeypatch):
    from vld.retrieval import extract_features

    dataset, model = extract_problem(tmp_path / "d")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = threading.get_ident()
    real = dataset.load_frames

    def load_frames(tracklet):
        if threading.get_ident() != caller:
            raise DataError(f"unreadable tracklet {tracklet.tracklet_id}")
        return real(tracklet)

    monkeypatch.setattr(dataset, "load_frames", load_frames)
    before = threading.active_count()
    with pytest.raises(DataError, match="unreadable tracklet"):
        extract_features(model, dataset, dataset.tracklets)
    assert threading.active_count() == before


def test_a_raise_cancels_the_helpers_queued_batches(tmp_path, monkeypatch):
    """The caller's first batch raises while the helper is in its first;
    the helper's other batches never start."""
    from vld.retrieval import EXTRACT_BATCH, extract_features
    from vld.tensor import Tensor

    dataset, model = extract_problem(tmp_path / "d")
    picks = dataset.tracklets * 4
    assert len(picks) > 4 * EXTRACT_BATCH
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = threading.get_ident()
    helper_started, release = threading.Event(), threading.Event()
    # Lets the helper finish its batch well after the caller's raise.
    timer = threading.Timer(0.3, release.set)
    helper_batches = []

    def forward(frames, hub_feature=True):
        if threading.get_ident() == caller:
            assert helper_started.wait(10)
            timer.start()
            raise DataError("caller batch failed")
        helper_batches.append(len(frames))
        helper_started.set()
        release.wait(10)
        return Tensor(np.zeros((len(frames), 16))), None

    monkeypatch.setattr(model, "forward", forward)
    before = threading.active_count()
    with pytest.raises(DataError, match="caller batch failed"):
        extract_features(model, dataset, picks)
    timer.join(10)
    assert not timer.is_alive()
    assert threading.active_count() == before
    assert helper_batches == [EXTRACT_BATCH]


# The desk model and data on small frames, with a 300-tracklet gallery per
# modality: untrained features are close, so float32 similarities near-tie.
RANK_CFG = """
data.train_identities = 2
data.test_identities = 100
data.tracklets_per_identity = 3
data.frames = 2
data.image_h = 8
data.image_w = 8
data.pattern_amp = 0.3
data.stripe_amp = 0.25
data.occlusion = 0.15
encoder.patch = 4
stp.insertion_layer = 2
train.precision = single
"""


def test_float32_model_ranks_in_float64(tmp_path):
    """A float32 model's rows are cast to float64 before they are
    normalised, so ranking equals the brute-force oracle exactly; ranked in
    float32, matrix and per-query products round near-ties apart."""
    from vld.config import parse_config
    from vld.data import INFRARED, VISIBLE
    from vld.retrieval import extract_features
    from vld.train import build_model, configured_precision

    cfg = parse_config(RANK_CFG)
    dataset = generated(cfg.synthetic_spec(), 1, tmp_path / "d")
    with configured_precision(cfg):
        model = build_model(cfg, Rng(1).split("init"))
        indexes = [extract_features(model, dataset,
                                    [t for t in dataset.test
                                     if t.modality == modality])
                   for modality in (VISIBLE, INFRARED)]
    assert model.encoder.patch_w.data.dtype == np.float32
    for index in indexes:
        assert index.features.dtype == np.float64
        np.testing.assert_allclose(np.linalg.norm(index.features, axis=1),
                                   1.0, atol=1e-12)
    for queries, gallery in (indexes[::-1], indexes):
        report = evaluate(queries, gallery)
        cmc, mean_ap = brute_force_eval(queries, gallery)
        np.testing.assert_array_equal(report.cmc, cmc)
        assert report.mean_ap == mean_ap
