"""Container round trips must be bit-exact."""

import numpy as np
import pytest

from vld import checkpoint
from vld.errors import ContractError, DataError, ParseError
from vld.rng import Rng


def test_round_trip_bit_exact(tmp_path):
    records = {
        "enc/weights": Rng(1).normal((3, 4, 5)),
        "stp/hub": Rng(2).normal((2, 2, 8)).astype(np.float32),
        "labels": np.arange(-3, 3, dtype=np.int64),
        "frames": (Rng(3).uniform((4, 6, 3)) * 255).astype(np.uint8),
    }
    path = tmp_path / "model.vldt"
    checkpoint.save(path, records)
    loaded = checkpoint.load(path)
    assert list(loaded) == list(records)
    for name in records:
        assert loaded[name].dtype == records[name].dtype
        assert loaded[name].shape == records[name].shape
        assert loaded[name].tobytes() == records[name].tobytes()


def test_save_is_deterministic(tmp_path):
    records = {"a": Rng(4).normal((7,)), "b": np.arange(3, dtype=np.int64)}
    checkpoint.save(tmp_path / "one.vldt", records)
    checkpoint.save(tmp_path / "two.vldt", records)
    assert (tmp_path / "one.vldt").read_bytes() == (tmp_path / "two.vldt").read_bytes()


def test_failed_overwrite_keeps_old_file_and_leaves_no_stray(tmp_path,
                                                             monkeypatch):
    path = tmp_path / "model.vldt"
    checkpoint.save(path, {"x": np.ones(4)})
    old = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        checkpoint.save(path, {"x": np.zeros(9)})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.vldt"]


def test_save_streams_any_iterable_of_pairs(tmp_path):
    """A generator of pairs writes the same bytes as a mapping, and one
    that fails mid-stream keeps the old file and leaves no stray."""
    records = {"a": Rng(5).normal((3, 2)), "b": np.arange(4, dtype=np.uint8)}
    checkpoint.save(tmp_path / "map.vldt", records)
    checkpoint.save(tmp_path / "gen.vldt", ((k, v) for k, v in records.items()))
    old = (tmp_path / "gen.vldt").read_bytes()
    assert old == (tmp_path / "map.vldt").read_bytes()

    def failing():
        yield "a", records["a"]
        raise OSError("killed mid-stream")

    with pytest.raises(OSError, match="mid-stream"):
        checkpoint.save(tmp_path / "gen.vldt", failing())
    assert (tmp_path / "gen.vldt").read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.vldt",
                                                           "map.vldt"]



def test_repeated_record_name_is_parse_error(tmp_path):
    """Read as a dict, the second record would silently win."""
    first, second = tmp_path / "first.vldt", tmp_path / "second.vldt"
    checkpoint.save(first, [("a", np.zeros(2))])
    checkpoint.save(second, [("a", np.ones(3))])
    path = tmp_path / "twice.vldt"
    path.write_bytes(first.read_bytes() + second.read_bytes()[6:])
    with pytest.raises(ParseError, match="'a' repeated"):
        checkpoint.load(path)


def test_save_refuses_a_repeated_record_name(tmp_path):
    path = tmp_path / "model.vldt"
    checkpoint.save(path, {"x": np.ones(4)})
    old = path.read_bytes()
    with pytest.raises(ContractError, match="'a' repeated"):
        checkpoint.save(path, [("a", np.zeros(2)), ("a", np.ones(3))])
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.vldt"]


def test_save_refuses_a_name_longer_than_its_length_field(tmp_path):
    """The name length is a u16: 65,535 UTF-8 bytes fit, one more is a
    ContractError naming the record, with nothing written."""
    fits = "λ" * 32767 + "n"
    checkpoint.save(tmp_path / "fits.vldt", [(fits, np.zeros(1))])
    assert list(checkpoint.load(tmp_path / "fits.vldt")) == [fits]
    with pytest.raises(ContractError, match="'nnnn.*65536 UTF-8 bytes"):
        checkpoint.save(tmp_path / "long.vldt", [("n" * 65536, np.zeros(1))])
    with pytest.raises(ContractError, match="70000 UTF-8 bytes"):
        checkpoint.save(tmp_path / "long.vldt", [("n" * 70000, np.zeros(1))])
    assert [p.name for p in tmp_path.iterdir()] == ["fits.vldt"]


def test_index_locates_every_payload(tmp_path):
    records = {"w": Rng(6).normal((2, 3)).astype(np.float32),
               "s": np.array(2.5), "e": np.zeros((0, 4), dtype=np.int64),
               "f": np.arange(24, dtype=np.uint8).reshape(1, 2, 4, 3)}
    path = tmp_path / "v.vldt"
    checkpoint.save(path, records)
    blob = path.read_bytes()
    with open(path, "rb") as f:
        index = checkpoint.index(f, path)
    assert list(index) == list(records)
    for name, arr in records.items():
        dtype, shape, offset = index[name]
        assert dtype == arr.dtype and shape == arr.shape
        assert blob[offset:offset + arr.nbytes] == arr.tobytes()


def test_header_layout(tmp_path):
    path = tmp_path / "tiny.vldt"
    checkpoint.save(path, {"x": np.zeros(1)})
    blob = path.read_bytes()
    assert blob[:4] == b"VLDT"
    assert int.from_bytes(blob[4:6], "little") == 1


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.vldt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ParseError):
        checkpoint.load(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.vldt"
    checkpoint.save(path, {"x": np.ones(10)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ParseError):
        checkpoint.load(path)


def test_scalar_and_unicode_names(tmp_path):
    path = tmp_path / "s.vldt"
    records = {"scale/λ": np.array(3.5)}
    checkpoint.save(path, records)
    loaded = checkpoint.load(path)
    assert loaded["scale/λ"].shape == ()
    assert float(loaded["scale/λ"]) == 3.5


def _two_record_container(path):
    """A valid container of one u8 and one f32 record, its header byte
    positions, and the offsets at which each record ends."""
    records = {
        "frames": (np.arange(24, dtype=np.uint8) * 11).reshape(2, 3, 4),
        "w": np.array([0.5, -1.0, 2.0], dtype=np.float32),
    }
    checkpoint.save(path, records)
    blob = path.read_bytes()
    header = list(range(6))          # magic, version
    ends = [6]
    for name, arr in records.items():
        # name length u16, name, dtype code u8, ndim u8, extents u32 each
        head = 2 + len(name.encode("utf-8")) + 2 + 4 * arr.ndim
        header.extend(range(ends[-1], ends[-1] + head))
        ends.append(ends[-1] + head + arr.nbytes)
    assert ends[-1] == len(blob)
    return records, blob, header, ends


def test_every_proper_prefix_is_rejected_or_a_record_boundary(tmp_path):
    """The format has no record count, so a prefix that ends exactly
    between records is itself a valid container of the leading records;
    every other prefix must raise ParseError and nothing else."""
    records, blob, _, ends = _two_record_container(tmp_path / "ok.vldt")
    names = list(records)
    path = tmp_path / "cut.vldt"
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        if n in ends:
            loaded = checkpoint.load(path)
            assert list(loaded) == names[:ends.index(n)]
            for name, arr in loaded.items():
                assert arr.tobytes() == records[name].tobytes()
        else:
            with pytest.raises(ParseError):
                checkpoint.load(path)


def test_every_header_byte_set_to_ff_is_rejected(tmp_path):
    """Magic, version, name length, name, dtype code, ndim and every
    extent byte of both records, each set to 0xFF in turn."""
    _, blob, header, _ = _two_record_container(tmp_path / "ok.vldt")
    path = tmp_path / "bad.vldt"
    for pos in header:
        corrupt = bytearray(blob)
        corrupt[pos] = 0xFF
        path.write_bytes(bytes(corrupt))
        with pytest.raises((ParseError, DataError)):
            checkpoint.load(path)


def test_more_extents_than_numpy_supports_is_parse_error(tmp_path):
    """A zero extent makes the payload empty, so only the rank is wrong."""
    path = tmp_path / "deep.vldt"
    path.write_bytes(b"VLDT\x01\x00" + b"\x01\x00x" + bytes([3, 65])
                     + b"\x00" * (4 * 65))
    with pytest.raises(ParseError):
        checkpoint.load(path)
