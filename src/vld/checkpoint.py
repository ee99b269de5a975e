"""Binary container for named arrays.

Layout: magic "VLDT", version u16, then records of
(name length u16, name bytes, dtype code u8, ndim u8, extents u32 each,
little-endian row-major payload). Round-trips are bit-exact.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError

MAGIC = b"VLDT"
VERSION = 1

_DTYPE_CODES = {
    np.dtype("<f8"): 0,
    np.dtype("<f4"): 1,
    np.dtype("<i8"): 2,
    np.dtype("u1"): 3,
}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` and rename it onto
    ``path``, so a process that dies mid-write leaves the old file or the
    new one, never a half-written one. There is no fsync: this guards
    against process crashes, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save(path, records: dict[str, np.ndarray]) -> None:
    """Write named arrays in iteration order, through ``write_atomic``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    chunks = [MAGIC, struct.pack("<H", VERSION)]
    for name, arr in records.items():
        # np.asarray keeps 0-d records 0-d (ascontiguousarray would not).
        arr = np.asarray(arr, order="C")
        dt = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
        if np.dtype(dt) not in _DTYPE_CODES:
            raise ParseError(f"unsupported dtype {arr.dtype} for record {name!r}")
        payload = arr.astype(dt, copy=False).tobytes()
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<BB", _DTYPE_CODES[np.dtype(dt)], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(payload)
    write_atomic(path, b"".join(chunks))


def load(path) -> dict[str, np.ndarray]:
    """Read all records, preserving file order. A malformed container
    raises ParseError, a missing one DataError."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"container not found: {path}")
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise ParseError(f"{path}: bad magic {blob[:4]!r}")
    records: dict[str, np.ndarray] = {}
    try:
        (version,) = struct.unpack_from("<H", blob, 4)
        if version != VERSION:
            raise ParseError(f"{path}: unsupported container version {version}")
        offset = 6
        while offset < len(blob):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            code, ndim = struct.unpack_from("<BB", blob, offset)
            offset += 2
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            dt = _CODE_DTYPES.get(code)
            if dt is None:
                raise ParseError(f"{path}: unknown dtype code {code}")
            nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
            payload = blob[offset:offset + nbytes]
            if len(payload) != nbytes:
                raise ParseError(f"{path}: truncated payload for record {name!r}")
            offset += nbytes
            records[name] = np.frombuffer(payload, dtype=dt).reshape(shape).copy()
    except struct.error as exc:
        raise ParseError(f"{path}: truncated container") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: record name is not UTF-8") from exc
    except ValueError as exc:  # reshape: too many or wrapped extents
        raise ParseError(f"{path}: bad record shape: {exc}") from exc
    return records
