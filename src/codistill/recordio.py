"""Flat archive of named float64 arrays.

Layout (everything little-endian):

    magic "CODI" | u32 version | u32 record count |
    per record: u32 name length | name utf-8 | u32 ndim | u32*ndim dims |
                float64 values (row-major)

Round-trips are byte-exact; record order is preserved.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"CODI"
VERSION = 1
MAX_DIM = 2**32 - 1  # dims are stored as u32


@contextmanager
def replacing(path):
    """A binary file handle whose bytes replace `path` only once all are written.

    They go to `<path>.tmp` in the same directory, which ``os.replace``
    then moves over `path`; on any error the temp file is removed and
    `path` is left as it was. There is no fsync: this guards against a
    failed or interrupted write, not against a power cut.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_archive(path, records) -> None:
    """records: iterable of (name, array-like); order is preserved on disk.

    The write is atomic (see ``replacing``): a failure leaves any earlier
    file at `path` untouched.
    """
    items = [(name, np.ascontiguousarray(arr, dtype="<f8")) for name, arr in records]
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(items)))
        for name, arr in items:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr)  # the contiguous buffer itself: tobytes() would copy the record


def read_archive(path) -> dict:
    """Returns an insertion-ordered {name: float64 array} dict.

    Every read is bounds-checked: a truncated or malformed file raises
    DataError naming the byte offset.
    """
    path = Path(path)
    try:
        view = memoryview(path.read_bytes())
    except OSError as exc:
        raise DataError(f"cannot read archive {path}: {exc.strerror or exc}") from exc
    if bytes(view[:4]) != MAGIC:
        raise DataError(f"{path}: bad magic {bytes(view[:4])!r}, expected {MAGIC!r}")
    ofs = 4

    def take(size, what):
        nonlocal ofs
        if size > len(view) - ofs:
            raise DataError(f"{path}: truncated at byte {ofs}: {what} needs {size} bytes, {len(view) - ofs} left")
        ofs += size
        return view[ofs - size : ofs]

    def u32s(n, what):
        return struct.unpack(f"<{n}I", take(4 * n, what))

    version, count = u32s(2, "header")
    if version != VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    out = {}
    for index in range(count):
        (nlen,) = u32s(1, f"record {index} name length")
        try:
            name = str(take(nlen, f"record {index} name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: record {index} name is not utf-8") from exc
        if name in out:
            raise DataError(f"{path}: duplicate record {name}")
        (ndim,) = u32s(1, f"{name} ndim")
        shape = u32s(ndim, f"{name} dims")
        values = take(8 * math.prod(shape), f"{name} values")
        out[name] = np.frombuffer(values, dtype="<f8").reshape(shape).astype(np.float64)
    if ofs != len(view):
        raise DataError(f"{path}: {len(view) - ofs} trailing bytes")
    return out
