"""Binary tensor files and JSON reports.

Tensor file layout (little endian):

    magic   4 bytes  b"QHT1"
    rank    u8
    flags   u8       bit 0: curvature-certified claim (written, never read)
    reserved u16
    n       u32      quaternionic dimension, at least 1
    dims    u32 * rank   (each must equal 4 n)
    payload f64 * prod(dims), row major, every entry finite; nothing follows

Reports are plain JSON objects {version, n, command, tolerances, results,
failures}; floats go through Python's shortest round-trip repr, so a report
written twice from the same data is byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"QHT1"
FLAG_CERTIFIED = 1

REPORT_VERSION = 1


class TensorFileError(ValueError):
    """Malformed or inconsistent tensor file."""


@dataclass
class TensorFile:
    n: int
    data: np.ndarray

    @property
    def rank(self) -> int:
        return self.data.ndim


def write_tensor(path, n: int, data: np.ndarray, certified: bool = False) -> None:
    if n < 1:
        raise TensorFileError(f"n = {n}, must be at least 1")
    data = np.ascontiguousarray(data, dtype="<f8")
    rank = data.ndim
    dim = 4 * n
    if any(s != dim for s in data.shape):
        raise TensorFileError(f"axes must all have length 4n = {dim}, got {data.shape}")
    flags = FLAG_CERTIFIED if certified else 0
    header = MAGIC + struct.pack("<BBHI", rank, flags, 0, n)
    header += struct.pack(f"<{rank}I", *data.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_tensor(path) -> TensorFile:
    # one unbuffered pass to EOF: FileIO.readall sizes its first read from
    # fstat, and grows its reads where fstat gives no size (a pipe)
    with open(path, "rb", buffering=0) as fh:
        raw = fh.readall()
    if raw[:4] != MAGIC:
        raise TensorFileError(f"bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise TensorFileError("truncated header")
    # any rank is readable, since with n >= 1 the payload bounds it; which
    # ranks a command accepts is the caller's check; the flags and reserved
    # bytes are skipped
    rank, n = struct.unpack_from("<B3xI", raw, 4)
    if n < 1:
        raise TensorFileError(f"n = {n}, must be at least 1")
    offset = 12
    if len(raw) < offset + 4 * rank:
        raise TensorFileError("truncated header")
    dims = struct.unpack_from(f"<{rank}I", raw, offset)
    offset += 4 * rank
    dim = 4 * n
    if any(s != dim for s in dims):
        raise TensorFileError(f"dims {dims} inconsistent with n = {n}")
    count = math.prod(dims)
    if len(raw) - offset < 8 * count:
        raise TensorFileError("truncated payload")
    if len(raw) - offset > 8 * count:
        raise TensorFileError(
            f"{len(raw) - offset - 8 * count} bytes after the payload")
    payload = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    if not np.isfinite(payload).all():
        raise TensorFileError("payload holds NaN or infinite entries")
    # an owned, writeable copy: the payload is a view of the read-only bytes
    data = payload.reshape(dims).copy()
    return TensorFile(n=int(n), data=data)


def write_report(path, n: int, command: str, tolerances: dict,
                 results, failures) -> None:
    """Write the canonical report JSON to ``path``; no file if it is None.

    A report holding NaN or an infinity raises ValueError before the file is
    opened, so no partial file is left behind.
    """
    if path is None:
        return
    report = {
        "version": REPORT_VERSION,
        "n": n,
        "command": command,
        "tolerances": dict(tolerances),
        "results": results,
        "failures": failures,
    }
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
