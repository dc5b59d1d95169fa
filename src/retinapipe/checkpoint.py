"""Named-parameter checkpoint container and its on-disk format.

File layout: magic "RSCK", version u16 LE, header length u32 LE, a UTF-8
text header with one "name dim0,dim1,... byte_offset" line per parameter,
then the concatenated little-endian float32 payloads. Values are held as
float64 in memory; the float32 payload is a documented, lossy narrowing.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .errors import DataError, NonFiniteError

MAGIC = b"RSCK"
VERSION = 1


class ModelCheckpoint:
    """Ordered mapping of parameter name -> float64 ndarray."""

    def __init__(self, params: dict[str, np.ndarray] | None = None):
        self.params = {name: np.asarray(arr, dtype=np.float64)
                       for name, arr in (params or {}).items()}

    def __eq__(self, other):
        if not isinstance(other, ModelCheckpoint):
            return NotImplemented
        if list(self.params) != list(other.params):
            return False
        return all(np.array_equal(self.params[k], other.params[k]) for k in self.params)

    def __contains__(self, name):
        return name in self.params

    def take(self, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
        """The named arrays; DataError names an entry that is missing, whose
        shape differs from its declared one (a None dimension matches any size),
        or that holds a NaN or an infinity."""
        for name, shape in shapes.items():
            if name not in self.params:
                raise DataError(f"checkpoint is missing parameter {name!r}")
            got = self.params[name].shape
            if len(got) != len(shape) or any(want not in (None, n) for n, want in zip(got, shape)):
                raise DataError(f"checkpoint parameter {name} has shape {got}, expected {shape}")
            if not np.isfinite(self.params[name]).all():
                raise DataError(f"checkpoint parameter {name} holds a non-finite value")
        return {name: self.params[name] for name in shapes}

    def save(self, path) -> None:
        """Atomic write: serialize to a temp file, then rename into place.

        A finite value beyond float32's range would be written as an infinity
        that load refuses, so it raises NonFiniteError naming the entry, and
        nothing is written.
        """
        header_lines = []
        offset = 0
        payloads = []
        for name, arr in self.params.items():
            if " " in name or "\n" in name:
                raise ValueError(f"parameter name {name!r} may not contain spaces")
            if arr.shape == (0,):  # v1 writes shape (0,) and shape () both as "0"
                raise ValueError(f"parameter {name!r} is an empty 1-D array, which v1 cannot store")
            with np.errstate(over="ignore"):
                narrow = arr.astype("<f4")
            overflow = np.isinf(narrow) & np.isfinite(arr)
            if overflow.any():
                raise NonFiniteError(f"checkpoint entry {name} holds {arr[overflow][0]:g}, "
                                     "beyond float32's range")
            payload = narrow.tobytes()
            dims = ",".join(str(d) for d in arr.shape) or "0"
            header_lines.append(f"{name} {dims} {offset}")
            payloads.append(payload)
            offset += len(payload)
        header = ("\n".join(header_lines) + "\n" if header_lines else "").encode("utf-8")
        blob = MAGIC + struct.pack("<HI", VERSION, len(header)) + header + b"".join(payloads)
        path = os.fspath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "ModelCheckpoint":
        with open(path, "rb") as f:
            blob = f.read()
        if blob[:4] != MAGIC:
            raise DataError(f"{path}: bad magic bytes {blob[:4]!r}")
        if len(blob) < 10:
            raise DataError(f"{path}: truncated checkpoint header")
        version, header_len = struct.unpack("<HI", blob[4:10])
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        try:
            header = blob[10 : 10 + header_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: checkpoint header is not UTF-8: {e}") from e
        payload = blob[10 + header_len :]
        params: dict[str, np.ndarray] = {}
        end = 0  # the writer lays the entries out back to back, in header order
        for line in header.split("\n"):  # the writer's only line break
            if not line:
                continue
            try:
                name, dims, offset = line.split(" ")
                shape = tuple(int(d) for d in dims.split(",")) if dims != "0" else ()
                offset = int(offset)
                if min(shape, default=0) < 0:
                    raise ValueError("negative dimension")
            except ValueError as e:
                raise DataError(f"{path}: malformed header line {line!r}") from e
            if name in params:
                raise DataError(f"{path}: entry {name!r} appears twice")
            if offset != end:
                raise DataError(f"{path}: entry {name!r} starts at byte {offset}, not {end}")
            count = math.prod(shape)
            end = offset + count * 4
            if end > len(payload):
                raise DataError(f"{path}: payload truncated for parameter {name!r}")
            arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
            params[name] = arr.astype(np.float64).reshape(shape)
        if end != len(payload):
            raise DataError(
                f"{path}: payload length {len(payload)} does not match header total {end}"
            )
        return cls(params)
