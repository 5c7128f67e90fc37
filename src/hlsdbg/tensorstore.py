"""Single-file container for named float tensors.

Layout: magic `HLSDBG1`, a little-endian u64 header length, a JSON header
(`meta` plus per-tensor name/dtype/shape/offset/nbytes), then the raw
little-endian payloads back to back. Writing the same tensors twice gives
byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"HLSDBG1"

_DTYPES = {"f32": "<f4", "f64": "<f8"}
_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    entries = []
    offset = 0
    arrays = []
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], order="C")  # C order, and a 0-d array stays 0-d
        if arr.dtype not in _NAMES:
            raise ValueError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
        dtype = _NAMES[arr.dtype]
        arr = arr.astype(_DTYPES[dtype], copy=False)
        entries.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
        )
        arrays.append(arr)
        offset += arr.nbytes
    header = json.dumps({"meta": meta or {}, "tensors": entries}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(memoryview(arr))  # the contiguous little-endian buffer, not a bytes copy of it


def load_tensors(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """(tensors, meta) of a container; every malformed container is a DataError.

    The payload is read once into one buffer and each tensor is a writable
    view into it, so loading copies nothing.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError(f"not a tensor container: {path}")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise DataError(f"truncated container header in {path}")
        (header_len,) = struct.unpack("<Q", raw_len)
        # a corrupt length must not make `read` allocate beyond the file
        raw_header = fh.read(min(header_len, Path(path).stat().st_size))
        if len(raw_header) != header_len:
            raise DataError(f"truncated container header in {path}")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"corrupt container header in {path}: {exc}") from None
        payload = np.fromfile(fh, dtype=np.uint8)
    if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
        raise DataError(f"corrupt container header in {path}: no tensor list")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"corrupt container header in {path}: meta is not a mapping")
    tensors = {}
    for entry in header["tensors"]:
        name, dtype, shape, start, nbytes = _checked_entry(entry, path)
        if start + nbytes > payload.size:
            raise DataError(f"tensor {name!r} lies past the end of the payload in {path}")
        tensors[name] = payload[start:start + nbytes].view(dtype).reshape(shape)
    return tensors, meta


def _checked_entry(entry, path) -> tuple[str, str, tuple[int, ...], int, int]:
    """(name, numpy dtype, shape, offset, nbytes) of a header entry, validated."""
    try:
        name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
        start, nbytes = entry["offset"], entry["nbytes"]
    except (KeyError, TypeError):
        raise DataError(f"malformed tensor entry in {path}: {entry!r}") from None
    if not isinstance(name, str):
        raise DataError(f"malformed tensor name in {path}: {name!r}")
    if dtype not in _DTYPES:
        raise DataError(f"unknown dtype {dtype!r} for tensor {name!r} in {path}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in (start, nbytes, *shape)):
        raise DataError(f"malformed shape, offset or size for tensor {name!r} in {path}")
    shape = tuple(shape)
    expected = math.prod(shape) * np.dtype(_DTYPES[dtype]).itemsize
    if nbytes != expected:
        raise DataError(f"tensor {name!r} in {path} holds {nbytes} bytes, its shape needs {expected}")
    return name, _DTYPES[dtype], shape, start, nbytes
