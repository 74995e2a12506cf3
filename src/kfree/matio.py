"""Dense-operator file I/O shared by the CLI subcommands.

Two interchangeable formats, selected by file suffix:

* ``.json`` -- object with "shape": [rows, cols] and "data": a row-major
  list of [re, im] pairs.
* ``.bin``  -- magic ``KFOP``, two little-endian uint32 (rows, cols), then
  row-major little-endian complex128 entries, i.e. float64 (re, im) pairs.
  The payload is read in one pass into the returned array.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"KFOP"
HEADER_BYTES = 12  # magic plus two uint32
ENTRY = np.dtype("<c16")  # one payload entry: little-endian float64 (re, im)


def save_operator(path: str | Path, matrix: np.ndarray) -> None:
    path = Path(path)
    m = np.asarray(matrix, dtype=complex)
    if path.suffix == ".json":
        doc = {
            "shape": list(m.shape),
            "data": [[float(x.real), float(x.imag)] for x in m.reshape(-1)],
        }
        path.write_text(json.dumps(doc))
    elif path.suffix == ".bin":
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
            np.ascontiguousarray(m, dtype=ENTRY).tofile(fh)
    else:
        raise ValueError(f"unknown operator format {path.suffix!r} (want .json or .bin)")


def _check_square(path: Path, rows, cols) -> None:
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (rows, cols)) or rows != cols or rows < 1:
        raise ValueError(f"{path}: operator shape ({rows}, {cols}) is not a non-empty square")


def load_operator(path: str | Path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        shape = doc.get("shape") if isinstance(doc, dict) else None
        if not isinstance(shape, list) or len(shape) != 2:
            raise ValueError(f"{path}: operator shape {shape!r} is not 2-D")
        rows, cols = shape
        _check_square(path, rows, cols)
        data = doc.get("data")
        if not isinstance(data, list) or len(data) != rows * cols:
            raise ValueError(f"{path}: want {rows * cols} [re, im] entries for shape ({rows}, {cols})")
        try:
            # complex() rejects strings and nulls and raises OverflowError for
            # an int no float can hold, but takes booleans as 1 and 0: a pair
            # with a boolean is dropped here and caught by the count below
            entries = [complex(re, im) for re, im in data if type(re) is not bool and type(im) is not bool]
            if len(entries) != len(data):
                raise TypeError("booleans are not numbers")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: data entries must be [re, im] number pairs") from exc
        return np.array(entries, dtype=complex).reshape(rows, cols)
    if path.suffix == ".bin":
        with open(path, "rb") as fh:
            head = fh.read(HEADER_BYTES)
            if head[:4] != MAGIC:
                raise ValueError(f"{path}: bad magic, not a KFOP operator file")
            if len(head) < HEADER_BYTES:
                raise ValueError(f"{path}: truncated header ({len(head)} of {HEADER_BYTES} bytes)")
            rows, cols = struct.unpack("<II", head[4:])
            _check_square(path, rows, cols)
            want = rows * cols * ENTRY.itemsize
            got = os.fstat(fh.fileno()).st_size - HEADER_BYTES
            if got < want:
                raise ValueError(f"{path}: truncated payload ({got} of {want} bytes)")
            if got > want:
                raise ValueError(f"{path}: payload of {got} bytes, want {want} for shape ({rows}, {cols})")
            flat = np.fromfile(fh, dtype=ENTRY, count=rows * cols)
        return flat.astype(complex, copy=False).reshape(rows, cols)
    raise ValueError(f"unknown operator format {path.suffix!r} (want .json or .bin)")
