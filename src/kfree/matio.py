"""Dense-operator file I/O shared by the CLI subcommands.

Two interchangeable formats, selected by file suffix:

* ``.json`` -- object with "shape": [rows, cols] and "data": a row-major
  list of [re, im] pairs.
* ``.bin``  -- magic ``KFOP``, two little-endian uint32 (rows, cols), then
  row-major float64 little-endian (re, im) pairs.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"KFOP"
HEADER_BYTES = 12  # magic plus two uint32


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
            interleaved = np.empty(m.size * 2, dtype="<f8")
            interleaved[0::2] = m.real.reshape(-1)
            interleaved[1::2] = m.imag.reshape(-1)
            fh.write(interleaved.tobytes())
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
            flat = np.array([complex(re, im) for re, im in data])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: data entries must be [re, im] number pairs") from exc
        return flat.reshape(rows, cols)
    if path.suffix == ".bin":
        raw = path.read_bytes()
        if raw[:4] != MAGIC:
            raise ValueError(f"{path}: bad magic, not a KFOP operator file")
        if len(raw) < HEADER_BYTES:
            raise ValueError(f"{path}: truncated header ({len(raw)} of {HEADER_BYTES} bytes)")
        rows, cols = struct.unpack("<II", raw[4:HEADER_BYTES])
        _check_square(path, rows, cols)
        interleaved = np.frombuffer(raw[HEADER_BYTES:], dtype="<f8")
        if interleaved.size != rows * cols * 2:
            raise ValueError(f"{path}: truncated payload")
        return (interleaved[0::2] + 1j * interleaved[1::2]).reshape(rows, cols)
    raise ValueError(f"unknown operator format {path.suffix!r} (want .json or .bin)")
