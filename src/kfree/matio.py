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


def load_operator(path: str | Path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        rows, cols = doc["shape"]
        flat = np.array([complex(re, im) for re, im in doc["data"]])
        return flat.reshape(rows, cols)
    if path.suffix == ".bin":
        raw = path.read_bytes()
        if raw[:4] != MAGIC:
            raise ValueError(f"{path}: bad magic, not a KFOP operator file")
        rows, cols = struct.unpack("<II", raw[4:12])
        interleaved = np.frombuffer(raw[12:], dtype="<f8")
        if interleaved.size != rows * cols * 2:
            raise ValueError(f"{path}: truncated payload")
        return (interleaved[0::2] + 1j * interleaved[1::2]).reshape(rows, cols)
    raise ValueError(f"unknown operator format {path.suffix!r} (want .json or .bin)")
