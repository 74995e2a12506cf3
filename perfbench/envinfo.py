"""The environment a result set was measured in."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def blas_info() -> dict:
    """OpenBLAS build and the thread count actually in effect, read through
    its C API from the library numpy loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                return {"library": Path(path).name, "config": get_config().decode(), "threads": get_threads()}
    return {"library": None, "config": None, "threads": None}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": nproc(),
        "machine": platform.machine(),
    }
