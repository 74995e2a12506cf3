"""What the scripts/bench_*.py timing harnesses share: the `--repeats` and
`--out` options, the environment block and the writer of each BENCH_*.json,
and a timed `kfree` case run through `kfree.cli.dispatch`.

Only `dispatch` and the public API are used, so a harness runs on any
revision that has them, e.g. with PYTHONPATH pointing at another checkout's
`src`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import time

import numpy as np

from kfree.cli import dispatch


def parser(description: str, out: str) -> argparse.ArgumentParser:
    """A harness's option parser: `--repeats` (default 5) and `--out`."""
    ap = argparse.ArgumentParser(description=description, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default=out)
    return ap


def parse(ap: argparse.ArgumentParser, argv=None) -> argparse.Namespace:
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be positive")
    return args


def environment(**extra) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        **extra,
    }


def write(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def timed(fn) -> tuple:
    """(result, wall seconds, CPU seconds) of one `fn()` call; the CPU time
    (`time.process_time`) counts every thread of the process, BLAS threads
    included."""
    t0, c0 = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - t0, time.process_time() - c0


def times(seconds: list, cpu_seconds: list) -> dict:
    """The per-repeat wall and CPU times of a case and their medians."""
    return {"seconds": seconds, "median_s": statistics.median(seconds),
            "cpu_seconds": cpu_seconds, "median_cpu_s": statistics.median(cpu_seconds)}


def run_case(name: str, argv: list[str], repeats: int, before=lambda: None) -> dict:
    """`repeats` timed `dispatch(argv)` calls, each after `before()`: every
    wall and CPU time, their medians and the SHA-256 of the document, which
    every repeat must write alike."""
    seconds, cpu_seconds, digests = [], [], set()
    for _ in range(repeats):
        before()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, wall, cpu = timed(lambda: dispatch(argv))
        seconds.append(wall)
        cpu_seconds.append(cpu)
        if code != 0:
            raise SystemExit(f"{name}: kfree exited {code}")
        digests.add(hashlib.sha256(out.getvalue().encode()).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"{name}: repeats wrote different documents")
    return {"name": name, "argv": argv, **times(seconds, cpu_seconds), "sha256": digests.pop()}
