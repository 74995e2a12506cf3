#!/usr/bin/env python3
"""Check, or with --write regenerate, tests/document_digests.json: the SHA-256
of the stdout of each seeded `kfree` document.

Every argv here runs in-process through `kfree.cli.dispatch`, and its stdout
is hashed as it streams.  Two sets are kept:

- exact: NC(n) listings with their Moebius and Kreweras tables, Weingarten
  tables, free cumulants, asymptotic channels and OTOCs from rational
  moments, and the exact-algebra benchmark steps.  None of them calls BLAS,
  so these digests hold on any numpy or OpenBLAS build and thread count.
- float: seeded Monte Carlo, design, distance and ETH documents at D <= 64.
  numpy and OpenBLAS round them, so the file records the numpy version, the
  BLAS build and `platform.machine()` they were written on (DECISIONS.md,
  entry 10).  `--write` computes them in two fresh processes, on one and on
  two OpenBLAS threads, and refuses to write if any digest differs.

A change that alters one of these documents on purpose regenerates the file
and lists each changed argv in CHANGES.md.

Example:
    python scripts/document_digests.py           # exit 1 on any mismatch
    python scripts/document_digests.py --write   # regenerate the file
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

from kfree.cli import dispatch

DIGESTS = Path(__file__).resolve().parents[1] / "tests" / "document_digests.json"
MOMENTS = "--moments=1/3,7/5,-2/9,11/4,3/7,5/2"
A_MOMENTS = "--a-moments=1/3,7/5,-2/9,11/4,3/7"
B_MOMENTS = "--b-moments=2/7,4/3,1/5,-5/6,7/9"
ARGVS = (
    *(["nc", "--n", str(n), "--moebius", "--kreweras"] for n in range(1, 9)),
    ["nc", "--n", "5", "--moebius", "--kreweras", "--format", "text"],
    *(["wg", "--k", str(k), "--dim", "7"] for k in range(1, 7)),
    ["cumulants", MOMENTS],
    ["channel", "--mode", "asymptotic", "--k", "6", "--dim", "64", MOMENTS],
    ["otoc", "--k", "5", "--dim", "16", A_MOMENTS, B_MOMENTS],
    # the exact-algebra benchmark steps at seed 0; its `nc --n 6` is the n = 6 row above
    ["cumulants", "--moments=0,-2,1/2,0,1/3,3/2"],
    ["channel", "--mode", "exact", "--k", "5", "--dim", "5", "--moments=0,-2,1/2,0,1/3"],
    ["channel", "--mode", "exact", "--k", "5", "--dim", "6", "--moments=0,-2,1/2,0,1/3"],
    ["channel", "--mode", "asymptotic", "--k", "6", "--dim", "64", "--moments=0,-2,1/2,0,1/3,3/2"],
    ["otoc", "--k", "4", "--dim", "16", "--a-moments=1,-1,6,1", "--b-moments=1,-2,5,4/3"],
    ["wg", "--k", "5", "--dim", "6"],
)
SEED = ["--seed", "3"]
FLOAT_ARGVS = (
    *(["haar-test", "--dim", str(D), "--k", str(k), "--n-samples", str(n), *SEED]
      for k in (2, 3) for D, n in ((16, 200), (64, 100))),
    *(["design-check", "--ensemble", name, "--k", str(k)] for name in ("clifford", "pauli") for k in (1, 2, 3)),
    ["design-check", "--ensemble", "hamiltonian", "--k", "2", "--dim", "4", "--t-max", "50", *SEED],
    ["design-check", "--ensemble", "hamiltonian", "--k", "1", "--dim", "16", "--t-max", "50", *SEED],
    ["distance", "--ensemble", "clifford", "--k", "2"],
    ["distance", "--ensemble", "hamiltonian", "--k", "2", "--dim", "16", "--t-max", "50", *SEED],
    ["distance", "--ensemble", "hamiltonian", "--k", "3", "--dim", "8", *SEED],
    ["eth", "build", "--model", "goe", "--dim", "64", *SEED],
    ["eth", "build", "--model", "ising", "--length", "6"],
    ["eth", "cumulant", "--model", "goe", "--dim", "64", "--k", "2", "--t-max", "5", "--n-points", "9", *SEED],
    ["eth", "cumulant", "--model", "goe", "--dim", "64", "--k", "3", "--t-max", "5", "--n-points", "9", *SEED],
    ["eth", "cumulant", "--model", "ising", "--length", "6", "--k", "2", "--t-max", "5", "--n-points", "9"],
    ["eth", "timeavg", "--model", "goe", "--dim", "32", "--k", "3", *SEED],
    ["eth", "timeavg", "--model", "goe", "--dim", "32", "--k", "2", "--t-max", "20", *SEED],
    ["eth", "timeavg", "--model", "goe", "--dim", "16", "--k", "3", "--t-max", "20", *SEED],
    ["eth", "freetime", "--model", "goe", "--dim", "64", "--k", "2", "--n-points", "21", *SEED],
    ["eth", "appendixb", "--model", "goe", "--dim", "32", "--k", "2", *SEED],
    ["eth", "deutsch", "--model", "goe", "--dim", "64", "--lambdas", "1,2", *SEED],
)


class _Sha256Sink:
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def digest(argv: list[str]) -> str:
    """The SHA-256 of the stdout of `kfree argv`, which must exit 0."""
    sink = _Sha256Sink()
    with contextlib.redirect_stdout(sink):
        code = dispatch(list(argv))
    if code != 0:
        raise RuntimeError(f"kfree {shlex.join(argv)} exited {code}")
    return sink.hash.hexdigest()


def build() -> dict[str, str]:
    """What the float digests depend on: the numpy version, the BLAS build and the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine()}


def _float_digests(threads: int) -> dict[str, str]:
    """The float digests computed in a fresh process on `threads` OpenBLAS threads."""
    code = "import document_digests as d, json, shlex; print(json.dumps({shlex.join(a): d.digest(a) for a in d.FLOAT_ARGVS}))"
    path = os.pathsep.join([str(Path(__file__).parent), *sys.path])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    return json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True).stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write", action="store_true", help=f"regenerate {DIGESTS.name}")
    args = ap.parse_args(argv)
    if args.write:
        one, two = _float_digests(1), _float_digests(2)
        split = [key for key in one if one[key] != two[key]]
        for key in split:
            sys.stdout.write(f"differs on one and two OpenBLAS threads: kfree {key}\n")
        if split:
            return 1
        doc = {"exact": {shlex.join(a): digest(a) for a in ARGVS}, "float": one, "float_build": build()}
        DIGESTS.write_text(json.dumps(doc, indent=2) + "\n")
        return 0
    want = json.loads(DIGESTS.read_text())
    if want["float_build"] != build():
        sys.stdout.write(f"float digests were written on {want['float_build']}, this is {build()}\n")
    changed = [key for part in ("exact", "float") for key, d in want[part].items() if digest(shlex.split(key)) != d]
    for key in changed:
        sys.stdout.write(f"changed: kfree {key}\n")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
