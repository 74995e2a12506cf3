#!/usr/bin/env python3
"""Check, or with --write regenerate, tests/document_digests.json: the SHA-256
of the stdout of each exact `kfree` document.

Every argv here runs in-process through `kfree.cli.dispatch`, and its stdout
is hashed as it streams.  The documents are exact algebra: NC(n) listings
with their Moebius and Kreweras tables, Weingarten tables, free cumulants,
asymptotic channels and OTOCs from rational moments, and the exact-algebra
benchmark steps.  None of them calls BLAS, so the digests depend neither on
the numpy or OpenBLAS build nor on the thread count.

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
import shlex
import sys
from pathlib import Path

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write", action="store_true", help=f"regenerate {DIGESTS.name}")
    args = ap.parse_args(argv)
    if args.write:
        DIGESTS.write_text(json.dumps({shlex.join(a): digest(a) for a in ARGVS}, indent=2) + "\n")
        return 0
    changed = [key for key, want in json.loads(DIGESTS.read_text()).items() if digest(shlex.split(key)) != want]
    for key in changed:
        sys.stdout.write(f"changed: kfree {key}\n")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
