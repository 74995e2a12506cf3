"""Seeded documents against the SHA-256 digests in document_digests.json.

`scripts/document_digests.py --write` regenerates the file.  The exact
documents call no BLAS, so their digests hold on any numpy build and thread
count.  The float documents hold on the build the file records; elsewhere a
changed digest skips with both builds named (DECISIONS.md, entry 10).
"""

import json
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from document_digests import DIGESTS, build, digest  # noqa: E402

WANT = json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("key", list(WANT["exact"]))
def test_exact_document_is_unchanged(key):
    assert digest(shlex.split(key)) == WANT["exact"][key]


def check_float_digest(got: str, want: str, recorded: dict, running: dict) -> None:
    """Pass on an equal digest; on a changed one fail where the build is the
    recorded one, and skip, naming both builds, where it is not."""
    if got != want and running != recorded:
        pytest.skip(f"float digests were written on {recorded}; this run is on {running}")
    assert got == want


@pytest.mark.parametrize("key", list(WANT["float"]))
def test_float_document_is_unchanged(key):
    check_float_digest(digest(shlex.split(key)), WANT["float"][key], WANT["float_build"], build())


def test_float_digest_mismatch_skips_only_on_another_platform():
    here = {"numpy": "2.0.0", "blas": "scipy-openblas 0.3.27", "machine": "x86_64"}
    check_float_digest("a", "a", here, {**here, "numpy": "2.1.0"})  # equal digests pass anywhere
    with pytest.raises(AssertionError):
        check_float_digest("a", "b", here, dict(here))
    with pytest.raises(pytest.skip.Exception) as skipped:
        check_float_digest("a", "b", here, {**here, "blas": "scipy-openblas 0.3.31"})
    assert "0.3.27" in str(skipped.value) and "0.3.31" in str(skipped.value)
