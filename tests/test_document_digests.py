"""Exact documents against the SHA-256 digests in document_digests.json.

`scripts/document_digests.py --write` regenerates the file.  These documents
call no BLAS, so the digests hold on any numpy build and thread count.
"""

import json
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from document_digests import DIGESTS, digest  # noqa: E402

WANT = json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("key", list(WANT))
def test_exact_document_is_unchanged(key):
    assert digest(shlex.split(key)) == WANT[key]
