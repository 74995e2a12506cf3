"""Operator-file fuzzing of `kfree`: small bad operator files passed to every
flag that reads one (`--operator`, `--a-ops`, `--b-ops`, `--a`, `--b`,
`--unitaries`, `--obs`, `eth --model FILE`).  Whatever the files, `dispatch`
exits 0, 1 or 2 without an escaping exception or a warning, an error is one
`kfree` stderr line, a success writes a JSON document, and an error that
reports the one 3 x 3 file's dimension names the flag it came in by.

Every file is 2 x 2 unless its defect is its shape, every size flag is
small (`--dim 2`, `--k` at most 2, 2 samples, 3 time points), and the
seed and example count are fixed.
"""

import contextlib
import io
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfree.cli import dispatch
from kfree.matio import save_operator

X = np.array([[0.0, 1.0], [1.0, 0.0]])
NAN = X.astype(complex)
NAN[0, 1] = np.nan
MATRICES = {
    "x.bin": X,  # Hermitian and unitary: a valid file for every flag
    "z.json": np.diag([1.0, -1.0]),
    "diag3.bin": np.diag([1.0, -1.0, 1.0]),  # valid, but of dimension 3 where --dim is 2
    "double.bin": 2.0 * np.eye(2),  # Hermitian, not unitary
    "skew.json": np.array([[0.0, 1.0], [0.0, 0.0]]),  # neither Hermitian nor unitary
    "nan.bin": NAN,
}
PAYLOAD = np.zeros(8, dtype="<c16").tobytes()  # two 2 x 2 payloads
RAW = {
    "truncated.bin": b"KFOP" + struct.pack("<II", 2, 2) + PAYLOAD[:56],
    "oversized.bin": b"KFOP" + struct.pack("<II", 2, 2) + PAYLOAD[:64] + b"\0",
    "header.bin": b"KFOP\x02\x00",
    "wide.bin": b"KFOP" + struct.pack("<II", 2, 3) + PAYLOAD[:96],
    "wide.json": json.dumps({"shape": [2, 3], "data": [[0.0, 0.0]] * 6}).encode(),
}
NAMES = sorted(MATRICES) + sorted(RAW) + ["missing.bin"]
THREE = re.compile(r"3x3|\(3, ?3\)|diag3\.bin")  # an error about the dimension-3 file

FILE = st.sampled_from(NAMES)
FILES = st.lists(FILE, min_size=1, max_size=2).map(",".join)
K = st.sampled_from(("1", "2"))

# subcommand -> (argv heads, {flag: values}, flags always passed); file
# values are names in the fuzz directory
COMMANDS = {
    "cumulants": ([["cumulants"]], {"--operator": FILE, "--max-order": st.sampled_from(("2", "4"))}, ("--operator",)),
    "channel": (
        [["channel"]],
        {"--k": K, "--dim": st.just("2"), "--mode": st.sampled_from(("exact", "asymptotic")), "--a-ops": FILES},
        ("--k", "--dim", "--a-ops"),
    ),
    "otoc": ([["otoc"]], {"--k": K, "--dim": st.just("2"), "--a-ops": FILES, "--b-ops": FILES}, ("--k", "--a-ops", "--b-ops")),
    "haar-test": (
        [["haar-test"]],
        {"--dim": st.just("2"), "--k": K, "--n-samples": st.just("2"), "--a": FILE, "--b": FILE},
        ("--dim", "--n-samples"),
    ),
    "design-check": (
        [["design-check", "--ensemble", "files"], ["distance", "--ensemble", "files"]],
        {"--k": K, "--unitaries": FILES},
        ("--k", "--unitaries"),
    ),
    "eth-file": (
        [["eth", action] for action in ("build", "timeavg", "appendixb", "cumulant", "freetime", "deutsch")],
        {"--model": FILE, "--obs": FILE.map("A={}".format), "--t-max": st.just("1"), "--n-points": st.just("3"),
         "--k": st.just("1")},
        ("--model", "--n-points", "--k"),
    ),
    "eth-obs": (
        [["eth", action] for action in ("build", "timeavg", "appendixb", "cumulant")],
        {"--model": st.just("goe"), "--dim": st.just("2"), "--obs": FILE.map("A={}".format), "--t-max": st.just("1"),
         "--n-points": st.just("3"), "--k": st.just("1")},
        ("--model", "--dim", "--obs", "--n-points", "--k"),
    ),
}
FILE_FLAGS = ("--operator", "--a-ops", "--b-ops", "--a", "--b", "--unitaries", "--model", "--obs")


@st.composite
def argvs(draw):
    heads, flags, always = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    argv = list(draw(st.sampled_from(heads)))
    for flag, values in flags.items():
        if flag in always or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("operator-files")
    for name, m in MATRICES.items():
        save_operator(root / name, m)
    for name, raw in RAW.items():
        (root / name).write_bytes(raw)
    return root


def in_dir(root, argv):
    """argv with the value of every file flag resolved in `root`."""
    out = list(argv)
    for i, arg in enumerate(argv[:-1]):
        if arg in FILE_FLAGS and argv[i + 1] != "goe":
            name, eq, files = argv[i + 1].rpartition("=")
            out[i + 1] = name + eq + ",".join(str(root / f) for f in files.split(","))
    return out


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argvs())
def test_any_operator_file_exits_0_1_or_2_with_one_line_errors(fuzz_dir, argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = dispatch(in_dir(fuzz_dir, argv))
    # a warning would be stderr lines of its own in a `kfree` process
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
        return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("kfree"), err.getvalue()
    if THREE.search(lines[0]):
        assert any(flag in lines[0] for flag in FILE_FLAGS), lines[0]
