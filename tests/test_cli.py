"""Command-line interface: dispatch, documents, formats, exit codes."""

import argparse
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kfree
from kfree.cli import dispatch
from kfree.matio import load_operator, save_operator
from nc_oracles import moebius_table_pairwise


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_fraction(s):
    if "/" in s:
        p, q = s.split("/")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def test_wg_values(capsys):
    code, out, _ = run(capsys, "wg", "--k", "2", "--dim", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "wg"
    assert doc["version"]
    wg = doc["result"]["weingarten"]
    assert parse_fraction(wg[0][0]) == Fraction(3, 24)
    assert parse_fraction(wg[0][1]) == Fraction(-1, 24)
    gram = doc["result"]["gram"]
    assert [[int(x) for x in row] for row in gram] == [[9, 3], [3, 9]]


def test_nc_count(capsys):
    code, out, _ = run(capsys, "nc", "--n", "4", "--count")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 14


def test_nc_kreweras_listing(capsys):
    code, out, _ = run(capsys, "nc", "--n", "3", "--kreweras")
    doc = json.loads(out)
    assert doc["result"]["count"] == 5
    assert doc["result"]["kreweras"]["{{1,2,3}}"] == "{{1}, {2}, {3}}"


def test_nc_moebius_table_lists_each_interval(monkeypatch, capsys):
    from kfree.partitions import enumerate_nc, leq, moebius_nc

    def refuse(*args):
        raise AssertionError("the Moebius table scanned pairs with leq")

    wants = {}
    for n in range(1, 7):
        parts = enumerate_nc(n)
        wants[n] = {f"{s} <= {p}": moebius_nc(s, p) for s in parts for p in parts if leq(s, p)}
    monkeypatch.setattr(kfree.partitions, "leq", refuse)
    for n, want in wants.items():
        code, out, _ = run(capsys, "nc", "--n", str(n), "--moebius")
        assert code == 0
        assert json.loads(out)["result"]["moebius"] == want


def test_nc_moebius_table_matches_the_pairwise_table(capsys):
    # each interval's key and value, against one Partition and one orbit walk per pair
    for n in range(1, 9):
        code, out, _ = run(capsys, "nc", "--n", str(n), "--moebius")
        assert code == 0
        assert json.loads(out)["result"]["moebius"] == moebius_table_pairwise(n)


def test_perm_report(capsys):
    code, out, _ = run(capsys, "perm", "--perm", "2,3,1", "--geodesic")
    doc = json.loads(out)
    assert doc["result"]["num_cycles"] == 1
    assert doc["result"]["length"] == 2
    assert doc["result"]["nc_image"] == "{{1,2,3}}"
    assert len(doc["result"]["geodesic_set"]) == 5


def test_otoc_traceless_specialization(capsys):
    code, out, _ = run(capsys, "otoc", "--k", "2", "--a-moments", "0,1", "--b-moments", "0.7,1.4")
    assert code == 0
    value = json.loads(out)["result"]["formula"]
    assert abs(value[0] - 0.49) < 1e-12 and abs(value[1]) < 1e-12


def test_channel_exact_values(capsys):
    code, out, _ = run(capsys, "channel", "--k", "2", "--dim", "2", "--mode", "exact", "--moments", "0,1")
    doc = json.loads(out)
    coeffs = doc["result"]["coefficients"]
    assert parse_fraction(coeffs["(1,2)"]) == Fraction(-1, 3)
    assert parse_fraction(coeffs["(2,1)"]) == Fraction(2, 3)


A_MOMENTS = "1/3,7/5,-2/9,11/4,3/7,5/2"
B_MOMENTS = "2/7,4/3,1/5,-5/6,7/9,3/2"


def _cli_coefficients(coeffs):
    """Coefficients as `kfree channel` writes them."""
    out = {}
    for a, c in coeffs.coeffs.items():
        out[str(a)] = f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else [complex(c).real, complex(c).imag]
    return out


def _positional(moments):
    """The moment functional on positional labels, as the library defaults it."""
    from kfree.moments import Expectation

    base = Expectation.from_moment_sequence([Fraction(x) for x in moments.split(",")])
    return Expectation(lambda word: base(("A",) * len(word)), cyclic=True)


def test_channel_and_otoc_moment_documents_equal_positional_library(capsys):
    from kfree.channel import channel_asymptotic, channel_exact, otoc_haar

    phi = _positional(A_MOMENTS)
    for mode, k, D, channel in (("exact", 4, 5, channel_exact), ("asymptotic", 5, 64, channel_asymptotic)):
        code, out, _ = run(capsys, "channel", "--mode", mode, "--k", str(k), "--dim", str(D), "--a-moments=" + A_MOMENTS)
        assert code == 0
        assert json.loads(out)["result"]["coefficients"] == _cli_coefficients(channel(k, D, phi))
    code, out, _ = run(capsys, "otoc", "--k", "4", "--dim", "16", "--a-moments=" + A_MOMENTS, "--b-moments=" + B_MOMENTS)
    assert code == 0
    res = otoc_haar(phi, _positional(B_MOMENTS), 4, D=16)
    doc = json.loads(out)["result"]
    assert complex(*doc["formula"]) == complex(res.formula)
    assert complex(*doc["channel"]) == complex(res.channel)


def test_channel_cli_moments_take_k_cumulants(monkeypatch, capsys):
    import kfree.moments

    calls = []
    original = kfree.moments.free_cumulant
    monkeypatch.setattr(kfree.moments, "free_cumulant", lambda *a: calls.append(a) or original(*a))
    code, _, _ = run(capsys, "channel", "--mode", "asymptotic", "--k", "6", "--dim", "64", "--a-moments=" + A_MOMENTS)
    assert code == 0
    assert len(calls) == 6


def test_channel_ops_labels_follow_the_file_paths(tmp_path, capsys):
    from kfree.channel import channel_asymptotic, channel_exact, otoc_haar, word_functional_from_matrices

    rng = np.random.default_rng(9)
    mats = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in range(3)]
    x, y, z = (str(tmp_path / name) for name in ("x.bin", "y.bin", "z.json"))
    for path, m in zip((x, y, z), mats):
        save_operator(path, m)
    for mode in ("exact", "asymptotic"):
        argv = ["channel", "--mode", mode, "--k", "4", "--dim", "5"]
        _, one, _ = run(capsys, *argv, "--a-ops", x)
        _, four, _ = run(capsys, *argv, "--a-ops", ",".join([x] * 4))
        assert json.loads(one)["result"] == json.loads(four)["result"]

    def close(doc, ref):
        scale = max(abs(complex(*v)) for v in ref.values())
        assert doc.keys() == ref.keys()
        assert all(abs(complex(*doc[a]) - complex(*ref[a])) <= 1e-12 * scale for a in ref)

    phi = word_functional_from_matrices([mats[0], mats[1], mats[0], mats[1]])
    for mode, channel in (("exact", channel_exact), ("asymptotic", channel_asymptotic)):
        code, out, _ = run(capsys, "channel", "--mode", mode, "--k", "4", "--dim", "5", "--a-ops", ",".join([x, y, x, y]))
        assert code == 0
        close(json.loads(out)["result"]["coefficients"], _cli_coefficients(channel(4, 5, phi)))
    code, out, _ = run(capsys, "otoc", "--k", "3", "--dim", "5", "--a-ops", ",".join([x, y, x]), "--b-ops", z)
    assert code == 0
    doc = json.loads(out)["result"]
    res = otoc_haar(word_functional_from_matrices([mats[0], mats[1], mats[0]]), word_functional_from_matrices([mats[2]] * 3), 3, D=5)
    close({"formula": doc["formula"], "channel": doc["channel"]},
          {"formula": [res.formula.real, res.formula.imag], "channel": [res.channel.real, res.channel.imag]})


def test_cumulants_from_moments(capsys):
    code, out, _ = run(capsys, "cumulants", "--moments", "0,1,0,2")
    doc = json.loads(out)
    kappa = doc["result"]["kappa"]
    assert abs(kappa["2"][0] - 1.0) < 1e-12
    assert abs(kappa["4"][0]) < 1e-12


def test_cumulants_from_operator_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6))
    m = m + m.T
    path = tmp_path / "op.json"
    save_operator(path, m)
    code, out, _ = run(capsys, "cumulants", "--operator", str(path), "--max-order", "3")
    doc = json.loads(out)
    assert abs(doc["result"]["kappa"]["1"][0] - np.trace(m) / 6) < 1e-10


def test_operator_roundtrip_binary(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "op.bin"
    save_operator(path, m)
    assert np.allclose(load_operator(path), m)


def test_operator_roundtrip_is_byte_exact_with_signed_zeros(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m[0, :4] = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(1.5, -0.0)]
    for name in ("op.bin", "op.json"):
        save_operator(tmp_path / name, m)
        back = load_operator(tmp_path / name)
        assert back.dtype == np.complex128 and back.shape == m.shape
        assert back.tobytes() == m.tobytes()
    # the payload is the matrix's complex128 bytes, after a 12-byte header
    assert (tmp_path / "op.bin").read_bytes()[12:] == m.astype("<c16").tobytes()


def test_binary_operator_loads_in_one_payload_sized_array(tmp_path):
    D = 512
    path = tmp_path / "big.bin"
    save_operator(path, np.random.default_rng(2).standard_normal((D, D)) + 0j)
    payload = D * D * 16
    tracemalloc.start()
    try:
        m = load_operator(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.shape == (D, D)
    assert peak <= 1.25 * payload, (peak, payload)


def test_design_check_cli(capsys):
    code, out, _ = run(capsys, "design-check", "--ensemble", "clifford", "--k", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["passed"] is True
    code, out, _ = run(capsys, "design-check", "--ensemble", "pauli", "--k", "2")
    assert json.loads(out)["result"]["passed"] is False


def test_distance_cli(capsys):
    code, out, _ = run(
        capsys, "distance", "--ensemble", "hamiltonian", "--k", "1", "--dim", "8",
        "--t-max", "3000", "--n-samples", "500", "--seed", "3",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["distance"] > 1.0


def test_haar_test_cli(capsys):
    code, out, _ = run(capsys, "haar-test", "--dim", "16", "--k", "1", "--n-samples", "200", "--seed", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["n_samples"] == 200
    assert abs(doc["result"]["estimate"][0]) < 0.2


def test_haar_test_below_the_batch_count(tmp_path):
    # fewer samples than the 20 batches: one batch per sample, no empty batch
    out = tmp_path / "doc.json"
    for n in (7, 1):
        code, err = run_process("haar-test", "--dim", "4", "--k", "1", "--n-samples", str(n), "--output", str(out))
        assert code == 0 and err == ""
        result = json.loads(out.read_text())["result"]
        assert result["n_samples"] == n
        if n > 1:
            assert 0 < result["std_error"] < float("inf")
        else:
            assert result["std_error"] is None and '"std_error": null' in out.read_text()


def test_eth_build_and_cumulant(tmp_path, capsys):
    code, out, _ = run(capsys, "eth", "build", "--model", "goe", "--dim", "64", "--seed", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["dim"] == 64
    assert doc["result"]["observables"] == ["A", "B"]

    csv_path = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys, "eth", "cumulant", "--model", "goe", "--dim", "32", "--seed", "2",
        "--k", "1", "--t-max", "2.0", "--n-points", "5", "--format", "csv",
        "--output", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,real,imag,std_error"
    assert len(lines) == 6


def test_eth_build_takes_eigenvalues_only(tmp_path, monkeypatch, capsys):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eth build must not compute eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    rng = np.random.default_rng(9)
    h = rng.standard_normal((16, 16))
    save_operator(tmp_path / "h.bin", h + h.T)
    save_operator(tmp_path / "o.bin", np.diag(np.arange(16.0)))
    models = {
        "goe": (["--model", "goe", "--dim", "16"], ["A", "B"]),
        "ising": (["--model", "ising", "--length", "4"], ["sx_mid", "sz_mid"]),
        "file": (["--model", str(tmp_path / "h.bin")], []),
    }
    for argv, names in models.values():
        for obs in ([], ["--obs", f"X={tmp_path / 'o.bin'}", "--obs", f"A={tmp_path / 'o.bin'}"]):
            code, out, err = run(capsys, "eth", "build", *argv, *obs)
            assert code == 0, err
            doc = json.loads(out)["result"]
            assert doc["dim"] == 16
            assert doc["observables"] == sorted(set(names) | ({"A", "X"} if obs else set()))


def test_eth_build_matches_models_built_with_eigh(capsys):
    from kfree.eth import goe_model, ising_model, level_spacing_ratio, resonance_report

    for argv, model in ((["--model", "goe", "--dim", "48", "--seed", "3"], goe_model(48, seed=3)),
                        (["--model", "ising", "--length", "5"], ising_model(5))):
        code, out, _ = run(capsys, "eth", "build", *argv, "--seed", "3")
        doc = json.loads(out)["result"]
        width = model.spectral_width()
        assert doc["provenance"] == model.provenance
        assert doc["observables"] == sorted(model.observables)
        assert abs(doc["spectral_width"] - width) <= 1e-12 * width
        assert abs(doc["level_spacing_ratio"] - level_spacing_ratio(model.energies)) <= 1e-10
        assert doc["resonances"]["near_resonances"] == resonance_report(model.energies, seed=3)["near_resonances"]


def test_eth_build_writes_valid_json_below_three_levels(tmp_path, capsys):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    for D in (1, 2, 3):
        path = tmp_path / f"h{D}.json"
        save_operator(path, np.diag([1.0, 2.0, 4.0][:D]))
        code, out, _ = run(capsys, "eth", "build", "--model", str(path))
        assert code == 0
        ratio = json.loads(out, parse_constant=reject)["result"]["level_spacing_ratio"]
        assert ratio == (None if D < 3 else 0.5)


def test_eth_build_degenerate_spectrum_writes_null_ratio(tmp_path):
    # every central gap of a 4 x 4 identity is 0: no ratio, and no 0/0 warning
    path, out = tmp_path / "eye4.json", tmp_path / "eye4-doc.json"
    save_operator(path, np.eye(4))
    code, err = run_process("eth", "build", "--model", str(path), "--output", str(out))
    assert (code, err) == (0, "")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    assert json.loads(out.read_text(), parse_constant=reject)["result"]["level_spacing_ratio"] is None


def test_non_finite_json_document_exits_1_without_output(tmp_path, capsys, monkeypatch):
    import kfree.eth

    path, out = tmp_path / "h3.json", tmp_path / "doc.json"
    save_operator(path, np.diag([1.0, 2.0, 4.0]))
    monkeypatch.setattr(kfree.eth, "level_spacing_ratio", lambda energies: float("nan"))
    code, _, err = run(capsys, "eth", "build", "--model", str(path), "--output", str(out))
    assert_validation_exit(code, err)
    assert not out.exists()


def test_result_values_are_checked_below_plain_containers(capsys):
    from kfree.cli import _emit, _jsonable

    args = argparse.Namespace(format="json")
    for bad in (float("inf"), np.float64("nan"), float("-inf")):
        containers = ({"x": [1, bad]}, {"x": {"y": bad}}, [["a"], [bad]], {"x": ["a", bad, "b"]}, {"x": {"y": 1, "z": bad}})
        for result in containers:
            with pytest.raises(ValueError, match="non-finite"):
                _emit(args, "test", result)
            assert capsys.readouterr().out == ""
    got = _jsonable({"b": [True, False], "n": [np.int64(3), 4], "m": {"k": np.uint8(7)}, "s": ["a", None]})
    assert got == {"b": [True, False], "n": [3, 4], "m": {"k": 7}, "s": ["a", None]}
    assert [type(x) for x in got["b"] + got["n"]] == [bool, bool, int, int] and type(got["m"]["k"]) is int
    table = {"{1}": 1, "{1,2}": -1, "note": None}
    assert _jsonable(table) is table  # a str-keyed dict of plain values is not copied
    assert _jsonable({1: 2, "x": True}) == {"1": 2, "x": True}


def test_discrete_ensembles_report_their_own_size(capsys):
    for command in ("distance", "design-check"):
        code, out, _ = run(capsys, command, "--ensemble", "clifford", "--k", "2")
        result = json.loads(out)["result"]
        assert code == 0
        assert (result["n_samples"], result["dim"]) == (24, 2)
    # a time window is averaged exactly: no members, like Haar
    code, out, _ = run(capsys, "distance", "--ensemble", "hamiltonian", "--k", "1", "--dim", "6",
                       "--n-samples", "40", "--t-max", "50")
    result = json.loads(out)["result"]
    assert (result["n_samples"], result["dim"]) == (None, 6)


def test_hamiltonian_ensemble_runs_at_dim_1(capsys):
    # the ensemble is built from the Hamiltonian alone: no 1 x 1 observable is normalized
    code, out, _ = run(capsys, "distance", "--ensemble", "hamiltonian", "--k", "1", "--dim", "1")
    assert code == 0 and json.loads(out)["result"]["distance"] == 0.0
    code, out, _ = run(capsys, "design-check", "--ensemble", "hamiltonian", "--k", "2", "--dim", "1")
    assert code == 0 and json.loads(out)["result"]["max_deviation"] == 0.0


def test_time_window_documents_ignore_n_samples(capsys):
    # --n-samples is still accepted and checked, but the window is exact
    argv = ["distance", "--ensemble", "hamiltonian", "--k", "2", "--dim", "16", "--t-max", "5000", "--seed", "3"]
    blocks = []
    for n in ("10", "3000"):
        code, out, _ = run(capsys, *argv, "--n-samples", n)
        assert code == 0
        blocks.append(json.dumps(json.loads(out)["result"], sort_keys=True))
    assert blocks[0] == blocks[1]


def test_eth_timeavg_cli(capsys):
    code, out, _ = run(capsys, "eth", "timeavg", "--model", "goe", "--dim", "48", "--seed", "7", "--k", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["mode"] == "infinite"
    assert abs(doc["result"]["value"][0]) < 0.05


def test_exit_codes():
    assert dispatch(["wg", "--k", "3", "--dim", "2"]) == 2
    assert dispatch(["channel", "--mode", "exact", "--k", "3", "--dim", "2", "--a-moments", "1,2,3"]) == 2
    assert dispatch(["otoc", "--k", "3", "--dim", "2", "--a-moments", "1,2,3", "--b-moments", "1,2,3"]) == 2
    assert dispatch(["nc", "--n", "99"]) == 1
    assert dispatch(["nonexistent-command"]) == 1
    assert dispatch(["wg", "--k", "2"]) == 1  # missing required --dim


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["haar-test", "--dim", "8", "--k", "1", "--n-samples", "50", "--seed", "11"]
    assert dispatch(argv + ["--output", str(out1)]) == 0
    assert dispatch(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nn = 4\ncount = true\n")
    code, out, _ = run(capsys, "nc", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["result"]["count"] == 14
    # explicit flag overrides the config value
    code, out, _ = run(capsys, "nc", "--config", str(cfg), "--n", "5")
    assert json.loads(out)["result"]["count"] == 42


def test_text_format(capsys):
    code, out, _ = run(capsys, "nc", "--n", "3", "--count", "--format", "text")
    assert code == 0
    assert "count = 5" in out


def run_process(*argv):
    """Run the CLI as its own interpreter, so an escaping exception shows as a traceback."""
    src = str(Path(kfree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "kfree.cli", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def assert_validation_exit(code, err):
    assert code == 1
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_malformed_operator_files_exit_1(tmp_path):
    payload = np.zeros(12, dtype="<f8").tobytes()
    files = {
        "short.bin": b"KFOP\x02\x00\x00",
        "magic-only.bin": b"KFOP",
        "wide.bin": b"KFOP" + struct.pack("<II", 2, 3) + payload,
        "empty.bin": b"KFOP" + struct.pack("<II", 0, 0),
        "wide.json": json.dumps({"shape": [2, 3], "data": [[0.0, 0.0]] * 6}).encode(),
        "cube.json": json.dumps({"shape": [2, 2, 2], "data": [[0.0, 0.0]] * 8}).encode(),
        "short.json": json.dumps({"shape": [2, 2], "data": [[0.0, 0.0]] * 3}).encode(),
        "text.json": json.dumps({"shape": [1, 1], "data": [["1", "0"]]}).encode(),
        "list.json": json.dumps([1, 1]).encode(),
        "truncated.bin": b"KFOP" + struct.pack("<II", 2, 2) + payload[:56],
        "oversized.bin": b"KFOP" + struct.pack("<II", 2, 2) + payload[:64] + b"\0",
        # an integer no float can hold, and booleans, are not numbers
        "huge.json": b'{"shape": [1, 1], "data": [[1' + b"0" * 400 + b', 0]]}',
        "bool.json": json.dumps({"shape": [1, 1], "data": [[True, False]]}).encode(),
    }
    pair_message = "data entries must be [re, im] number pairs"
    for name, raw in files.items():
        path = tmp_path / name
        path.write_bytes(raw)
        for argv in (["cumulants", "--operator", str(path), "--max-order", "2"], ["eth", "build", "--model", str(path)]):
            code, err = run_process(*argv)
            assert_validation_exit(code, err)
            assert name in err
            if name in ("huge.json", "bool.json"):
                assert pair_message in err


def test_invalid_operator_contents_exit_1(tmp_path):
    nan = np.eye(2, dtype=complex)
    nan[0, 1] = np.nan
    skew = np.eye(3, dtype=complex)
    skew[0, 1] = 0.5
    for name, m in {"u2.json": np.eye(2), "u3.bin": np.eye(3), "double.json": 2 * np.eye(2), "nan.bin": nan,
                    "skew.bin": skew}.items():
        save_operator(tmp_path / name, m)
    files = ["design-check", "--ensemble", "files", "--k", "1", "--unitaries"]
    cases = [
        (files + [str(tmp_path / "double.json")], "not unitary"),
        (files + [f"{tmp_path / 'u2.json'},{tmp_path / 'nan.bin'}"], "non-finite"),
        (files + [f"{tmp_path / 'u2.json'},{tmp_path / 'u3.bin'}"], "shape"),
        (["eth", "build", "--model", str(tmp_path / "nan.bin")], "non-finite"),
        (["eth", "build", "--model", str(tmp_path / "skew.bin")], "Hermitian"),
    ]
    for argv, message in cases:
        code, err = run_process(*argv)
        assert_validation_exit(code, err)
        assert message in err


def test_eth_obs_shape_mismatch_exits_1(tmp_path):
    save_operator(tmp_path / "h.json", np.diag([1.0, 2.0, 4.0]))
    save_operator(tmp_path / "o.json", np.eye(2))
    for action in ("build", "cumulant"):
        argv = ["eth", action, "--model", str(tmp_path / "h.json"), "--obs", f"X={tmp_path / 'o.json'}", "--t-max", "1"]
        code, err = run_process(*argv)
        assert_validation_exit(code, err)
        assert "--obs X" in err and "3x3" in err


def test_operator_dimension_must_match_dim(tmp_path):
    save_operator(tmp_path / "a2.json", np.diag([1.0, -1.0]))
    save_operator(tmp_path / "a3.json", np.diag([1.0, 0.0, -1.0]))
    cases = [
        (["channel", "--mode", "exact", "--k", "2", "--dim", "3", "--a-ops", str(tmp_path / "a2.json")], "--a-ops"),
        (["otoc", "--k", "2", "--dim", "3", "--a-ops", str(tmp_path / "a3.json"),
          "--b-ops", str(tmp_path / "a2.json")], "--b-ops"),
        (["haar-test", "--dim", "3", "--n-samples", "2", "--a", str(tmp_path / "a2.json")], "--a:"),
        (["haar-test", "--dim", "3", "--n-samples", "2", "--a", str(tmp_path / "a3.json"),
          "--b", str(tmp_path / "a2.json")], "--b:"),
    ]
    for argv, flag in cases:
        code, err = run_process(*argv)
        assert_validation_exit(code, err)
        assert flag in err and "--dim" in err and "a2.json is 2x2" in err


def test_boundary_errors_name_the_flag(tmp_path):
    for name in ("u1.json", "u2.json"):
        save_operator(tmp_path / name, np.eye(2))
    save_operator(tmp_path / "narrow.json", np.diag([0.0, 1e-310]))
    save_operator(tmp_path / "huge.json", np.diag([1e200, -1e200]))  # its square overflows
    save_operator(tmp_path / "shear.json", np.array([[1.0, 2.0], [0.0, 1.0]]))  # not unitary
    a2, a3 = str(tmp_path / "u1.json"), str(tmp_path / "a3.json")
    save_operator(a3, np.diag([1.0, 0.0, -1.0]))
    flat = ["--model", str(tmp_path / "u1.json"), "--obs", f"A={tmp_path / 'u2.json'}"]  # H = I: zero width
    narrow = ["--model", str(tmp_path / "narrow.json"), "--obs", f"A={tmp_path / 'u2.json'}"]  # 40 / width overflows
    files = ["design-check", "--ensemble", "files", "--k", "1", "--unitaries",
             f"{tmp_path / 'u1.json'},{tmp_path / 'u2.json'}"]
    one_file = ["distance", "--ensemble", "files", "--k", "1", "--unitaries", str(tmp_path / "u1.json")]
    cases = [
        (["eth", "timeavg", "--model", "goe", "--dim", "8", "--k", "0"], "--k must be positive"),
        (["distance", "--ensemble", "hamiltonian", "--k", "2", "--dim", "0"], "--dim must be positive"),
        (["eth", "build", "--model", "goe", "--dim", "0"], "--dim must be positive"),
        (["eth", "cumulant", "--model", "goe", "--dim", "8"], "--t-max"),
        (["eth", "build", "--model", "ising", "--length", "0"], "--length must be positive"),
        (["design-check", "--ensemble", "haar", "--k", "0"], "--k must be positive"),
        (["eth", "freetime", "--model", "goe", "--dim", "8", "--t-max", "-1", "--n-points", "3"],
         "--t-max must be > 0 (got -1.0)"),
        (["eth", "timeavg", "--model", "goe", "--dim", "8", "--t-max", "0"], "--t-max must be > 0 (got 0.0)"),
        (["eth", "appendixb", "--model", "goe", "--dim", "8", "--t-max", "-2"], "--t-max must be > 0"),
        (["eth", "deutsch", "--model", "goe", "--dim", "8", "--lambdas", "1,x"], "--lambdas"),
        (["eth", "deutsch", "--model", "goe", "--dim", "8", "--lambdas", "1,nan"], "--lambdas"),
        (["eth", "deutsch", "--model", "goe", "--dim", "8", "--lambdas", "1,,2"], "--lambdas"),
        (files + ["--probs", "1,nan"], "--probs"),
        (files + ["--probs", "1,x"], "--probs"),
        (files + ["--probs", "0.5"], "--probs 0.5: 1 probabilities for 2 unitaries"),
        (files + ["--probs", "0.7,0.7"], "--probs 0.7,0.7: probabilities must sum to 1"),
        (one_file + ["--probs", "-1"], "--probs -1: probabilities must be nonnegative"),
        (files[:-1] + [f"{tmp_path / 'u1.json'},{tmp_path / 'shear.json'}"],
         f"--unitaries: {tmp_path / 'shear.json'}: unitary 1 is not unitary"),
        (["haar-test", "--dim", "1", "--n-samples", "2"], "--dim 1: a 1x1 observable"),
        (["eth", "timeavg", "--model", "goe", "--dim", "1"], "--dim 1: a 1x1 observable"),
        (["eth", "cumulant", "--model", "goe", "--dim", "1", "--t-max", "1"], "--dim 1: a 1x1 observable"),
        (["cumulants", "--moments", "1e200,1e300"], "--moments: the free cumulants up to order 2 leave the float range"),
        (["cumulants", "--operator", str(tmp_path / "huge.json"), "--max-order", "3"],
         f"--operator {tmp_path / 'huge.json'}: the free cumulants up to order 3 leave the float range"),
        (["otoc", "--k", "2", "--a-moments", "1e200,1e300", "--b-moments", "1,2"],
         "--a-moments/--b-moments: the 4-OTOC leaves the float range"),
        (["otoc", "--k", "2", "--dim", "4", "--a-moments", "1,2", "--b-moments", "1e200,1e300"],
         "--a-moments/--b-moments: the 4-OTOC leaves the float range"),
        (["otoc", "--k", "2", "--dim", "2", "--a-ops", str(tmp_path / "huge.json"), "--b-moments", "0,1"],
         "--a-ops/--b-moments: the 4-OTOC leaves the float range"),
        (["otoc", "--k", "2", "--a-ops", a2, "--b-ops", a3], f"--b-ops: {a3} is 3x3, but --a-ops {a2} is 2x2"),
        (["otoc", "--k", "2", "--a-ops", f"{a2},{a3}", "--b-moments", "1,2"],
         f"--a-ops: {a3} is 3x3, but --a-ops {a2} is 2x2"),
        (["otoc", "--k", "2", "--a-moments", "1,2", "--b-ops", f"{a3},{a2}"],
         f"--b-ops: {a2} is 2x2, but --b-ops {a3} is 3x3"),
        (["channel", "--mode", "asymptotic", "--k", "-2", "--dim", "4", "--a-moments", "1,2"], "--k must be positive"),
        (["channel", "--mode", "asymptotic", "--k", "2", "--dim", "0", "--a-moments", "1,2"], "--dim must be positive"),
        (["channel", "--mode", "asymptotic", "--k", "2", "--dim", "-2", "--a-moments", "1,2"], "--dim must be positive"),
        (["channel", "--mode", "exact", "--k", "2", "--dim", "0", "--a-moments", "1,2"], "--dim must be positive"),
        (["otoc", "--k", "2", "--dim", "0", "--a-moments", "1,2", "--b-moments", "1,2"], "--dim must be positive"),
        (["otoc", "--k", "2", "--dim", "-1", "--a-moments", "1,2", "--b-moments", "1,2"], "--dim must be positive"),
        (["otoc", "--k", "0", "--a-moments", "1,2", "--b-moments", "1,2"], "--k must be positive"),
        (["cumulants", "--moments", "1,x"], "--moments: entry 'x'"),
        (["cumulants", "--moments", "1,nan"], "--moments: entry 'nan'"),
        (["cumulants", "--moments", "1,inf,2"], "--moments: entry 'inf'"),
        (["channel", "--k", "2", "--dim", "2", "--a-moments", "0,-inf"], "--a-moments: entry '-inf'"),
        (["otoc", "--k", "2", "--a-moments", "0,1", "--b-moments", "0,1/0"], "--b-moments: entry '1/0'"),
        (["cumulants", "--moments", "1,2", "--max-order", "-1"], "--max-order must be positive"),
        (["cumulants", "--moments", "1,2", "--max-order", "0"], "--max-order must be positive"),
        (["wg", "--k", "8", "--dim", "8"], "--k must be at most 6"),
        (["wg", "--k", "7", "--dim", "7"], "--k must be at most 6 (got 7)"),
        (["channel", "--mode", "asymptotic", "--k", "11", "--dim", "40", "--moments", "0,1"],
         "--k must be at most 9 for --mode asymptotic (got 11)"),
        (["channel", "--mode", "asymptotic", "--k", "10", "--dim", "40", "--moments", "0,1"], "--k must be at most 9"),
        (["channel", "--mode", "exact", "--k", "9", "--dim", "9", "--moments", "0,1"],
         "--k must be at most 8 for --mode exact (got 9)"),
        (["otoc", "--k", "9", "--dim", "9", "--a-moments", "0,1", "--b-moments", "0,1"], "--k must be at most 8 with --dim"),
        (["otoc", "--k", "11", "--a-moments", "0,1", "--b-moments", "0,1"], "--k 11 asks for NC(11)"),
        (["eth", "timeavg", "--model", "goe", "--dim", "8", "--k", "7"], "--k must be at most 6 for the infinite window"),
        (["eth", "timeavg", "--model", "goe", "--dim", "8", "--k", "9"], "--k must be at most 6"),
        (["eth", "timeavg", "--t-max", "5", "--k", "6", "--dim", "8"], "--k must be at most 4 for a finite window at D = 8"),
        (["eth", "cumulant", "--model", "goe", "--dim", "8", "--t-max", "1e308", "--n-points", "3"],
         "--t-max 1e+308 puts the phases E t past the float range"),
        (["eth", "freetime", "--model", "goe", "--dim", "8", "--t-max", "1e308", "--n-points", "3"], "--t-max 1e+308"),
        (["eth", "deutsch", "--model", "goe", "--dim", "8", "--strength", "1e308"], "--strength 1e+308"),
        (["eth", "deutsch", "--model", "goe", "--dim", "8", "--lambdas", "1e308,1"], "--lambdas entry 1e+308"),
        (["eth", "freetime", "--model", "goe", "--dim", "8", "--t-max", "-1e-3", "--n-points", "3"],
         "--t-max must be > 0 (got -0.001)"),
        (["cumulants", "--moments", "-1,nan"], "--moments: entry 'nan'"),
        (["otoc", "--k", "2", "--a-moments", "-1,1/0", "--b-moments", "0,1"], "--a-moments: entry '1/0'"),
        (["eth", "freetime", *flat], "the spectral width 0 sets no default grid (up to 40/width); pass --t-max"),
        (["eth", "freetime", *narrow], "the spectral width 1e-310 sets no default grid"),
        (["nc", "--n", "3", "--config"], "argument --config: expected one argument"),
        (["perm", "--perm", "a,b"], "--perm a,b: "),
        (["perm", "--perm", "1,1"], "--perm 1,1: not a permutation"),
        (["design-check", "--ensemble", "bogus", "--k", "1"], "argument --ensemble: invalid choice"),
        (["distance", "--ensemble", "bogus", "--k", "1"], "argument --ensemble: invalid choice"),
        (["eth", "build", "--dim", "8", "--format", "csv"], "--format csv is only for tabular results"),
        (["eth", "timeavg", "--dim", "8", "--obs", "X"], "bad --obs 'X'; want NAME=path"),
        (["design-check", "--ensemble", "files", "--k", "1"], "--unitaries required for --ensemble files"),
        (["cumulants"], "need --moments or --operator"),
        (["channel", "--k", "2", "--dim", "2"], "need --a-ops or --a-moments"),
        (["otoc", "--k", "2", "--a-moments", "0,1"], "need --b-ops or --b-moments"),
    ]
    for argv, message in cases:
        code, err = run_process(*argv)
        assert_validation_exit(code, err)
        assert message in err


def test_csv_is_refused_before_any_work(monkeypatch, capsys):
    from kfree import ensembles

    def no_sampling(*_):
        raise AssertionError("a Haar sample was drawn")

    monkeypatch.setattr(ensembles, "sample_haar", no_sampling)
    code, out, err = run(capsys, "haar-test", "--dim", "4", "--k", "1", "--n-samples", "2", "--format", "csv")
    assert (code, out) == (1, "")
    assert "--format csv is only for tabular results" in err


def test_negative_values_in_exponent_or_list_form_are_values(capsys):
    # argparse alone takes -1e-3 or -1,2 after a flag for a flag of its own
    cases = [
        (["eth", "timeavg", "--model", "goe", "--dim", "8", "--k", "1"], "--beta", "-1e-3"),
        (["cumulants"], "--moments", "-1,2"),
        (["otoc", "--k", "2", "--b-moments", "0,1"], "--a-moments", "-1,2"),
    ]
    for head, flag, value in cases:
        code, out, err = run(capsys, *head, flag, value)
        assert (code, err) == (0, "")
        assert run(capsys, *head, f"{flag}={value}") == (0, out, "")


def test_exact_moments_past_the_float_range_exit_1():
    """An exact moment no float can hold stays exact in a `channel` document,
    and where a document needs its float value the run exits 1 in one line."""
    code, err = run_process("cumulants", "--moments", "1,1e999")
    assert_validation_exit(code, err)
    assert "--moments: the free cumulants up to order 2 leave the float range" in err
    code, err = run_process("channel", "--k", "1", "--dim", "2", "--moments", "1e999")
    assert (code, err) == (0, "")


def test_finite_window_byte_budget_refuses_in_one_line(monkeypatch, capsys):
    """The windowed average's byte budget, patched small: `appendixb` refuses
    a window over budget before any amplitude exists, naming --t-max and
    --dim, and `timeavg` lowers its --k limit; under budget both run."""
    from kfree import eth

    monkeypatch.setattr(eth, "WINDOW_BYTES_CAP", eth.window_bytes(8, 4) - 1)
    monkeypatch.setattr(eth, "_windowed_chain_sum", lambda *a: pytest.fail("a window over budget was evaluated"))
    code, out, err = run(capsys, "eth", "appendixb", "--model", "goe", "--dim", "8", "--t-max", "1")
    assert_validation_exit(code, err)
    assert out == "" and "--t-max" in err and "--dim" in err and "GiB budget" in err
    code, out, err = run(capsys, "eth", "timeavg", "--model", "goe", "--dim", "8", "--t-max", "1", "--k", "2")
    assert_validation_exit(code, err)
    assert "--k must be at most 1 for a finite window at D = 8 (got 2)" in err
    monkeypatch.undo()
    monkeypatch.setattr(eth, "WINDOW_BYTES_CAP", eth.window_bytes(8, 4))
    for argv in (["appendixb"], ["timeavg", "--k", "2"]):
        code, _, err = run(capsys, "eth", *argv, "--model", "goe", "--dim", "8", "--t-max", "1")
        assert (code, err) == (0, "")


def test_k_limits_refused_before_any_table(capsys):
    # the permutation, Weingarten and slot-partition tables stay empty
    from kfree import eth, weingarten

    for cache in (weingarten.weingarten_table, eth._restricted_coeffs, eth._balanced_weight):
        cache.cache_clear()
    for argv in (["channel", "--mode", "exact", "--k", "9", "--dim", "9", "--moments", "0,1"],
                 ["otoc", "--k", "9", "--dim", "9", "--a-moments", "0,1", "--b-moments", "0,1"],
                 ["eth", "timeavg", "--model", "goe", "--dim", "8", "--k", "9"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("kfree: --k")
    for cache in (weingarten.weingarten_table, eth._restricted_coeffs, eth._balanced_weight):
        assert cache.cache_info().currsize == 0


def test_float_extremes_give_a_finite_document(capsys):
    # a window, thermal weight or kernel at the end of the float range takes
    # its limit: no warning, exit 0 and a JSON document of finite numbers
    goe = ["--model", "goe", "--dim", "8"]
    hamiltonian = ["--ensemble", "hamiltonian", "--dim", "4"]
    cases = [[cmd, *hamiltonian, *rest] for cmd in ("distance", "design-check")
             for rest in (["--k", "1", "--t-max", "1e308"], ["--k", "2", "--t-max", "1e-310"])]
    cases += [["eth", action, *goe, "--t-max", t] for action in ("timeavg", "appendixb") for t in ("1e308", "1e-320")]
    cases += [["eth", "timeavg", *goe, "--beta", "1e308"], ["eth", "timeavg", *goe, "--beta=-1e308"]]
    for argv in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert (code, err, caught) == (0, "", []), argv
        json.loads(out)


def test_wg_k7_refused_before_any_table(capsys):
    # k = 7's 5040 x 5040 lists would need about 9 GB; nothing may be built first
    from kfree.weingarten import _group_index, weingarten_table

    _group_index.cache_clear()
    weingarten_table.cache_clear()
    code, out, err = run(capsys, "wg", "--k", "7", "--dim", "7")
    assert code == 1
    assert err.strip().endswith("--k must be at most 6 (got 7)")
    assert _group_index.cache_info().currsize == 0
    assert weingarten_table.cache_info().currsize == 0


def test_non_positive_sizes_exit_1():
    haar = ["haar-test", "--k", "1"]
    hamiltonian = ["distance", "--ensemble", "hamiltonian", "--k", "1", "--dim", "4"]
    cases = [
        haar + ["--dim", "0"],
        haar + ["--dim", "-3"],
        haar + ["--dim", "8", "--n-samples", "0"],
        haar + ["--dim", "8", "--n-samples", "-1"],
        hamiltonian + ["--n-samples", "0"],
    ]
    for argv in cases:
        code, err = run_process(*argv)
        assert_validation_exit(code, err)
        assert "must be positive" in err


def test_unknown_observable_names_the_flag():
    goe = ["eth", "timeavg", "--model", "goe", "--dim", "8"]
    for flag in ("--obs-a", "--obs-b"):
        code, err = run_process(*goe, flag, "Z")
        assert_validation_exit(code, err)
        assert f"{flag}: unknown observable 'Z'" in err
        assert "known: A, B" in err


def test_non_finite_floats_exit_1():
    goe = ["--model", "goe", "--dim", "8"]
    cases = [
        (["eth", "timeavg", *goe, "--t-max", "nan"], "--t-max"),
        (["eth", "appendixb", *goe, "--beta", "inf"], "--beta"),
        (["eth", "cumulant", *goe, "--t-max", "inf", "--n-points", "2"], "--t-max"),
        (["eth", "deutsch", *goe, "--strength=-inf"], "--strength"),
        (["eth", "freetime", *goe, "--threshold", "nan", "--n-points", "3"], "--threshold"),
        (["distance", "--ensemble", "hamiltonian", "--k", "1", "--dim", "4", "--t-max", "inf"], "--t-max"),
        (["distance", "--ensemble", "hamiltonian", "--k", "1", "--dim", "4", "--t-max", "nan"], "--t-max"),
        (["distance", "--ensemble", "hamiltonian", "--k", "1", "--dim", "4", "--t-max", "1e309"], "--t-max"),
        (["design-check", "--ensemble", "hamiltonian", "--k", "1", "--dim", "4", "--t-max", "inf"], "--t-max"),
        (["design-check", "--ensemble", "pauli", "--k", "1", "--tolerance", "nan"], "--tolerance"),
    ]
    for argv, flag in cases:
        code, err = run_process(*argv)
        assert_validation_exit(code, err)
        assert f"{flag} must be finite" in err


def test_flag_domains_hold_where_the_action_ignores_the_flag(capsys):
    # checked once after parsing, on every subcommand that has the flag
    cases = [
        (["eth", "build", "--model", "goe", "--dim", "8", "--k", "0"], "--k must be positive (got 0)"),
        (["eth", "build", "--model", "ising", "--length", "3", "--dim", "-1"], "--dim must be positive (got -1)"),
        (["eth", "deutsch", "--model", "goe", "--dim", "8", "--t-max", "inf"], "--t-max must be finite (got inf)"),
        (["design-check", "--ensemble", "pauli", "--k", "1", "--dim", "0"], "--dim must be positive (got 0)"),
        (["distance", "--ensemble", "pauli", "--k", "1", "--n-samples", "0"], "--n-samples must be positive (got 0)"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"kfree: {message}"]


def test_parser_errors_are_one_line(capsys):
    cases = [
        ["nc", "--n", "x"],
        ["channel", "--k", "2", "--dim", "2", "--mode", "foo", "--moments", "0,1"],
        ["wg", "--k", "2"],
        ["distance", "--k", "2"],
        ["haar-test", "--dim", "4", "--bogus"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("kfree") and ": error: " in err


def test_distance_beyond_the_float_range_exits_2():
    # the window kernel would span D^(2k) pairs of level tuples, far past its cap
    # (and the frame potential past 1.8e308 at k = 120, k! at k = 171)
    for k in ("120", "171"):
        code, err = run_process("distance", "--ensemble", "hamiltonian", "--k", k, "--dim", "200", "--n-samples", "10")
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert f"k={k}, D=200" in err


def test_one_level_observables_exit_1():
    # the Hamiltonian ensemble reads no observable: `test_hamiltonian_ensemble_runs_at_dim_1`
    for argv in (["eth", "timeavg", "--model", "goe", "--dim", "1"],
                 ["haar-test", "--dim", "1", "--k", "1", "--n-samples", "2"]):
        code, err = run_process(*argv)
        assert_validation_exit(code, err)
        assert "no traceless part" in err


def test_nc_and_moment_limits_name_the_flag(capsys):
    cases = [
        (["haar-test", "--dim", "2", "--k", "9"], "--k 9 asks for NC(18)"),
        (["eth", "cumulant", "--model", "goe", "--dim", "4", "--k", "9", "--t-max", "1"], "--k 9 asks for NC(18)"),
        (["cumulants", "--moments", "0,1,0,2,0,5,0,14,0,42,0"], "--moments (11 moments) asks for NC(11)"),
        (["cumulants", "--moments", "0,1", "--max-order", "10"], "--moments gives 2 moments, but order 10 is needed"),
        (["otoc", "--k", "3", "--a-moments", "0,1", "--b-moments", "0,1,0"], "--a-moments gives 2 moments"),
        (["nc", "--n", "11", "--moebius"], "--n 11 asks for NC(11)"),
        (["otoc", "--k", "3", "--a-moments", "0,1,0", "--b-moments", "0,1"], "--b-moments gives 2 moments"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and message in err
        assert "'" not in err  # not the str() of a KeyError


def test_eth_dimension_cap_is_checked_before_any_matrix(monkeypatch, capsys):
    from kfree import eth

    def refuse(*args, **kwargs):
        raise AssertionError("a model matrix was built past the dimension cap")

    for name in ("goe_matrix", "ising_hamiltonian", "goe_model", "ising_model"):
        monkeypatch.setattr(eth, name, refuse)
    cases = [
        (["eth", "build", "--model", "ising", "--length", "13"], "--length 13 gives dimension 2^13, past the cap 4096"),
        (["eth", "build", "--model", "goe", "--dim", "5000"], "--dim 5000 exceeds the dimension cap 4096"),
        (["eth", "timeavg", "--model", "ising", "--length", "64"], "--length 64"),
        (["eth", "appendixb", "--model", "goe", "--dim", "4097"], "--dim 4097"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and message in err
