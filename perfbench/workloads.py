"""The three benchmark workloads: seeded inputs, the steps one run executes,
and why each exists (README.md has the measured costs).

A workload is built once per benchmark invocation by `build(name, seed,
work)`, which writes every input file under `work` and returns a JSON-able
spec.  `child.py` executes `spec["steps"]` in a fresh interpreter; each step
writes one result document, which checks.py judges afterwards.

Sizes are chosen so one run takes a few seconds on a 2-core machine; README.md
lists the larger cases left out and why.
"""

from __future__ import annotations

import json
import math
import random
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("exact-algebra", "haar-mc", "eth-spectral")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _write_bin(path: Path, m: np.ndarray) -> None:
    """KFOP operator file: magic, uint32 rows/cols, interleaved float64 re/im."""
    m = np.asarray(m, dtype=complex)
    inter = np.empty(m.size * 2, dtype="<f8")
    inter[0::2] = m.real.reshape(-1)
    inter[1::2] = m.imag.reshape(-1)
    path.write_bytes(b"KFOP" + struct.pack("<II", *m.shape) + inter.tobytes())


def _write_json(path: Path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=complex)
    data = [[float(x.real), float(x.imag)] for x in m.reshape(-1)]
    path.write_text(json.dumps({"shape": list(m.shape), "data": data}))


def _goe(rng, D: int) -> np.ndarray:
    a = rng.standard_normal((D, D))
    return (a + a.T) / 2.0


def read_operator(path) -> np.ndarray:
    """Read back an operator file written by `_write_bin` or `_write_json`."""
    path = Path(path)
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        flat = np.array(doc["data"], dtype=float)
        return (flat[:, 0] + 1j * flat[:, 1]).reshape(doc["shape"])
    raw = path.read_bytes()
    rows, cols = struct.unpack("<II", raw[4:12])
    inter = np.frombuffer(raw[12:], dtype="<f8")
    return (inter[0::2] + 1j * inter[1::2]).reshape(rows, cols)


def _observable(rng, D: int) -> np.ndarray:
    """Traceless GOE draw with unit normalized second moment."""
    m = _goe(rng, D)
    m -= np.trace(m) / D * np.eye(D)
    return m / math.sqrt(np.trace(m @ m) / D)


def _rationals(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


def _fmt(xs) -> str:
    return ",".join(str(x) for x in xs)


def _cli(name: str, argv: list[str], work: Path) -> dict:
    out = str(work / f"{name}.json")
    return {"name": name, "kind": "cli", "argv": argv + ["--output", out], "output": out}


def _lib(name: str, fn: str, work: Path, **args) -> dict:
    return {"name": name, "kind": "lib", "fn": fn, "args": args, "output": str(work / f"{name}.json")}


def _exact_algebra(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    moments = _rationals(rng, 6)
    a_mom, b_mom = _rationals(rng, 4), _rationals(rng, 4)
    steps = [_cli("cumulants", ["cumulants", "--moments=" + _fmt(moments)], work)]
    for D in EXACT_DIMS:
        steps.append(
            _cli(f"channel-exact-D{D}", ["channel", "--mode", "exact", "--k", "5", "--dim", str(D),
                                         "--moments=" + _fmt(moments[:5])], work)
        )
    steps += [
        _cli("channel-asymptotic", ["channel", "--mode", "asymptotic", "--k", "6", "--dim", "64",
                                    "--moments=" + _fmt(moments)], work),
        _cli("otoc", ["otoc", "--k", "4", "--dim", "16", "--a-moments=" + _fmt(a_mom),
                      "--b-moments=" + _fmt(b_mom)], work),
        _cli("nc", ["nc", "--n", str(NC_N), "--moebius", "--kreweras"], work),
        _cli("wg", ["wg", "--k", "5", "--dim", str(EXACT_DIMS[-1])], work),
    ]
    return {"moments": [str(x) for x in moments], "a_moments": [str(x) for x in a_mom],
            "b_moments": [str(x) for x in b_mom], "steps": steps}


def _haar_mc(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    files = {}
    for D, fmt_b in ((HAAR_K2_DIM, ".json"), (HAAR_K3_DIM, ".bin")):
        files[D] = (work / f"A{D}.bin", work / f"B{D}{fmt_b}")
        _write_bin(files[D][0], _observable(rng, D))
        (_write_json if fmt_b == ".json" else _write_bin)(files[D][1], _observable(rng, D))
    mc_seed = str(seed % 2**31)
    steps = []
    for k, D, n in ((2, HAAR_K2_DIM, HAAR_K2_SAMPLES), (3, HAAR_K3_DIM, HAAR_K3_SAMPLES)):
        a, b = files[D]
        steps.append(
            _cli(f"haar-test-k{k}", ["haar-test", "--dim", str(D), "--k", str(k), "--n-samples", str(n),
                                     "--a", str(a), "--b", str(b), "--seed", mc_seed], work)
        )
    steps += [
        _cli("distance", ["distance", "--ensemble", "hamiltonian", "--k", "2", "--dim", "16",
                          "--t-max", "5000", "--n-samples", str(DISTANCE_SAMPLES), "--seed", mc_seed], work),
        _cli("design-check", ["design-check", "--ensemble", "clifford", "--k", "3"], work),
    ]
    return {"files": {str(D): [str(a), str(b)] for D, (a, b) in files.items()}, "steps": steps}


def _eth_spectral(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    paths = {}
    for D in (ETH_BUILD_DIM, ETH_DIM, WINDOW_DIM):
        paths[D] = [work / f"H{D}.bin"]
        _write_bin(paths[D][0], _goe(rng, D))
        if D != ETH_BUILD_DIM:
            paths[D] += [work / f"A{D}.bin", work / f"B{D}.bin"]
            for p in paths[D][1:]:
                _write_bin(p, _observable(rng, D))
    # inverse temperatures are set relative to each spectrum's width
    beta = float(BETA_WIDTH / np.ptp(np.linalg.eigvalsh(read_operator(paths[ETH_DIM][0]).real)))
    beta_w = float(BETA_WIDTH / np.ptp(np.linalg.eigvalsh(read_operator(paths[WINDOW_DIM][0]).real)))
    h, a, b = (str(p) for p in paths[ETH_DIM])
    h_w, a_w, b_w = (str(p) for p in paths[WINDOW_DIM])
    obs = ["--obs", f"A={a}", "--obs", f"B={b}"]
    steps = [
        _cli("eth-build", ["eth", "build", "--model", str(paths[ETH_BUILD_DIM][0])], work),
        _cli("eth-cumulant", ["eth", "cumulant", "--model", h, *obs, "--k", "2", "--t-max", str(CUMULANT_T_MAX),
                              "--n-points", "41", "--beta", repr(beta)], work),
        _lib("strict-kappa6", "strict_kappa", work, h=h, a=a, b=b, beta=beta, k=3),
        _lib("distinct-k3", "distinct_index", work, h=h, a=a, b=b, beta=beta, k=3),
        _lib("window-ladder", "window_ladder", work, h=h_w, a=a_w, b=b_w, beta=beta_w,
             t_values=list(WINDOW_LADDER)),
        _cli("eth-appendixb", ["eth", "appendixb", "--model", h, *obs], work),
        _cli("eth-deutsch", ["eth", "deutsch", "--model", h, *obs, "--lambdas", "1,2", "--strength", "0.25",
                             "--seed", str(seed % 2**31)], work),
    ]
    return {"paths": {str(D): [str(p) for p in ps] for D, ps in paths.items()}, "beta": beta, "beta_window": beta_w,
            "steps": steps}


# sizes (see README.md for the measured cost of each)
EXACT_DIMS = (5, 6)
NC_N = 6
HAAR_K2_DIM, HAAR_K2_SAMPLES = 256, 60
HAAR_K3_DIM, HAAR_K3_SAMPLES = 128, 60
DISTANCE_SAMPLES = 3000
ETH_BUILD_DIM, ETH_DIM, WINDOW_DIM = 1024, 256, 32
BETA_WIDTH = 0.3  # beta times the spectral width, as in criterion 8
CUMULANT_T_MAX = 3.0
WINDOW_LADDER = (1e-9, 40.0, 640.0, 1e4, 1e6, 1e9)

_SPEC_MAKERS = {"exact-algebra": _exact_algebra, "haar-mc": _haar_mc, "eth-spectral": _eth_spectral}

# Interpreter-bound times are scaled by the speed kernel (speed.py): set-up
# (importing) in every workload, and every time in the pure-Python one.
# Scaling the BLAS-bound workloads' wall and CPU time widened their ten-seed
# spread (eth-spectral wall_s 0.053 -> 0.083, cpu_s 0.036 -> 0.112), since
# the machine-speed drift moves BLAS less than the interpreter.
SCALED_TIMES = {"exact-algebra": ("wall_s", "setup_s", "cpu_s")}


def build(name: str, seed: int, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    spec = _SPEC_MAKERS[name](seed, work)
    spec.update(workload=name, seed=seed, scaled_times=list(SCALED_TIMES.get(name, ("setup_s",))))
    return spec
