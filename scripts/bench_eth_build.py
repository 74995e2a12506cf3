#!/usr/bin/env python3
"""Time the operator-file -> spectrum path stage by stage and record its
memory; write BENCH_eth_build.json.

Stages, on seeded GOE inputs written to a scratch directory first:

- `load-bin-D1024`, `load-json-D256`: `matio.load_operator` of a `.bin`
  file at D = 1024 and of a `.json` file at D = 256;
- `hermiticity-D1024`: `eth.build_model` on a complex-typed D = 1024 matrix
  with one asymmetric entry, which runs the dimension cap, the finiteness
  check and the Hermiticity check, then is rejected before diagonalising;
- `eth-build-D256`, `-D384`, `-D512`, `-D1024`, `-D2048`: one `kfree eth
  build --model FILE.bin` through `kfree.cli.dispatch`, load included;
- `window-D32`, `window-D64`: one finite-window kappa_4(A(t), B, A(t), B) at
  t_max = 40 on `goe_model(D, seed=11)` at beta = 0.3 / (spectral width),
  the model built before the stage; D = 64 is criterion 8's size.

Per stage the document records the wall and CPU times of `--repeats`
timed calls after one untimed warm-up and their medians, the tracemalloc peak of one more call (allocations
numpy reports to tracemalloc; LAPACK workspace is not among them), and the
peak resident set (VmHWM) of a fresh interpreter that prepares the stage,
reads VmHWM, runs the stage once and reads it again.  Only public API and
`dispatch` are used, so the same script runs on earlier revisions, e.g.
with PYTHONPATH pointing at another checkout's `src`.

Example:
    python scripts/bench_eth_build.py --repeats 5 --out BENCH_eth_build.json
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

import benchlib
import kfree
from kfree.cli import dispatch
from kfree.eth import TimeWindow, averaged_free_cumulant, build_model, goe_matrix, goe_model, thermal_state
from kfree.matio import load_operator, save_operator

BUILD_DIMS = (256, 384, 512, 1024, 2048)
WINDOW_DIMS = (32, 64)
STAGES = (
    "load-bin-D1024", "load-json-D256", "hermiticity-D1024",
    *(f"eth-build-D{D}" for D in BUILD_DIMS), *(f"window-D{D}" for D in WINDOW_DIMS),
)
WORD = (("A", True), ("B", False), ("A", True), ("B", False))


def write_inputs(work: Path) -> None:
    rng = np.random.default_rng(15)
    for D in (256, 1024):
        save_operator(work / f"H{D}.bin", goe_matrix(D, rng))
    save_operator(work / "H256.json", goe_matrix(256, rng))
    skew = goe_matrix(1024, rng) + 0j
    skew[0, 1] += 1.0
    save_operator(work / "skew1024.bin", skew)
    for D in (384, 512, 2048):  # drawn last, so the inputs above stay those of earlier revisions
        save_operator(work / f"H{D}.bin", goe_matrix(D, rng))


def prepare(stage: str, work: Path):
    """The stage as a no-argument callable; its inputs are read here."""
    if stage == "load-bin-D1024":
        return lambda: load_operator(work / "H1024.bin")
    if stage == "load-json-D256":
        return lambda: load_operator(work / "H256.json")
    if stage == "hermiticity-D1024":
        skew = np.asarray(load_operator(work / "skew1024.bin"), dtype=complex)  # the file is real-valued

        def rejected():
            try:
                build_model(skew)
            except ValueError:
                return
            raise RuntimeError("the asymmetric matrix passed the Hermiticity check")

        return rejected
    if stage.startswith("eth-build-D"):
        argv = ["eth", "build", "--model", str(work / f"H{stage.removeprefix('eth-build-D')}.bin")]

        def build():
            with contextlib.redirect_stdout(io.StringIO()):
                if dispatch(argv) != 0:
                    raise RuntimeError(f"kfree {' '.join(argv)} failed")

        return build
    if stage.startswith("window-D"):
        model = goe_model(int(stage.removeprefix("window-D")), seed=11)
        state = thermal_state(model, 0.3 / model.spectral_width())
        return lambda: averaged_free_cumulant(model, state, WORD, TimeWindow("finite", 40.0))
    raise ValueError(f"unknown stage {stage!r}")


def vm_hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def child(stage: str, work: Path) -> int:
    """Fresh-interpreter run of one stage: VmHWM before and after it."""
    fn = prepare(stage, work)
    before = vm_hwm_mb()
    fn()
    json.dump({"vm_hwm_before_mb": before, "vm_hwm_mb": vm_hwm_mb()}, sys.stdout)
    return 0


def measure(stage: str, work: Path, repeats: int) -> dict:
    fn = prepare(stage, work)
    fn()  # warm-up: lazy imports and caches
    seconds, cpu_seconds = [], []
    for _ in range(repeats):
        _, wall, cpu = benchlib.timed(fn)
        seconds.append(wall)
        cpu_seconds.append(cpu)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    proc = subprocess.run(
        [sys.executable, __file__, "--child", stage, "--workdir", str(work)],
        capture_output=True, text=True, check=True,
    )
    return {
        "stage": stage,
        **benchlib.times(seconds, cpu_seconds),
        "tracemalloc_peak_mb": peak / 2**20,
        **json.loads(proc.stdout),
    }


def main(argv=None) -> int:
    ap = benchlib.parser(__doc__, "BENCH_eth_build.json")
    ap.add_argument("--child", choices=STAGES, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = benchlib.parse(ap, argv)
    if args.child:
        return child(args.child, Path(args.workdir))

    with tempfile.TemporaryDirectory(prefix="bench-eth-build-") as tmp:
        work = Path(tmp)
        write_inputs(work)
        stages = [measure(stage, work, args.repeats) for stage in STAGES]
    doc = {
        "benchmark": "eth-build",
        "kfree": str(Path(kfree.__file__).resolve().parent),
        "repeats": args.repeats,
        "environment": benchlib.environment(),
        "stages": stages,
    }
    benchlib.write(doc, args.out)
    for s in stages:
        sys.stdout.write(
            f"{s['stage']:>18}: {1e3 * s['median_s']:8.1f} ms  CPU {1e3 * s['median_cpu_s']:8.1f} ms  tracemalloc {s['tracemalloc_peak_mb']:6.1f} MB  "
            f"VmHWM {s['vm_hwm_before_mb']:6.1f} -> {s['vm_hwm_mb']:6.1f} MB\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
