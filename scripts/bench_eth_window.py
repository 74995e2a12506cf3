#!/usr/bin/env python3
"""Time finite-window averaged free cumulants and write BENCH_eth_window.json.

Three cases of kappa_4(A(t), B, A(t), B) = `averaged_free_cumulant` over
finite windows, each on `goe_model` at beta = 0.3 / (spectral width):

- D = 32, the window ladder of the eth-spectral benchmark
  (t_max = 1e-9, 40, 640, 1e4, 1e6, 1e9);
- D = 64, the six windows of acceptance criterion 8 (t_max = 40 ... 1280);
- D = 120, one window at t_max = 40: a large-D window, whose 4-slot
  average folds one first-slot index at a time into h (D^3 entries).

Each window is timed `--repeats` times after one untimed warm-up call; the
document records every repeat, the median and the value.  Only the public
API is used, so the same script runs on any revision that has it.

Example:
    python scripts/bench_eth_window.py --repeats 5 --out BENCH_eth_window.json
"""

import statistics
import sys
import time

import benchlib
from kfree.eth import TimeWindow, averaged_free_cumulant, goe_model, thermal_state

CASES = (
    {"name": "ladder-D32", "dim": 32, "seed": 11, "t_values": (1e-9, 40.0, 640.0, 1e4, 1e6, 1e9)},
    {"name": "criterion8-D64", "dim": 64, "seed": 11, "t_values": (40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)},
    {"name": "large-D120", "dim": 120, "seed": 11, "t_values": (40.0,)},
)
WORD = (("A", True), ("B", False), ("A", True), ("B", False))


def run_case(case: dict, repeats: int) -> dict:
    model = goe_model(case["dim"], seed=case["seed"])
    beta = 0.3 / model.spectral_width()
    state = thermal_state(model, beta)
    windows = []
    for t_max in case["t_values"]:
        window = TimeWindow("finite", t_max)
        value = complex(averaged_free_cumulant(model, state, WORD, window))
        seconds = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            averaged_free_cumulant(model, state, WORD, window)
            seconds.append(time.perf_counter() - t0)
        windows.append(
            {"t_max": t_max, "seconds": seconds, "median_s": statistics.median(seconds), "value": [value.real, value.imag]}
        )
    return {
        "name": case["name"],
        "dim": case["dim"],
        "seed": case["seed"],
        "beta": beta,
        "windows": windows,
        "total_median_s": sum(w["median_s"] for w in windows),
    }


def main(argv=None) -> int:
    args = benchlib.parse(benchlib.parser(__doc__, "BENCH_eth_window.json"), argv)
    doc = {
        "benchmark": "eth-window",
        "word": [[name, timed] for name, timed in WORD],
        "repeats": args.repeats,
        "environment": benchlib.environment(),
        "cases": [run_case(case, args.repeats) for case in CASES],
    }
    benchlib.write(doc, args.out)
    for case in doc["cases"]:
        sys.stdout.write(f"{case['name']}: {case['total_median_s']:.3f} s over {len(case['windows'])} windows\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
