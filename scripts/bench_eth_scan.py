#!/usr/bin/env python3
"""Time thermal free-cumulant scans and write BENCH_eth_scan.json.

Four cases on `goe_model(D, seed=11)` at beta = 0.3 / (spectral width):

- scan-k2: kappa_4(A(t), B, A(t), B) by `thermal_free_cumulant` at 41
  times in [0, 3], the scan `kfree eth cumulant --k 2 --n-points 41` makes;
- scan-k3: kappa_6 the same way at 5 times;
- free-k-time: `free_k_time` at k = 2 over 41 times in [0, 40 / width];
- deutsch: `deutsch_ensemble` at lambdas 1, 2 and strength 0.25 (three
  mixed kappa_4 and two perturbed `eigh`).

Each case runs `--repeats` times after one untimed warm-up; the document
records every repeat, the median and a checksum of the values.  Only the
public API is used, so the same script runs on any revision that has it.

Example:
    python scripts/bench_eth_scan.py --dim 256 --repeats 5 --out BENCH_eth_scan.json
"""

import statistics
import sys
import time

import numpy as np

import benchlib
from kfree.eth import (
    DeutschSpec,
    alternating_word,
    deutsch_ensemble,
    free_k_time,
    goe_matrix,
    goe_model,
    thermal_free_cumulant,
    thermal_state,
)


def cases(model, state):
    """name -> a call returning the case's values as a list of complex."""
    width = model.spectral_width()

    def scan(k, n_points):
        times = np.linspace(0.0, 3.0, n_points)
        return lambda: [thermal_free_cumulant(model, state, alternating_word("A", "B", k, float(t))) for t in times]

    def free_time():
        grid = np.linspace(0.0, 40.0 / width, 41)
        return list(free_k_time(model, state, "A", "B", 2, t_grid=grid).magnitudes)

    def deutsch():
        rng = np.random.default_rng(7)
        spec = DeutschSpec(perturbation=goe_matrix(model.dim, rng), strength=0.25, lambdas=(1.0, 2.0), beta=state.beta)
        return list(deutsch_ensemble(model, spec).mixed_kappa4.values())

    return {"scan-k2": scan(2, 41), "scan-k3": scan(3, 5), "free-k-time": free_time, "deutsch": deutsch}


def main(argv=None) -> int:
    ap = benchlib.parser(__doc__, "BENCH_eth_scan.json")
    ap.add_argument("--dim", type=int, default=256)
    args = benchlib.parse(ap, argv)
    if args.dim < 2:
        ap.error("--dim must be at least 2")

    model = goe_model(args.dim, seed=11)
    state = thermal_state(model, 0.3 / model.spectral_width())
    results = []
    for name, run in cases(model, state).items():
        values = [complex(v) for v in run()]
        seconds = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            run()
            seconds.append(time.perf_counter() - t0)
        results.append(
            {
                "name": name,
                "seconds": seconds,
                "median_s": statistics.median(seconds),
                "n_values": len(values),
                "value_sum": [sum(v.real for v in values), sum(v.imag for v in values)],
            }
        )
    doc = {
        "benchmark": "eth-scan",
        "dim": args.dim,
        "seed": 11,
        "beta": state.beta,
        "repeats": args.repeats,
        "environment": benchlib.environment(),
        "cases": results,
    }
    benchlib.write(doc, args.out)
    for case in results:
        sys.stdout.write(f"{case['name']}: {case['median_s']:.3f} s\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
