#!/usr/bin/env python3
"""Time thermal free-cumulant scans and spectral sums; write BENCH_eth_scan.json.

Five cases on `goe_model(D, seed=11)` at beta = 0.3 / (spectral width):

- scan-k2: `kfree eth cumulant --model goe --dim D --seed 11 --k 2
  --t-max 3 --n-points 41` through `kfree.cli.dispatch`, model build
  included: kappa_4(A(t), B, A(t), B) at 41 times in [0, 3];
- scan-k3: kappa_6 the same way at 5 times;
- distinct-k3: `distinct_index_cumulant` at k = 3 and t = 0;
- free-k-time: `free_k_time` at k = 2 over 41 times in [0, 40 / width];
- deutsch: `deutsch_ensemble` at lambdas 1, 2 and strength 0.25 (three
  mixed kappa_4 and two perturbed `eigh`).

Each case runs `--repeats` times after one untimed warm-up, each run's wall
and CPU time recorded (`benchlib.timed`).  A library case
records a checksum of its values, a CLI case the SHA-256 of its document
(`benchlib.run_case`).  Only `dispatch` and the public API are used, so the
same script runs on any revision that has them.

Example:
    python scripts/bench_eth_scan.py --dim 256 --repeats 5 --out BENCH_eth_scan.json
"""

import sys

import numpy as np

import benchlib
from kfree.eth import (
    DeutschSpec,
    deutsch_ensemble,
    distinct_index_cumulant,
    free_k_time,
    goe_matrix,
    goe_model,
    thermal_state,
)


def library_cases(model, state):
    """name -> a call returning the case's values as a list of complex."""
    width = model.spectral_width()

    def free_time():
        grid = np.linspace(0.0, 40.0 / width, 41)
        return list(free_k_time(model, state, "A", "B", 2, t_grid=grid).magnitudes)

    def deutsch():
        rng = np.random.default_rng(7)
        spec = DeutschSpec(perturbation=goe_matrix(model.dim, rng), strength=0.25, lambdas=(1.0, 2.0), beta=state.beta)
        return list(deutsch_ensemble(model, spec).mixed_kappa4.values())

    return {
        "distinct-k3": lambda: [distinct_index_cumulant(model, state, "A", "B", k=3)],
        "free-k-time": free_time,
        "deutsch": deutsch,
    }


def time_library_case(name, run, repeats) -> dict:
    values = [complex(v) for v in run()]
    seconds, cpu_seconds = [], []
    for _ in range(repeats):
        _, wall, cpu = benchlib.timed(run)
        seconds.append(wall)
        cpu_seconds.append(cpu)
    return {
        "name": name,
        **benchlib.times(seconds, cpu_seconds),
        "n_values": len(values),
        "value_sum": [sum(v.real for v in values), sum(v.imag for v in values)],
    }


def main(argv=None) -> int:
    ap = benchlib.parser(__doc__, "BENCH_eth_scan.json")
    ap.add_argument("--dim", type=int, default=256)
    args = benchlib.parse(ap, argv)
    if args.dim < 2:
        ap.error("--dim must be at least 2")

    model = goe_model(args.dim, seed=11)
    state = thermal_state(model, 0.3 / model.spectral_width())
    results = []
    for name, k, n_points in (("scan-k2", 2, 41), ("scan-k3", 3, 5)):
        cli = ["eth", "cumulant", "--model", "goe", "--dim", str(args.dim), "--seed", "11", "--k", str(k),
               "--t-max", "3", "--n-points", str(n_points), "--beta", repr(state.beta)]
        benchlib.run_case(name, cli, 1)
        results.append(benchlib.run_case(name, cli, args.repeats))
    for name, run in library_cases(model, state).items():
        results.append(time_library_case(name, run, args.repeats))
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
        sys.stdout.write(f"{case['name']}: {case['median_s']:.3f} s wall, {case['median_cpu_s']:.3f} s CPU\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
