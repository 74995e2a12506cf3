#!/usr/bin/env python3
"""Scan the mixed thermal free cumulant kappa^beta_{2k}(A(t), B, ...) over a
time grid for a chaotic model and write a plot-ready CSV.

Example:
    python scripts/freeness_decay_scan.py --dim 256 --k 2 --beta 0.0 \
        --t-max 3.0 --n-points 80 --out decay.csv
"""

import argparse
import sys

import numpy as np

from kfree.ensembles import sample_haar
from kfree.eth import goe_model, ising_model, thermal_cumulant_scan, thermal_state


def bimodal_observable(D: int, rng) -> np.ndarray:
    """Traceless involution (+-1 spectrum) on a Haar-random basis.

    Unit second moment and order-one higher free cumulants, which makes it a
    useful probe operator where a GOE draw (semicircle, vanishing higher
    cumulants) would give a degenerate baseline.
    """
    if D % 2:
        raise ValueError("bimodal observable needs even dimension")
    q = sample_haar(D, rng)
    signs = np.array([1.0] * (D // 2) + [-1.0] * (D // 2))
    return (q * signs) @ q.conj().T


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", choices=["goe", "ising"], default="goe")
    ap.add_argument("--dim", type=int, default=256)
    ap.add_argument("--length", type=int, default=10)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--beta", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t-max", dest="t_max", type=float, default=None)
    ap.add_argument("--n-points", dest="n_points", type=int, default=80)
    ap.add_argument("--probe", choices=["bimodal", "goe"], default="bimodal",
                    help="probe operator spectrum; bimodal keeps kappa_{2k}(0) at order one")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    if args.model == "goe":
        model = goe_model(args.dim, seed=args.seed)
    else:
        model = ising_model(args.length)
    state = thermal_state(model, args.beta)
    if args.probe == "bimodal":
        rng = np.random.default_rng(args.seed + 1)
        A = bimodal_observable(model.dim, rng)
        B = A
    else:
        A, B = "A", "B"
        if args.model == "ising":
            A, B = "sz_mid", "sx_mid"

    t_max = args.t_max if args.t_max is not None else 60.0 / model.spectral_width()
    times = np.linspace(0.0, t_max, args.n_points)
    lines = ["t,real,imag,std_error"]
    for t, v in zip(times, thermal_cumulant_scan(model, state, A, B, args.k, times)):
        lines.append(f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r},0.0")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
