#!/usr/bin/env python3
"""Channel distance of the time-window evolution ensemble from the Haar
channel, versus dimension, beside its t_max -> infinity limit and
sqrt(k!) D^(k/2).  Both distances are exact window-kernel sums.

Example:
    python scripts/distance_scaling.py --k 2 --dims 4,8,16,32 --out dist.csv
"""

import argparse
import math
import sys

import numpy as np

from kfree.ensembles import HamiltonianEnsemble, channel_distance
from kfree.eth import goe_model


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--dims", default="4,8,16")
    ap.add_argument("--t-max", dest="t_max", type=float, default=5000.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    dims = [int(x) for x in args.dims.split(",")]
    lines = ["D,distance,infinite_time_limit,predicted"]
    dists = []
    for D in dims:
        model = goe_model(D, seed=D + args.k)
        d = channel_distance(HamiltonianEnsemble(model, t_max=args.t_max), args.k)
        dists.append(d)
        limit = channel_distance(HamiltonianEnsemble(model, t_max=math.inf), args.k)
        predicted = math.sqrt(math.factorial(args.k)) * D ** (args.k / 2)
        lines.append(f"{D},{float(d)!r},{float(limit)!r},{float(predicted)!r}")
    slope = np.polyfit(np.log(dims), np.log(dists), 1)[0]
    lines.append(f"# log-log slope = {float(slope)!r} (target {args.k / 2})")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
