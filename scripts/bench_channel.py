#!/usr/bin/env python3
"""Time k-fold Haar channels, OTOCs, Weingarten tables and NC(n) Moebius tables
through the CLI; write BENCH_channel.json.

Ten cases, each one `kfree.cli.dispatch` call; the channels and the OTOC
take rational moment sequences (every replica holds the same operator):

- `channel --mode asymptotic --k 6` and `--k 7` at `--dim 64`;
- `channel --mode exact --k 5 --dim 6`, `--k 6 --dim 7` and `--k 7 --dim 7`;
- `otoc --k 5 --dim 16`;
- `wg --k 5 --dim 6` and `--k 6 --dim 7`;
- `nc --n 7 --moebius --kreweras` and `--n 8`.

Every `functools.lru_cache` in `kfree` is cleared before each call, so each
repeat starts as cold as a fresh `kfree` process (import excluded).  The
document records every repeat, the median and the SHA-256 of the result
document, which must agree between revisions that write the same document.
Only `kfree.cli.dispatch` is used, so the same script runs on any revision
that has it.

Example:
    python scripts/bench_channel.py --repeats 5 --out BENCH_channel.json
"""

import sys

import benchlib
import kfree

A_MOMENTS = "--a-moments=1/3,7/5,-2/9,11/4,3/7,5/2,1/11"
B_MOMENTS = "--b-moments=2/7,4/3,1/5,-5/6,7/9,3/2,2/3"
CASES = (
    ("asymptotic-k6-D64", ["channel", "--mode", "asymptotic", "--k", "6", "--dim", "64", A_MOMENTS]),
    ("asymptotic-k7-D64", ["channel", "--mode", "asymptotic", "--k", "7", "--dim", "64", A_MOMENTS]),
    ("exact-k5-D6", ["channel", "--mode", "exact", "--k", "5", "--dim", "6", A_MOMENTS]),
    ("exact-k6-D7", ["channel", "--mode", "exact", "--k", "6", "--dim", "7", A_MOMENTS]),
    ("exact-k7-D7", ["channel", "--mode", "exact", "--k", "7", "--dim", "7", A_MOMENTS]),
    ("otoc-k5-D16", ["otoc", "--k", "5", "--dim", "16", A_MOMENTS, B_MOMENTS]),
    ("wg-k5-D6", ["wg", "--k", "5", "--dim", "6"]),
    ("wg-k6-D7", ["wg", "--k", "6", "--dim", "7"]),
    ("nc-n7-moebius-kreweras", ["nc", "--n", "7", "--moebius", "--kreweras"]),
    ("nc-n8-moebius-kreweras", ["nc", "--n", "8", "--moebius", "--kreweras"]),
)


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("kfree"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def main(argv=None) -> int:
    args = benchlib.parse(benchlib.parser(__doc__, "BENCH_channel.json"), argv)
    doc = {
        "benchmark": "channel",
        "kfree": kfree.__version__,
        "repeats": args.repeats,
        "environment": benchlib.environment(),
        "cases": [benchlib.run_case(name, case_argv, args.repeats, clear_caches) for name, case_argv in CASES],
    }
    benchlib.write(doc, args.out)
    for case in doc["cases"]:
        sys.stdout.write(f"{case['name']}: {case['median_s']:.3f} s  {case['sha256'][:12]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
