#!/usr/bin/env python3
"""Time the Monte Carlo freeness probe per sample stage and end to end;
write BENCH_haar_mc.json.

Per-sample stages, at D = 2, 128 and 256, each timed on its own over
`--samples` draws (median in ms):

- `draw`: the Haar unitary G, one `ensembles.sample_haar` call, so the stage
  times whichever route the revision under test draws by (D = 2 shows its
  fixed per-draw cost);
- `dressing`: B in the eigenframe, G diag(b) G^dagger (one matmul);
- `traces`: every word kappa_4(A^U, B, A^U, B) needs that mixes A and B,
  through one `moments._word_trace` (the kernel `EnsembleExpectation` uses)
  over the diagonal A and the dressed B; words of A alone or B alone are
  traced once per evaluation, not per sample.

The stages run once with the BLAS thread count in effect and, where kfree
can pin OpenBLAS (`eth._one_blas_thread`, which `ensembles` imports and its
sample loop enters), once on one thread, as the sample loop runs them.

End to end, each case is one `kfree.cli.dispatch` call repeated `--repeats`
times: every repeat, the median and the SHA-256 of the document, which must
agree between revisions that write the same document.  The cases are

- the two `haar-test` steps of the haar-mc benchmark workload (k = 2 at
  D = 256 and k = 3 at D = 128, 60 samples each, default observables);
- its `distance` step (a Hamiltonian time window at k = 2, D = 16), which
  sums the window's Fejer kernel over the D^4 pairs of level pairs; it still
  passes `--n-samples 3000`, which the exact window does not read;
- `distance` at k = 2, D = 8, small enough that a size rule once sent it
  through dense D^4 x D^4 superoperators.

The stages call only `sample_haar`, `spawn_rngs` and `_word_trace`, and the
end-to-end part only `dispatch`, so the script runs on any revision that has
them, e.g. with PYTHONPATH pointing at another checkout's `src`.

Example:
    python scripts/bench_haar_mc.py --repeats 5 --out BENCH_haar_mc.json
"""

import os
import statistics
import sys
import time

import numpy as np

import benchlib
import kfree
from kfree import ensembles
from kfree.eth import goe_matrix, normalize_observable
from kfree.moments import _cyclic_key, _word_trace, cumulant_words

STAGE_DIMS = (2, 128, 256)
# the words kappa_4 needs that mix A and B, each at its cyclic key, longest first as the sample loop traces them
WORDS = sorted(
    {_cyclic_key(w) for w in cumulant_words(("A", "B") * 2) if set(w) == {"A", "B"}},
    key=lambda w: (-len(w), repr(w)),
)
CASES = (
    ("haar-test-k2", ["haar-test", "--dim", "256", "--k", "2", "--n-samples", "60", "--seed", "1"]),
    ("haar-test-k3", ["haar-test", "--dim", "128", "--k", "3", "--n-samples", "60", "--seed", "1"]),
    (
        "distance-k2-d16",
        ["distance", "--ensemble", "hamiltonian", "--k", "2", "--dim", "16", "--t-max", "5000",
         "--n-samples", "3000", "--seed", "1"],
    ),
    (
        "distance-k2-d8",
        ["distance", "--ensemble", "hamiltonian", "--k", "2", "--dim", "8", "--n-samples", "200", "--seed", "1"],
    ),
)


def stage_times(D: int, samples: int) -> dict:
    rng = np.random.default_rng(D)
    # the eigenvalues of A and B: the frames an evaluation finds once
    a = np.linalg.eigvalsh(normalize_observable(goe_matrix(D, rng)))
    b = np.linalg.eigvalsh(normalize_observable(goe_matrix(D, rng)))
    times = {"draw": [], "dressing": [], "traces": []}
    clock = time.perf_counter
    for r in ensembles.spawn_rngs(D, samples):
        t0 = clock()
        g = ensembles.sample_haar(D, r)
        t1 = clock()
        b_g = (g * b) @ g.conj().T
        t2 = clock()
        trace = _word_trace({"A": a, "B": b_g})
        for w in WORDS:
            trace(w)
        t3 = clock()
        for name, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2)):
            times[name].append(dt)
    return {name: 1e3 * statistics.median(ts) for name, ts in times.items()}


def stage_table(samples: int) -> dict:
    table = {"blas_default": {str(D): stage_times(D, samples) for D in STAGE_DIMS}}
    one_thread = getattr(ensembles, "_one_blas_thread", None)
    if one_thread is not None:
        with one_thread() as pinned:
            if pinned:
                table["blas_one"] = {str(D): stage_times(D, samples) for D in STAGE_DIMS}
    return table


def main(argv=None) -> int:
    ap = benchlib.parser(__doc__, "BENCH_haar_mc.json")
    ap.add_argument("--samples", type=int, default=20, help="draws per stage timing")
    args = benchlib.parse(ap, argv)
    if args.samples < 1:
        ap.error("--samples must be positive")

    doc = {
        "benchmark": "haar_mc",
        "kfree": kfree.__version__,
        "repeats": args.repeats,
        "samples": args.samples,
        "environment": benchlib.environment(openblas_num_threads=os.environ.get("OPENBLAS_NUM_THREADS")),
        "stages_ms": stage_table(args.samples),
        "cases": [benchlib.run_case(name, case_argv, args.repeats) for name, case_argv in CASES],
    }
    benchlib.write(doc, args.out)
    for setting, dims in doc["stages_ms"].items():
        for D, stages in dims.items():
            cells = "  ".join(f"{name} {ms:.3f}" for name, ms in stages.items())
            sys.stdout.write(f"{setting} D={D}: {cells} ms\n")
    for case in doc["cases"]:
        sys.stdout.write(f"{case['name']}: {case['median_s']:.3f} s  {case['sha256'][:12]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
