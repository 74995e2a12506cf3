"""One workload run, in a fresh interpreter started by run.py.

    python3 perfbench/child.py SPEC_JSON SPAWN_TIME TRACE RESULT_JSON

SPAWN_TIME is the parent's `time.perf_counter()` just before the spawn (a
system-wide monotonic clock on Linux), so `setup_s` covers interpreter
start-up plus importing `kfree.cli` and every layer module.  The speed
kernel (speed.py) runs next; run.py takes its time out of the run's wall and
CPU time.  Each step goes
through `kfree.cli.dispatch` or, where no subcommand exists, the public
library function, and writes one result document.  With TRACE=1 the layer
entry points are wrapped (tracer.py) after set-up is measured.
"""

import sys
import time

import kfree.channel
import kfree.cli
import kfree.ensembles
import kfree.eth
import kfree.matio
import kfree.moments
import kfree.partitions
import kfree.permutations
import kfree.ratlinalg
import kfree.weingarten

SETUP_DONE = time.perf_counter()

import json  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402
from envinfo import blas_info  # noqa: E402


# ---------------------------------------------------------------------------
# library steps (no CLI subcommand exists for these)
# ---------------------------------------------------------------------------

_models: dict = {}


def _model(h: str, a: str, b: str, beta: float):
    """Model and thermal state from operator files, shared by later steps."""
    key = (h, a, b, beta)
    if key not in _models:
        load = kfree.matio.load_operator
        model = kfree.eth.build_model(load(h), {"A": load(a), "B": load(b)}, provenance=h)
        _models[key] = (model, kfree.eth.thermal_state(model, beta))
    return _models[key]


def _alternating(k: int) -> tuple:
    return tuple(x for _ in range(k) for x in (("A", True), ("B", False)))


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def strict_kappa(h, a, b, beta, k):
    model, state = _model(h, a, b, beta)
    word = _alternating(k)
    value = kfree.eth.averaged_free_cumulant(model, state, word, kfree.eth.TimeWindow("infinite"))
    return {"k": k, "value": _pair(value), "effective_dim": state.effective_dim()}


def distinct_index(h, a, b, beta, k):
    model, state = _model(h, a, b, beta)
    return {"k": k, "value": _pair(kfree.eth.distinct_index_cumulant(model, state, "A", "B", k=k, t=0.0))}


def window_ladder(h, a, b, beta, t_values):
    model, state = _model(h, a, b, beta)
    word = _alternating(2)
    eth = kfree.eth
    strict = eth.averaged_free_cumulant(model, state, word, eth.TimeWindow("infinite"))
    finite = [eth.averaged_free_cumulant(model, state, word, eth.TimeWindow("finite", t)) for t in t_values]
    return {"t_values": t_values, "strict": _pair(strict), "finite": [_pair(v) for v in finite],
            "effective_dim": state.effective_dim()}


def peak_rss_mb() -> float:
    """This process's RSS high-water mark since exec (VmHWM).  The parent's
    `ru_maxrss` would also count the pages shared with it before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


LIBRARY_STEPS = {"strict_kappa": strict_kappa, "distinct_index": distinct_index, "window_ladder": window_ladder}


def run_step(step: dict) -> dict:
    """Execute one step; errors are recorded, never raised."""
    t0 = time.perf_counter()
    try:
        if step["kind"] == "cli":
            code = kfree.cli.dispatch(step["argv"])
            error = None if code == 0 else f"exit code {code}"
        else:
            doc = LIBRARY_STEPS[step["fn"]](**step["args"])
            with open(step["output"], "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            error = None
    except Exception:
        error = traceback.format_exc(limit=4)
    return {"name": step["name"], "seconds": time.perf_counter() - t0, "error": error}


def main() -> None:
    spec_path, spawn, trace, result_path = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    setup_s = SETUP_DONE - spawn
    with open(spec_path) as fh:
        spec = json.load(fh)
    kernel = speed.kernel()
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    steps = []
    for step in spec["steps"]:
        if tracer is None:
            steps.append(run_step(step))
        else:
            with tracer.root(step["name"]):
                steps.append(run_step(step))
            tracer.note_output(step)
    result = {"setup_s": setup_s, "kernel": kernel, "steps": steps, "blas": blas_info(),
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
