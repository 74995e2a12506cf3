"""kfree benchmark: the command that runs one workload and reports its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kfree source tree (it needs `src/kfree`).  The seed
makes the workload's inputs under `.perfbench/`; then, for S seconds, the
workload runs again and again, each run a fresh `child.py` interpreter that
starts only after the previous one has exited (a closed loop with one
client).  Each run is timed from its spawn to its exit; `os.wait4` gives its
CPU time and the run reports its own peak RSS.  Interpreter-bound times
(`workloads.SCALED_TIMES`) are scaled by a speed kernel (speed.py) that each
run times.  After the loop, and outside every timed window, the
result documents are checked (checks.py) and compared byte for byte across
runs.  With --trace 1, runs alternate between untraced and traced
(tracer.py) and the per-layer metrics are reported instead.

The last line of standard output is the result object; the full record,
with the environment and per-run values, goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = Path(".perfbench")
DEADLINE_S = 170.0  # every run, check and report must end well inside 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}

# On a shared machine the speed for interpreter-bound work drifts by up to
# 1.75x over minutes as other tenants come and go.  Interpreter-bound times
# are scaled by the invocation's median speed-kernel time (speed.py) against
# this reference: its typical time on the reference machine (2 cores, 7 GB,
# shared).
KERNEL_REF_S = 0.17


def _unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    field = metric.split(".", 1)[1]
    if field.endswith("per_s"):
        return "1/s"
    if field.endswith("_s"):
        return "s"
    if field.endswith("ratio"):
        return "ratio"
    return "B" if field.startswith("bytes") else "count"


def run_once(spec: dict, spec_path: Path, traced: bool, timeout: float) -> dict:
    """One workload run in a fresh interpreter; returns its measurements and documents."""
    work = spec_path.parent
    result_path = work / "result.json"
    for path in [result_path] + [Path(s["output"]) for s in spec["steps"]]:
        path.unlink(missing_ok=True)
    # a fixed hash seed fixes set and dict iteration order, and with it the
    # order of allocations: haar-mc's peak RSS ranges over 410-525 MB with
    # the hash seed alone
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with open(work / "child.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), repr(t0), str(int(traced)), str(result_path)],
            stdout=log, stderr=log, env=env, cwd=ROOT,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = {
        "traced": traced,
        "exit_code": proc.returncode,
        "docs": {s["name"]: Path(s["output"]).read_bytes() for s in spec["steps"] if Path(s["output"]).exists()},
    }
    if proc.returncode == 0 and result_path.exists():
        run.update(json.loads(result_path.read_text()))
        # the speed kernel ran inside the timed process; take it out again
        run["wall_s"] = wall - run["kernel"]["wall_s"]
        run["cpu_s"] = usage.ru_utime + usage.ru_stime - run["kernel"]["cpu_s"]
        run["kernel_s"] = run["kernel"]["wall_s"]
    else:
        run["log"] = (work / "child.log").read_text(errors="replace")[-2000:]
    return run


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten runs beyond it, and n."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    if n >= 11:
        out[f"p{100 * (n - 10) / n:.0f}"] = xs[n - 11]
    return out


def measure(spec: dict, spec_path: Path, seconds: float, trace: bool, nproc: int, started: float) -> list[dict]:
    """Closed loop: the next run starts when the previous one has exited."""
    runs: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        remaining = DEADLINE_S - (time.perf_counter() - started)
        runs.append(run_once(spec, spec_path, traced, timeout=max(remaining, 1.0)))
        if (runs[-1].get("blas", {}).get("threads") or 0) > nproc:
            print("perfbench: a run used more BLAS threads than cores", file=sys.stderr)
            raise SystemExit(3)
        done = time.perf_counter() - loop_start >= seconds
        if runs[-1]["exit_code"] != 0 or (done and len({r["traced"] for r in runs}) == 1 + trace):
            return runs
        # stop early rather than overrun the deadline with one more run
        if time.perf_counter() - started + 1.5 * max(r.get("wall_s", 0.0) for r in runs) > DEADLINE_S:
            return runs


def judge(spec: dict, runs: list[dict], verdicts: dict, reference: dict) -> tuple[int, int, dict]:
    """Steps attempted and failed over all runs: a step fails when it raised
    or exited non-zero, failed its check, or its document differs from the
    reference run's (same seed, so it must be byte-identical)."""
    attempted = failed = 0
    failures: dict[str, str] = {}
    for i, run in enumerate(runs):
        errors = {s["name"]: s["error"] for s in run.get("steps", [])}
        for step in spec["steps"]:
            name = step["name"]
            attempted += 1
            reason = errors.get(name, "run produced no result") or verdicts.get(name)
            if reason is None and run["docs"].get(name) != reference.get(name):
                reason = "document differs from the first run with the same seed"
            if reason is not None:
                failed += 1
                failures.setdefault(name, f"run {i}: {reason}")
    return attempted, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "kfree" / "cli.py").is_file():
        print(f"perfbench: no kfree source tree at {ROOT / 'src' / 'kfree'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import envinfo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    env = envinfo.environment(ROOT)
    env["loadavg_start"] = envinfo.loadavg()
    if env["blas"]["threads"] is None or env["blas"]["threads"] > env["nproc"]:
        print(f"perfbench: refusing to run with {env['blas']['threads']} BLAS threads on {env['nproc']} cores",
              file=sys.stderr)
        return 3

    work = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.build(args.workload, args.seed, work)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    runs = measure(spec, spec_path, args.seconds, bool(args.trace), env["nproc"], started)
    env["loadavg_end"] = envinfo.loadavg()

    # correctness, outside every timed window
    reference = next((r["docs"] for r in runs if not r["traced"] and r["exit_code"] == 0), runs[0]["docs"])
    attempted, failed, failures = judge(spec, runs, checks.check_run(spec, reference), reference)

    timed = [r for r in runs if not r["traced"] and "setup_s" in r]
    traced_runs = [r for r in runs if r["traced"] and "trace" in r]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "runs": len(runs), "failures": failures}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    metrics: dict[str, dict] = {}
    if timed and (not args.trace or traced_runs):
        per_run = {k: [r[k] for r in timed] for k in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "kernel_s")}
        record["end_to_end"] = {k: summarize(v) | {"values": v} for k, v in per_run.items()}
        scale = KERNEL_REF_S / statistics.median(per_run["kernel_s"])
        record["speed_scale"] = scale
        record["step_seconds"] = {s["name"]: statistics.median(st["seconds"] for r in timed for st in r["steps"]
                                                               if st["name"] == s["name"]) for s in spec["steps"]}
        if not args.trace:
            metrics = {k: {"value": statistics.median(per_run[k]) * (scale if k in spec["scaled_times"] else 1.0),
                           "unit": unit} for k, unit in END_TO_END.items() if k in per_run}
            metrics["pass_ratio"] = {"value": 1.0 - failed / attempted, "unit": END_TO_END["pass_ratio"]}
        else:
            layer = {k: statistics.median(r["trace"]["metrics"][k] for r in traced_runs)
                     for k in traced_runs[0]["trace"]["metrics"]}
            layer["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_runs)
                                         - statistics.median(per_run["wall_s"]))
            metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layer.items())}
            last = traced_runs[-1]["trace"]
            record["functions"] = last["functions"]
            (OUT / "results" / f"{args.workload}-seed{args.seed}-spans.json").write_text(
                json.dumps({"spans": last["spans"], "dropped": last["dropped_spans"]}))
    else:
        failed = max(failed, 1)
    record["metrics"] = metrics
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    for name, reason in failures.items():
        print(f"FAIL {name}: {reason.splitlines()[-1]}")
    for k, s in record.get("end_to_end", {}).items():
        print(f"{k}: raw median {s['median']:.4f} over {s['n']} runs")
    if not args.trace and metrics:
        print(f"{', '.join(spec['scaled_times'])} scaled by {record['speed_scale']:.4f} to the reference speed")
    result = {"correct": not failures and bool(metrics), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
