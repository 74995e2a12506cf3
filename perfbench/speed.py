"""A fixed piece of interpreter-bound work that times the machine, not kfree.

On a shared machine the speed for interpreter-bound work drifts by up to
1.75x over minutes as other tenants come and go.  Every run times `kernel()`
in its own process right after set-up, so the kernel sees the same machine
state as the steps that follow.  run.py scales the interpreter-bound times
(`workloads.SCALED_TIMES`) by the invocation's median kernel time.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

_SOURCE = "\n".join(f"def f{i}(a, b=({i}, 'x')):\n    return [a * j + b[0] for j in range(a)]\n" for i in range(40))


def kernel() -> dict:
    """Wall and CPU seconds of rationals, tuples, dicts, JSON and compiling
    source: the kinds of work the workloads' Python parts do."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc, table = Fraction(0), {}
    for i in range(1, 10000):
        x = Fraction(i % 7 - 3, i % 5 + 1)
        acc += x * x - Fraction(1, i % 13 + 1)
        key = tuple(sorted((i % 31, i % 37, i % 7)))
        table[key] = table.get(key, 0) + 1
    json.loads(json.dumps({str(k): [str(acc), v] for k, v in table.items()}, sort_keys=True))
    for _ in range(12):
        compile(_SOURCE, "<kernel>", "exec")
    return {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}
