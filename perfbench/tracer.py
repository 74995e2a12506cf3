"""Layer tracing from outside the program.

`Tracer.install()` wraps every public entry point of each kfree layer module
(public module-level functions, and the public methods plus `__init__` and
`__call__` of its non-dataclass classes) and rebinds the wrapper in every
kfree module namespace that imported the original by name.  It also wraps
the numpy kernels `numpy.linalg.qr`, `numpy.linalg.eigh` and `numpy.einsum`.

Each benchmark step is a root span.  Every wrapped call adds to its
function's count, inclusive time, self time (its duration minus the time
covered by wrapped calls beneath it) and escaped-exception count.  Calls of
functions outside `HOT` are also kept as spans (id, parent, name, start,
end); the hot helpers, called up to millions of times, and the callbacks
handed to `moments.Expectation` (timed as part of the layer that defined
them) are only aggregated.
No layer queues work, so there is no wait time to record.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("partitions", "permutations", "ratlinalg", "weingarten", "moments", "channel", "ensembles", "eth",
          "matio", "cli")
KERNELS = (("linalg", "qr"), ("linalg", "eigh"), (None, "einsum"))
HOT = frozenset({
    "partitions.leq", "partitions.is_noncrossing", "partitions.NCLattice.moebius", "partitions.NCLattice.below",
    "permutations.compose", "permutations.inverse", "permutations.on_geodesic",
    "moments.Expectation.__call__", "moments.blockwise_moment", "moments.CumulantSet.kappa",
    "weingarten.WeingartenTable.wg",
})
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s, errors]
        self.stack: list[list] = [[0.0, None]]  # per open call: [child time, span id]
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.expectation_hits = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        hot = name in HOT or "<locals>" in name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = parent[1] if hot else len(spans) + self.dropped_spans + 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - frame[0]
                stat[2] += dt
                parent[0] += dt
                if not hot:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent[1], name, t0, t1))
                    else:
                        self.dropped_spans += 1

        return wrapper

    def _counting(self, name: str, orig):
        """Extra counters some layers need, computed around the original."""
        if name == "moments.Expectation.__call__":
            def counted(obj, *args, **kwargs):
                cache = getattr(obj, "_cache", None)
                before = len(cache) if isinstance(cache, dict) else None
                out = orig(obj, *args, **kwargs)
                if before is not None and len(cache) == before:
                    self.expectation_hits += 1
                return out
        elif name == "moments.Expectation.__init__":
            # the functional's callback belongs to the layer that defined it
            def counted(obj, fn, *args, **kwargs):
                layer = (getattr(fn, "__module__", None) or "").removeprefix("kfree.")
                if layer in LAYERS:
                    fn = self._wrap(f"{layer}.{fn.__qualname__}", fn)
                return orig(obj, fn, *args, **kwargs)
        elif name == "matio.load_operator":
            def counted(path, *args, **kwargs):
                out = orig(path, *args, **kwargs)
                self.bytes_read += os.path.getsize(path)
                return out
        else:
            return orig
        return functools.wraps(orig)(counted)

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"kfree.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(name, self._counting(name, obj))
                elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_") or meth in ("__init__", "__call__")):
                            name = f"{layer}.{attr}.{meth}"
                            setattr(obj, meth, self._wrap(name, self._counting(name, fn)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "kfree" or mod_name.startswith("kfree."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, attr, replaced[id(obj)])
        for sub, attr in KERNELS:
            owner = getattr(np, sub) if sub else np
            setattr(owner, attr, self._wrap(f"numpy.{attr}", getattr(owner, attr)))

    # -- steps ------------------------------------------------------------

    @contextmanager
    def root(self, step: str):
        """A root span for one benchmark step."""
        span_id = len(self.spans) + self.dropped_spans + 1
        frame = [0.0, span_id]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans.append((span_id, None, f"step.{step}", t0, time.perf_counter()))

    def note_output(self, step: dict) -> None:
        if step["kind"] == "cli" and os.path.exists(step["output"]):
            self.bytes_written += os.path.getsize(step["output"])

    # -- report -----------------------------------------------------------

    def _sum(self, prefix: str, field: int):
        return sum(s[field] for name, s in self.stats.items() if name.startswith(prefix + "."))

    def _get(self, name: str, field: int):
        return self.stats.get(name, [0, 0.0, 0.0, 0])[field]

    def report(self) -> dict:
        calls, self_s, total_s, errors = 0, 1, 2, 3
        m = {}
        for layer in LAYERS + ("numpy",):
            if layer != "numpy":
                m[f"{layer}.self_s"] = self._sum(layer, self_s)
            m[f"{layer}.errors"] = self._sum(layer, errors)
        m["partitions.moebius_calls"] = self._get("partitions.NCLattice.moebius", calls)
        m["partitions.leq_calls"] = self._get("partitions.leq", calls)
        m["partitions.enumerate_nc_calls"] = self._get("partitions.enumerate_nc", calls)
        m["permutations.compose_calls"] = self._get("permutations.compose", calls)
        m["weingarten.tables_built"] = self._get("weingarten.WeingartenTable.__init__", calls)
        m["moments.free_cumulant_calls"] = self._get("moments.free_cumulant", calls)
        exp_calls = self._get("moments.Expectation.__call__", calls)
        m["moments.expectation_calls"] = exp_calls
        m["moments.expectation_hit_ratio"] = self.expectation_hits / exp_calls if exp_calls else 0.0
        samples = self._get("ensembles.sample_haar", calls)
        mc_time = self._get("ensembles.EnsembleExpectation.evaluate_words", total_s)
        m["ensembles.haar_samples"] = samples
        m["ensembles.sample_haar_s"] = self._get("ensembles.sample_haar", total_s)
        m["ensembles.samples_per_s"] = samples / mc_time if mc_time else 0.0
        m["eth.merged_sums"] = self._get("eth.merged_chain_sum", calls)
        m["eth.build_model_s"] = self._get("eth.build_model", total_s)
        m["matio.bytes_read"] = self.bytes_read
        m["cli.bytes_written"] = self.bytes_written
        for kernel in ("qr", "eigh", "einsum"):
            m[f"numpy.{kernel}_s"] = self._get(f"numpy.{kernel}", total_s)
            m[f"numpy.{kernel}_calls"] = self._get(f"numpy.{kernel}", calls)
        return {"metrics": m, "functions": self.stats, "spans": self.spans, "dropped_spans": self.dropped_spans}
