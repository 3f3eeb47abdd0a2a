"""Outside-in layer trace for the benchmark.

A :class:`Tracer` wraps every public function of the ``claimcast`` layer
modules and records one span per call: (layer, function, start, end,
parent span, operation id).  Because ``pipeline``, ``engine`` and ``sim``
import names directly, every reference to a wrapped function in any loaded
``claimcast.*`` namespace is rebound, not only the defining module's.
Methods (``RebateFunction.__call__``, ``PoissonClaims.sample``, ...) stay
unwrapped.  Spans are kept in memory; :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("dataio", "claims", "core", "sales", "tails", "stable", "engine", "sim", "pipeline")

_TOTAL_S = {  # metric -> (layer, function): summed inclusive span time, seconds
    "claims.moment_grids_s": ("claims", "moment_grids"),
    "engine.quantile_s": ("engine", "approx_quantile"),
    "sim.theory_s": ("sim", "theoretical_limit"),
}
_MEAN_MS = {  # metric -> (layer, function): mean inclusive span time, ms
    "stable.quantile_ms": ("stable", "stable_quantile"),
    "stable.cdf_ms": ("stable", "stable_cdf"),
    "sim.replication_ms": ("sim", "run_replication"),
}
_CALLS = {  # metric -> (layer, function): number of spans
    "stable.quantile_calls": ("stable", "stable_quantile"),
    "stable.cdf_calls": ("stable", "stable_cdf"),
    "sim.replications": ("sim", "run_replication"),
}


class Tracer:
    """Span recorder for one operation of one process."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans = []  # [layer, name, start_ns, end_ns, parent]
        self._stack = []
        self._restore = []

    def wrap(self, layer: str, fn):
        """``fn`` recording one span per call under ``layer``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind all references."""
        modules = {layer: importlib.import_module(f"claimcast.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for fname, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not fname.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(layer, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "claimcast" and not mod_name.startswith("claimcast."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write(self, path) -> None:
        """Save the spans as JSON: one [layer, name, start_ns, end_ns, parent, op] each."""
        Path(path).write_text(json.dumps([s + [self.op] for s in self.spans]))


def layer_metrics(spans) -> dict:
    """Per-layer figures of one operation from its spans.

    A span's self time is its duration minus the durations of its direct
    children (calls are sequential, so children never overlap).
    """
    child = [0] * len(spans)
    for layer, name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    calls = defaultdict(int)
    for i, (layer, name, start, end, *_rest) in enumerate(spans):
        self_ns[layer] += end - start - child[i]
        total_ns[(layer, name)] += end - start
        calls[(layer, name)] += 1
        calls[layer] += 1
    out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
    out["core.calls"] = calls["core"]
    out["dataio.load_s"] = (
        total_ns[("dataio", "load_sales")] + total_ns[("dataio", "load_claims")]
    ) / 1e9
    for metric, key in _TOTAL_S.items():
        out[metric] = total_ns[key] / 1e9
    for metric, key in _MEAN_MS.items():
        out[metric] = total_ns[key] / calls[key] / 1e6 if calls[key] else 0.0
    for metric, key in _CALLS.items():
        out[metric] = calls[key]
    return out
