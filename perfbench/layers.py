"""Host-time attribution by layer, measured from outside the program.

A traced run wraps the program's public functions at the import sites
the workloads reach (``SITES``).  Each wrapper records one span — layer,
start, end, parent span, op id — and charges the layer its *self* time:
the span's duration minus the part its wrapped children cover.  Nothing
under ``src/`` changes; the wrappers are installed by replacing module
or class attributes and removed again afterwards.

Integrity rules, so a refactor cannot silently blind the attribution:

* every site must resolve when the wrappers are installed, or
  :func:`install` raises :class:`SiteMissing`;
* :func:`check_expected_work` fails when a layer that the workload
  table expects to do work recorded zero calls.

Recording is paused (``Recorder.active = False``) during warm-up and
answer checking, so neither is charged to any layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

#: ``(layer, import site)``.  A site is ``module:attr`` for a function
#: bound into a module's namespace (patched where the caller looks it
#: up) or ``module:Class.method`` for a method (patched on the class).
SITES: tuple[tuple[str, str], ...] = (
    ("udc", "repro.core.session:degree_cut"),
    ("udc", "repro.core.msbfs:degree_cut"),
    ("udc", "repro.core.pagerank:degree_cut"),
    ("traceplan", "repro.gpu.kernel:build_vertex_trace"),
    ("expand", "repro.core.session:ragged_gather_indices"),
    ("expand", "repro.core.session:sorted_unique"),
    ("expand", "repro.core.msbfs:ragged_gather_indices"),
    ("expand", "repro.core.msbfs:sorted_unique"),
    ("cache", "repro.gpu.cache:CacheHierarchy.access"),
    ("kernel", "repro.core.session:simulate_vertex_kernel"),
    ("kernel", "repro.core.session:simulate_streaming_kernel"),
    ("kernel", "repro.core.msbfs:simulate_vertex_kernel"),
    ("kernel", "repro.core.msbfs:simulate_streaming_kernel"),
    ("kernel", "repro.core.pagerank:simulate_vertex_kernel"),
    ("labels", "repro.algorithms.bfs:BFS.candidates"),
    ("labels", "repro.algorithms.bfs:BFS.improves"),
    ("labels", "repro.algorithms.bfs:BFS.scatter_reduce"),
    ("labels", "repro.algorithms.sssp:SSSP.candidates"),
    ("labels", "repro.algorithms.sssp:SSSP.improves"),
    ("labels", "repro.algorithms.sssp:SSSP.scatter_reduce"),
    ("labels", "repro.algorithms.sswp:SSWP.candidates"),
    ("labels", "repro.algorithms.sswp:SSWP.improves"),
    ("labels", "repro.algorithms.sswp:SSWP.scatter_reduce"),
    ("um", "repro.gpu.um:UnifiedMemoryManager.touch"),
    ("um", "repro.gpu.um:UnifiedMemoryManager.touch_byte_ranges"),
    ("um", "repro.gpu.um:UnifiedMemoryManager.prefetch"),
    ("transfer", "repro.core.session:h2d_copy"),
    ("transfer", "repro.core.session:d2h_copy"),
    ("transfer", "repro.core.session:direct_access_read"),
    ("transfer", "repro.core.msbfs:h2d_copy"),
    ("transfer", "repro.core.msbfs:d2h_copy"),
    ("transfer", "repro.core.pagerank:h2d_copy"),
    ("transfer", "repro.core.pagerank:d2h_copy"),
    ("session", "repro.core.session:EngineSession.query"),
    ("msbfs", "repro.core.msbfs:run_wave"),
    ("pagerank", "repro.core.pagerank:delta_pagerank"),
    ("serving", "repro.serving.service:TraversalService.call"),
    ("observability", "repro.observability.spans:Tracer.start"),
    ("observability", "repro.observability.spans:Tracer.end"),
    ("observability", "repro.observability.spans:Tracer.emit"),
    ("observability", "repro.observability.spans:Tracer.graft"),
    ("observability", "repro.observability.spans:Tracer.unwind"),
    ("observability", "repro.observability.spans:Tracer.trace"),
    ("observability", "repro.observability.slo:SLOMonitor.record"),
    ("observability", "repro.observability.metrics:MetricsRegistry.inc"),
    ("observability",
     "repro.observability.metrics:MetricsRegistry.set_gauge"),
    ("observability", "repro.observability.metrics:MetricsRegistry.observe"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in SITES))

#: Name of each layer's call counter in the output (``<layer>.<name>``).
CALL_METRIC = {"kernel": "launches", "msbfs": "waves", "serving": "requests"}

#: What each layer should move, and where it should not (the prediction
#: a later change is judged against).  Echoed into every traced result.
PREDICTIONS: dict[str, dict[str, str]] = {
    "udc": {"moves": "wall_ms_p50, ops_per_s on query-cold; ops_per_s on "
                     "serve-mix (through PageRank)", "no_change": "wave-hot"},
    "traceplan": {"moves": "wall_ms_p50, ops_per_s on query-cold; "
                           "ops_per_s on serve-mix (through PageRank)",
                  "no_change": "wave-hot"},
    "expand": {"moves": "wall_ms_p50, ops_per_s on query-cold",
               "no_change": "wave-hot, serve-mix (memo-hot)"},
    "cache": {"moves": "wall_ms_p50 on query-cold, wave-hot, serve-mix",
              "no_change": "none"},
    "kernel": {"moves": "wall_ms_p50 on all workloads (small share); "
                        "explains sim_ms_per_op", "no_change": "none"},
    "labels": {"moves": "wall_ms_p50 on query-cold and serve-mix",
               "no_change": "wave-hot"},
    "um": {"moves": "wall_ms_p50 on query-cold (sim_ms_per_op only if "
                    "the model changes); on serve-mix only PageRank's "
                    "per-request prefetch", "no_change": "wave-hot"},
    "transfer": {"moves": "wall_ms_p50 on query-cold (sim_ms_per_op only "
                          "if the model changes)",
                 "no_change": "wave-hot, serve-mix"},
    "session": {"moves": "wall_ms_p50 on query-cold and serve-mix "
                         "(its memo_hit_ratio is read on every workload)",
                "no_change": "wave-hot (waves run in msbfs.run_wave)"},
    "msbfs": {"moves": "ops_per_s, wall_ms_p50 on wave-hot",
              "no_change": "query-cold, serve-mix"},
    "pagerank": {"moves": "ops_per_s on serve-mix (its three requests a "
                          "round lie above wall_ms_p50 and wall_ms_tail)",
                 "no_change": "query-cold, wave-hot"},
    "serving": {"moves": "wall_ms_p50, sim_latency_*, served_frac on "
                         "serve-mix", "no_change": "query-cold, wave-hot"},
    "observability": {"moves": "wall_ms_p50, ops_per_s on serve-mix",
                      "no_change": "query-cold, wave-hot"},
}


class SiteMissing(RuntimeError):
    """An import site in :data:`SITES` no longer resolves."""


class Recorder:
    """In-memory span log plus per-layer self time and counters."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        #: Open frames: ``[layer, child_ns, span_index]``.
        self._stack: list[list] = []
        #: ``(name, layer, start_ns, end_ns, parent_index, op_id)``.
        self.spans: list[tuple | None] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()

    def span(self, name: str, layer: str, fn, args, kwargs, observe=None):
        stack = self._stack
        nested = bool(stack) and stack[-1][0] == layer
        parent = stack[-1][2] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [layer, 0, index]
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            self.self_ns[layer] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            self.spans[index] = (name, layer, t0, t1, parent, self.op_id)
            if not nested:
                # Re-entry into the same layer (touch_byte_ranges ->
                # touch) is one call into the layer.
                self.calls[layer] += 1
        if observe is not None and not nested:
            observe(self.counters, result, args, kwargs)
        return result

    def chrome_trace(self, meta: dict) -> dict:
        """Spans as Chrome trace events on one ``host`` track."""
        done = [s for s in self.spans if s is not None]
        t_base = min((s[2] for s in done), default=0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "benchmark host"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "host"}},
        ]
        for name, layer, t0, t1, parent, op in done:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (t0 - t_base) / 1e3, "dur": (t1 - t0) / 1e3,
                "args": {"op": op, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": meta}

    def write_chrome_trace(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(meta), fh)


def _observe_cache(counters, result, args, kwargs):
    counters["cache.sectors"] += result.accesses
    counters["cache.l1_hits"] += result.unified_hits
    counters["cache.l2_accesses"] += result.l2_accesses
    counters["cache.l2_hits"] += result.l2_hits


def _observe_um_touch(counters, batch, args, kwargs):
    counters["um.sim_bytes_migrated"] += batch.bytes_moved


def _observe_um_prefetch(counters, batch, args, kwargs):
    counters["um.sim_bytes_prefetched"] += batch.bytes_moved


def _observe_copy(counters, result, args, kwargs):
    nbytes = args[2] if len(args) > 2 else kwargs["nbytes"]
    counters["transfer.sim_bytes"] += int(nbytes)


def _observe_direct(counters, result, args, kwargs):
    counters["transfer.sim_bytes"] += int(result[1])


_OBSERVERS = {
    "CacheHierarchy.access": _observe_cache,
    "UnifiedMemoryManager.touch": _observe_um_touch,
    "UnifiedMemoryManager.touch_byte_ranges": _observe_um_touch,
    "UnifiedMemoryManager.prefetch": _observe_um_prefetch,
    "h2d_copy": _observe_copy,
    "d2h_copy": _observe_copy,
    "direct_access_read": _observe_direct,
}


def _resolve(site: str):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            raise SiteMissing(f"{site}: {name!r} is gone from {module_name}")
    target = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if not callable(target):
        raise SiteMissing(f"{site}: no callable {attr!r} there any more")
    return owner, attr, target, path


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every site; returns the undo list for :func:`uninstall`."""
    undo = []
    try:
        for layer, site in SITES:
            owner, attr, target, path = _resolve(site)
            observe = _OBSERVERS.get(path)

            def wrapper(*args, __fn=target, __name=site, __layer=layer,
                        __observe=observe, **kwargs):
                if not recorder.active:
                    return __fn(*args, **kwargs)
                return recorder.span(__name, __layer, __fn, args, kwargs,
                                     __observe)

            functools.update_wrapper(wrapper, target)
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, target))
    except SiteMissing:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, target in reversed(undo):
        setattr(owner, attr, target)


def check_expected_work(recorder: Recorder, expected: tuple[str, ...],
                        workload: str) -> None:
    """Fail loudly when a layer the workload must exercise was silent."""
    silent = [layer for layer in expected if recorder.calls[layer] == 0]
    if silent:
        raise SiteMissing(
            f"{workload}: layers {silent} recorded no calls; their import "
            "sites no longer see the work (update perfbench/layers.py)"
        )
