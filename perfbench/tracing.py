"""Outside-in span tracing of the repro pipeline layers.

The benchmark never edits the program: ``launch.py`` imports ``repro``,
replaces each layer's public functions with timing wrappers from the
table below, and then runs the CLI unchanged.  A span is recorded per
wrapped call (id, parent, layer, start, end); spans stay in memory and
are written out once, when the process exits.  A layer's *self* time is
its spans' durations minus the time their child spans cover, so nested
layers (a cache pass inside ``Spacewalker.walk``) are never counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _visits(args, kwargs, result):
    return {"trace.emulate_calls": 1, "trace.visits": result.n_visits}


def _ranges(args, kwargs, result):
    return {"trace.ranges": len(result)}


def _pass(args, kwargs, result):
    # (self, starts, sizes): one single-pass simulation over the trace.
    return {"cache.passes": 1, "cache.refs": len(args[1])}


def _designs(args, kwargs, result):
    return {"explore.designs": len(result)}


def _store_get(args, kwargs, result):
    return {"service.store_gets": 1, "service.store_hits": result is not None}


def _run_jobs(args, kwargs, result):
    return {"runtime.jobs": len(args[0])}


#: (layer, module, attribute path, counter) for every wrapped function.
#: Attribute paths with a dot name a method on a class.
LAYERS = (
    ("workloads.load", "repro.workloads.suite", "load_benchmark", None),
    ("vliwcomp.compile", "repro.vliwcomp.compile", "compile_program", None),
    ("iformat.assemble", "repro.iformat.assembler", "assemble", None),
    ("iformat.link", "repro.iformat.linker", "link", None),
    ("trace.emulate", "repro.trace.emulator", "Emulator.run", _visits),
    ("trace.generate", "repro.trace.generator",
     "TraceGenerator.instruction_trace", _ranges),
    ("trace.generate", "repro.trace.generator",
     "TraceGenerator.data_trace", _ranges),
    ("trace.generate", "repro.trace.generator",
     "TraceGenerator.unified_trace", _ranges),
    ("cache.sim", "repro.explore.evaluators", "MemoryEvaluator.prime", None),
    ("cache.sim", "repro.explore.evaluators",
     "MemoryEvaluator.simulated_misses", None),
    ("cache.sim", "repro.cache.sweep", "sweep_design_space", None),
    ("cache.sim", "repro.cache.cheetah", "CheetahSimulator.simulate", _pass),
    ("cache.sim", "repro.cache.designspace",
     "DesignSpaceSimulator.simulate", _pass),
    ("ahh.params", "repro.ahh.modeler", "derive_trace_parameters", None),
    ("core.estimate", "repro.explore.evaluators", "MemoryEvaluator.misses",
     None),
    ("core.estimate", "repro.explore.evaluators",
     "MemoryEvaluator.misses_batch", None),
    ("core.dilation", "repro.core.dilation", "measure_dilation", None),
    ("core.dilation", "repro.core.dilated_trace", "dilate_binary", None),
    ("explore.walk", "repro.explore.spacewalker", "Spacewalker.walk",
     _designs),
    ("runtime.run_jobs", "repro.runtime.executor", "run_jobs", _run_jobs),
    ("service.store", "repro.service.store", "ResultStore.get", _store_get),
    ("service.store", "repro.service.store", "ResultStore.put_many", None),
    ("service.trace_build", "repro.service.jobs", "sweep_trace", None),
    ("service.trace_build", "repro.service.jobs", "build_trace_arrays", None),
)

#: Layer names in report order (``explore.walk`` self time excludes the
#: layers it calls, like every other layer).
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))


class SpanRecorder:
    """In-memory span log shared by every thread of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.started = time.perf_counter()

    def wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, layer, start, end))
            if counter is not None:
                increments = counter(args, kwargs, result)
                with self._lock:
                    for name, value in increments.items():
                        self.counts[name] += int(value)
            return result

        return traced

    def install(self) -> None:
        """Replace every function in :data:`LAYERS` with a traced one.

        Module-level functions are also replaced wherever a loaded
        ``repro`` module imported them by name.
        """
        for layer, module_name, path, counter in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            traced = self.wrap(layer, original, counter)
            setattr(owner, attr, traced)
            if owner_name:
                continue
            for name, loaded in list(sys.modules.items()):
                if name.startswith("repro") and loaded is not None:
                    if getattr(loaded, attr, None) is original:
                        setattr(loaded, attr, traced)

    def dump(self, path: str) -> None:
        """Write the spans (times relative to process start) and counts."""
        doc = {
            "fields": ["id", "parent", "layer", "start_s", "end_s"],
            "spans": [
                [i, p, layer, s - self.started, e - self.started]
                for i, p, layer, s, e in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def self_times(spans) -> tuple[dict[str, float], float]:
    """Per-layer self seconds and the seconds covered by root spans.

    ``spans`` are rows ``[id, parent, layer, start_s, end_s]`` from one
    process.  Children run on their parent's thread and nest inside it,
    so a span's self time is its duration minus its children's.
    """
    duration = {row[0]: row[4] - row[3] for row in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, *_ in spans:
        if parent:
            child_time[parent] += duration[span_id]
    per_layer: dict[str, float] = defaultdict(float)
    rooted = 0.0
    for span_id, parent, layer, *_ in spans:
        per_layer[layer] += duration[span_id] - child_time[span_id]
        if not parent:
            rooted += duration[span_id]
    return dict(per_layer), rooted
