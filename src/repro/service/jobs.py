"""Job specs and their execution (the service's unit of work).

A job spec is one JSON object with a ``kind``: ``sweep`` (exact or
interval-sampled miss counts for a config grid on one trace, through
:func:`repro.cache.sweep.sweep_design_space`), ``estimate``
(dilation-model estimates through
:meth:`repro.explore.evaluators.MemoryEvaluator.misses_batch`) or
``explore`` (a spacewalker Pareto walk).  ``docs/SERVICE.md`` is the
schema: every field, its range and default, and the ``repro sweep`` /
``repro explore`` flag that sets it.  Those commands build specs too
and run them in-process through :func:`execute_job`, so the CLI and the
service share one execution path.

:func:`validate_spec` checks every field a job reads at submission, so
a malformed spec is rejected before it is queued.  Every spec is
*content-addressed*: :func:`trace_key` is a digest of the canonical
trace spec, so two clients submitting the same trace (however phrased)
share store entries; sampled results live under sample-specific keys
and never mix with exact ones.  Execution knobs (``max_workers``,
``job_timeout``, ``job_retries``) route into
:class:`repro.runtime.executor.ExecutorPolicy`, so jobs inherit the
fault-tolerant runtime: per-pass timeouts, bounded retries, fault
injection and journal events all carry over.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import weakref
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.sweep import sampled_sweep_design_space, sweep_design_space
from repro.errors import ReproError, RuntimeExecutionError, ServiceError
from repro.runtime.executor import ExecutorPolicy
from repro.runtime.journal import RunJournal, resolve_journal
from repro.service.store import ResultStore, StoreEvaluationCache
from repro.trace.chunkstore import ChunkedTrace
from repro.trace.sampling import SamplePlan
from repro.workloads.suite import BENCHMARK_NAMES

#: Job kinds the queue accepts.
JOB_KINDS = ("sweep", "estimate", "explore")

#: Trace kinds a sweep spec accepts.
TRACE_KINDS = ("ranges", "synthetic", "benchmark", "chunked")

#: Reference-trace roles of benchmark-backed specs.
ROLES = ("icache", "dcache", "unified")

#: Store namespaces used by job execution.
NS_METRICS = "metrics"
NS_EVALCACHE = "evalcache"
NS_FRONTIERS = "frontiers"


# ----------------------------------------------------------------------
# Content addressing.
# ----------------------------------------------------------------------


def canonical(spec: Any) -> str:
    """Canonical JSON of a spec (sorted keys, no whitespace)."""
    try:
        return json.dumps(spec, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"spec is not JSON-representable: {exc}") from exc


def trace_key(trace_spec: dict[str, Any]) -> str:
    """Content address of a trace spec (``spec=<16 hex>``)."""
    digest = hashlib.sha256(canonical(trace_spec).encode()).hexdigest()
    return f"spec={digest[:16]}"


def result_key(trace_id: str, config: CacheConfig) -> str:
    """Content address of one config's exact miss result on one trace."""
    return (
        f"misses:{trace_id}:S{config.sets}"
        f"A{config.assoc}L{config.line_size}"
    )


# ----------------------------------------------------------------------
# Spec parsing and validation.
# ----------------------------------------------------------------------


def _require(spec: dict, field: str, kind: str) -> Any:
    try:
        return spec[field]
    except (KeyError, TypeError):
        raise ServiceError(
            f"{kind} job spec is missing required field {field!r}"
        ) from None


def parse_configs(value: Any) -> list[CacheConfig]:
    """Configs from either an explicit list or a Cartesian grid.

    List form: ``[{"sets": 8, "assoc": 1, "line_size": 16}, ...]``.
    Grid form: ``{"sets": [8, 16], "assocs": [1, 2],
    "line_sizes": [16, 32]}`` (full cross product).
    """
    try:
        if isinstance(value, dict):
            configs = [
                CacheConfig(int(sets), int(assoc), int(line))
                for line in value["line_sizes"]
                for sets in value["sets"]
                for assoc in value["assocs"]
            ]
        else:
            configs = [
                CacheConfig(
                    int(item["sets"]),
                    int(item["assoc"]),
                    int(item["line_size"]),
                )
                for item in value
            ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed configs spec: {exc}") from exc
    except ReproError as exc:
        raise ServiceError(f"infeasible cache configuration: {exc}") from exc
    if not configs:
        raise ServiceError("configs spec is empty")
    return list(dict.fromkeys(configs))


def build_trace_arrays(trace_spec: dict[str, Any]) -> tuple[Any, Any]:
    """Materialize a trace spec into ``(starts, sizes)`` arrays.

    Module-level and driven purely by the (picklable) spec dict, so the
    executor can ship trace construction to worker processes instead of
    materializing in the service parent.
    """
    kind = trace_spec.get("kind")
    if kind == "ranges":
        starts = trace_spec.get("starts")
        sizes = trace_spec.get("sizes")
        if not starts or not sizes or len(starts) != len(sizes):
            raise ServiceError(
                "ranges trace needs equal-length non-empty starts/sizes"
            )
        return (
            np.asarray(starts, dtype=np.int64),
            np.asarray(sizes, dtype=np.int64),
        )
    if kind == "synthetic":
        n = int(trace_spec.get("ranges", 512))
        footprint = int(trace_spec.get("footprint", 65536))
        max_size = int(trace_spec.get("max_size", 64))
        seed = int(trace_spec.get("seed", 0))
        if n < 1 or footprint < 1 or max_size < 1:
            raise ServiceError(
                "synthetic trace needs positive ranges/footprint/max_size"
            )
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, footprint, size=n, dtype=np.int64)
        sizes = rng.integers(1, max_size + 1, size=n, dtype=np.int64)
        return starts, sizes
    if kind == "benchmark":
        trace = _benchmark_trace(trace_spec)
        return trace.starts, trace.sizes
    if kind == "chunked":
        return _open_chunked(trace_spec).materialize()
    raise ServiceError(
        f"unknown trace kind {kind!r}; expected one of {TRACE_KINDS}"
    )


def _open_chunked(trace_spec: dict[str, Any]) -> ChunkedTrace:
    path = _require(trace_spec, "path", "chunked trace")
    try:
        ctrace = ChunkedTrace(path)
    except ReproError as exc:
        raise ServiceError(f"cannot open chunked trace: {exc}") from exc
    expected = trace_spec.get("digest")
    if expected and ctrace.digest != expected:
        ctrace.close()
        raise ServiceError(
            f"chunked trace at {path} has digest {ctrace.digest}, "
            f"spec pinned {expected}"
        )
    return ctrace


def sweep_trace(trace_spec: dict[str, Any]):
    """The trace argument a sweep should pass to the cache layer.

    Chunked specs open the on-disk store (the sweep streams it and ships
    only the path to workers).  Benchmark traces come from the memoized
    experiment pipeline as arrays: a worker rebuilding them from the
    spec would re-run compile and emulate, so parallel passes map the
    parent's copy from shared memory instead.  Cheap synthetic and
    explicit traces stay picklable factories, so workers materialize
    the arrays themselves.
    """
    kind = trace_spec.get("kind")
    if kind == "chunked":
        return _open_chunked(trace_spec)
    if kind == "benchmark":
        trace = _benchmark_trace(trace_spec)
        return trace.starts, trace.sizes
    return SpecTraceFactory(trace_spec)


def _benchmark_trace(trace_spec: dict[str, Any]):
    """The reference trace a ``benchmark`` trace spec names.

    Memoized per (benchmark, scale, visits) through
    :func:`repro.experiments.runner.get_pipeline`, so every caller
    shares one front-end run per benchmark.
    """
    from repro.experiments.runner import RunnerSettings, get_pipeline

    benchmark = _require(trace_spec, "benchmark", "benchmark trace")
    role = trace_spec.get("role", "unified")
    settings = RunnerSettings(
        scale=float(trace_spec.get("scale", 1.0)),
        max_visits=int(trace_spec.get("visits", 60_000)),
    )
    try:
        pipeline = get_pipeline(benchmark, settings)
        return pipeline.reference_artifacts().trace(role)
    except ReproError as exc:
        raise ServiceError(f"cannot build benchmark trace: {exc}") from exc


class SpecTraceFactory:
    """Picklable zero-arg trace factory for :func:`sweep_design_space`."""

    def __init__(self, trace_spec: dict[str, Any]):
        self.trace_spec = trace_spec

    def __call__(self) -> tuple[Any, Any]:
        return build_trace_arrays(self.trace_spec)

    def __len__(self) -> int:
        """The trace's range count, without materializing it."""
        if self.trace_spec["kind"] == "synthetic":
            return int(self.trace_spec.get("ranges", 512))
        return len(self.trace_spec["starts"])


def validate_spec(spec: Any) -> dict[str, Any]:
    """Check a job spec up front (at submission time).

    Raises :class:`ServiceError` with an actionable message; returns the
    spec unchanged when acceptable.  Every field execution reads is
    checked here, so a malformed spec never occupies the queue; only
    what depends on the executing host (a chunked trace's file) is left
    to execution.
    """
    if not isinstance(spec, dict):
        raise ServiceError(f"job spec must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    requires = spec.get("requires")
    if requires is not None and (
        not isinstance(requires, list)
        or not all(isinstance(tag, str) for tag in requires)
    ):
        raise ServiceError(
            "'requires' must be a list of capability tag strings"
        )
    sample = spec.get("sample")
    if sample is not None:
        if not isinstance(sample, dict):
            raise ServiceError("'sample' must be a sampling plan object")
        try:
            SamplePlan.from_spec(sample)
        except ReproError as exc:
            raise ServiceError(f"bad sample plan: {exc}") from exc
    if kind == "sweep":
        trace_spec = _require(spec, "trace", kind)
        if not isinstance(trace_spec, dict) or "kind" not in trace_spec:
            raise ServiceError("sweep trace spec must be an object with a 'kind'")
        if trace_spec["kind"] not in TRACE_KINDS:
            raise ServiceError(
                f"unknown trace kind {trace_spec['kind']!r}"
            )
        if trace_spec["kind"] == "chunked":
            # Shape only: the file may live on the workers' filesystem,
            # not the submitter's.
            path = _require(trace_spec, "path", "chunked trace")
            if not isinstance(path, str) or not path:
                raise ServiceError("chunked trace 'path' must be a string")
        elif trace_spec["kind"] == "benchmark":
            _check_workload(trace_spec, "benchmark trace")
            _check_role(trace_spec.get("role", "unified"))
        else:
            build_trace_arrays(trace_spec)  # cheap: validates eagerly
        parse_configs(_require(spec, "configs", kind))
    elif kind == "estimate":
        _check_workload(spec, kind)
        parse_configs(_require(spec, "configs", kind))
        dilations = spec.get("dilations", [1.0])
        if isinstance(dilations, list) and not dilations:
            raise ServiceError("estimate job needs at least one dilation")
        if not isinstance(dilations, list) or not all(
            _is_number(d) and d > 0 for d in dilations
        ):
            raise ServiceError(
                "'dilations' must be a list of positive numbers, "
                f"got {dilations!r}"
            )
        _check_role(spec.get("role", "icache"))
    else:  # explore
        _check_workload(spec, kind)
        _system_space(spec.get("space"))
    spec_policy(spec)
    return spec


def _is_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _check_role(role: Any) -> None:
    if role not in ROLES:
        raise ServiceError(f"unknown role {role!r}; expected one of {ROLES}")


def _check_workload(spec: dict[str, Any], where: str) -> None:
    """The benchmark, ``scale`` and ``visits`` a benchmark-backed spec names."""
    name = _require(spec, "benchmark", where)
    if name not in BENCHMARK_NAMES:
        raise ServiceError(
            f"unknown benchmark {name!r}; choose from "
            f"{', '.join(BENCHMARK_NAMES)}"
        )
    scale = spec.get("scale", 1.0)
    if not (_is_number(scale) and scale > 0):
        raise ServiceError(
            f"{where} 'scale' must be a positive number, got {scale!r}"
        )
    visits = spec.get("visits", 60_000)
    if isinstance(visits, bool) or not isinstance(visits, int) or visits < 1:
        raise ServiceError(
            f"{where} 'visits' must be a positive integer, got {visits!r}"
        )


def spec_policy(spec: dict[str, Any]) -> ExecutorPolicy:
    """The fault-tolerance policy a job spec asks for.

    Raises :class:`ServiceError` when ``max_workers``, ``job_timeout``
    or ``job_retries`` is mistyped or out of range.
    """
    try:
        return ExecutorPolicy(
            max_workers=spec.get("max_workers"),
            timeout=spec.get("job_timeout"),
            retries=spec.get("job_retries", 2),
        )
    except RuntimeExecutionError as exc:
        raise ServiceError(f"bad execution policy: {exc}") from exc


def _spec_settings(spec: dict[str, Any]):
    """Experiment-runner settings for a benchmark-backed job spec."""
    from repro.experiments.runner import RunnerSettings

    policy = spec_policy(spec)
    return RunnerSettings(
        scale=float(spec.get("scale", 1.0)),
        max_visits=int(spec.get("visits", 60_000)),
        max_workers=policy.max_workers,
        job_timeout=policy.timeout,
        job_retries=policy.retries,
    )


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------


def execute_job(
    spec: dict[str, Any],
    store: ResultStore,
    journal: RunJournal | None = None,
    run_id: str | None = None,
    record: bool = True,
) -> dict[str, Any]:
    """Run one validated job spec against the shared store.

    Returns the job's JSON result document.  All simulation work routes
    through the existing runtime (``sweep_design_space`` /
    ``MemoryEvaluator.prime`` / ``Spacewalker.walk`` →
    :func:`repro.runtime.executor.run_jobs`), so the spec's
    ``max_workers`` / ``job_timeout`` / ``job_retries`` knobs behave
    exactly as they do on the CLI.

    When ``record`` is true (the default) the execution is also
    persisted as a durable analytics run (``run_id`` defaults to a
    fresh id; the service passes the job id so runs and jobs share
    identity).  Recording is observational — it reads the result
    document and the journal window *after* execution, so results are
    bit-identical with and without it.  Failed executions are recorded
    as ``failed`` runs before the exception propagates.
    """
    from repro.analytics.runs import RunRecorder, supports_runs

    journal = resolve_journal(journal)
    validate_spec(spec)
    kind = spec["kind"]
    recorder = None
    if record and supports_runs(store):
        recorder = RunRecorder(
            store,
            kind=kind,
            spec=spec,
            journal=journal,
            run_id=run_id,
            benchmark=spec.get("benchmark")
            or (spec.get("trace") or {}).get("benchmark"),
        )
    try:
        if kind == "sweep":
            result = _execute_sweep(spec, store, journal)
        elif kind == "estimate":
            result = _execute_estimate(spec, store, journal)
        else:
            result = _execute_explore(spec, store, journal)
    except Exception as exc:
        if recorder is not None:
            recorder.finish(state="failed", error=repr(exc))
        raise
    if recorder is not None:
        _record_result_rows(recorder, spec, result)
        recorder.finish()
    return result


def _record_result_rows(
    recorder: Any, spec: dict[str, Any], result: dict[str, Any]
) -> None:
    """Translate one job's result document into run rows."""
    kind = result.get("kind")
    if kind == "sweep":
        trace_spec = spec.get("trace") or {}
        benchmark = trace_spec.get("benchmark")
        role = trace_spec.get("role")
        for doc in result.get("results", ()):
            recorder.add_config_doc(doc, benchmark=benchmark, role=role)
    elif kind == "estimate":
        benchmark = result.get("benchmark")
        role = result.get("role")
        for doc in result.get("results", ()):
            misses = doc.get("misses") or {}
            for dilation, value in misses.items():
                recorder.add_row(
                    benchmark=benchmark,
                    role=role,
                    sets=doc.get("sets"),
                    assoc=doc.get("assoc"),
                    line_size=doc.get("line_size"),
                    misses=value,
                    estimated=bool(result.get("sampled")),
                    source="estimate",
                    dilation=dilation,
                )
    elif kind == "explore":
        benchmark = result.get("benchmark")
        for point in result.get("frontier", ()):
            recorder.add_frontier_point(point, benchmark=benchmark)


def _config_doc(config: CacheConfig, **extra: Any) -> dict[str, Any]:
    return {
        "sets": config.sets,
        "assoc": config.assoc,
        "line_size": config.line_size,
        **extra,
    }


def _execute_sweep(
    spec: dict[str, Any], store: ResultStore, journal: RunJournal
) -> dict[str, Any]:
    trace_spec = spec["trace"]
    configs = parse_configs(spec["configs"])
    tkey = trace_key(trace_spec)
    sample_spec = spec.get("sample")
    plan = SamplePlan.from_spec(sample_spec) if sample_spec else None
    if plan is not None:
        # Estimates live under sample-specific keys so they can never
        # shadow (or be shadowed by) exact results for the same trace.
        rkey_trace = f"{tkey}:sample={trace_key(plan.to_spec())[5:]}"
    else:
        rkey_trace = tkey

    # Result-level de-duplication: configs whose misses are already
    # stored (for this exact trace + sampling identity) are served
    # without any simulation.
    stored: dict[CacheConfig, Any] = {}
    missing: list[CacheConfig] = []
    for config in configs:
        value = store.get(result_key(rkey_trace, config), namespace=NS_METRICS)
        if (
            isinstance(value, dict)
            and "misses" in value
            and "accesses" in value
        ):
            stored[config] = value
        else:
            missing.append(config)

    # The trace length is stored with the results, so a fully served
    # job reports it without rebuilding the trace.
    ranges_key = f"ranges:{tkey}"
    ranges = store.get(ranges_key, namespace=NS_METRICS)
    simulated: dict[CacheConfig, Any] = {}
    if missing or not isinstance(ranges, int):
        trace = sweep_trace(trace_spec)
        try:
            ranges = len(trace[0]) if isinstance(trace, tuple) else len(trace)
            if missing:
                simulated = _simulate_sweep(
                    spec, missing, trace, plan, store, journal, tkey
                )
            fresh = {
                result_key(rkey_trace, config): doc
                for config, doc in simulated.items()
            }
            fresh[ranges_key] = ranges
            store.put_many(fresh, namespace=NS_METRICS)
        finally:
            if isinstance(trace, ChunkedTrace):
                trace.close()

    journal.record(
        "service_dedup",
        kind="sweep",
        trace_key=rkey_trace,
        from_store=len(stored),
        simulated=len(simulated),
    )
    journal.observe_cache(store, label="result-store")
    docs = []
    for config in configs:
        source = "store" if config in stored else "simulated"
        doc = stored.get(config) or simulated[config]
        docs.append(_config_doc(config, **doc, source=source))
    return {
        "kind": "sweep",
        "trace_key": rkey_trace,
        "total": len(configs),
        "from_store": len(stored),
        "simulated": len(simulated),
        "sampled": plan is not None,
        "ranges": ranges,
        "results": docs,
    }


def _simulate_sweep(
    spec: dict[str, Any],
    configs: list[CacheConfig],
    trace: Any,
    plan: SamplePlan | None,
    store: ResultStore,
    journal: RunJournal,
    tkey: str,
) -> dict[CacheConfig, dict[str, Any]]:
    """Result documents of the configs a sweep job could not serve."""
    if plan is not None:
        results = sampled_sweep_design_space(
            configs, trace, plan, journal=journal
        )
        return {
            config: {
                "accesses": miss.accesses,
                "misses": miss.misses,
                "estimated": True,
                "error": miss.error,
                "intervals": miss.intervals,
                "sampled_ranges": miss.sampled_ranges,
                "total_ranges": miss.total_ranges,
            }
            for config, miss in results.items()
        }
    # Group-level de-duplication: the sweep checkpoints each line-size
    # group's single-pass state into the shared store, so even a
    # *partially* overlapping grid reuses whole passes.
    results = sweep_design_space(
        configs,
        trace,
        policy=spec_policy(spec),
        journal=journal,
        checkpoint=StoreEvaluationCache(store, namespace=NS_EVALCACHE),
        trace_key=tkey,
    )
    return {
        config: {"accesses": miss.accesses, "misses": miss.misses}
        for config, miss in results.items()
    }


#: One lock per memoized evaluator (see :func:`_checkpointed`).
_EVALUATOR_LOCKS: "weakref.WeakKeyDictionary[Any, threading.Lock]" = (
    weakref.WeakKeyDictionary()
)
_EVALUATOR_LOCKS_GUARD = threading.Lock()


@contextmanager
def _checkpointed(
    evaluator: Any, store: ResultStore, bench_id: str, sample_spec: Any
) -> Iterator[None]:
    """Attach the shared checkpoint (and sampling plan) for one job.

    The evaluator belongs to a memoized pipeline that outlives the job
    and is shared by every service worker thread, so jobs on one
    evaluator hold its lock for the whole block (one at a time), and
    both are detached afterwards: a later job must neither write into
    this job's store nor inherit its sampling plan.
    """
    with _EVALUATOR_LOCKS_GUARD:
        lock = _EVALUATOR_LOCKS.setdefault(evaluator, threading.Lock())
    with lock:
        # Priming passes checkpoint into the shared store,
        # de-duplicating across jobs, processes and restarts.
        evaluator.attach_checkpoint(
            StoreEvaluationCache(store, namespace=NS_EVALCACHE),
            trace_keys={r: f"{bench_id}:{r}" for r in ROLES},
        )
        if sample_spec:
            evaluator.set_sample_plan(SamplePlan.from_spec(sample_spec))
        try:
            yield
        finally:
            evaluator.attach_checkpoint(None)
            if sample_spec:
                evaluator.set_sample_plan(None)


def _execute_estimate(
    spec: dict[str, Any], store: ResultStore, journal: RunJournal
) -> dict[str, Any]:
    from repro.experiments.runner import get_pipeline

    benchmark = spec["benchmark"]
    role = spec.get("role", "icache")
    configs = parse_configs(spec["configs"])
    dilations = [float(d) for d in spec.get("dilations", [1.0])]
    settings = _spec_settings(spec)
    bench_id = (
        f"{benchmark}:scale={settings.scale:g}:visits={settings.max_visits}"
    )
    try:
        pipeline = get_pipeline(benchmark, settings)
        evaluator = pipeline.memory_evaluator()
    except ReproError as exc:
        raise ServiceError(f"cannot build evaluator: {exc}") from exc
    sample_spec = spec.get("sample")
    with _checkpointed(evaluator, store, bench_id, sample_spec):
        grid = evaluator.misses_batch(
            role, configs, dilations, max_workers=spec.get("max_workers")
        )
    journal.observe_cache(store, label="result-store")
    return {
        "kind": "estimate",
        "benchmark": benchmark,
        "role": role,
        "dilations": dilations,
        "sampled": bool(sample_spec),
        "results": [
            _config_doc(
                config,
                misses={
                    f"{dil:g}": float(grid[i, j])
                    for j, dil in enumerate(dilations)
                },
            )
            for i, config in enumerate(configs)
        ],
    }


def _cache_space(value: dict[str, Any]):
    from repro.explore.spec import CacheDesignSpace

    return CacheDesignSpace(
        sizes_kb=tuple(value["sizes_kb"]),
        assocs=tuple(value["assocs"]),
        line_sizes=tuple(value["line_sizes"]),
    )


def _system_space(overrides: dict[str, Any] | None):
    from repro.explore.spec import ProcessorDesignSpace, SystemDesignSpace

    if not overrides:
        return SystemDesignSpace()
    kwargs: dict[str, Any] = {}
    try:
        for role in ("icache", "dcache", "unified"):
            if role in overrides:
                kwargs[role] = _cache_space(overrides[role])
        if "processors" in overrides:
            procs = overrides["processors"]
            kwargs["processors"] = ProcessorDesignSpace(
                int_units=tuple(procs.get("int_units", (1, 2, 4))),
                float_units=tuple(procs.get("float_units", (1, 2))),
                memory_units=tuple(procs.get("memory_units", (1, 2))),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed space overrides: {exc}") from exc
    except ReproError as exc:
        raise ServiceError(f"infeasible design space: {exc}") from exc
    return SystemDesignSpace(**kwargs)


def _execute_explore(
    spec: dict[str, Any], store: ResultStore, journal: RunJournal
) -> dict[str, Any]:
    from repro.experiments.runner import get_pipeline
    from repro.explore.spacewalker import Spacewalker

    benchmark = spec["benchmark"]
    settings = _spec_settings(spec)
    space = _system_space(spec.get("space"))
    try:
        pipeline = get_pipeline(benchmark, settings)
        evaluator = pipeline.memory_evaluator()
    except ReproError as exc:
        raise ServiceError(f"cannot build pipeline: {exc}") from exc
    bench_id = (
        f"{benchmark}:scale={settings.scale:g}:visits={settings.max_visits}"
    )
    sample_spec = spec.get("sample")
    with _checkpointed(evaluator, store, bench_id, sample_spec):
        pareto = Spacewalker(
            space,
            pipeline,
            max_workers=spec.get("max_workers"),
            policy=settings.executor_policy(),
            journal=journal,
        ).walk()
    frontier = [
        {
            "cost": point.cost,
            "cycles": point.time,
            "processor": point.design.processor,
            "icache": _config_doc(point.design.memory.icache),
            "dcache": _config_doc(point.design.memory.dcache),
            "unified": _config_doc(point.design.memory.unified),
        }
        for point in pareto.frontier()
    ]
    frontier_id = hashlib.sha256(
        canonical(
            {
                "benchmark": bench_id,
                "space": spec.get("space"),
                "sample": sample_spec or None,
            }
        ).encode()
    ).hexdigest()[:16]
    store.put(
        f"pareto:{bench_id}:space={frontier_id}",
        frontier,
        namespace=NS_FRONTIERS,
    )
    journal.observe_cache(store, label="result-store")
    return {
        "kind": "explore",
        "benchmark": benchmark,
        "designs": len(pareto),
        "frontier_key": f"pareto:{bench_id}:space={frontier_id}",
        "frontier": frontier,
    }
