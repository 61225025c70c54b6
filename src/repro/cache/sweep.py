"""Design-space sweep driver.

Implements the paper's first efficiency technique (Section 1): group the
cache design space by line size and run one single-pass Cheetah simulation
per distinct line size, rather than one simulation per configuration.

Distinct line-size groups are independent single-pass simulations, so the
driver can fan them out over worker processes (``max_workers``) through
the fault-tolerant executor in :mod:`repro.runtime`: each worker
simulates one group and ships back the stack-depth histograms, which the
parent folds — in completion order, keyed by line size — into the
ordinary :class:`~repro.cache.simulator.MissResult` mapping.  Callers
see the same API either way, and a crashed or hung worker costs a retry
(or an in-process fallback), not the sweep.

In-process sweeps of more than one line size use the whole-design-space
kernel (:class:`~repro.cache.designspace.DesignSpaceSimulator`): one
line-stream expansion and one value sort shared by every line size,
instead of one of each per line size.  A single line size, or a sweep
under a fault plan, runs independent per-line-size passes (results are
bit-identical either way).

Trace residency: each group's trace is materialized only when its job is
submitted and the parent's copy is dropped right after submission, so
parent-side residency is bounded by the executor's in-flight window
(``max_workers + 1`` groups), never the whole design space.  When the
trace is supplied as a *picklable* factory, the factory itself is
shipped to the workers and the parent never materializes the arrays at
all (unless checkpointing needs a digest).  Otherwise, when the platform
has POSIX shared memory, the arrays are materialized **once** into a
refcounted shared segment and each job ships only a ~200-byte
:class:`~repro.runtime.executor.SharedArrayHandle`; workers map the
arrays zero-copy; without it, each job pickles its own arrays.

Sweeps can checkpoint completed groups into a
:class:`~repro.service.store.StoreEvaluationCache` (one durable
transaction per group, via
:meth:`~repro.service.store.StoreEvaluationCache.bulk`), so a killed run
resumes from the finished groups instead of restarting.
"""

from __future__ import annotations

import hashlib
import pickle
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.cache._util import as_int64_array
from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.designspace import DesignSpaceSimulator
from repro.cache.simulator import MissResult, SampledMissResult
from repro.errors import ConfigurationError, RuntimeExecutionError
from repro.runtime.executor import (
    ExecutorPolicy,
    Job,
    SharedArrayHandle,
    run_jobs,
    segment_manager,
    shm_available,
)
from repro.runtime.journal import RunJournal, resolve_journal
from repro.trace.chunkstore import ChunkedTrace
from repro.trace.sampling import SamplePlan, extrapolate, plan_windows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.store import StoreEvaluationCache

#: A range trace: callable returning (starts, sizes).  Sweeps accept a
#: factory rather than arrays so multi-gigabyte traces can be re-generated
#: lazily per pass instead of held resident.
TraceFactory = Callable[[], tuple[Sequence[int], Sequence[int]]]

#: A trace argument: the (starts, sizes) pair, a factory, or an on-disk
#: chunked trace fed to the engines chunk-at-a-time.
Trace = "tuple[Sequence[int], Sequence[int]] | TraceFactory | ChunkedTrace"


def simulate_group_state(
    line_size: int,
    set_counts: Sequence[int],
    max_assoc: int,
    starts: np.ndarray,
    sizes: np.ndarray,
) -> tuple[int, dict[int, list[int]]]:
    """Run one single-pass simulation and export its histogram state.

    Module-level (picklable) so it can serve as a process-pool work unit;
    also used by :meth:`repro.explore.evaluators.MemoryEvaluator.prime`.
    """
    sim = CheetahSimulator(line_size, set_counts, max_assoc)
    sim.simulate(starts, sizes)
    return sim.state()


def simulate_group_from_factory(
    line_size: int,
    set_counts: Sequence[int],
    max_assoc: int,
    factory: TraceFactory,
) -> tuple[int, dict[int, list[int]]]:
    """Worker-side variant: materialize the trace *inside* the worker.

    Used when the trace factory is picklable, so the parent process never
    holds the expanded arrays.
    """
    starts, sizes = factory()
    return simulate_group_state(
        line_size,
        set_counts,
        max_assoc,
        as_int64_array(starts),
        as_int64_array(sizes),
    )


def simulate_group_from_shm(
    line_size: int,
    set_counts: Sequence[int],
    max_assoc: int,
    handle: SharedArrayHandle,
) -> tuple[int, dict[int, list[int]]]:
    """Worker-side variant: map the trace from shared memory (zero-copy).

    The parent owns the segment and unlinks it after the sweep; the
    simulation only reads the arrays, so the read-only mapped views feed
    it directly.
    """
    with handle.open() as arrays:
        return simulate_group_state(
            line_size,
            set_counts,
            max_assoc,
            arrays["starts"],
            arrays["sizes"],
        )


def simulate_group_from_chunks(
    line_size: int,
    set_counts: Sequence[int],
    max_assoc: int,
    path: str,
    digest: str,
) -> tuple[int, dict[int, list[int]]]:
    """Worker-side variant: mmap an on-disk chunked trace by path.

    Ships only the path and expected content digest (a few hundred
    bytes); the worker maps the file and feeds the engine one chunk at a
    time, so neither side ever holds the whole trace decoded.
    """
    with ChunkedTrace(path) as ctrace:
        if ctrace.digest != digest:
            raise RuntimeExecutionError(
                f"chunked trace at {path} has digest {ctrace.digest}, "
                f"job expected {digest}"
            )
        sim = CheetahSimulator(line_size, set_counts, max_assoc)
        for starts, sizes in ctrace.iter_chunks():
            sim.simulate(starts, sizes)
        return sim.state()


def _materialize(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(trace, ChunkedTrace):
        return trace.materialize()
    starts, sizes = trace() if callable(trace) else trace
    return as_int64_array(starts), as_int64_array(sizes)


def _group_args(
    line_size: int,
    set_counts: list[int],
    max_assoc: int,
    trace: Trace,
    journal: RunJournal,
) -> tuple:
    """Late argument materialization for one group's job (parent side)."""
    starts, sizes = _materialize(trace)
    journal.record(
        "trace_materialized", line_size=line_size, trace_ranges=len(starts)
    )
    return (line_size, set_counts, max_assoc, starts, sizes)


def _is_picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:  # noqa: BLE001 - any pickling failure means "no"
        return False
    return True


# ----------------------------------------------------------------------
# Group-state checkpointing codec (shared with evaluator priming and the
# evaluation service, so every layer's checkpoints interoperate in one
# store).
# ----------------------------------------------------------------------


def trace_digest(starts: np.ndarray, sizes: np.ndarray) -> str:
    """Content address of a materialized trace (``sha256=<24 hex>``)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(starts).tobytes())
    digest.update(np.ascontiguousarray(sizes).tobytes())
    return f"sha256={digest.hexdigest()[:24]}"


def group_state_key(
    trace_id: str,
    line_size: int,
    set_counts: Sequence[int],
    max_assoc: int,
    prefix: str = "sweep",
) -> str:
    """Cache key of one line-size group's simulation state."""
    sets = ",".join(str(s) for s in set_counts)
    return (
        f"{prefix}:{trace_id}:line={line_size}:sets={sets}:assoc={max_assoc}"
    )


def encode_group_state(state: tuple[int, dict[int, list[int]]]) -> list:
    """JSON-representable form of an exported single-pass state."""
    accesses, hists = state
    return [int(accesses), {str(s): list(h) for s, h in hists.items()}]


def decode_group_state(value) -> tuple[int, dict[int, list[int]]] | None:
    """Inverse of :func:`encode_group_state`; None for foreign values."""
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and isinstance(value[1], dict)
    ):
        return int(value[0]), {
            int(sets): list(hist) for sets, hist in value[1].items()
        }
    return None


def encode_chunk_state(
    next_chunk: int, full_state: tuple[int, dict[int, dict]]
) -> list:
    """JSON form of a mid-trace snapshot (histograms **and** LRU stacks).

    Stored between chunks of a chunked-trace sweep so a killed run
    resumes from the last finished chunk rather than the last finished
    group.  The stacks are truncated at ``max_assoc`` per set, so the
    payload is bounded by the design space, not the trace.
    """
    accesses, families = full_state
    return [
        int(next_chunk),
        int(accesses),
        {
            str(nsets): [list(snap["hist"]), [list(s) for s in snap["stacks"]]]
            for nsets, snap in families.items()
        },
    ]


def decode_chunk_state(value) -> tuple[int, int, dict[int, dict]] | None:
    """Inverse of :func:`encode_chunk_state`; None for foreign values."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 3
        or not isinstance(value[2], dict)
    ):
        return None
    families = {
        int(nsets): {"hist": list(snap[0]), "stacks": [list(s) for s in snap[1]]}
        for nsets, snap in value[2].items()
    }
    return int(value[0]), int(value[1]), families


class _SweepCheckpoint:
    """Group-state checkpointing through the evaluation cache.

    One entry per (trace, line size, set counts, max assoc): the exported
    single-pass histogram state.  Stores commit durably per group (inside
    :meth:`StoreEvaluationCache.bulk`, one transaction each), so a killed
    sweep resumes from its completed groups.
    """

    def __init__(
        self,
        cache: "StoreEvaluationCache",
        trace: Trace,
        trace_key: str | None,
        journal: RunJournal,
    ):
        self.cache = cache
        self.journal = journal
        if trace_key is not None:
            self.trace_id = f"key={trace_key}"
        elif isinstance(trace, ChunkedTrace):
            # The chunk index already carries a content digest; no need
            # to materialize anything.
            self.trace_id = trace.trace_id
        else:
            # All line-size groups share one trace, so one digest
            # identifies the whole sweep; materialize once and drop.
            starts, sizes = _materialize(trace)
            self.trace_id = trace_digest(starts, sizes)

    def key(
        self, line_size: int, set_counts: Sequence[int], max_assoc: int
    ) -> str:
        return group_state_key(self.trace_id, line_size, set_counts, max_assoc)

    def lookup(
        self, line_size: int, set_counts: Sequence[int], max_assoc: int
    ) -> tuple[int, dict[int, list[int]]] | None:
        key = self.key(line_size, set_counts, max_assoc)
        state = decode_group_state(self.cache.get(key))
        if state is not None:
            self.journal.record("checkpoint", action="hit", key=key)
            return state
        self.journal.record("checkpoint", action="miss", key=key)
        return None

    def store(
        self,
        line_size: int,
        set_counts: Sequence[int],
        max_assoc: int,
        state: tuple[int, dict[int, list[int]]],
    ) -> None:
        key = self.key(line_size, set_counts, max_assoc)
        with self.cache.bulk():
            self.cache.put(key, encode_group_state(state))
        self.journal.record("checkpoint", action="store", key=key)

    def chunk_key(
        self, line_size: int, set_counts: Sequence[int], max_assoc: int
    ) -> str:
        return group_state_key(
            self.trace_id, line_size, set_counts, max_assoc, prefix="sweepchunk"
        )

    def lookup_chunk(
        self, line_size: int, set_counts: Sequence[int], max_assoc: int
    ) -> tuple[int, int, dict[int, dict]] | None:
        key = self.chunk_key(line_size, set_counts, max_assoc)
        state = decode_chunk_state(self.cache.get(key))
        if state is not None:
            self.journal.record(
                "checkpoint", action="chunk_hit", key=key, chunk=state[0]
            )
            return state
        return None

    def store_chunk(
        self,
        line_size: int,
        set_counts: Sequence[int],
        max_assoc: int,
        next_chunk: int,
        full_state: tuple[int, dict[int, dict]],
    ) -> None:
        key = self.chunk_key(line_size, set_counts, max_assoc)
        with self.cache.bulk():
            self.cache.put(key, encode_chunk_state(next_chunk, full_state))
        self.journal.record(
            "checkpoint", action="chunk_store", key=key, chunk=next_chunk
        )


def sweep_design_space(
    configs: Iterable[CacheConfig],
    trace: "tuple[Sequence[int], Sequence[int]] | TraceFactory",
    max_workers: int | None = None,
    *,
    policy: ExecutorPolicy | None = None,
    journal: RunJournal | None = None,
    checkpoint: "StoreEvaluationCache | None" = None,
    trace_key: str | None = None,
    on_error: str = "raise",
) -> dict[CacheConfig, MissResult]:
    """Simulate every configuration, one pass per distinct line size.

    ``trace`` is either a ``(starts, sizes)`` pair or a zero-argument
    callable producing one (called once per line-size group, at job
    submission time).

    With ``max_workers`` > 1 (or ``policy.max_workers`` > 1) and more
    than one line-size group, the groups run concurrently in worker
    processes under the fault-tolerant executor: failed attempts are
    retried per ``policy``, a broken pool degrades to in-process serial
    execution, and results fold in completion order.

    In-process sweeps without fault injection feed every pending line
    size through one :class:`~repro.cache.designspace.DesignSpaceSimulator`
    (one expansion, one sort) when more than one is pending, and run
    one plain pass otherwise.  Results are bit-identical either way.

    ``checkpoint`` (a :class:`~repro.service.store.StoreEvaluationCache`)
    persists each completed group's simulation state, keyed by a trace
    digest — or by ``trace_key`` when the caller has a cheaper stable
    identity — so re-running the same sweep resumes instead of
    re-simulating.

    ``on_error`` controls what happens when a group still fails after
    retries and fallback: ``"raise"`` (default) raises
    :class:`~repro.errors.RuntimeExecutionError`; ``"partial"`` returns
    results for the surviving groups only (the failure is journaled).
    """
    if on_error not in ("raise", "partial"):
        raise ConfigurationError(
            f"on_error must be 'raise' or 'partial', got {on_error!r}"
        )
    journal = resolve_journal(journal)
    policy = (policy or ExecutorPolicy()).with_workers(max_workers)

    groups: dict[int, list[CacheConfig]] = {}
    for config in configs:
        groups.setdefault(config.line_size, []).append(config)
    if not groups:
        return {}
    meta = {
        line_size: (
            sorted({c.sets for c in group}),
            max(c.assoc for c in group),
        )
        for line_size, group in groups.items()
    }

    ck = (
        _SweepCheckpoint(checkpoint, trace, trace_key, journal)
        if checkpoint is not None
        else None
    )

    results: dict[CacheConfig, MissResult] = {}
    pending: list[int] = []
    for line_size in sorted(groups):
        set_counts, max_assoc = meta[line_size]
        state = ck.lookup(line_size, set_counts, max_assoc) if ck else None
        if state is not None:
            _fold_group(results, groups[line_size], line_size, max_assoc, state)
        else:
            pending.append(line_size)
    if not pending:
        if ck is not None:
            journal.observe_cache(ck.cache, label="sweep-checkpoint")
        return results

    if isinstance(trace, ChunkedTrace):
        # Chunked traces bypass the whole-design-space kernel (it wants
        # the full arrays); each group streams the chunks through one
        # carrying CheetahSimulator instead, and parallel groups ship
        # only the file path.  Results are bit-identical either way.
        return _sweep_chunked(
            trace, groups, meta, pending, results, policy, journal, ck,
            on_error,
        )

    parallel = (
        policy.max_workers is not None
        and policy.max_workers > 1
        and len(pending) > 1
    )
    # The whole-design-space simulator runs all pending line sizes from
    # shared work, in-process; a fault plan keeps the per-group path so
    # injected faults reach the executor.
    use_designspace = (
        not parallel and len(pending) > 1 and policy.fault is None
    )
    if use_designspace:
        starts, sizes = _materialize(trace)
        journal.record(
            "trace_materialized", line_size="all", trace_ranges=len(starts)
        )
        space = DesignSpaceSimulator(
            {line_size: meta[line_size] for line_size in pending}
        )
        space.simulate(starts, sizes)
        trace_ranges = len(starts)
        del starts, sizes
        for line_size in pending:
            set_counts, max_assoc = meta[line_size]
            state = space.state(line_size)
            journal.record(
                "pass",
                role="sweep",
                line_size=line_size,
                where="serial",
                trace_ranges=trace_ranges,
                wall_s=round(space.consume_seconds[line_size], 6),
                kernel_s=round(space.kernel_seconds[line_size], 6),
            )
            if ck is not None:
                ck.store(line_size, set_counts, max_assoc, state)
            _fold_group(
                results, groups[line_size], line_size, max_assoc, state
            )
        if ck is not None:
            journal.observe_cache(ck.cache, label="sweep-checkpoint")
        return results
    if not parallel and policy.fault is None:
        for line_size in pending:
            set_counts, max_assoc = meta[line_size]
            with journal.timed(
                "pass", role="sweep", line_size=line_size, where="serial"
            ) as extra:
                # Attribute this pass's stack-distance kernel time: the
                # simulator records one "stackdist" event per family into
                # the same (active) journal, so the events appended while
                # the pass runs are exactly this pass's kernel calls.
                # Serial/in-process only — worker events never cross the
                # pool boundary, so parallel passes carry no kernel_s.
                kernels_before = len(journal.select("stackdist"))
                starts, sizes = _materialize(trace)
                extra["trace_ranges"] = len(starts)
                state = simulate_group_state(
                    line_size, set_counts, max_assoc, starts, sizes
                )
                extra["kernel_s"] = round(
                    sum(
                        e.get("wall_s", 0.0)
                        for e in journal.select("stackdist")[kernels_before:]
                    ),
                    6,
                )
            del starts, sizes
            if ck is not None:
                ck.store(line_size, set_counts, max_assoc, state)
            _fold_group(results, groups[line_size], line_size, max_assoc, state)
        if ck is not None:
            journal.observe_cache(ck.cache, label="sweep-checkpoint")
        return results

    # Choose the shipping mode.  A picklable factory beats everything
    # (workers materialize their own trace, the parent never holds the
    # arrays); otherwise shared memory materializes the arrays exactly
    # once and ships a ~200-byte handle per job; per-job pickling is the
    # fallback where the platform has no POSIX shared memory.
    if callable(trace) and _is_picklable(trace):
        mode = "factory"
    elif shm_available():
        mode = "shm"
    else:
        mode = "pickle"

    manager = shm_key = handle = None
    try:
        if mode == "shm":
            starts, sizes = _materialize(trace)
            journal.record(
                "trace_materialized",
                line_size="all",
                trace_ranges=len(starts),
            )
            if ck is not None:
                trace_id = ck.trace_id
            elif trace_key is not None:
                trace_id = f"key={trace_key}"
            else:
                trace_id = trace_digest(starts, sizes)
            shm_key = f"sweep:{trace_id}"
            manager = segment_manager()
            handle = manager.acquire(
                shm_key, {"starts": starts, "sizes": sizes}, journal
            )
            handle_bytes = len(pickle.dumps(handle))
            del starts, sizes

        jobs = []
        for line_size in pending:
            set_counts, max_assoc = meta[line_size]
            if mode == "shm":
                jobs.append(
                    Job(
                        key=line_size,
                        fn=simulate_group_from_shm,
                        args=(line_size, set_counts, max_assoc, handle),
                    )
                )
                journal.record(
                    "shm_attach",
                    key=str(line_size),
                    segment=handle.name,
                    bytes_shipped=handle_bytes,
                    bytes_mapped=handle.nbytes,
                )
            elif mode == "factory":
                jobs.append(
                    Job(
                        key=line_size,
                        fn=simulate_group_from_factory,
                        args=(line_size, set_counts, max_assoc, trace),
                    )
                )
            else:
                jobs.append(
                    Job(
                        key=line_size,
                        fn=simulate_group_state,
                        args_factory=partial(
                            _group_args,
                            line_size,
                            set_counts,
                            max_assoc,
                            trace,
                            journal,
                        ),
                    )
                )
        journal.record("trace_shipping", mode=mode, jobs=len(jobs))
        outcomes = run_jobs(jobs, policy, journal)
    finally:
        # Parent-owned unlink on every exit path: worker kills, pool
        # restarts and serial fallback all funnel through here.
        if manager is not None:
            manager.release(shm_key, journal)

    failures: list[tuple[int, str]] = []
    for line_size in pending:
        outcome = outcomes[line_size]
        set_counts, max_assoc = meta[line_size]
        if not outcome.ok:
            failures.append((line_size, outcome.error or "unknown error"))
            journal.record(
                "group_failed",
                line_size=line_size,
                configs=len(groups[line_size]),
                error=outcome.error,
            )
            continue
        journal.record(
            "pass",
            role="sweep",
            line_size=line_size,
            where=outcome.where,
            wall_s=round(outcome.wall_s, 6),
        )
        if ck is not None:
            ck.store(line_size, set_counts, max_assoc, outcome.value)
        _fold_group(
            results, groups[line_size], line_size, max_assoc, outcome.value
        )
    if ck is not None:
        journal.observe_cache(ck.cache, label="sweep-checkpoint")
    if failures and on_error == "raise":
        line_size, error = failures[0]
        raise RuntimeExecutionError(
            f"{len(failures)} line-size group(s) failed after retries "
            f"(first: line {line_size}: {error})"
        )
    return results


def _sweep_chunked(
    ctrace: ChunkedTrace,
    groups: dict[int, list[CacheConfig]],
    meta: dict[int, tuple[list[int], int]],
    pending: list[int],
    results: dict[CacheConfig, MissResult],
    policy: ExecutorPolicy,
    journal: RunJournal,
    ck: "_SweepCheckpoint | None",
    on_error: str,
) -> dict[CacheConfig, MissResult]:
    """Run the pending groups of a sweep over an on-disk chunked trace.

    Serial groups stream chunk-at-a-time through one carrying simulator,
    snapshotting full state (histograms + LRU stacks) into the
    checkpoint between chunks so a killed run resumes mid-trace.
    Parallel groups ship ``(path, digest)`` to the workers — a few
    hundred bytes per job — and each worker mmaps the file itself.
    """
    parallel = (
        policy.max_workers is not None
        and policy.max_workers > 1
        and len(pending) > 1
    )
    if not parallel and policy.fault is None:
        for line_size in pending:
            set_counts, max_assoc = meta[line_size]
            with journal.timed(
                "pass", role="sweep", line_size=line_size, where="serial"
            ) as extra:
                sim = None
                first_chunk = 0
                if ck is not None:
                    resume = ck.lookup_chunk(line_size, set_counts, max_assoc)
                    if resume is not None and 0 < resume[0] <= ctrace.n_chunks:
                        first_chunk, accesses, families = resume
                        if sorted(families) == list(set_counts):
                            sim = CheetahSimulator.from_full_state(
                                line_size, max_assoc, accesses, families
                            )
                        else:
                            first_chunk = 0
                if sim is None:
                    sim = CheetahSimulator(line_size, set_counts, max_assoc)
                for index in range(first_chunk, ctrace.n_chunks):
                    starts, sizes = ctrace.chunk(index)
                    sim.simulate(starts, sizes)
                    del starts, sizes
                    if ck is not None and index + 1 < ctrace.n_chunks:
                        ck.store_chunk(
                            line_size,
                            set_counts,
                            max_assoc,
                            index + 1,
                            sim.full_state(),
                        )
                state = sim.state()
                extra["trace_ranges"] = ctrace.n_ranges
                extra["chunks"] = ctrace.n_chunks
                if first_chunk:
                    extra["resumed_at_chunk"] = first_chunk
            del sim
            if ck is not None:
                ck.store(line_size, set_counts, max_assoc, state)
            _fold_group(results, groups[line_size], line_size, max_assoc, state)
        if ck is not None:
            journal.observe_cache(ck.cache, label="sweep-checkpoint")
        return results

    jobs = []
    for line_size in pending:
        set_counts, max_assoc = meta[line_size]
        jobs.append(
            Job(
                key=line_size,
                fn=simulate_group_from_chunks,
                args=(
                    line_size,
                    set_counts,
                    max_assoc,
                    str(ctrace.path),
                    ctrace.digest,
                ),
            )
        )
    journal.record(
        "trace_shipping",
        mode="chunkpath",
        jobs=len(jobs),
        trace_ranges=ctrace.n_ranges,
        chunks=ctrace.n_chunks,
    )
    outcomes = run_jobs(jobs, policy, journal)

    failures: list[tuple[int, str]] = []
    for line_size in pending:
        outcome = outcomes[line_size]
        set_counts, max_assoc = meta[line_size]
        if not outcome.ok:
            failures.append((line_size, outcome.error or "unknown error"))
            journal.record(
                "group_failed",
                line_size=line_size,
                configs=len(groups[line_size]),
                error=outcome.error,
            )
            continue
        journal.record(
            "pass",
            role="sweep",
            line_size=line_size,
            where=outcome.where,
            wall_s=round(outcome.wall_s, 6),
        )
        if ck is not None:
            ck.store(line_size, set_counts, max_assoc, outcome.value)
        _fold_group(
            results, groups[line_size], line_size, max_assoc, outcome.value
        )
    if ck is not None:
        journal.observe_cache(ck.cache, label="sweep-checkpoint")
    if failures and on_error == "raise":
        line_size, error = failures[0]
        raise RuntimeExecutionError(
            f"{len(failures)} line-size group(s) failed after retries "
            f"(first: line {line_size}: {error})"
        )
    return results


def sampled_sweep_design_space(
    configs: Iterable[CacheConfig],
    trace: "tuple[Sequence[int], Sequence[int]] | TraceFactory | ChunkedTrace",
    plan: SamplePlan,
    *,
    journal: RunJournal | None = None,
) -> dict[CacheConfig, SampledMissResult]:
    """Estimate every configuration's misses from sampled intervals.

    Groups by line size like :func:`sweep_design_space`, but simulates
    only the plan's windows: per window, a fresh single-pass simulator
    is warmed on the warm-up prefix (its counts discarded) and then
    measures the window, and per-config misses extrapolate to the whole
    trace by the sampled fraction with a cross-interval error estimate.

    Over a :class:`~repro.trace.chunkstore.ChunkedTrace` each window
    reads only the chunks it overlaps, so a sampled sweep of an
    arbitrarily long on-disk trace stays in bounded memory.  Results are
    estimates — they are never written into exact-result checkpoints.
    """
    journal = resolve_journal(journal)
    groups: dict[int, list[CacheConfig]] = {}
    for config in configs:
        groups.setdefault(config.line_size, []).append(config)
    if not groups:
        return {}

    if isinstance(trace, ChunkedTrace):
        total = trace.n_ranges
        read = trace.window
    else:
        starts, sizes = _materialize(trace)
        total = len(starts)

        def read(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            return starts[lo:hi], sizes[lo:hi]

    windows = plan_windows(total, plan)
    results: dict[CacheConfig, SampledMissResult] = {}
    if not windows:  # empty trace
        for group in groups.values():
            for config in group:
                results[config] = SampledMissResult(
                    config, 0, 0, error=None, intervals=0
                )
        return results
    for line_size in sorted(groups):
        group = groups[line_size]
        set_counts = sorted({c.sets for c in group})
        max_assoc = max(c.assoc for c in group)
        per_interval: list[tuple[int, int, dict]] = []
        with journal.timed(
            "pass", role="sampled-sweep", line_size=line_size, where="serial"
        ) as extra:
            for w in windows:
                sim = CheetahSimulator(line_size, set_counts, max_assoc)
                if w.warm_lo < w.lo:
                    sim.simulate(*read(w.warm_lo, w.lo))
                acc0, hists0 = sim.state()
                sim.simulate(*read(w.lo, w.hi))
                acc1, hists1 = sim.state()
                delta = {
                    nsets: [
                        b - a for a, b in zip(hists0[nsets], hists1[nsets])
                    ]
                    for nsets in hists1
                }
                per_interval.append((w.measured, acc1 - acc0, delta))
            extra["intervals"] = len(windows)
            extra["sampled_ranges"] = sum(w.measured for w in windows)
            extra["trace_ranges"] = total
        for config in group:
            tuples = []
            for ranges, accesses, delta in per_interval:
                hist = delta[config.sets]
                hits = sum(hist[: config.assoc])
                tuples.append((ranges, accesses, accesses - hits))
            est = extrapolate(tuples, total)
            results[config] = SampledMissResult(
                config,
                est.accesses,
                est.misses,
                error=est.error,
                intervals=est.intervals,
                sampled_ranges=est.sampled_ranges,
                total_ranges=est.total_ranges,
            )
        journal.record(
            "sampled_pass",
            line_size=line_size,
            intervals=len(windows),
            sampled_ranges=sum(w.measured for w in windows),
            trace_ranges=total,
            configs=len(group),
        )
    return results


def _fold_group(
    results: dict[CacheConfig, MissResult],
    group: list[CacheConfig],
    line_size: int,
    max_assoc: int,
    state: tuple[int, dict[int, list[int]]],
) -> None:
    accesses, hists = state
    sim = CheetahSimulator.from_state(line_size, max_assoc, accesses, hists)
    for config in group:
        results[config] = sim.result(config)


def simulation_passes_required(configs: Iterable[CacheConfig]) -> int:
    """Number of trace passes a sweep needs (= distinct line sizes).

    This is the quantity behind the paper's order-of-magnitude reduction
    claim: "if all 20 caches in the design space have only one of two
    distinct line sizes, the overall computation effort is reduced by an
    order of magnitude."
    """
    return len({c.line_size for c in configs})
