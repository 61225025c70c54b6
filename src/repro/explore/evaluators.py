"""Evaluators: metric computation behind the evaluation cache.

:class:`MemoryEvaluator` is the heart of the paper's efficient strategy.
It holds the *reference* processor's traces and the AHH trace parameters,
and answers miss queries for any cache configuration at any dilation:

* dilation 1 queries are answered by simulation, batched one single-pass
  Cheetah run per (trace role, line size) — the paper's first technique;
* non-unit dilation queries are answered by the dilation model
  (Section 4.3) from those same simulations — "the number of misses
  generated by an instruction cache configuration on a trace with a
  non-unit dilation is ... evaluated internally within the Evaluators
  module" (Section 5.1).

The module also provides the evaluation-cost arithmetic of Section 1
(the 466-days example).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from concurrent.futures import Executor
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.ahh.params import TraceParameters
from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.sweep import (
    decode_group_state,
    encode_group_state,
    group_state_key,
    simulate_group_from_shm,
    simulate_group_state,
    trace_digest,
)
from repro.core.estimator import DilationEstimator
from repro.errors import ConfigurationError, RuntimeExecutionError
from repro.runtime.executor import (
    ExecutorPolicy,
    Job,
    run_jobs,
    segment_manager,
    shm_available,
)
from repro.runtime.journal import RunJournal, resolve_journal
from repro.trace.ranges import RangeTrace
from repro.trace.sampling import SamplePlan, plan_windows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.store import StoreEvaluationCache

#: Trace roles a memory evaluator serves.
ROLES = ("icache", "dcache", "unified")


class MemoryEvaluator:
    """Reference-trace miss oracle for all three cache roles."""

    def __init__(
        self,
        instruction_trace: RangeTrace,
        data_trace: RangeTrace,
        unified_trace: RangeTrace,
        params: TraceParameters | None,
        max_assoc: int = 8,
    ):
        self._traces = {
            "icache": instruction_trace,
            "dcache": data_trace,
            "unified": unified_trace,
        }
        self.params = params
        # Without trace parameters the evaluator still answers dilation-1
        # (pure simulation) queries; estimation raises.
        self.estimator = (
            DilationEstimator(params) if params is not None else None
        )
        self.max_assoc = max_assoc
        # (role, line_size) -> CheetahSimulator that has seen the trace.
        self._sims: dict[tuple[str, int], CheetahSimulator] = {}
        # Registered set counts per (role, line_size), pre-simulation.
        self._wanted: dict[tuple[str, int], set[int]] = {}
        self.simulation_passes = 0
        # Optional shared pass-state checkpoint (see attach_checkpoint).
        self._checkpoint: "StoreEvaluationCache | None" = None
        self._trace_keys: dict[str, str] = {}
        self._trace_ids: dict[str, str] = {}
        # Optional interval-sampling plan (see set_sample_plan): when
        # set, priming passes simulate only the plan's windows and the
        # evaluator answers extrapolated estimates.
        self.sample_plan: SamplePlan | None = None

    def set_sample_plan(self, plan: SamplePlan | None) -> None:
        """Switch the evaluator between exact and interval-sampled passes.

        With a plan installed, each (role, line size) pass simulates only
        the plan's windows — warmed per window, counts extrapolated by
        the sampled fraction — so every subsequent miss query is an
        estimate.  Sampled pass states checkpoint under plan-specific
        keys, never mixing with exact ones.  Installing (or clearing) a
        plan drops already-primed simulators: exact and sampled states
        must not coexist in one evaluator.
        """
        self.sample_plan = plan
        self._sims.clear()

    # ------------------------------------------------------------------
    # Shared-store checkpointing.
    # ------------------------------------------------------------------

    def attach_checkpoint(
        self,
        cache: "StoreEvaluationCache | None",
        trace_keys: Mapping[str, str] | None = None,
    ) -> None:
        """Share simulation pass states through an evaluation cache.

        Once attached, every pass this evaluator runs is stored in
        ``cache`` (keyed by trace content digest — or the caller's
        cheaper stable ``trace_keys[role]`` identity — plus the pass
        family), and passes another process already ran are adopted from
        the cache instead of re-simulated.  Pointing several evaluator
        instances (across processes or machines) at one store-backed
        cache de-duplicates their priming work.  ``None`` detaches.
        """
        self._checkpoint = cache
        self._trace_keys = dict(trace_keys or {})
        self._trace_ids = {}

    def _trace_id(self, role: str) -> str:
        cached = self._trace_ids.get(role)
        if cached is None:
            key = self._trace_keys.get(role)
            if key is not None:
                cached = f"key={key}"
            else:
                trace = self._traces[role]
                cached = trace_digest(trace.starts, trace.sizes)
            self._trace_ids[role] = cached
        return cached

    def _unit_key(self, role: str, line_size: int) -> str:
        set_counts = sorted(self._wanted.get((role, line_size), set()))
        trace_part = f"{role}:{self._trace_id(role)}"
        if self.sample_plan is not None:
            spec = json.dumps(self.sample_plan.to_spec(), sort_keys=True)
            digest = hashlib.sha256(spec.encode()).hexdigest()[:12]
            trace_part += f":sample={digest}"
        return group_state_key(
            trace_part,
            line_size,
            set_counts,
            self.max_assoc,
            prefix="prime",
        )

    def _checkpoint_lookup(
        self, role: str, line_size: int
    ) -> tuple[int, dict[int, list[int]]] | None:
        if self._checkpoint is None:
            return None
        key = self._unit_key(role, line_size)
        state = decode_group_state(self._checkpoint.get(key))
        resolve_journal(None).record(
            "checkpoint",
            action="hit" if state is not None else "miss",
            key=key,
        )
        return state

    def _checkpoint_store(
        self,
        role: str,
        line_size: int,
        state: tuple[int, dict[int, list[int]]],
    ) -> None:
        if self._checkpoint is None:
            return
        key = self._unit_key(role, line_size)
        with self._checkpoint.bulk():
            self._checkpoint.put(key, encode_group_state(state))
        resolve_journal(None).record("checkpoint", action="store", key=key)

    # ------------------------------------------------------------------
    # Registration and batched simulation.
    # ------------------------------------------------------------------

    def register(self, role: str, configs: Iterable[CacheConfig]) -> None:
        """Pre-declare configurations so passes can be batched."""
        self._check_role(role)
        for config in configs:
            key = (role, config.line_size)
            if key in self._sims and config.sets not in self._sims[key].set_counts:
                # A pass already ran without this set count; queue a redo.
                wanted = self._wanted.setdefault(key, set())
                wanted.update(self._sims[key].set_counts)
                wanted.add(config.sets)
                del self._sims[key]
            else:
                self._wanted.setdefault(key, set()).add(config.sets)

    def _simulator(self, role: str, line_size: int) -> CheetahSimulator:
        key = (role, line_size)
        sim = self._sims.get(key)
        if sim is None:
            set_counts = sorted(self._wanted.get(key, set()))
            if not set_counts:
                raise ConfigurationError(
                    f"no configurations registered for {role} line {line_size}"
                )
            state = self._checkpoint_lookup(role, line_size)
            if state is not None:
                return self._adopt_state(role, line_size, state)
            if self.sample_plan is not None:
                state = self._sampled_state(role, line_size, set_counts)
                sim = self._adopt_state(role, line_size, state)
                self.simulation_passes += 1
                self._checkpoint_store(role, line_size, state)
                return sim
            sim = CheetahSimulator(line_size, set_counts, self.max_assoc)
            trace = self._traces[role]
            with resolve_journal(None).timed(
                "pass",
                role=role,
                line_size=line_size,
                trace_ranges=len(trace),
                where="serial",
            ):
                sim.simulate(trace.starts, trace.sizes)
            self.simulation_passes += 1
            self._sims[key] = sim
            self._checkpoint_store(role, line_size, sim.state())
        return sim

    def _sampled_state(
        self, role: str, line_size: int, set_counts: list[int]
    ) -> tuple[int, dict[int, list[int]]]:
        """Extrapolated pass state from the sample plan's windows.

        Per-interval histogram deltas (measured window only, after the
        warm-up primes each window's LRU state) sum across intervals and
        scale by the sampled fraction; the resulting state answers the
        same queries as an exact pass, as estimates.
        """
        trace = self._traces[role]
        plan = self.sample_plan
        total = len(trace)
        windows = plan_windows(total, plan)
        acc = 0
        agg = {n: [0] * (self.max_assoc + 1) for n in set_counts}
        for w in windows:
            sim = CheetahSimulator(line_size, set_counts, self.max_assoc)
            if w.warm_lo < w.lo:
                sim.simulate(
                    trace.starts[w.warm_lo : w.lo],
                    trace.sizes[w.warm_lo : w.lo],
                )
            acc0, hists0 = sim.state()
            sim.simulate(trace.starts[w.lo : w.hi], trace.sizes[w.lo : w.hi])
            acc1, hists1 = sim.state()
            acc += acc1 - acc0
            for nsets in set_counts:
                agg[nsets] = [
                    t + (b - a)
                    for t, a, b in zip(
                        agg[nsets], hists0[nsets], hists1[nsets]
                    )
                ]
        sampled = sum(w.measured for w in windows)
        scale = total / sampled if sampled else 1.0
        resolve_journal(None).record(
            "sampled_pass",
            role=role,
            line_size=line_size,
            intervals=len(windows),
            sampled_ranges=sampled,
            trace_ranges=total,
        )
        return round(acc * scale), {
            nsets: [round(v * scale) for v in hist]
            for nsets, hist in agg.items()
        }

    def _adopt_state(
        self,
        role: str,
        line_size: int,
        state: tuple[int, dict[int, list[int]]],
    ) -> CheetahSimulator:
        """Install a checkpointed pass state without pass accounting."""
        accesses, hists = state
        sim = CheetahSimulator.from_state(
            line_size, self.max_assoc, accesses, hists
        )
        self._sims[(role, line_size)] = sim
        return sim

    # ------------------------------------------------------------------
    # Parallel priming: run pending passes in worker processes.
    # ------------------------------------------------------------------

    def pending_units(self) -> list[tuple[str, int]]:
        """Registered (role, line size) passes that have not run yet."""
        return [key for key in self._wanted if key not in self._sims]

    def unit_job(self, role: str, line_size: int) -> tuple:
        """Picklable argument tuple for :func:`simulate_group_state`."""
        set_counts = sorted(self._wanted[(role, line_size)])
        trace = self._traces[role]
        return (line_size, set_counts, self.max_assoc, trace.starts, trace.sizes)

    def install_unit(
        self,
        role: str,
        line_size: int,
        accesses: int,
        hists: dict[int, list[int]],
    ) -> None:
        """Adopt one pass's exported histogram state (from a worker)."""
        self._sims[(role, line_size)] = CheetahSimulator.from_state(
            line_size, self.max_assoc, accesses, hists
        )
        self.simulation_passes += 1
        resolve_journal(None).record(
            "pass",
            role=role,
            line_size=line_size,
            trace_ranges=len(self._traces[role]),
            where="worker",
        )
        self._checkpoint_store(role, line_size, (accesses, hists))

    def prime(
        self,
        max_workers: int | None = None,
        executor: Executor | None = None,
        policy: ExecutorPolicy | None = None,
        journal: RunJournal | None = None,
    ) -> int:
        """Run every pending registered pass, optionally in parallel.

        Returns the number of passes run.  With ``max_workers`` > 1 (or
        ``policy.max_workers`` > 1) and more than one pending pass, the
        passes run in worker processes under the fault-tolerant executor
        (:func:`repro.runtime.run_jobs`): failed attempts retry with
        backoff, and a broken pool degrades to in-process execution —
        results are indistinguishable from serial runs either way.

        An explicit ``executor`` (an externally owned pool, e.g. shared
        across evaluators) bypasses the fault-tolerant layer: its
        lifecycle is the caller's responsibility.
        """
        pending = self.pending_units()
        if not pending:
            return 0
        journal = resolve_journal(journal)
        # Adopt passes another process already checkpointed; only the
        # remainder is actually simulated (possibly in parallel).
        adopted = 0
        if self._checkpoint is not None:
            remaining: list[tuple[str, int]] = []
            for role, line_size in pending:
                state = self._checkpoint_lookup(role, line_size)
                if state is not None:
                    self._adopt_state(role, line_size, state)
                    adopted += 1
                else:
                    remaining.append((role, line_size))
            pending = remaining
            if not pending:
                return adopted
        if executor is not None:
            futures = [
                executor.submit(simulate_group_state, *self.unit_job(*key))
                for key in pending
            ]
            for key, future in zip(pending, futures):
                accesses, hists = future.result()
                self.install_unit(*key, accesses, hists)
            return adopted + len(pending)

        policy = (policy or ExecutorPolicy()).with_workers(max_workers)
        parallel = (
            policy.max_workers is not None
            and policy.max_workers > 1
            and len(pending) > 1
        )
        if self.sample_plan is not None:
            # Sampled passes touch a small fraction of the trace; the
            # fan-out overhead dwarfs the work, so they run in-process.
            for role, line_size in pending:
                self._simulator(role, line_size)
            return adopted + len(pending)
        if not parallel and policy.fault is None:
            for role, line_size in pending:
                self._simulator(role, line_size)
            return adopted + len(pending)

        # Passes of one role share that role's trace: with shared-memory
        # shipping the arrays are materialized into one segment per role
        # and every job ships only a tiny handle (parent-owned unlink in
        # the finally below covers every fault path).
        use_shm = shm_available()
        manager = segment_manager() if use_shm else None
        shm_keys: list[str] = []
        try:
            jobs = []
            if use_shm:
                handles: dict[str, tuple] = {}
                for role in {role for role, _ in pending}:
                    trace = self._traces[role]
                    shm_key = f"explore:{role}:{self._trace_id(role)}"
                    handle = manager.acquire(
                        shm_key,
                        {"starts": trace.starts, "sizes": trace.sizes},
                        journal,
                    )
                    shm_keys.append(shm_key)
                    handles[role] = (handle, len(pickle.dumps(handle)))
                for key in pending:
                    role, line_size = key
                    handle, handle_bytes = handles[role]
                    set_counts = sorted(self._wanted[key])
                    jobs.append(
                        Job(
                            key=key,
                            fn=simulate_group_from_shm,
                            args=(
                                line_size,
                                set_counts,
                                self.max_assoc,
                                handle,
                            ),
                        )
                    )
                    journal.record(
                        "shm_attach",
                        key=str(key),
                        segment=handle.name,
                        bytes_shipped=handle_bytes,
                        bytes_mapped=handle.nbytes,
                    )
            else:
                jobs = [
                    Job(
                        key=key,
                        fn=simulate_group_state,
                        args_factory=partial(self.unit_job, *key),
                    )
                    for key in pending
                ]
            journal.record(
                "trace_shipping",
                mode="shm" if use_shm else "pickle",
                jobs=len(jobs),
            )
            outcomes = run_jobs(jobs, policy, journal)
        finally:
            if manager is not None:
                for shm_key in shm_keys:
                    manager.release(shm_key, journal)
        failures = [r for r in outcomes.values() if not r.ok]
        if failures:
            first = failures[0]
            raise RuntimeExecutionError(
                f"{len(failures)} simulation pass(es) failed after "
                f"retries (first: {first.key}: {first.error})"
            )
        for key in pending:
            accesses, hists = outcomes[key].value
            self.install_unit(*key, accesses, hists)
        return adopted + len(pending)

    def simulated_misses(self, role: str, config: CacheConfig) -> int:
        """Reference-trace misses of ``config`` (simulating if needed)."""
        self._check_role(role)
        self.register(role, [config])
        sim = self._simulator(role, config.line_size)
        return sim.misses(config.sets, config.assoc)

    # ------------------------------------------------------------------
    # Public miss queries (dilation-aware).
    # ------------------------------------------------------------------

    def icache_misses(self, config: CacheConfig, dilation: float = 1.0) -> float:
        """Instruction-cache misses: simulated at d=1, modeled otherwise."""
        if dilation == 1.0:
            return float(self.simulated_misses("icache", config))
        estimator = self._require_estimator()
        needed = estimator.required_icache_configs(config, dilation)
        self.register("icache", needed)
        reference = {c: self.simulated_misses("icache", c) for c in needed}
        return estimator.estimate_icache_misses(config, dilation, reference)

    def dcache_misses(self, config: CacheConfig, dilation: float = 1.0) -> float:
        """Data-cache misses (dilation-independent per Eq 4.1)."""
        # Eq (4.1): data misses are dilation-independent.
        del dilation
        return float(self.simulated_misses("dcache", config))

    def unified_misses(self, config: CacheConfig, dilation: float = 1.0) -> float:
        """Unified-cache misses: simulated at d=1, extrapolated otherwise."""
        reference = self.simulated_misses("unified", config)
        if dilation == 1.0:
            return float(reference)
        return self._require_estimator().estimate_unified_misses(
            config, dilation, reference
        )

    def misses(
        self, role: str, config: CacheConfig, dilation: float = 1.0
    ) -> float:
        """Role-dispatched miss query."""
        self._check_role(role)
        if role == "icache":
            return self.icache_misses(config, dilation)
        if role == "dcache":
            return self.dcache_misses(config, dilation)
        return self.unified_misses(config, dilation)

    # ------------------------------------------------------------------
    # Batched grid queries (the vectorized exploration path).
    # ------------------------------------------------------------------

    def register_grid(
        self,
        role: str,
        configs: Iterable[CacheConfig],
        dilations: Iterable[float] = (1.0,),
    ) -> None:
        """Register every simulation a :meth:`misses_batch` grid needs.

        For the instruction cache at non-unit dilations this includes the
        Lemma 1 bracketing line sizes; data and unified grids only need
        the configurations themselves (their dilation handling is
        simulation-free).
        """
        self._check_role(role)
        configs = list(configs)
        self.register(role, configs)
        if role == "icache":
            non_unit = [float(d) for d in dilations if float(d) != 1.0]
            if non_unit and configs:
                estimator = self._require_estimator()
                self.register(
                    "icache",
                    estimator.required_icache_configs_batch(
                        configs, non_unit
                    ),
                )

    def misses_batch(
        self,
        role: str,
        configs: Sequence[CacheConfig],
        dilations: Sequence[float],
        max_workers: int | None = None,
    ) -> np.ndarray:
        """Miss counts over the whole (config x dilation) grid.

        Registers and primes every needed simulation pass up front
        (``max_workers`` > 1 runs pending passes in worker processes),
        then answers the grid in bulk: simulated miss counts are gathered
        once per configuration and the dilation model is evaluated as
        array operations.  Each element equals the scalar
        :meth:`misses` for the same (config, dilation) to floating-point
        rounding of the underlying ``log``/``exp`` library calls.
        """
        self._check_role(role)
        configs = list(configs)
        dils = np.asarray(list(dilations), dtype=np.float64).reshape(-1)
        n, m = len(configs), dils.size
        if n == 0 or m == 0:
            return np.zeros((n, m))
        unit = dils == 1.0
        estimator = self._require_estimator() if not unit.all() else None
        self.register(role, configs)
        needed: list[CacheConfig] = []
        if role == "icache" and estimator is not None:
            needed = estimator.required_icache_configs_batch(
                configs, dils[~unit].tolist()
            )
            self.register("icache", needed)
        self.prime(max_workers=max_workers)

        if role == "dcache":
            # Eq (4.1): data misses are dilation-independent.
            simulated = self._simulated_vector("dcache", configs)
            return np.repeat(simulated[:, None], m, axis=1)

        if role == "unified":
            reference = self._simulated_vector("unified", configs)
            out = np.repeat(reference[:, None], m, axis=1)
            if not unit.all():
                out[:, ~unit] = self.estimator.estimate_unified_misses_batch(
                    configs, dils[~unit], reference
                )
            return out

        # icache: simulated at d = 1, Lemma 1 + Eq (4.12) otherwise.
        out = np.empty((n, m))
        if unit.any():
            out[:, unit] = self._simulated_vector("icache", configs)[:, None]
        if estimator is not None:
            reference = {
                c: float(self.simulated_misses("icache", c)) for c in needed
            }
            out[:, ~unit] = estimator.estimate_icache_misses_batch(
                configs, dils[~unit], reference
            )
        return out

    def _simulated_vector(
        self, role: str, configs: Sequence[CacheConfig]
    ) -> np.ndarray:
        """Simulated miss counts of already-registered configurations."""
        return np.array(
            [float(self.simulated_misses(role, c)) for c in configs]
        )

    def _require_estimator(self) -> DilationEstimator:
        if self.estimator is None:
            raise ConfigurationError(
                "this MemoryEvaluator was built without trace parameters; "
                "non-unit dilation estimation is unavailable"
            )
        return self.estimator

    @staticmethod
    def _check_role(role: str) -> None:
        if role not in ROLES:
            raise ConfigurationError(
                f"unknown role {role!r}; expected one of {ROLES}"
            )


# ----------------------------------------------------------------------
# Section 1 cost arithmetic.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationCosts:
    """Hours per full trace-generation-plus-simulation pass, by trace.

    Defaults are the paper's ghostscript numbers: data 2h, instruction
    5h, unified 7h.
    """

    data_hours: float = 2.0
    instruction_hours: float = 5.0
    unified_hours: float = 7.0

    @property
    def total_hours(self) -> float:
        return self.data_hours + self.instruction_hours + self.unified_hours


def exhaustive_evaluation_hours(
    n_processors: int,
    n_caches_per_type: int,
    costs: EvaluationCosts = EvaluationCosts(),
) -> float:
    """Cost of simulating every (processor, cache) pair.

    The paper's example: 40 processors x 20 caches x (2+5+7) hours
    = 11,200 hours ~= 466 days.
    """
    return n_processors * n_caches_per_type * costs.total_hours


def hierarchical_evaluation_hours(
    line_sizes_per_type: dict[str, int],
    costs: EvaluationCosts = EvaluationCosts(),
) -> float:
    """Cost under both of the paper's techniques combined.

    One reference processor; one single-pass simulation per distinct line
    size per trace type.  ``line_sizes_per_type`` maps
    ``{"icache": n, "dcache": n, "unified": n}``.
    """
    per_type = {
        "icache": costs.instruction_hours,
        "dcache": costs.data_hours,
        "unified": costs.unified_hours,
    }
    unknown = set(line_sizes_per_type) - set(per_type)
    if unknown:
        raise ConfigurationError(f"unknown trace types {sorted(unknown)}")
    return sum(
        count * per_type[role] for role, count in line_sizes_per_type.items()
    )
