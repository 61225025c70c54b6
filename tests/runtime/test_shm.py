"""Shared-memory trace shipping: zero-copy mapping and segment hygiene.

The contract under test: the parent owns every segment, workers only
map; after any sweep — clean, fault-injected, or degraded to serial
fallback — no segment remains in ``/dev/shm`` and results are
bit-identical to per-job pickling.
"""

import pickle

import numpy as np
import pytest

import repro.cache.sweep as sweep_mod
import repro.explore.evaluators as evaluators_mod
from repro.cache.config import CacheConfig
from repro.cache.sweep import sweep_design_space
from repro.errors import RuntimeExecutionError
from repro.runtime.executor import (
    ExecutorPolicy,
    FaultPlan,
    SharedSegmentManager,
    segment_manager,
    shm_available,
)
from repro.runtime.journal import RunJournal

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

CONFIGS = [
    CacheConfig(8, 1, 16),
    CacheConfig(16, 2, 16),
    CacheConfig(8, 1, 32),
    CacheConfig(4, 4, 32),
    CacheConfig(16, 2, 64),
]


def trace():
    rng = np.random.default_rng(2)
    return rng.integers(0, 1 << 12, 300), rng.integers(1, 48, 300)


def assert_unlinked(journal: RunJournal) -> None:
    """Every segment the journal saw created must be gone from the OS."""
    created = {
        e["segment"]
        for e in journal.select("shm_segment")
        if e["action"] == "create"
    }
    assert created, "expected at least one shm segment"
    from multiprocessing import shared_memory

    for name in created:
        with pytest.raises(FileNotFoundError):
            seg = shared_memory.SharedMemory(name=name)
            seg.close()  # pragma: no cover - only on leak


class TestHandle:
    def test_round_trip_through_pickle(self):
        manager = SharedSegmentManager()
        starts = np.arange(50, dtype=np.int64)
        sizes = np.full(50, 7, dtype=np.int64)
        handle = manager.acquire("t", {"starts": starts, "sizes": sizes})
        try:
            assert len(pickle.dumps(handle)) < 4096 < handle.nbytes + 4096
            clone = pickle.loads(pickle.dumps(handle))
            with clone.open() as arrays:
                assert arrays["starts"].tolist() == starts.tolist()
                assert arrays["sizes"].tolist() == sizes.tolist()
                assert not arrays["starts"].flags.writeable
        finally:
            manager.release("t")

    def test_refcounted_unlink_on_last_release(self):
        manager = SharedSegmentManager()
        arrays = {"x": np.arange(8)}
        handle = manager.acquire("k", arrays)
        assert manager.acquire("k", arrays) is handle
        manager.release("k")
        assert manager.active() == {"k": handle.name}
        manager.release("k")
        assert manager.active() == {}
        with pytest.raises(FileNotFoundError):
            with handle.open():
                pass

    def test_release_of_unknown_key_is_a_noop(self):
        SharedSegmentManager().release("never-acquired")

    def test_shutdown_unlinks_everything(self):
        manager = SharedSegmentManager()
        handle = manager.acquire("a", {"x": np.arange(4)})
        manager.shutdown()
        assert manager.active() == {}
        with pytest.raises(FileNotFoundError):
            with handle.open():
                pass


class TestSweepHygiene:
    def baseline(self):
        return sweep_design_space(CONFIGS, trace())

    def test_clean_parallel_sweep_no_leak(self):
        journal = RunJournal()
        policy = ExecutorPolicy(max_workers=2)
        results = sweep_design_space(
            CONFIGS, trace(), policy=policy, journal=journal
        )
        assert results == self.baseline()
        assert segment_manager().active() == {}
        assert_unlinked(journal)

    def test_shm_results_identical_to_pickle(self, monkeypatch):
        shm = sweep_design_space(
            CONFIGS, trace(), policy=ExecutorPolicy(max_workers=2)
        )
        monkeypatch.setattr(sweep_mod, "shm_available", lambda: False)
        journal = RunJournal()
        pickled = sweep_design_space(
            CONFIGS,
            trace(),
            policy=ExecutorPolicy(max_workers=2),
            journal=journal,
        )
        assert journal.select("trace_shipping")[0]["mode"] == "pickle"
        assert shm == pickled

    def test_worker_kill_no_leak(self):
        """A worker dying mid-sweep must not orphan the segment."""
        journal = RunJournal()
        policy = ExecutorPolicy(
            max_workers=2,
            retries=2,
            backoff=0.0,
            fault=FaultPlan(kind="exit", match="32", times=1),
        )
        results = sweep_design_space(
            CONFIGS, trace(), policy=policy, journal=journal
        )
        assert results == self.baseline()
        assert segment_manager().active() == {}
        assert_unlinked(journal)

    def test_broken_pool_serial_fallback_no_leak(self):
        """Every attempt dies -> serial fallback maps the segment
        in-process (the parent still holds it) and unlinks after."""
        journal = RunJournal()
        policy = ExecutorPolicy(
            max_workers=2,
            retries=1,
            backoff=0.0,
            fault=FaultPlan(kind="exit", match="", times=1),
        )
        results = sweep_design_space(
            CONFIGS, trace(), policy=policy, journal=journal
        )
        assert results == self.baseline()
        assert journal.select("fallback")
        assert segment_manager().active() == {}
        assert_unlinked(journal)

    def test_failed_sweep_still_unlinks(self):
        journal = RunJournal()
        policy = ExecutorPolicy(
            max_workers=2,
            retries=0,
            backoff=0.0,
            fault=FaultPlan(kind="raise", match="", times=99),
        )
        with pytest.raises(RuntimeExecutionError):
            sweep_design_space(
                CONFIGS, trace(), policy=policy, journal=journal
            )
        assert segment_manager().active() == {}
        assert_unlinked(journal)

    def test_journal_counts_bytes_saved(self):
        journal = RunJournal()
        policy = ExecutorPolicy(max_workers=2)
        sweep_design_space(CONFIGS, trace(), policy=policy, journal=journal)
        summary = journal.summary()["trace_shipping"]
        assert summary["shm_jobs"] == 3  # one per distinct line size
        assert summary["bytes_mapped"] > summary["bytes_shipped"]
        assert summary["bytes_saved"] > 0
        assert summary["segments"]["create"] == 1
        assert summary["segments"]["unlink"] == 1
        text = journal.summary_text()
        assert "trace shipping" in text and "shm jobs" in text


class TestPrimeShipping:
    def test_prime_parallel_uses_shm_and_cleans_up(self, monkeypatch):
        from repro.explore.evaluators import MemoryEvaluator
        from repro.trace.ranges import KIND_DATA, KIND_INSTR, RangeTrace

        rng = np.random.default_rng(9)
        n = 200
        instr = RangeTrace.build(
            rng.integers(0, 4096, n).tolist(),
            rng.integers(1, 32, n).tolist(),
            KIND_INSTR,
        )
        data = RangeTrace.build(
            rng.integers(0, 4096, n).tolist(),
            rng.integers(1, 32, n).tolist(),
            KIND_DATA,
        )
        unified = RangeTrace.concatenate([instr, data])
        configs = [CacheConfig(8, 1, 16), CacheConfig(8, 1, 32)]

        def build():
            ev = MemoryEvaluator(
                instr, data, unified, params=None, max_assoc=2
            )
            for role in ("icache", "dcache"):
                ev.register(role, configs)
            return ev

        journal = RunJournal()
        shm_ev = build()
        shm_ev.prime(max_workers=2, journal=journal)
        assert journal.select("trace_shipping")[0]["mode"] == "shm"
        # One segment per role, both unlinked.
        created = [
            e
            for e in journal.select("shm_segment")
            if e["action"] == "create"
        ]
        assert len(created) == 2
        assert segment_manager().active() == {}
        assert_unlinked(journal)

        monkeypatch.setattr(evaluators_mod, "shm_available", lambda: False)
        pickle_ev = build()
        pickle_journal = RunJournal()
        pickle_ev.prime(max_workers=2, journal=pickle_journal)
        assert pickle_journal.select("trace_shipping")[0]["mode"] == "pickle"
        for role in ("icache", "dcache"):
            for config in configs:
                assert shm_ev.simulated_misses(role, config) == (
                    pickle_ev.simulated_misses(role, config)
                )
