"""MemoryEvaluator.prime: pending passes, parallel execution, state merge."""

import numpy as np

from repro.cache.config import CacheConfig
from repro.explore.evaluators import MemoryEvaluator
from repro.trace.ranges import KIND_DATA, KIND_INSTR, RangeTrace


def make_evaluator():
    instr = RangeTrace.build([0, 64, 0, 128, 64], [32, 32, 32, 64, 32], KIND_INSTR)
    data = RangeTrace.build([512, 516, 512, 640], [4, 4, 4, 4], KIND_DATA)
    unified = RangeTrace.concatenate([instr, data])
    return MemoryEvaluator(instr, data, unified, params=None, max_assoc=4)


CONFIGS = [
    CacheConfig(4, 1, 16),
    CacheConfig(8, 2, 16),
    CacheConfig(4, 1, 32),
]


class TestPendingUnits:
    def test_registration_creates_pending_units(self):
        ev = make_evaluator()
        ev.register("icache", CONFIGS)
        ev.register("dcache", CONFIGS[:1])
        assert set(ev.pending_units()) == {
            ("icache", 16),
            ("icache", 32),
            ("dcache", 16),
        }

    def test_prime_clears_pending_and_counts_passes(self):
        ev = make_evaluator()
        ev.register("icache", CONFIGS)
        assert ev.prime() == 2
        assert ev.pending_units() == []
        assert ev.simulation_passes == 2
        assert ev.prime() == 0


class TestParallelPrime:
    def test_parallel_prime_matches_serial_queries(self):
        serial = make_evaluator()
        parallel = make_evaluator()
        for ev in (serial, parallel):
            for role in ("icache", "dcache", "unified"):
                ev.register(role, CONFIGS)
        serial.prime()
        assert parallel.prime(max_workers=2) == 6
        for role in ("icache", "dcache", "unified"):
            for config in CONFIGS:
                assert parallel.simulated_misses(role, config) == (
                    serial.simulated_misses(role, config)
                )
        # Priming answered everything: no further passes were needed.
        assert parallel.simulation_passes == 6

    def test_unit_job_feeds_group_state_worker(self):
        from repro.cache.sweep import simulate_group_state

        ev = make_evaluator()
        config = CacheConfig(4, 2, 16)
        ev.register("unified", [config])
        accesses, hists = simulate_group_state(*ev.unit_job("unified", 16))
        ev.install_unit("unified", 16, accesses, hists)
        oracle = make_evaluator()
        assert ev.simulated_misses("unified", config) == (
            oracle.simulated_misses("unified", config)
        )
        assert ev.simulation_passes == 1


class TestFaultTolerantPrime:
    def test_worker_raise_retried_and_matches_serial(self):
        from repro.runtime import ExecutorPolicy, FaultPlan, RunJournal

        serial = make_evaluator()
        faulty = make_evaluator()
        for ev in (serial, faulty):
            for role in ("icache", "dcache"):
                ev.register(role, CONFIGS)
        serial.prime()
        journal = RunJournal()
        policy = ExecutorPolicy(
            max_workers=2,
            retries=2,
            backoff=0.0,
            fault=FaultPlan("raise", match="icache", times=1),
        )
        assert faulty.prime(policy=policy, journal=journal) == 4
        assert journal.select("retry")
        for role in ("icache", "dcache"):
            for config in CONFIGS:
                assert faulty.simulated_misses(role, config) == (
                    serial.simulated_misses(role, config)
                )

    def test_exhausted_retries_raise(self):
        import pytest

        from repro.errors import RuntimeExecutionError
        from repro.runtime import ExecutorPolicy, FaultPlan

        ev = make_evaluator()
        ev.register("icache", CONFIGS)
        policy = ExecutorPolicy(
            max_workers=2,
            retries=0,
            backoff=0.0,
            fault=FaultPlan("raise", match="icache", times=99),
        )
        with pytest.raises(RuntimeExecutionError, match="pass"):
            ev.prime(policy=policy)


class TestEvalCacheBulk:
    def test_bulk_defers_flushes(self, tmp_path, checkpoint_at):
        path = tmp_path / "cache.sqlite"
        cache = checkpoint_at(path)
        writes = []
        original = cache.store.put_many

        def counting_put_many(*args, **kwargs):
            writes.append(1)
            original(*args, **kwargs)

        cache.store.put_many = counting_put_many
        with cache.bulk():
            for i in range(10):
                cache.put(f"k{i}", i)
        # 10 deferred puts + one real write on exit.
        reloaded = checkpoint_at(path)
        assert len(reloaded) == 10
        assert reloaded.get("k3") == 3

    def test_put_many_single_write(self, tmp_path, checkpoint_at):
        path = tmp_path / "cache.sqlite"
        cache = checkpoint_at(path)
        cache.put_many({"a": 1, "b": [2, 3], "c": "x"})
        reloaded = checkpoint_at(path)
        assert reloaded.get("b") == [2, 3]
        assert len(reloaded) == 3

    def test_bulk_nests_without_double_flush(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "cache.sqlite")
        with cache.bulk():
            with cache.bulk():
                cache.put("inner", 1)
            cache.put("outer", 2)
        reloaded = checkpoint_at(tmp_path / "cache.sqlite")
        assert len(reloaded) == 2
