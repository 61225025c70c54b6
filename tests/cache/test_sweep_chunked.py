"""Chunked-trace sweeps: bit-identity, resume, sampling, shipping."""

import numpy as np
import pytest

from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.cache.sweep import (
    encode_chunk_state,
    group_state_key,
    sampled_sweep_design_space,
    sweep_design_space,
)
from repro.runtime.journal import RunJournal
from repro.trace.chunkstore import write_chunked
from repro.trace.sampling import SamplePlan


CONFIGS = [
    CacheConfig(8, 1, 16),
    CacheConfig(8, 2, 16),
    CacheConfig(16, 1, 16),
    CacheConfig(8, 1, 32),
    CacheConfig(16, 2, 32),
]


def make_trace(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 1 << 14, n, dtype=np.int64)
    sizes = rng.integers(1, 64, n, dtype=np.int64)
    return starts, sizes


@pytest.fixture(scope="module")
def arrays():
    return make_trace()


@pytest.fixture(scope="module")
def exact(arrays):
    return sweep_design_space(CONFIGS, arrays)


class TestBitIdentity:
    def test_serial_chunked_matches_in_memory(self, tmp_path, arrays, exact):
        starts, sizes = arrays
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=777
        ) as trace:
            got = sweep_design_space(CONFIGS, trace)
        assert set(got) == set(exact)
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses
            assert got[config].accesses == exact[config].accesses
            assert not got[config].estimated

    def test_parallel_chunked_matches_in_memory(self, tmp_path, arrays, exact):
        starts, sizes = arrays
        journal = RunJournal()
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=777
        ) as trace:
            got = sweep_design_space(
                CONFIGS, trace, max_workers=2, journal=journal
            )
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses
        shipping = [
            e for e in journal.events if e["event"] == "trace_shipping"
        ]
        assert shipping and shipping[0]["mode"] == "chunkpath"

    def test_single_chunk_degenerate(self, tmp_path, arrays, exact):
        starts, sizes = arrays
        with write_chunked(tmp_path / "one.rct", starts, sizes) as trace:
            assert trace.n_chunks == 1
            got = sweep_design_space(CONFIGS, trace)
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses


class TestFullStateRoundTrip:
    def test_resumed_simulator_matches_straight_run(self, arrays):
        starts, sizes = arrays
        sets = [8, 16]
        straight = CheetahSimulator(16, sets, 2)
        straight.simulate(starts, sizes)

        half = CheetahSimulator(16, sets, 2)
        half.simulate(starts[:2500], sizes[:2500])
        accesses, families = half.full_state()
        resumed = CheetahSimulator.from_full_state(16, 2, accesses, families)
        resumed.simulate(starts[2500:], sizes[2500:])

        for nsets in sets:
            for assoc in (1, 2):
                assert resumed.misses(nsets, assoc) == straight.misses(
                    nsets, assoc
                )


class TestChunkCheckpointResume:
    def test_sweep_resumes_from_mid_trace_snapshot(self, tmp_path, checkpoint_at, arrays,
                                                   exact):
        starts, sizes = arrays
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            # Seed the cache with a genuine snapshot taken after 2 chunks,
            # as an interrupted sweep would have left it.
            cache = checkpoint_at(tmp_path / "checkpoint.sqlite")
            for line_size in (16, 32):
                group = [c for c in CONFIGS if c.line_size == line_size]
                set_counts = sorted({c.sets for c in group})
                max_assoc = max(c.assoc for c in group)
                sim = CheetahSimulator(line_size, set_counts, max_assoc)
                sim.simulate(starts[:2000], sizes[:2000])
                key = group_state_key(
                    trace.trace_id, line_size, set_counts, max_assoc,
                    prefix="sweepchunk",
                )
                cache.put(key, encode_chunk_state(2, sim.full_state()))
            journal = RunJournal()
            got = sweep_design_space(
                CONFIGS, trace, checkpoint=cache, journal=journal
            )
        for config in CONFIGS:
            assert got[config].misses == exact[config].misses
        resumed = [
            e
            for e in journal.events
            if e["event"] == "pass" and e.get("resumed_at_chunk") == 2
        ]
        assert len(resumed) == 2  # both line-size groups resumed

    def test_second_run_hits_group_checkpoint(self, tmp_path, checkpoint_at, arrays):
        starts, sizes = arrays
        cache = checkpoint_at(tmp_path / "checkpoint.sqlite")
        with write_chunked(
            tmp_path / "t.rct", starts, sizes, chunk_ranges=1000
        ) as trace:
            first = sweep_design_space(CONFIGS, trace, checkpoint=cache)
            journal = RunJournal()
            second = sweep_design_space(
                CONFIGS, trace, checkpoint=cache, journal=journal
            )
        assert first == second
        passes = [e for e in journal.events if e["event"] == "pass"]
        assert passes == []  # everything came from the checkpoint


class TestSampledSweep:
    def test_error_bound_on_stationary_trace(self, tmp_path, arrays, exact):
        starts, sizes = arrays
        plan = SamplePlan(8, 400, warmup_ranges=100)
        for trace_arg in (
            (starts, sizes),
            write_chunked(tmp_path / "s.rct", starts, sizes,
                          chunk_ranges=600),
        ):
            got = sampled_sweep_design_space(CONFIGS, trace_arg, plan)
            for config in CONFIGS:
                result = got[config]
                assert result.estimated
                assert result.intervals == 8
                assert result.total_ranges == len(starts)
                assert 0 < result.sampled_fraction < 1
                true = exact[config].misses
                if true:
                    rel = abs(result.misses - true) / true
                    assert rel <= 0.10, (config, rel)

    def test_sampled_and_exact_results_are_distinct_types(self, arrays):
        starts, sizes = arrays
        plan = SamplePlan(4, 300)
        sampled = sampled_sweep_design_space(CONFIGS, (starts, sizes), plan)
        exact_one = simulate_trace(CONFIGS[0], starts, sizes)
        assert sampled[CONFIGS[0]].estimated
        assert not exact_one.estimated

    def test_simulate_trace_sampling(self, arrays, exact):
        starts, sizes = arrays
        plan = SamplePlan(8, 400, warmup_ranges=100)
        result = simulate_trace(CONFIGS[0], starts, sizes, sample=plan)
        assert result.estimated
        true = exact[CONFIGS[0]].misses
        assert abs(result.misses - true) / true <= 0.10

    def test_journal_records_sampling(self, arrays):
        starts, sizes = arrays
        journal = RunJournal()
        plan = SamplePlan(4, 300)
        sampled_sweep_design_space(
            CONFIGS, (starts, sizes), plan, journal=journal
        )
        events = [e for e in journal.events if e["event"] == "sampled_pass"]
        assert events
        summary = journal.summary()
        assert summary["sampling"]["passes"] == len(events)
        assert 0 < summary["sampling"]["sampled_ranges"]

    def test_empty_trace(self):
        plan = SamplePlan(4, 300)
        got = sampled_sweep_design_space(CONFIGS, ([], []), plan)
        for config in CONFIGS:
            assert got[config].misses == 0
            assert got[config].intervals == 0
