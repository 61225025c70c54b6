"""DesignSpaceSimulator vs independent per-line-size passes.

The whole-design-space kernel shares one expansion and one value sort
across every line size in a derivation tower; these tests pin that its
miss counts are *bit-identical* to independent
:class:`~repro.cache.cheetah.CheetahSimulator` passes — across random
traces, line-size ladders (including gaps that force a fresh sort),
engines, tower plans, multi-batch feeding and checkpoint round-trips.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.designspace import (
    MAX_DERIVE_FACTOR,
    TOWER_MODES,
    DesignSpaceSimulator,
    _build_towers,
)
from repro.cache.linestream import clear_line_stream_cache
from repro.cache.sweep import sweep_design_space
from repro.errors import ConfigurationError


ALL_LINE_SIZES = [4, 8, 16, 32, 64, 128, 256]


@st.composite
def range_traces(draw, max_len=150):
    n = draw(st.integers(min_value=1, max_value=max_len))
    starts = draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 14),
            min_size=n,
            max_size=n,
        )
    )
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=96), min_size=n, max_size=n
        )
    )
    return np.asarray(starts, dtype=np.int64), np.asarray(
        sizes, dtype=np.int64
    )


@st.composite
def ladders(draw):
    """A random subset of line sizes (1..5 of them, any gap pattern)."""
    sizes = draw(
        st.lists(
            st.sampled_from(ALL_LINE_SIZES),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    return sorted(sizes)


def per_line_oracle(ladder, spec, starts, sizes, engine="auto"):
    sims = {}
    for line_size in ladder:
        set_counts, max_assoc = spec[line_size]
        clear_line_stream_cache()  # no sharing with the kernel under test
        sim = CheetahSimulator(
            line_size, set_counts, max_assoc, engine=engine
        )
        sim.simulate(starts, sizes)
        sims[line_size] = sim
    clear_line_stream_cache()
    return sims


class TestEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        trace=range_traces(),
        ladder=ladders(),
        engine=st.sampled_from(["auto", "kernel", "scalar"]),
        mode=st.sampled_from(["auto", "links", "streams"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_misses_identical_to_per_line_size_passes(
        self, trace, ladder, engine, mode, seed
    ):
        starts, sizes = trace
        rng = np.random.default_rng(seed)
        spec = {
            line_size: (
                sorted(
                    {int(s) for s in rng.choice([4, 8, 16, 64, 256], size=3)}
                ),
                int(rng.integers(1, 9)),
            )
            for line_size in ladder
        }
        clear_line_stream_cache()
        space = DesignSpaceSimulator(spec, engine=engine, mode=mode)
        space.simulate(starts, sizes)
        oracle = per_line_oracle(ladder, spec, starts, sizes, engine=engine)
        for line_size in ladder:
            set_counts, max_assoc = spec[line_size]
            for sets in set_counts:
                for assoc in range(1, max_assoc + 1):
                    assert space.misses(line_size, sets, assoc) == oracle[
                        line_size
                    ].misses(sets, assoc), (line_size, sets, assoc)

    @settings(max_examples=15, deadline=None)
    @given(trace=range_traces(max_len=80), ladder=ladders())
    def test_incremental_feeding_matches_single_batch(self, trace, ladder):
        starts, sizes = trace
        spec = {line_size: ([8, 64], 4) for line_size in ladder}
        clear_line_stream_cache()
        whole = DesignSpaceSimulator(spec)
        whole.simulate(starts, sizes)
        clear_line_stream_cache()
        split = DesignSpaceSimulator(spec)
        cut = len(starts) // 2
        split.simulate(starts[:cut], sizes[:cut])
        # Second batch hits the carrying-state streams path.
        split.simulate(starts[cut:], sizes[cut:])
        clear_line_stream_cache()
        for line_size in ladder:
            for sets in (8, 64):
                for assoc in (1, 2, 4):
                    assert whole.misses(line_size, sets, assoc) == (
                        split.misses(line_size, sets, assoc)
                    )

    def test_empty_trace_is_a_noop(self):
        space = DesignSpaceSimulator({16: ([8], 2), 32: ([8], 2)})
        space.simulate([], [])
        assert space.misses(16, 8, 1) == 0
        assert space.misses(32, 8, 2) == 0


class TestTowers:
    def test_contiguous_ladder_is_one_tower(self):
        space = DesignSpaceSimulator(
            {ls: ([8], 2) for ls in (16, 32, 64, 128)}
        )
        assert space.towers == [[16, 32, 64, 128]]

    def test_wide_gap_starts_a_fresh_tower(self):
        # 4 -> 64 is a factor-16 jump: deriving would cost four splits,
        # a fresh (smaller) sort costs about two.
        space = DesignSpaceSimulator({ls: ([8], 2) for ls in (4, 64, 128)})
        assert space.towers == [[4], [64, 128]]

    def test_max_derive_factor_gap_stays_in_tower(self):
        space = DesignSpaceSimulator({ls: ([8], 2) for ls in (16, 64)})
        assert 64 // 16 == MAX_DERIVE_FACTOR
        assert space.towers == [[16, 64]]

    def test_build_towers_unit(self):
        assert _build_towers([4, 8, 32, 128, 512]) == [
            [4, 8, 32, 128, 512]
        ]
        assert _build_towers([4, 64]) == [[4], [64]]
        assert _build_towers([8]) == [[8]]

    def test_gap_results_still_identical(self):
        rng = np.random.default_rng(3)
        starts = rng.integers(0, 1 << 13, 500)
        sizes = rng.integers(1, 80, 500)
        ladder = [4, 64, 256]  # two towers
        spec = {ls: ([16, 128], 4) for ls in ladder}
        clear_line_stream_cache()
        space = DesignSpaceSimulator(spec)
        space.simulate(starts, sizes)
        assert len(space.towers) == 2
        oracle = per_line_oracle(ladder, spec, starts, sizes)
        for line_size in ladder:
            for sets in (16, 128):
                for assoc in (1, 4):
                    assert space.misses(line_size, sets, assoc) == oracle[
                        line_size
                    ].misses(sets, assoc)


class TestModes:
    """The per-tower plan is a measured choice, never a semantic one."""

    def trace(self):
        rng = np.random.default_rng(7)
        return (
            rng.integers(0, 1 << 13, 600),
            rng.integers(1, 64, 600),
        )

    def test_forced_modes_bit_identical(self):
        starts, sizes = self.trace()
        spec = {ls: ([8, 64], 4) for ls in (16, 32, 64)}
        results = {}
        for mode in ("links", "streams"):
            clear_line_stream_cache()
            space = DesignSpaceSimulator(spec, engine="kernel", mode=mode)
            space.simulate(starts, sizes)
            results[mode] = {
                (ls, sets, assoc): space.misses(ls, sets, assoc)
                for ls in spec
                for sets in (8, 64)
                for assoc in (1, 2, 4)
            }
        assert results["links"] == results["streams"]

    def test_auto_mode_is_journaled(self):
        from repro.runtime.journal import RunJournal, use_journal

        starts, sizes = self.trace()
        spec = {ls: ([8], 2) for ls in (16, 32, 64)}
        journal = RunJournal()
        clear_line_stream_cache()
        with use_journal(journal):
            space = DesignSpaceSimulator(spec, engine="kernel")
            space.simulate(starts, sizes)
        events = journal.select("designspace")
        assert len(events) == 1
        assert events[0]["mode"] in ("links", "streams")
        # Each simulator counts its own family: one kernel call per
        # (line size, set count).
        assert len(journal.select("stackdist")) == 3

    @pytest.mark.parametrize("mode", TOWER_MODES)
    def test_multi_batch_append_matches_per_size(self, mode):
        # Batch 1 is fresh (shared links); batch 2 splices the carried
        # LRU stacks in as synthetic references, for every plan.
        rng = np.random.default_rng(5)
        starts = rng.integers(0, 1 << 18, 4000)
        sizes = rng.integers(1, 64, 4000)
        spec = {16: ([8, 32], 8), 32: ([8, 32], 8), 64: ([16], 4)}
        oracle = per_line_oracle(sorted(spec), spec, starts, sizes)
        space = DesignSpaceSimulator(spec, mode=mode)
        space.simulate(starts[:2000], sizes[:2000])
        space.simulate(starts[2000:], sizes[2000:])
        clear_line_stream_cache()
        assert space.states() == {
            ls: oracle[ls].state() for ls in sorted(spec)
        }

    @pytest.mark.parametrize("mode", TOWER_MODES)
    def test_sweep_passes_attribute_kernel_time(self, mode, monkeypatch):
        # Every plan feeds each line size's simulator through consume(),
        # so every in-process design-space pass carries a kernel share.
        import functools

        import repro.cache.sweep as sweep_mod
        from repro.runtime.journal import RunJournal

        monkeypatch.setattr(
            sweep_mod,
            "DesignSpaceSimulator",
            functools.partial(DesignSpaceSimulator, mode=mode),
        )
        rng = np.random.default_rng(3)
        trace = (rng.integers(0, 1 << 20, 20_000), rng.integers(1, 64, 20_000))
        configs = [
            CacheConfig(sets, 2, line_size)
            for line_size in (16, 32, 64)
            for sets in (64, 256)
        ]
        journal = RunJournal()
        clear_line_stream_cache()
        sweep_design_space(configs, trace, journal=journal)
        clear_line_stream_cache()
        passes = journal.select("pass")
        assert sorted(e["line_size"] for e in passes) == [16, 32, 64]
        for event in passes:
            assert 0 < event["kernel_s"] <= event["wall_s"]

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            DesignSpaceSimulator({16: ([8], 2)}, mode="telepathy")


class TestStateAndConfigs:
    def test_from_configs_groups_like_a_sweep(self):
        configs = [
            CacheConfig(8, 1, 16),
            CacheConfig(16, 2, 16),
            CacheConfig(8, 4, 32),
        ]
        space = DesignSpaceSimulator.from_configs(configs)
        assert space.line_sizes == [16, 32]
        space.simulate([0, 40, 8], [16, 8, 64])
        results = space.results()
        for config in configs:
            assert space.result(config) == results[config]

    def test_states_round_trip(self):
        rng = np.random.default_rng(11)
        starts = rng.integers(0, 4096, 300)
        sizes = rng.integers(1, 64, 300)
        spec = {16: ([8, 32], 4), 32: ([8, 32], 4)}
        space = DesignSpaceSimulator(spec)
        space.simulate(starts, sizes)
        rebuilt = DesignSpaceSimulator.from_states(space.states())
        for line_size in (16, 32):
            for sets in (8, 32):
                for assoc in (1, 2, 4):
                    assert rebuilt.misses(line_size, sets, assoc) == (
                        space.misses(line_size, sets, assoc)
                    )

    def test_untracked_line_size_rejected(self):
        space = DesignSpaceSimulator({16: ([8], 2)})
        with pytest.raises(ConfigurationError, match="not tracked"):
            space.misses(32, 8, 1)

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            DesignSpaceSimulator({})
        with pytest.raises(ConfigurationError, match="empty"):
            DesignSpaceSimulator.from_states({})


class TestSweepInterop:
    """Checkpoints written by either engine resume under the other.

    A sweep of several line sizes runs the whole-design-space kernel; a
    sweep of one line size runs a plain per-line-size pass, so the
    per-line oracle is one single-line-size sweep per group.
    """

    def trace(self):
        rng = np.random.default_rng(5)
        return (
            rng.integers(0, 1 << 12, 400),
            rng.integers(1, 48, 400),
        )

    def configs(self):
        return [
            CacheConfig(sets, assoc, line_size)
            for line_size in (16, 32, 64)
            for sets in (8, 64)
            for assoc in (1, 2)
        ]

    def per_line(self, configs, trace, **kwargs):
        results = {}
        for line_size in sorted({c.line_size for c in configs}):
            group = [c for c in configs if c.line_size == line_size]
            results.update(sweep_design_space(group, trace, **kwargs))
        return results

    def test_strategies_bit_identical(self):
        configs, trace = self.configs(), self.trace()
        clear_line_stream_cache()
        ds = sweep_design_space(configs, trace)
        clear_line_stream_cache()
        perline = self.per_line(configs, trace)
        assert ds == perline

    def test_checkpoint_round_trip_across_strategies(self, tmp_path, checkpoint_at):
        configs, trace = self.configs(), self.trace()
        cache = checkpoint_at(tmp_path / "ck.sqlite")
        first = sweep_design_space(configs, trace, checkpoint=cache)
        # Resume from the same store with the per-line-size oracle: all
        # groups adopted, zero re-simulation, identical results.
        resumed = checkpoint_at(tmp_path / "ck.sqlite")
        second = self.per_line(configs, trace, checkpoint=resumed)
        assert first == second
        assert resumed.hits > 0 and resumed.misses == 0
