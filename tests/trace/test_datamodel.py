"""Unit tests for repro.trace.datamodel."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.cache.config import WORD_BYTES
from repro.errors import ConfigurationError
from repro.trace.datamodel import DATA_BASE, DataAddressModel, StreamSpec
from repro.vliwcomp.regalloc import SPILL_STREAM


class TestStreamSpec:
    def test_unknown_pattern(self):
        with pytest.raises(ConfigurationError, match="pattern"):
            StreamSpec("zigzag", 1024)

    def test_tiny_region_rejected(self):
        with pytest.raises(ConfigurationError, match="one word"):
            StreamSpec("sequential", 2)

    def test_unaligned_stride_rejected(self):
        with pytest.raises(ConfigurationError, match="stride"):
            StreamSpec("sequential", 1024, stride_bytes=6)


class TestDataAddressModel:
    def make(self):
        return DataAddressModel(
            {
                0: StreamSpec("sequential", 256),
                1: StreamSpec("strided", 512, stride_bytes=32),
                2: StreamSpec("random", 1024),
                3: StreamSpec("stack", 256),
            },
            seed=9,
        )

    def test_sequential_walk_and_wrap(self):
        model = self.make()
        base = model.region_base(0)
        addrs = [model.next_address(0) for _ in range(66)]
        assert addrs[0] == base
        assert addrs[1] == base + 4
        assert addrs[64] == base  # wrapped after 256/4 = 64 words
        assert addrs[65] == base + 4

    def test_strided_walk(self):
        model = self.make()
        base = model.region_base(1)
        addrs = [model.next_address(1) for _ in range(3)]
        assert addrs == [base, base + 32, base + 64]

    def test_random_stays_in_region(self):
        model = self.make()
        base = model.region_base(2)
        for _ in range(200):
            addr = model.next_address(2)
            assert base <= addr < base + 1024
            assert addr % WORD_BYTES == 0

    def test_stack_stays_in_region(self):
        model = self.make()
        base = model.region_base(3)
        for _ in range(200):
            addr = model.next_address(3)
            assert base <= addr < base + 256

    def test_regions_disjoint_and_above_data_base(self):
        model = self.make()
        spans = []
        for stream in (SPILL_STREAM, 0, 1, 2, 3):
            base = model.region_base(stream)
            assert base >= DATA_BASE
            spans.append((base, base + model.spec(stream).region_bytes))
        spans.sort()
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b

    def test_spill_stream_always_available(self):
        model = DataAddressModel({}, seed=1)
        addr = model.next_address(SPILL_STREAM)
        assert addr >= DATA_BASE

    def test_unknown_stream_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown stream"):
            self.make().next_address(42)

    def test_determinism(self):
        a = self.make()
        b = self.make()
        for stream in (0, 1, 2, 3):
            assert [a.next_address(stream) for _ in range(20)] == [
                b.next_address(stream) for _ in range(20)
            ]


class TestPeek:
    def test_peek_matches_next_without_advancing(self):
        model = DataAddressModel(
            {
                0: StreamSpec("sequential", 256),
                1: StreamSpec("random", 1024),
                2: StreamSpec("stack", 256),
            },
            seed=4,
        )
        for stream in (0, 1, 2):
            peeked = model.peek_next_address(stream)
            peeked_again = model.peek_next_address(stream)
            assert peeked == peeked_again  # no state advance
            assert model.next_address(stream) == peeked

    def test_last_address_tracks_next(self):
        model = DataAddressModel({0: StreamSpec("sequential", 64)}, seed=1)
        assert model.last_address(0) == model.region_base(0)
        addr = model.next_address(0)
        assert model.last_address(0) == addr


class TestZipfPattern:
    def make(self):
        return DataAddressModel({0: StreamSpec("zipf", 64 * 1024)}, seed=11)

    def test_stays_in_region_and_aligned(self):
        model = self.make()
        base = model.region_base(0)
        for _ in range(300):
            addr = model.next_address(0)
            assert base <= addr < base + 64 * 1024
            assert addr % WORD_BYTES == 0

    def test_head_is_hot(self):
        """The first 10% of the region absorbs well over 10% of accesses."""
        model = self.make()
        base = model.region_base(0)
        hits_head = sum(
            1
            for _ in range(2000)
            if model.next_address(0) - base < 64 * 1024 // 10
        )
        assert hits_head / 2000 > 0.25

    def test_peek_matches_next(self):
        model = self.make()
        peeked = model.peek_next_address(0)
        assert model.next_address(0) == peeked

    def test_wrong_path_address_in_region(self):
        model = self.make()
        base = model.region_base(0)
        addr = model.wrong_path_address(0)
        assert base <= addr < base + 64 * 1024


class TestVectorisedForms:
    """The array forms of peek/wrong-path equal the scalar forms at every
    state a stream passes through."""

    @settings(max_examples=150, deadline=None)
    @given(
        pattern=st.sampled_from(
            ("sequential", "strided", "random", "zipf", "stack")
        ),
        words=st.integers(1, 2048),
        stride_words=st.integers(1, 4096),
        seed=st.integers(0, 2**32),
        calls=st.integers(0, 120),
    )
    @example(pattern="sequential", words=1, stride_words=1, seed=0, calls=5)
    @example(pattern="strided", words=8, stride_words=8, seed=3, calls=20)
    @example(pattern="strided", words=8, stride_words=13, seed=3, calls=20)
    @example(pattern="random", words=1, stride_words=1, seed=5, calls=5)
    @example(pattern="zipf", words=1, stride_words=1, seed=5, calls=5)
    @example(pattern="stack", words=1, stride_words=1, seed=7, calls=40)
    @example(pattern="stack", words=20, stride_words=1, seed=7, calls=40)
    @example(pattern="stack", words=32, stride_words=1, seed=7, calls=40)
    @example(pattern="stack", words=33, stride_words=1, seed=7, calls=40)
    def test_match_scalar_after_each_call(
        self, pattern, words, stride_words, seed, calls
    ):
        spec = StreamSpec(
            pattern, words * WORD_BYTES, stride_bytes=stride_words * WORD_BYTES
        )
        model = DataAddressModel({0: spec}, seed=seed)
        states, positions, peeks, wrongs, nexts = [], [], [], [], []
        for _ in range(calls + 1):
            state, position = model.state(0)
            states.append(state)
            positions.append(position)
            peeks.append(model.peek_next_address(0))
            wrongs.append(model.wrong_path_address(0))
            nexts.append(model.next_address(0))
        states = np.array(states, dtype=np.uint32)
        positions = np.array(positions, dtype=np.int64)
        peeked = model.peek_next_addresses(0, states, positions)
        wrong = model.wrong_path_addresses(0, states, positions)
        assert peeked.dtype == wrong.dtype == np.int64
        assert peeked.tolist() == peeks == nexts
        assert wrong.tolist() == wrongs

    def test_spill_stream(self):
        model = DataAddressModel({}, seed=12)
        states, positions, nexts = [], [], []
        for _ in range(300):
            state, position = model.state(SPILL_STREAM)
            states.append(state)
            positions.append(position)
            nexts.append(model.next_address(SPILL_STREAM))
        peeked = model.peek_next_addresses(
            SPILL_STREAM, np.array(states), np.array(positions)
        )
        assert peeked.tolist() == nexts

    def test_unknown_stream_rejected(self):
        model = DataAddressModel({}, seed=1)
        with pytest.raises(ConfigurationError, match="unknown stream"):
            model.peek_next_addresses(5, np.zeros(1), np.zeros(1))
