"""Data-address stream models.

Every memory operation in a program names a *stream*; a stream is a region
of the data segment with a characteristic access pattern.  Four patterns
cover the locality spectrum of the paper's multimedia/SPEC workloads:

* ``sequential`` — unit-stride walks over a region (filters, copies);
* ``strided``    — fixed non-unit stride (column walks, subsampling);
* ``random``     — uniform references within the region (hash tables,
  pointer chasing);
* ``zipf``       — skewed references: a hot head of the region absorbs
  most accesses, a long tail the rest (symbol tables, caches of
  parsed objects);
* ``stack``      — references clustered near a moving top-of-stack with
  very high reuse (locals, spill traffic).

Streams draw from disjoint regions above :data:`DATA_BASE`, far from the
text segment, so instruction and data addresses never collide in unified
traces.  All per-stream state evolves deterministically from the stream
spec, independent of the processor — the foundation of the paper's
step-1 assumption that data traces match across processors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.config import WORD_BYTES
from repro.errors import ConfigurationError
from repro.vliwcomp.regalloc import SPILL_STREAM

#: Base of the data segment.
DATA_BASE = 0x1000_0000

#: Guard gap between stream regions.
_REGION_GAP = 4096

#: Region size of the implicit spill stream (small and hot).
_SPILL_REGION_BYTES = 512

_PATTERNS = ("sequential", "strided", "random", "zipf", "stack")


@dataclass(frozen=True)
class StreamSpec:
    """Static description of one data stream."""

    pattern: str
    region_bytes: int
    stride_bytes: int = WORD_BYTES

    def __post_init__(self) -> None:
        if self.pattern not in _PATTERNS:
            raise ConfigurationError(
                f"unknown stream pattern {self.pattern!r}; "
                f"expected one of {_PATTERNS}"
            )
        if self.region_bytes < WORD_BYTES:
            raise ConfigurationError(
                f"region must be at least one word, got {self.region_bytes}"
            )
        if self.stride_bytes < WORD_BYTES or self.stride_bytes % WORD_BYTES:
            raise ConfigurationError(
                f"stride must be a positive multiple of {WORD_BYTES}, "
                f"got {self.stride_bytes}"
            )


_LCG_MUL, _LCG_INC, _U32 = 1664525, 1013904223, 0xFFFFFFFF

#: Salt that decorrelates a wrong-path draw from the committed draw.
_WRONG_PATH_SALT = 0x9E3779B9


class _Lcg:
    """Tiny deterministic generator (numerical recipes constants)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed * 2654435761 + 1) & _U32

    def next_u32(self) -> int:
        self.state = (self.state * _LCG_MUL + _LCG_INC) & _U32
        return self.state


def _lcg_next(states: np.ndarray) -> np.ndarray:
    """Vectorised :meth:`_Lcg.next_u32` over uint64 states (< 2**32, so
    the product cannot overflow)."""
    step = states * np.uint64(_LCG_MUL) + np.uint64(_LCG_INC)
    return step & np.uint64(_U32)


class DataAddressModel:
    """Stateful generator of data addresses for a program's streams.

    Regions are assigned in ascending stream-id order starting at
    :data:`DATA_BASE`; the spill stream (:data:`SPILL_STREAM`) always
    exists and sits below the first ordinary region.
    """

    def __init__(self, streams: dict[int, StreamSpec], seed: int = 1):
        self._specs: dict[int, StreamSpec] = {
            SPILL_STREAM: StreamSpec("stack", _SPILL_REGION_BYTES)
        }
        self._specs.update(streams)
        if any(sid < 0 and sid != SPILL_STREAM for sid in streams):
            raise ConfigurationError(
                "negative stream ids are reserved for the spill stream"
            )
        self._bases: dict[int, int] = {}
        cursor = DATA_BASE
        for sid in sorted(self._specs):
            self._bases[sid] = cursor
            cursor += _round_up(self._specs[sid].region_bytes) + _REGION_GAP
        self._positions: dict[int, int] = {sid: 0 for sid in self._specs}
        self._rngs: dict[int, _Lcg] = {
            sid: _Lcg(seed ^ (sid & 0xFFFF)) for sid in self._specs
        }
        self._last: dict[int, int] = {}

    def spec(self, stream: int) -> StreamSpec:
        """The static description of ``stream`` (raises if unknown)."""
        try:
            return self._specs[stream]
        except KeyError:
            raise ConfigurationError(f"unknown stream id {stream}") from None

    def region_base(self, stream: int) -> int:
        """Base byte address of the stream's region."""
        self.spec(stream)
        return self._bases[stream]

    def state(self, stream: int) -> tuple[int, int]:
        """The stream's (LCG state, position) — all it carries between
        :meth:`next_address` calls.  The vectorised address forms below
        take arrays of such states."""
        self.spec(stream)
        return self._rngs[stream].state, self._positions[stream]

    def next_address(self, stream: int) -> int:
        """Advance the stream and return the next byte address."""
        spec = self.spec(stream)
        base = self._bases[stream]
        words = spec.region_bytes // WORD_BYTES
        if spec.pattern in ("sequential", "strided"):
            pos = self._positions[stream]
            addr = base + (pos % spec.region_bytes)
            self._positions[stream] = (
                pos + spec.stride_bytes
            ) % spec.region_bytes
        elif spec.pattern == "random":
            word = self._rngs[stream].next_u32() % words
            addr = base + word * WORD_BYTES
        elif spec.pattern == "zipf":
            addr = base + _zipf_word(self._rngs[stream], words) * WORD_BYTES
        else:  # stack
            # Top-of-stack random walk over a hot window of ~32 words.
            window = min(32, words)
            rng = self._rngs[stream]
            step = (rng.next_u32() % 3) - 1  # -1, 0, +1
            pos = (self._positions[stream] + step) % max(1, words - window)
            self._positions[stream] = pos
            offset = rng.next_u32() % window
            addr = base + (pos + offset) * WORD_BYTES
        addr &= ~(WORD_BYTES - 1)
        self._last[stream] = addr
        return addr

    def last_address(self, stream: int) -> int:
        """Most recent address of the stream, without advancing.

        Falls back to the region base before any reference occurs.
        """
        return self._last.get(stream, self.region_base(stream))

    def peek_next_address(self, stream: int) -> int:
        """The address :meth:`next_address` *would* return, without
        advancing any stream state.

        Models a speculative (hoisted) load: it reads the address the
        successor block's load will read.  When the branch goes the
        predicted way the real load re-touches the line (a hit); when it
        does not, the speculative reference was an extra, possibly
        missing, touch — exactly the perturbation Section 4.1 ascribes to
        speculation.
        """
        spec = self.spec(stream)
        base = self._bases[stream]
        words = spec.region_bytes // WORD_BYTES
        if spec.pattern in ("sequential", "strided"):
            addr = base + (self._positions[stream] % spec.region_bytes)
        elif spec.pattern == "random":
            shadow = _Lcg(0)
            shadow.state = self._rngs[stream].state
            addr = base + (shadow.next_u32() % words) * WORD_BYTES
        elif spec.pattern == "zipf":
            shadow = _Lcg(0)
            shadow.state = self._rngs[stream].state
            addr = base + _zipf_word(shadow, words) * WORD_BYTES
        else:  # stack
            window = min(32, words)
            shadow = _Lcg(0)
            shadow.state = self._rngs[stream].state
            step = (shadow.next_u32() % 3) - 1
            pos = (self._positions[stream] + step) % max(1, words - window)
            offset = shadow.next_u32() % window
            addr = base + (pos + offset) * WORD_BYTES
        return addr & ~(WORD_BYTES - 1)

    def wrong_path_address(self, stream: int) -> int:
        """An address a *mispredicted* speculative load would touch.

        The not-taken path typically works on a different part of the
        stream's data: far ahead in a sequential walk, an independent
        draw in a scattered structure, a nearby slot on the stack.  Like
        :meth:`peek_next_address`, no stream state advances — the real
        path's addresses are unperturbed.
        """
        spec = self.spec(stream)
        base = self._bases[stream]
        words = spec.region_bytes // WORD_BYTES
        if spec.pattern in ("sequential", "strided"):
            # Several dozen strides ahead: same-structure data the
            # committed walk reaches only later.  In a large cache the
            # early touch behaves like a prefetch (the walk re-hits the
            # line); in a small cache the line is evicted before use and
            # the speculation costs real misses — matching the paper's
            # observation that the small data cache suffers far more.
            offset = (
                self._positions[stream] + 64 * spec.stride_bytes
            ) % spec.region_bytes
            addr = base + offset
        elif spec.pattern in ("random", "zipf"):
            shadow = _Lcg(0)
            shadow.state = (self._rngs[stream].state ^ _WRONG_PATH_SALT) & _U32
            if spec.pattern == "zipf":
                addr = base + _zipf_word(shadow, words) * WORD_BYTES
            else:
                addr = base + (shadow.next_u32() % words) * WORD_BYTES
        else:  # stack: the not-taken path still works near the top
            return self.peek_next_address(stream)
        return addr & ~(WORD_BYTES - 1)

    # ------------------------------------------------------------------
    # Vectorised forms: one address per recorded stream state.
    # ------------------------------------------------------------------

    def peek_next_addresses(
        self, stream: int, states: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """:meth:`peek_next_address` for many (LCG state, position) pairs
        of ``stream``, as :meth:`state` reports them.

        Peeking at the state left by *c* :meth:`next_address` calls gives
        the address of call *c + 1*, so this also rebuilds a stream's
        address sequence from its recorded states.
        """
        spec = self.spec(stream)
        base = self._bases[stream]
        words = spec.region_bytes // WORD_BYTES
        positions = np.asarray(positions, dtype=np.int64)
        if spec.pattern in ("sequential", "strided"):
            addr = base + positions % spec.region_bytes
        else:
            draw = _lcg_next(np.asarray(states, dtype=np.uint64))
            if spec.pattern == "random":
                addr = base + _uniform_words(draw, words) * WORD_BYTES
            elif spec.pattern == "zipf":
                addr = base + _zipf_words(draw, words) * WORD_BYTES
            else:  # stack
                window = min(32, words)
                step = (draw % np.uint64(3)).astype(np.int64) - 1
                pos = (positions + step) % max(1, words - window)
                offset = _lcg_next(draw) % np.uint64(window)
                addr = base + (pos + offset.astype(np.int64)) * WORD_BYTES
        return addr & ~(WORD_BYTES - 1)

    def wrong_path_addresses(
        self, stream: int, states: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """:meth:`wrong_path_address` for many (LCG state, position)
        pairs of ``stream``."""
        spec = self.spec(stream)
        base = self._bases[stream]
        words = spec.region_bytes // WORD_BYTES
        if spec.pattern in ("sequential", "strided"):
            positions = np.asarray(positions, dtype=np.int64)
            addr = base + (
                positions + 64 * spec.stride_bytes
            ) % spec.region_bytes
        elif spec.pattern in ("random", "zipf"):
            salted = np.asarray(states, dtype=np.uint64) ^ np.uint64(
                _WRONG_PATH_SALT
            )
            draw = _lcg_next(salted)
            if spec.pattern == "zipf":
                addr = base + _zipf_words(draw, words) * WORD_BYTES
            else:
                addr = base + _uniform_words(draw, words) * WORD_BYTES
        else:  # stack
            return self.peek_next_addresses(stream, states, positions)
        return addr & ~(WORD_BYTES - 1)


def _zipf_word(rng: _Lcg, words: int) -> int:
    """A zipf-like word index: square a uniform draw to skew toward 0.

    P(index < k) = sqrt(k / words): the hottest 1% of the region absorbs
    ~10% of accesses — a cheap deterministic approximation of zipfian
    popularity that needs no per-stream tables.
    """
    u = rng.next_u32() / 0x1_0000_0000
    return int(u * u * words) % max(1, words)


def _uniform_words(draws: np.ndarray, words: int) -> np.ndarray:
    """Word indexes of uniform draws (the ``random`` pattern)."""
    return (draws % np.uint64(words)).astype(np.int64)


def _zipf_words(draws: np.ndarray, words: int) -> np.ndarray:
    """Vectorised :func:`_zipf_word` over already-drawn LCG outputs."""
    u = draws.astype(np.float64) / 0x1_0000_0000
    return (u * u * words).astype(np.int64) % max(1, words)


def _round_up(value: int, quantum: int = 64) -> int:
    return (value + quantum - 1) // quantum * quantum
