"""Emulator + execution engine: run a program, produce an event trace.

This module plays the role of the paper's IMPACT-based emulation path
(Figure 3): the program's control flow is executed with seeded branch
outcomes, emitting block-enter events and load/store data addresses.

Two properties the dilation model depends on are guaranteed by
construction:

* the *block visit sequence* and the *base data addresses* depend only on
  (program, seed, budget) — never on the processor — matching the paper's
  step-1 assumption;
* processor-dependent perturbations (spill traffic, speculative loads)
  are layered on afterwards from the compiled program's per-block
  annotations, using only the dedicated spill stream and reads of
  stream state that advance nothing, so the base reference stream is
  untouched.  These perturbations are exactly the step-1 error sources
  Table 2 measures.

Emulation is split along that line.  The *walk* executes the control
flow once per (program, streams, seed, budget) and is memoised on the
:class:`Emulator`: it records the visit sequence, the successor chosen
at each visit, the committed base references, and each stream's
address-model state (LCG state and position) after every one of its
references.  The *decoration* then runs per :class:`CompiledProgram` as
a few numpy passes over the walk.  After each visit's base references it
splices in the visit's spill references, the next stretch of the spill
stream's address sequence with stores and loads alternating, and then
its speculative loads.  Each speculative load reads the recorded state
of its stream at that point of the trace through the vectorised forms
of :meth:`~repro.trace.datamodel.DataAddressModel.peek_next_address`
and :meth:`~repro.trace.datamodel.DataAddressModel.wrong_path_address`.
All processors of a benchmark share one walk, and each decorated trace
equals what one interleaved per-reference loop would build.
"""

from __future__ import annotations

import random
import threading
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from repro.errors import TraceError
from repro.isa.program import Program
from repro.isa.validate import validate_program
from repro.trace.datamodel import DataAddressModel, StreamSpec
from repro.trace.events import EventTrace, EventTraceBuilder
from repro.vliwcomp.compile import CompiledProgram
from repro.vliwcomp.regalloc import SPILL_STREAM

_ARRAY_FIELDS = (
    "visit_blocks", "data_addrs", "data_streams", "data_offsets", "data_writes"
)

#: Chosen-successor marker of a visit to a return block (int64 minimum).
_RETURNED = -(2**63)


@dataclass
class _Walk:
    """The processor-independent record of one emulation."""

    #: The undecorated trace: visits and committed base references.
    trace: EventTrace
    #: int64 successor chosen at each visit (``_RETURNED`` for returns).
    successors: np.ndarray
    #: The model the walk drew from; it extends the state logs on demand.
    data: DataAddressModel
    #: Per stream: uint32 LCG states and int64 positions after *c* of
    #: the stream's references, at index *c* (index 0: initial state).
    states: dict[int, np.ndarray]
    positions: dict[int, np.ndarray]
    #: Per stream, memoised: base references to it up to each visit end.
    _visit_counts: dict[int, np.ndarray] = field(default_factory=dict)

    def base_count(self, stream: int, visits: np.ndarray) -> np.ndarray:
        """Base references to ``stream`` up to the end of each of
        ``visits``."""
        counts = self._visit_counts.get(stream)
        if counts is None:
            refs = np.flatnonzero(self.trace.data_streams == stream)
            counts = np.searchsorted(refs, self.trace.data_offsets[1:])
            self._visit_counts[stream] = counts = counts.astype(np.int32)
        return counts[visits]

    def state_at(
        self, stream: int, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(states, positions) of ``stream`` after ``counts`` references,
        advancing the stream past the walk when a count needs it."""
        self.data.spec(stream)  # raises for an unknown stream
        have = len(self.states[stream])
        need = int(counts.max(initial=0)) + 1
        if need > have:
            extra = []
            for _ in range(need - have):
                self.data.next_address(stream)
                extra.append(self.data.state(stream))
            more_states, more_positions = zip(*extra)
            self.states[stream] = np.concatenate(
                [self.states[stream], np.array(more_states, np.uint32)]
            )
            self.positions[stream] = np.concatenate(
                [self.positions[stream], np.array(more_positions, np.int64)]
            )
        return self.states[stream][counts], self.positions[stream][counts]


class Emulator:
    """Seeded control-flow execution of a validated program."""

    def __init__(
        self,
        program: Program,
        streams: dict[int, StreamSpec],
        seed: int = 1,
    ):
        validate_program(program)
        self.program = program
        self.streams = streams
        self.seed = seed
        self._walks: dict[int, _Walk] = {}
        # Pipelines are shared across service worker threads; a walk and
        # the spill-stream states it extends are built by one at a time.
        self._lock = threading.Lock()

    def run(
        self,
        max_visits: int,
        compiled: CompiledProgram | None = None,
    ) -> EventTrace:
        """Execute until the entry procedure returns or the visit budget.

        ``compiled`` enables trace decoration: spill and speculative data
        references recorded in the compiled blocks are appended to each
        visit's base references.  The walk itself runs once per budget;
        later calls reuse it.
        """
        if max_visits < 1:
            raise TraceError(f"max_visits must be >= 1, got {max_visits}")
        with self._lock:
            walk = self._walks.get(max_visits)
            if walk is None:
                walk = self._walks[max_visits] = self._walk(max_visits)
            if compiled is None:
                return walk.trace
            return _decorate(walk, compiled)

    def _walk(self, max_visits: int) -> _Walk:
        """Execute the control flow, recording everything a decoration
        needs."""
        rng = random.Random(self.seed)
        data = DataAddressModel(self.streams, seed=self.seed)
        builder = EventTraceBuilder()
        program = self.program
        streams = set(self.streams) | {SPILL_STREAM}
        states = {s: array("I", [data.state(s)[0]]) for s in streams}
        positions = {s: array("q", [data.state(s)[1]]) for s in streams}
        successors = array("q")
        # Per block: (memory ops as (stream, is_store), cumulative edge
        # probabilities, successor ids, callee entry keys).  Cumulative
        # sums accumulate in edge order, exactly as a running total would.
        blocks: dict[tuple[str, int], tuple] = {}

        def block_info(key: tuple[str, int]) -> tuple:
            info = blocks.get(key)
            if info is None:
                proc = program.procedure(key[0])
                block = proc.block(key[1])
                edges = proc.successors(key[1])
                callees = [program.procedure(c) for c in block.calls]
                info = blocks[key] = (
                    [(op.stream, op.is_store) for op in block.operations
                     if op.is_memory],
                    list(accumulate(e.probability for e in edges)),
                    [e.dst for e in edges],
                    [(c.name, c.entry.block_id) for c in callees],
                )
            return info

        def visit(key: tuple[str, int]) -> list:
            """Emit one visit; return its frame [key, info, call index,
            chosen successor]."""
            info = block_info(key)
            ops, cumulative, dsts, _ = info
            chosen = None
            if dsts:
                point = rng.random()
                chosen = dsts[-1]
                for acc, dst in zip(cumulative, dsts):
                    if point < acc:
                        chosen = dst
                        break
            successors.append(_RETURNED if chosen is None else chosen)
            builder.begin_visit(*key)
            for stream, is_store in ops:
                builder.add_data_ref(
                    data.next_address(stream), stream, is_write=is_store
                )
                state, position = data.state(stream)
                states[stream].append(state)
                positions[stream].append(position)
            builder.end_visit()
            return [key, info, 0, chosen]

        entry = (program.entry, program.entry_procedure.entry.block_id)
        stack = [visit(entry)]
        while stack and builder.n_visits < max_visits:
            frame = stack[-1]
            key, (_, _, _, calls), call_index, chosen = frame
            if call_index < len(calls):
                frame[2] += 1
                stack.append(visit(calls[call_index]))
            elif chosen is None:
                stack.pop()
            else:
                stack[-1] = visit((key[0], chosen))
        trace = builder.build()
        # The walk's trace is handed out to every caller: freeze it.
        for name in _ARRAY_FIELDS:
            getattr(trace, name).flags.writeable = False
        return _Walk(
            trace=trace,
            successors=np.asarray(successors, dtype=np.int64),
            data=data,
            states={s: np.asarray(a, np.uint32) for s, a in states.items()},
            positions={
                s: np.asarray(a, np.int64) for s, a in positions.items()
            },
        )


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(n)`` for every ``n`` in ``lengths``."""
    starts = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) - np.repeat(starts, lengths)


def _decorate(walk: _Walk, compiled: CompiledProgram) -> EventTrace:
    """The walk's trace with ``compiled``'s spill and speculative
    references spliced into every visit."""
    base = walk.trace
    n_blocks = len(base.blocks)
    spill_ops = np.zeros(n_blocks, dtype=np.int64)
    predicted = np.zeros(n_blocks, dtype=np.int64)
    has_predicted = np.zeros(n_blocks, dtype=bool)
    speculative: list[tuple[int, ...]] = []
    for g, key in enumerate(base.blocks):
        cblock = compiled.blocks.get(key)
        if cblock is None:
            raise TraceError(f"compiled program lacks block {key!r}")
        spill_ops[g] = cblock.spill_ops
        if cblock.predicted_successor is not None:
            has_predicted[g] = True
            predicted[g] = cblock.predicted_successor
        speculative.append(cblock.speculative_streams)
    n_speculative = np.array([len(s) for s in speculative], dtype=np.int64)
    if not spill_ops.any() and not n_speculative.any():
        return base

    vb = base.visit_blocks
    n_visits = len(vb)
    base_offsets = base.data_offsets
    n_base = np.diff(base_offsets)
    n_spill = spill_ops[vb]
    n_spec = n_speculative[vb]
    offsets = np.zeros(n_visits + 1, dtype=np.int64)
    np.cumsum(n_base + n_spill + n_spec, out=offsets[1:])
    total = int(offsets[-1])
    addrs = np.empty(total, dtype=np.int64)
    streams = np.empty(total, dtype=np.int32)
    writes = np.zeros(total, dtype=bool)
    visits = np.arange(n_visits)

    # Base references keep their order and values.
    base_pos = np.arange(base.n_data_refs) + np.repeat(
        offsets[:-1] - base_offsets[:-1], n_base
    )
    addrs[base_pos] = base.data_addrs
    streams[base_pos] = base.data_streams
    writes[base_pos] = base.data_writes

    # Spill references: store/load pairs on the spill stream.
    spill_visit = np.repeat(visits, n_spill)
    spill_index = _ragged_arange(n_spill)
    spill_pos = offsets[spill_visit] + n_base[spill_visit] + spill_index
    streams[spill_pos] = SPILL_STREAM
    writes[spill_pos] = spill_index & 1 == 0
    # Every reference that advances the spill stream, in trace order,
    # takes the next address of its sequence.
    spill_refs = base_pos[base.data_streams == SPILL_STREAM]
    if len(spill_refs):
        spill_pos = np.sort(np.concatenate([spill_refs, spill_pos]))
    if len(spill_pos):
        states, positions = walk.state_at(
            SPILL_STREAM, np.arange(len(spill_pos))
        )
        addrs[spill_pos] = walk.data.peek_next_addresses(
            SPILL_STREAM, states, positions
        )

    # Speculative loads: read at the stream's state after the visit's
    # base and spill references.  Mispredicted, every other one runs
    # down the wrong path.
    spec_visit = np.repeat(visits, n_spec)
    spec_index = _ragged_arange(n_spec)
    spec_pos = offsets[spec_visit + 1] - n_spec[spec_visit] + spec_index
    spec_starts = np.cumsum(n_speculative) - n_speculative
    spec_streams = np.fromiter(
        chain.from_iterable(speculative), dtype=np.int32
    )[spec_starts[vb[spec_visit]] + spec_index]
    streams[spec_pos] = spec_streams
    mispredicted = has_predicted[vb] & (walk.successors != predicted[vb])
    wrong = mispredicted[spec_visit] & (spec_index & 1 == 0)
    spill_before = np.cumsum(n_spill)
    for stream in set(chain.from_iterable(speculative)):
        sel = np.flatnonzero(spec_streams == stream)
        visit = spec_visit[sel]
        counts = walk.base_count(stream, visit)
        if stream == SPILL_STREAM:
            counts = counts + spill_before[visit]
        states, positions = walk.state_at(stream, counts)
        spec_addrs = walk.data.peek_next_addresses(stream, states, positions)
        off_path = wrong[sel]
        if off_path.any():
            spec_addrs[off_path] = walk.data.wrong_path_addresses(
                stream, states[off_path], positions[off_path]
            )
        addrs[spec_pos[sel]] = spec_addrs

    return EventTrace(
        blocks=base.blocks,
        visit_blocks=vb,
        data_addrs=addrs,
        data_streams=streams,
        data_offsets=offsets,
        data_writes=writes,
    )


def emulate(
    program: Program,
    streams: dict[int, StreamSpec],
    seed: int = 1,
    max_visits: int = 100_000,
    compiled: CompiledProgram | None = None,
) -> EventTrace:
    """One-shot convenience wrapper around :class:`Emulator`."""
    return Emulator(program, streams, seed).run(max_visits, compiled)
