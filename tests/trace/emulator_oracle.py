"""Reference emulator: the per-reference loop, one processor at a time.

The emulator in :mod:`repro.trace.emulator` walks the control flow once
and decorates that walk per processor with numpy.  This module keeps the
straightforward form it must match bit for bit: one interleaved loop
that draws every base, spill and speculative reference from a single
:class:`DataAddressModel`, in trace order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import TraceError
from repro.isa.program import Program
from repro.trace.datamodel import DataAddressModel, StreamSpec
from repro.trace.events import EventTrace, EventTraceBuilder
from repro.vliwcomp.compile import CompiledProgram
from repro.vliwcomp.regalloc import SPILL_STREAM

_VISIT, _CALLS, _BRANCH = 0, 1, 2


@dataclass
class _Frame:
    proc_name: str
    block_id: int
    state: int = _VISIT
    call_index: int = 0
    chosen_successor: int | None = None


def oracle_emulate(
    program: Program,
    streams: dict[int, StreamSpec],
    seed: int,
    max_visits: int,
    compiled: CompiledProgram | None = None,
) -> EventTrace:
    """Emulate ``program`` and decorate it for ``compiled`` in one pass."""
    rng = random.Random(seed)
    data = DataAddressModel(streams, seed=seed)
    builder = EventTraceBuilder()
    stack = [_Frame(program.entry, program.entry_procedure.entry.block_id)]
    while stack and builder.n_visits < max_visits:
        frame = stack[-1]
        proc = program.procedure(frame.proc_name)
        block = proc.block(frame.block_id)
        if frame.state == _VISIT:
            edges = proc.successors(frame.block_id)
            frame.chosen_successor = _choose(edges, rng) if edges else None
            builder.begin_visit(frame.proc_name, frame.block_id)
            for op in block.operations:
                if op.is_memory:
                    builder.add_data_ref(
                        data.next_address(op.stream),
                        op.stream,
                        is_write=op.is_store,
                    )
            if compiled is not None:
                _decorate(builder, data, compiled, frame)
            builder.end_visit()
            frame.state = _CALLS
            frame.call_index = 0
        elif frame.state == _CALLS:
            if frame.call_index < len(block.calls):
                callee = block.calls[frame.call_index]
                frame.call_index += 1
                entry_block = program.procedure(callee).entry.block_id
                stack.append(_Frame(callee, entry_block))
            else:
                frame.state = _BRANCH
        else:
            if frame.chosen_successor is None:
                stack.pop()
                continue
            frame.block_id = frame.chosen_successor
            frame.state = _VISIT
    return builder.build()


def _decorate(builder, data, compiled, frame) -> None:
    cblock = compiled.blocks.get((frame.proc_name, frame.block_id))
    if cblock is None:
        raise TraceError(
            f"compiled program lacks block "
            f"({frame.proc_name!r}, {frame.block_id})"
        )
    for index in range(cblock.spill_ops):
        builder.add_data_ref(
            data.next_address(SPILL_STREAM),
            SPILL_STREAM,
            is_write=index % 2 == 0,
        )
    wrong_path = (
        cblock.predicted_successor is not None
        and frame.chosen_successor != cblock.predicted_successor
    )
    for index, stream in enumerate(cblock.speculative_streams):
        if wrong_path and index % 2 == 0:
            builder.add_data_ref(data.wrong_path_address(stream), stream)
        else:
            builder.add_data_ref(data.peek_next_address(stream), stream)


def _choose(edges, rng: random.Random) -> int:
    point = rng.random()
    acc = 0.0
    for edge in edges:
        acc += edge.probability
        if point < acc:
            return edge.dst
    return edges[-1].dst
