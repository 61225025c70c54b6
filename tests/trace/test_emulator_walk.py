"""The shared walk plus vectorised decoration against the oracle loop.

:class:`repro.trace.emulator.Emulator` walks a program once and decorates
that walk per processor.  Every trace it returns must equal, array for
array, what the one-pass per-reference loop in ``emulator_oracle`` builds.
"""

import copy
import dataclasses
import sys
import threading

import numpy as np
import pytest

from emulator_oracle import oracle_emulate
from repro.errors import TraceError
from repro.experiments.pipeline import ExperimentPipeline
from repro.explore.spec import SystemDesignSpace
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111, P2111, P3221, P6332, PAPER_PROCESSORS
from repro.trace.emulator import Emulator
from repro.vliwcomp.compile import compile_program
from repro.vliwcomp.regalloc import SPILL_STREAM
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

PROCESSORS = tuple(
    {
        p.name: p
        for p in (*PAPER_PROCESSORS, *SystemDesignSpace().processors)
    }.values()
)

_FIELDS = (
    "visit_blocks",
    "data_addrs",
    "data_streams",
    "data_offsets",
    "data_writes",
)


def assert_same_trace(actual, expected):
    assert actual.blocks == expected.blocks
    for name in _FIELDS:
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        assert np.array_equal(a, e), name


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_every_processor_matches_the_oracle(name):
    # Reduced scale and budget keep 10 benchmarks x 14 processors fast.
    workload = load_benchmark(name, scale=0.25)
    emulator = Emulator(workload.program, workload.streams, seed=1)
    for processor in PROCESSORS:
        compiled = compile_program(
            workload.program, MachineDescription(processor)
        )
        assert_same_trace(
            emulator.run(2_000, compiled=compiled),
            oracle_emulate(
                workload.program, workload.streams, 1, 2_000, compiled
            ),
        )


def test_undecorated_run_matches_the_oracle(tiny):
    emulator = Emulator(tiny.program, tiny.streams, seed=4)
    assert_same_trace(
        emulator.run(700),
        oracle_emulate(tiny.program, tiny.streams, 4, 700),
    )


def _perturbed(compiled, spill_ops, speculative):
    """``compiled`` with every block's spill count and speculative
    streams replaced, and its prediction pointed at the first edge."""
    blocks = {}
    for key, cblock in compiled.blocks.items():
        edges = compiled.program.procedure(key[0]).successors(key[1])
        blocks[key] = dataclasses.replace(
            cblock,
            spill_ops=spill_ops(key),
            speculative_streams=speculative(key),
            predicted_successor=edges[0].dst if edges else 0,
        )
    return dataclasses.replace(compiled, blocks=blocks)


class TestDecorationEdgeCases:
    """Paths the suite's compiled programs never reach: spills,
    speculation on the spill stream, base references to the spill
    stream, and a stream advanced past the walk's end."""

    def test_spills_and_spill_stream_speculation(self, tiny):
        compiled = _perturbed(
            compile_program(tiny.program, MachineDescription(P6332)),
            spill_ops=lambda key: key[1] % 4,
            speculative=lambda key: (SPILL_STREAM, 0, SPILL_STREAM, 1)[
                : key[1] % 5
            ],
        )
        emulator = Emulator(tiny.program, tiny.streams, seed=2)
        assert_same_trace(
            emulator.run(900, compiled=compiled),
            oracle_emulate(tiny.program, tiny.streams, 2, 900, compiled),
        )

    def test_base_references_to_the_spill_stream(self, tiny):
        program = copy.deepcopy(tiny.program)
        for proc in program.procedures.values():
            for block in proc.blocks[::2]:
                block.operations = [
                    dataclasses.replace(op, stream=SPILL_STREAM)
                    if op.is_memory
                    else op
                    for op in block.operations
                ]
        compiled = _perturbed(
            compile_program(program, MachineDescription(P3221)),
            spill_ops=lambda key: 3 if key[1] % 3 else 0,
            speculative=lambda key: (SPILL_STREAM,) if key[1] % 2 else (),
        )
        emulator = Emulator(program, tiny.streams, seed=8)
        assert_same_trace(
            emulator.run(900, compiled=compiled),
            oracle_emulate(program, tiny.streams, 8, 900, compiled),
        )

    def test_missing_compiled_block_raises(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P2111))
        entry = tiny.program.entry_procedure.entry.block_id
        del compiled.blocks[(tiny.program.entry, entry)]
        with pytest.raises(TraceError, match="lacks block"):
            Emulator(tiny.program, tiny.streams).run(100, compiled=compiled)


@pytest.fixture
def walks(monkeypatch):
    """The visit budget of every walk an Emulator runs, in order."""
    log = []
    original = Emulator._walk

    def counting(self, max_visits):
        log.append(max_visits)
        return original(self, max_visits)

    monkeypatch.setattr(Emulator, "_walk", counting)
    return log


class TestWalkOnce:
    def test_walk_is_memoised_per_budget(self, tiny, walks):
        emulator = Emulator(tiny.program, tiny.streams, seed=1)
        for processor in (P1111, P3221, P6332):
            emulator.run(
                500,
                compiled=compile_program(
                    tiny.program, MachineDescription(processor)
                ),
            )
        emulator.run(500)
        emulator.run(300)
        assert walks == [500, 300]

    def test_pipeline_walks_once_for_all_processors(self, tiny, walks):
        pipeline = ExperimentPipeline(tiny, max_visits=1_500)
        traces = [
            pipeline.artifacts(processor).events
            for processor in (P1111, P2111, P3221, P6332)
        ]
        assert walks == [1_500]
        for processor, events in zip((P1111, P2111, P3221, P6332), traces):
            compiled = pipeline.artifacts(processor).compiled
            assert_same_trace(
                events,
                oracle_emulate(
                    tiny.program, tiny.streams, 1, 1_500, compiled
                ),
            )

    def test_walk_trace_is_read_only(self, tiny):
        events = Emulator(tiny.program, tiny.streams).run(200)
        with pytest.raises(ValueError):
            events.data_addrs[0] = 0

    def test_concurrent_runs_share_one_walk(self, tiny, walks):
        # Service worker threads share a pipeline and so its emulator.
        # Spills make every decoration extend the spill stream's states.
        programs = [
            _perturbed(
                compile_program(tiny.program, MachineDescription(p)),
                spill_ops=lambda key, k=k: (key[1] + k) % 5,
                speculative=lambda key: (SPILL_STREAM, 1),
            )
            for k, p in enumerate((P1111, P2111, P3221, P6332) * 2)
        ]
        emulator = Emulator(tiny.program, tiny.streams, seed=6)
        results = [None] * len(programs)

        def work(i):
            results[i] = emulator.run(600, compiled=programs[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(len(programs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert walks == [600]
        for compiled, events in zip(programs, results):
            assert_same_trace(
                events,
                oracle_emulate(tiny.program, tiny.streams, 6, 600, compiled),
            )
