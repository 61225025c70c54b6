"""Micro-benchmarks: substrate throughput regression tracking.

Not paper experiments — these time the hot kernels (direct simulation,
single-pass multi-configuration simulation, emulation, compile and
assemble, AHH parameter extraction) on a fixed mid-size input so performance regressions in the
substrate are visible in CI output.
"""

import pytest

from benchmarks.conftest import BENCH_SETTINGS
from repro.ahh.modeler import derive_trace_parameters
from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.experiments.runner import get_pipeline
from repro.iformat.assembler import assemble
from repro.iformat.format_synth import synthesize_format
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P6332
from repro.trace.emulator import Emulator
from repro.vliwcomp.compile import compile_program
from repro.workloads.suite import load_benchmark


@pytest.fixture(scope="module")
def unified_trace():
    pipeline = get_pipeline("epic", BENCH_SETTINGS)
    return pipeline.reference_artifacts().unified_trace


@pytest.mark.benchmark(group="micro")
def test_micro_direct_simulator(benchmark, unified_trace):
    config = CacheConfig.from_size(16 * 1024, 2, 64)

    def run():
        return simulate_trace(
            config, unified_trace.starts, unified_trace.sizes
        ).misses

    misses = benchmark(run)
    assert misses > 0


@pytest.mark.benchmark(group="micro")
def test_micro_cheetah_multi_config(benchmark, unified_trace):
    """One pass answering a 3-set-count x 4-way grid (12 configs)."""

    def run():
        sim = CheetahSimulator(64, [64, 256, 1024], max_assoc=4)
        sim.simulate(unified_trace.starts, unified_trace.sizes)
        return sim.misses(256, 2)

    misses = benchmark(run)
    assert misses > 0


@pytest.mark.benchmark(group="micro")
def test_micro_emulation(benchmark):
    workload = load_benchmark("epic", scale=0.5)

    def run():
        # A fresh emulator per round: an Emulator memoises its walk.
        emulator = Emulator(workload.program, workload.streams, seed=3)
        return emulator.run(10_000).n_visits

    visits = benchmark(run)
    assert visits > 0


@pytest.mark.benchmark(group="micro")
def test_micro_compile_assemble(benchmark):
    """Front-end throughput: compile and assemble epic for 6332."""
    program = load_benchmark("epic").program

    def run():
        # A fresh mdes and format per round: a format memoises its
        # template selections, so every round starts cold.
        mdes = MachineDescription(P6332)
        compiled = compile_program(program, mdes)
        return assemble(compiled, synthesize_format(mdes)).text_bytes

    text_bytes = benchmark(run)
    assert text_bytes > 0


@pytest.mark.benchmark(group="micro")
def test_micro_ahh_parameter_extraction(benchmark, unified_trace):
    pipeline = get_pipeline("epic", BENCH_SETTINGS)
    itrace = pipeline.reference_artifacts().instruction_trace

    def run():
        return derive_trace_parameters(
            itrace, unified_trace, i_granule=2_000, u_granule=20_000
        ).icache.u1

    u1 = benchmark.pedantic(run, rounds=1, iterations=1)
    assert u1 > 0
