"""Golden outputs: the CLI's rendered tables and the front end's blocks.

``tests/golden/sweep_epic.txt`` is the stdout of ``repro sweep
--benchmarks epic`` (27 configurations on epic's unified trace).  Every
execution path a sweep can take — the in-process whole-design-space
kernel, parallel per-line-size workers and a streamed on-disk chunked
trace — must print exactly these bytes.  Regenerate the file only for
an intended output change:

    PYTHONPATH=src python -m repro sweep --benchmarks epic \\
        > tests/golden/sweep_epic.txt

Two more sweep goldens pin the other renderings:
``sweep_epic_sampled.txt`` (``--sample-intervals 8``: the sampled
header and the error column) and ``sweep_epic_icache32.txt`` (``--role
icache --line-sizes 32``: one line size, so a plain per-line-size pass).

``tests/golden/explore_epic.txt`` is the stdout of ``repro explore
--benchmarks epic``; its cycle counts are exact schedule lengths times
block visits, so any change to a schedule shows up there.

``tests/golden/frontend_blocks.json`` holds, per benchmark and paper
processor, one SHA-256 over every block's compiled and assembled form
(:func:`frontend_digest`).  Regenerate it only for an intended change
to compiled or encoded code:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/frontend_blocks.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cache.linestream import clear_line_stream_cache
from repro.cli import main
from repro.iformat.assembler import assemble
from repro.isa.program import Program
from repro.machine.mdes import MachineDescription
from repro.machine.presets import PAPER_PROCESSORS
from repro.machine.processor import VliwProcessor
from repro.vliwcomp.compile import compile_program
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "extra",
    [
        [],
        ["--max-workers", "2"],
        ["--trace-format", "chunked"],
    ],
    ids=["default", "max-workers-2", "chunked"],
)
def test_sweep_epic_matches_golden(extra, capsys):
    clear_line_stream_cache()
    assert main(["sweep", "--benchmarks", "epic", *extra]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "sweep_epic.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "golden,extra",
    [
        ("sweep_epic_sampled.txt", ["--sample-intervals", "8"]),
        ("sweep_epic_icache32.txt", ["--role", "icache", "--line-sizes", "32"]),
    ],
    ids=["sampled", "icache32"],
)
def test_sweep_epic_variants_match_golden(golden, extra, capsys):
    assert main(["sweep", "--benchmarks", "epic", *extra]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_explore_epic_matches_golden(capsys):
    assert main(["explore", "--benchmarks", "epic"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "explore_epic.txt").read_text(encoding="utf-8")


def frontend_digest(program: Program, processor: VliwProcessor) -> str:
    """SHA-256 over every block's schedule, compiler facts and encoding."""
    compiled = compile_program(program, MachineDescription(processor))
    assembled = assemble(compiled)
    digest = hashlib.sha256()
    for key, cblock in compiled.blocks.items():
        ablock = assembled.blocks[key]
        record = [
            list(key),
            [list(instr) for instr in cblock.schedule.instructions],
            cblock.schedule.cycles,
            cblock.spill_ops,
            list(cblock.speculative_streams),
            cblock.predicted_successor,
            ablock.size_bytes,
            ablock.instructions,
            ablock.explicit_noops,
        ]
        digest.update(json.dumps(record, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def frontend_digests() -> dict[str, dict[str, str]]:
    """:func:`frontend_digest` per benchmark and paper processor."""
    digests = {}
    for name in BENCHMARK_NAMES:
        program = load_benchmark(name).program
        digests[name] = {
            p.name: frontend_digest(program, p) for p in PAPER_PROCESSORS
        }
    return digests


def test_frontend_blocks_match_golden():
    golden = json.loads(
        (GOLDEN / "frontend_blocks.json").read_text(encoding="utf-8")
    )
    assert frontend_digests() == golden


if __name__ == "__main__":
    print(json.dumps(frontend_digests(), indent=2, sort_keys=True))
