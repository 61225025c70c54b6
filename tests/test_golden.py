"""End-to-end golden outputs: the CLI's rendered tables, byte for byte.

``tests/golden/sweep_epic.txt`` is the stdout of ``repro sweep
--benchmarks epic`` (27 configurations on epic's unified trace).  Every
execution path a sweep can take — the in-process whole-design-space
kernel, parallel per-line-size workers, a streamed on-disk chunked
trace, and independent per-line-size passes — must print exactly these
bytes.  Regenerate the file only for an intended output change:

    PYTHONPATH=src python -m repro sweep --benchmarks epic \\
        > tests/golden/sweep_epic.txt
"""

from pathlib import Path

import pytest

from repro.cache.linestream import clear_line_stream_cache
from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "extra",
    [
        [],
        ["--max-workers", "2"],
        ["--trace-format", "chunked"],
        ["--strategy", "perline"],
    ],
    ids=["default", "max-workers-2", "chunked", "perline"],
)
def test_sweep_epic_matches_golden(extra, capsys):
    clear_line_stream_cache()
    assert main(["sweep", "--benchmarks", "epic", *extra]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "sweep_epic.txt").read_text(encoding="utf-8")
