"""Run the repro CLI with its layers traced.

Usage: ``python3 perfbench/launch.py SPANS.json <repro arguments>``,
e.g. ``python3 perfbench/launch.py spans.json table4 --benchmarks epic``.
The arguments go to ``repro`` unchanged; when the command returns (for
``serve``: after SIGINT) the recorded spans are written to SPANS.json.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    from tracing import SpanRecorder

    import repro.cli

    recorder = SpanRecorder()
    recorder.install()
    try:
        return repro.cli.main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
