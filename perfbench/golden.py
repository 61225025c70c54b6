"""Regenerate ``perfbench/golden.json``, the benchmark's expected outputs.

Usage: ``python3 perfbench/golden.py``.  Only rerun it when the
program's output is meant to change; the benchmark counts every output
that differs from this file as a wrong result.

* ``cli``: SHA-256 of the stdout of each CLI process the workloads run
  (fixed emulator seed, so the output is fixed).
* ``service``: for each synthetic trace of the service_mix pool, the
  SHA-256 of the fresh and overlap sweep results (canonical per-config
  rows).  They are computed in-process with ``execute_job``, and a sample
  of configs per trace is re-simulated with the direct simulator.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile

import run as bench

sys.path.insert(0, str(bench.SRC))

from repro.cache.config import CacheConfig  # noqa: E402
from repro.cache.simulator import simulate_trace  # noqa: E402
from repro.service.jobs import build_trace_arrays, execute_job  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402


def cli_digests(run: bench.Run) -> dict[str, str]:
    digests = {}
    for name, args in (*bench.PAPER_FLOW, *bench.EXPLORE_FLOW, bench.PROBE):
        _, code, stdout = run.run_process(args, run.fresh_dir(), name)
        if code != 0:
            raise SystemExit(f"repro {' '.join(args)} exited with {code}")
        digests[name] = hashlib.sha256(stdout).hexdigest()
        print(f"cli {name}: {digests[name]}", flush=True)
    return digests


def service_digests(workdir: str) -> dict[str, dict[str, str]]:
    rng = random.Random(0)
    digests = {}
    for index in range(bench.TRACE_POOL):
        # One store per trace: no result is served from an earlier trace.
        store = ResultStore(f"{workdir}/golden-{index}.db")
        trace = bench.trace_spec(index)
        entry = {}
        for cls, grid in (("fresh", bench.FRESH_GRID), ("overlap", bench.OVERLAP_GRID)):
            result = execute_job({"kind": "sweep", "trace": trace, "configs": grid}, store)
            rows = bench.result_rows(result)
            sets, assoc, line, accesses, misses = rng.choice(rows)
            direct = simulate_trace(
                CacheConfig(sets, assoc, line), *build_trace_arrays(trace)
            )
            if (direct.accesses, direct.misses) != (accesses, misses):
                raise SystemExit(f"trace {index} S{sets}A{assoc}L{line}: sweep "
                                 f"disagrees with the direct simulator")
            entry[cls] = bench.rows_digest(rows)
        store.close()
        digests[str(index)] = entry
        if index % 32 == 0:
            print(f"service trace {index}/{bench.TRACE_POOL}", flush=True)
    return digests


def main() -> int:
    run = bench.Run("golden", 0, 0, False)
    bench.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=bench.OUT)
    try:
        golden = {"cli": cli_digests(run), "service": service_digests(workdir)}
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        shutil.rmtree(workdir, ignore_errors=True)
    path = bench.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
