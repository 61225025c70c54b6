"""Repo benchmark: wall time of the paper, explore and service flows.

Usage::

    python3 perfbench/run.py --workload paper_cli --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``paper_cli``   -- ``repro table4 --benchmarks 085.gcc epic`` then
  ``repro fig6``, two CLI processes from empty on-disk state;
* ``explore_cli`` -- ``repro explore --benchmarks epic``;
* ``service_mix`` -- one closed-loop client on one connection against
  ``repro serve --workers 1``: fresh sweep, exact replay, overlapping
  sweep and ``GET /metrics``, repeated.

The benchmark drives the program only through its CLI and HTTP API.
Every run works in a fresh, empty scratch directory under
``perfbench/out/work`` (cwd, ``TMPDIR`` and ``--db``), checks every
output against ``golden.json`` (and, for the service, against the
direct simulator), and prints as its last stdout line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs half the time
untraced and half through ``launch.py`` and reports the per-layer
split.  Full per-run records and span files land in ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import http.client
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import LAYER_NAMES, self_times  # noqa: E402

#: Setup is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
#: Wall-clock limit for one program process (the run must end in 180 s).
PROCESS_TIMEOUT_S = 150.0
#: Fixed client poll interval for job state (no backoff, no jitter).
POLL_INTERVAL_S = 0.025
#: A job not done or failed this long after its submit counts as failed.
JOB_TIMEOUT_S = 60.0

PAPER_FLOW = (
    ("table4", ("table4", "--benchmarks", "085.gcc", "epic")),
    ("fig6", ("fig6",)),
)
EXPLORE_FLOW = (("explore", ("explore", "--benchmarks", "epic")),)
#: The cheapest CLI command: interpreter start, imports, argument parsing.
PROBE = ("benchmarks", ("benchmarks",))
#: Probe runs per CLI cycle (a short process: more samples steady it).
PROBES_PER_CYCLE = 3

#: Latency classes of a CLI flow's processes (the CLI keeps no state,
#: so every process starts from empty state; see README.md).
PAPER_CLASSES = {"fresh": "table4", "replay": "fig6", "overlap": "fig6"}
EXPLORE_CLASSES = {"fresh": "explore", "replay": "explore", "overlap": "explore"}

#: service_mix inputs.  Cycle i of a run with seed s sweeps synthetic
#: trace (s * POOL_STRIDE + i) mod TRACE_POOL, so traces never repeat
#: within a run and every result has a committed golden digest.
TRACE_POOL = 256
POOL_STRIDE = 37
TRACE_RANGES = 100_000
TRACE_FOOTPRINT = 1 << 18
TRACE_MAX_SIZE = 64
FRESH_GRID = {"line_sizes": [16, 32, 64], "sets": [64, 256, 1024], "assocs": [1, 2, 4]}
OVERLAP_GRID = {"line_sizes": [16, 32, 64], "sets": [128, 512, 2048], "assocs": [1, 2, 8]}
#: (cycle, config) pairs re-simulated by the direct simulator per run.
ORACLE_CHECKS = 6

#: Metric name of each traced layer's self seconds.
LAYER_SECONDS = {
    layer: f"{layer}_self_s" if layer == "explore.walk" else f"{layer}_s"
    for layer in LAYER_NAMES
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, no port, ...)."""


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it.  Below 21 samples no percentile above the median
    has ten samples beyond it, and the tail is the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 21:
        return median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def median(samples: list[float]) -> float:
    """The median; 0 when nothing succeeded (the run is then incorrect)."""
    return statistics.median(samples) if samples else 0.0


# ----------------------------------------------------------------------
# Processes.
# ----------------------------------------------------------------------


class Run:
    """One benchmark run: its scratch directory, records and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = OUT / "work" / f"{workload}-s{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_kib = 0
        self.env_info: dict = {}
        self._dirs = 0

    @functools.cached_property
    def golden(self) -> dict:
        """Expected outputs (see golden.py)."""
        return json.loads((HERE / "golden.json").read_text())

    def fresh_dir(self) -> Path:
        """A new, empty scratch directory inside this run's work area."""
        self._dirs += 1
        path = self.work / f"d{self._dirs}"
        path.mkdir(parents=True)
        return path

    def env(self, cwd: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(cwd)
        return env

    def argv(self, args, spans: Path | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, str(HERE / "launch.py"), str(spans), *args]

    def spawn(self, argv, cwd: Path, stdout: Path) -> subprocess.Popen:
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            return subprocess.Popen(
                argv, cwd=cwd, env=self.env(cwd), stdout=out, stderr=err,
                stdin=subprocess.DEVNULL,
            )

    def reap(self, proc: subprocess.Popen, timeout: float) -> int:
        """Wait for ``proc`` (killing it after ``timeout``), record its
        peak RSS, and return its exit code."""
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): leave no process behind.
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return proc.returncode

    def run_process(self, args, cwd: Path, name: str, spans: Path | None = None):
        """Run one CLI process to completion: (seconds, exit code, stdout)."""
        stdout = cwd / f"{name}.out"
        start = time.perf_counter()
        proc = self.spawn(self.argv(args, spans), cwd, stdout)
        code = self.reap(proc, PROCESS_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        return elapsed, code, stdout.read_bytes()

    def check(self, ok: bool, problem: str) -> bool:
        """Count one attempted operation; a failed check counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def check_output(self, name: str, code: int, stdout: bytes) -> None:
        digest = hashlib.sha256(stdout).hexdigest()
        expected = self.golden["cli"][name]
        self.check(
            code == 0 and digest == expected,
            f"{name}: exit {code}, stdout sha256 {digest[:12]} "
            f"(expected {expected[:12]})",
        )

    def probe_env(self, cwd: Path) -> None:
        """Set-up step: the program's interpreter imports repro and numpy."""
        code = (
            "import json, platform, numpy, repro; print(json.dumps("
            "{'python': platform.python_version(), 'numpy': numpy.__version__}))"
        )
        stdout = cwd / "env.out"
        proc = self.spawn([sys.executable, "-c", code], cwd, stdout)
        if self.reap(proc, PROCESS_TIMEOUT_S) != 0:
            raise BenchError(
                "the program does not import here: "
                + stdout.with_suffix(".err").read_text()[-500:]
            )
        self.env_info = json.loads(stdout.read_text())


def run_cycles(seconds: float, cycle, first: int = 0) -> tuple[list, float]:
    """Closed loop: start ``cycle(i)`` again until ``seconds`` have passed
    (at least once); returns the cycle results and the elapsed seconds."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        result = cycle(first + len(results))
        if result is None:
            break
        results.append(result)
    return results, time.perf_counter() - start


# ----------------------------------------------------------------------
# CLI workloads.
# ----------------------------------------------------------------------


def est_err_pct(table4_stdout: str) -> float:
    """Mean |Est - Act| / Act over the Table 4 cells, in percent."""
    errors = []
    for line in table4_stdout.splitlines():
        cells = line.split()
        if len(cells) < 4 or not all(re.fullmatch(r"[0-9.]+", c) for c in cells[1:]):
            continue  # a title, header or rule line
        values = [float(x) for x in cells[1:]]
        for i in range(0, len(values), 3):
            actual, estimated = values[i], values[i + 2]
            errors.append(abs(estimated - actual) / actual)
    return 100.0 * statistics.fmean(errors)


def cli_workload(run: Run, flow, classes) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run.probe_env(run.fresh_dir())
        setup.append(time.perf_counter() - start)

    spans_log: list[dict] = []
    table4_text: list[str] = []

    def cycle(i: int, traced: bool) -> dict:
        cwd = run.fresh_dir()
        latencies = {PROBE[0]: []}
        for name, args in (*flow, *[PROBE] * PROBES_PER_CYCLE):
            spans = cwd / f"{name}.spans.json" if traced else None
            elapsed, code, stdout = run.run_process(args, cwd, name, spans)
            run.check_output(name, code, stdout)
            if name == PROBE[0]:
                latencies[name].append(elapsed)
            else:
                latencies[name] = elapsed
            if name == "table4" and not table4_text:
                table4_text.append(stdout.decode())
            if traced and code == 0:
                doc = json.loads(spans.read_text())
                spans_log.append({"cycle": i, "process": name, "wall_s": elapsed, **doc})
        latencies["flow"] = sum(latencies[name] for name, _ in flow)
        return latencies

    if not run.trace:
        cycles, window = run_cycles(run.seconds, lambda i: cycle(i, False))
        metrics = {
            "setup_s": median(setup),
            "wall_s": median([c["flow"] for c in cycles]),
            "jobs_per_s": len(cycles) * len(flow) / window,
            "peak_rss_mib": run.peak_rss_kib / 1024.0,
        }
        samples = {
            cls: [c[name] * 1e3 for c in cycles] for cls, name in classes.items()
        }
        samples["metrics"] = [t * 1e3 for c in cycles for t in c[PROBE[0]]]
        info = latency_metrics(metrics, samples)
        if table4_text:
            info["est_err_pct"] = est_err_pct(table4_text[0])
        return {"metrics": metrics, "info": info, "cycles": cycles}

    half = run.seconds / 2.0
    plain, _ = run_cycles(half, lambda i: cycle(i, False))
    traced, _ = run_cycles(half, lambda i: cycle(i, True), first=len(plain))
    layer = layer_metrics(spans_log, len(traced))
    # The probe is not part of the flow's attribution.
    flow_names = {name for name, _ in flow}
    flow_spans = [p for p in spans_log if p["process"] in flow_names]
    walls = sum(p["wall_s"] for p in flow_spans)
    rooted = sum(self_times(p["spans"])[1] for p in flow_spans)
    layer["experiments.other_s"] = (walls - rooted) / len(traced)
    layer["attributed_frac"] = rooted / walls if walls else 0.0
    layer["trace_overhead_frac"] = (
        median([c["flow"] for c in traced]) / median([c["flow"] for c in plain]) - 1.0
    )
    layer["core.est_err_pct"] = est_err_pct(table4_text[0]) if table4_text else 0.0
    return {"metrics": layer, "spans": spans_log, "cycles": plain + traced}


def layer_metrics(processes: list[dict], cycles: int) -> dict:
    """Per-cycle layer self seconds and counts from traced processes."""
    seconds = dict.fromkeys(LAYER_SECONDS.values(), 0.0)
    counts: dict[str, int] = collections.Counter()
    for proc in processes:
        per_layer, _ = self_times(proc["spans"])
        for layer, value in per_layer.items():
            seconds[LAYER_SECONDS[layer]] += value
        counts.update(proc["counts"])
    out = {name: value / cycles for name, value in seconds.items()}
    out.update({name: value / cycles for name, value in counts.items()})
    return out


def latency_metrics(metrics: dict, samples: dict[str, list[float]]) -> dict:
    """Fill ``<class>_p50_ms`` / ``<class>_tail_ms``; return tail info."""
    info = {}
    for cls, values in samples.items():
        value, pct, n = tail(values)
        metrics[f"{cls}_p50_ms"] = median(values)
        metrics[f"{cls}_tail_ms"] = value
        info[f"{cls}_tail_ms"] = f"p{pct:.1f} of {n} samples"
    return info


# ----------------------------------------------------------------------
# service_mix.
# ----------------------------------------------------------------------


def trace_spec(index: int) -> dict:
    return {
        "kind": "synthetic",
        "seed": index,
        "ranges": TRACE_RANGES,
        "footprint": TRACE_FOOTPRINT,
        "max_size": TRACE_MAX_SIZE,
    }


def result_rows(result: dict) -> list[list[int]]:
    """A sweep result's per-config counts, in a canonical order."""
    return sorted(
        [r["sets"], r["assoc"], r["line_size"], r["accesses"], r["misses"]]
        for r in result["results"]
    )


def rows_digest(rows: list[list[int]]) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class Server:
    """One ``repro serve --workers 1`` process on an ephemeral port,
    driven through the program's own ``ServiceClient``."""

    def __init__(self, run: Run, spans: Path | None, client_class):
        self.run = run
        self.client_class = client_class
        self.cwd = run.fresh_dir()
        args = ("serve", "--db", str(self.cwd / "service.db"), "--port", "0",
                "--workers", "1")
        self.stdout = self.cwd / "serve.out"
        self.proc = run.spawn(run.argv(args, spans), self.cwd, self.stdout)
        self.client = None
        self.exit_code: int | None = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.errors import ServiceError

        deadline = time.monotonic() + timeout
        port = None
        while port is None:
            match = re.search(rb"listening on http://[^:]+:(\d+)", self.stdout.read_bytes())
            if match:
                port = int(match.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("repro serve did not start: " + self.stdout.with_suffix(
                    ".err").read_text()[-500:])
            else:
                time.sleep(0.002)
        self.client = self.client_class(f"http://127.0.0.1:{port}", timeout=60.0)
        while True:
            try:
                if self.client.health():
                    return
            except (ServiceError, OSError):
                pass
            if time.monotonic() > deadline:
                raise BenchError("repro serve never answered /healthz")
            time.sleep(0.002)

    def stop(self) -> None:
        """SIGINT (a clean shutdown that lets the launcher write spans);
        a non-zero exit counts as a failed operation."""
        if self.exit_code is None:
            self.proc.send_signal(signal.SIGINT)
            self.exit_code = self.run.reap(self.proc, 30.0)
            self.run.check(self.exit_code == 0, f"repro serve exited with {self.exit_code}")


def service_workload(run: Run) -> dict:
    run.probe_env(run.fresh_dir())
    # Imported before the timed set-up.
    sys.path.insert(0, str(SRC))
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    jobs: list[dict] = []
    seen: dict[int, dict] = {}
    http_times: dict[str, list[float]] = {"submit": [], "poll": []}

    def timed(times: list[float], call, *args):
        start = time.perf_counter()
        result = call(*args)
        times.append(time.perf_counter() - start)
        return result

    def run_job(srv: Server, cls: str, spec: dict, index: int) -> dict:
        job = {"class": cls, "index": index, "record": None}
        jobs.append(job)
        job_id = timed(http_times["submit"], srv.client.submit, spec)
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            time.sleep(POLL_INTERVAL_S)
            record = timed(http_times["poll"], srv.client.job, job_id)
            if record.terminal:
                job["record"] = record
                return job
            if time.monotonic() > deadline:
                raise ServiceError(f"job {job_id} still {record.state} after {JOB_TIMEOUT_S}s")

    def cycle(srv: Server, i: int):
        if i >= TRACE_POOL:
            return None
        index = (run.seed * POOL_STRIDE + i) % TRACE_POOL
        fresh = {"kind": "sweep", "trace": trace_spec(index), "configs": FRESH_GRID}
        overlap = {"kind": "sweep", "trace": trace_spec(index), "configs": OVERLAP_GRID}
        start = time.perf_counter()
        try:
            seen[index] = {
                "fresh": run_job(srv, "fresh", fresh, index),
                "replay": run_job(srv, "replay", fresh, index),
                "overlap": run_job(srv, "overlap", overlap, index),
            }
            metrics_start = time.perf_counter()
            srv.client.metrics()
            metrics_ms = (time.perf_counter() - metrics_start) * 1e3
        except (ServiceError, OSError, ValueError, http.client.HTTPException) as exc:
            run.check(False, f"cycle {i}: {exc!r}")
            return {"wall": time.perf_counter() - start, "metrics_ms": None}
        return {"wall": time.perf_counter() - start, "metrics_ms": metrics_ms}

    setup = []
    server = None
    plain: list[dict] = []
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = Server(run, None, ServiceClient)
            server.wait_ready()
            setup.append(time.perf_counter() - start)
        seconds = run.seconds
        if run.trace:
            seconds = run.seconds / 2.0
            plain, _ = run_cycles(seconds, lambda i: cycle(server, i))
            server.stop()
            spans_path = run.work / "serve.spans.json"
            server = Server(run, spans_path, ServiceClient)
            server.wait_ready()
            for times in http_times.values():
                times.clear()
        first_job = len(jobs)
        cycles, window = run_cycles(seconds, lambda i: cycle(server, i), first=len(plain))
    finally:
        if server is not None:
            server.stop()
    # The GET /metrics calls that answered (a failed one failed its cycle).
    run.attempted += sum(c["metrics_ms"] is not None for c in plain + cycles)
    check_service(run, jobs, seen)
    done = [j for j in jobs[first_job:] if j["record"] and j["record"].finished_ok]

    if not run.trace:
        metrics = {
            "setup_s": median(setup),
            "wall_s": median([c["wall"] for c in cycles]),
            "jobs_per_s": len(done) / window,
            "peak_rss_mib": run.peak_rss_kib / 1024.0,
        }
        samples = {
            cls: [latency_ms(j) for j in done if j["class"] == cls]
            for cls in ("fresh", "replay", "overlap")
        }
        samples["metrics"] = [c["metrics_ms"] for c in cycles if c["metrics_ms"] is not None]
        info = latency_metrics(metrics, samples)
        return {"metrics": metrics, "info": info, "cycles": cycles}

    doc = json.loads(spans_path.read_text())
    spans_log = [{"process": "serve", **doc}]
    layer = layer_metrics(spans_log, len(cycles))
    execs = [j["record"].finished - j["record"].started for j in done]
    gets = doc["counts"].get("service.store_gets", 0)
    layer.update(
        {
            "service.queue_wait_ms": 1e3 * median(
                [j["record"].started - j["record"].submitted for j in done]
            ),
            "service.exec_ms": 1e3 * median(execs),
            "service.cache_share_of_exec": (
                layer["cache.sim_s"] * len(cycles) / sum(execs) if execs else 0.0
            ),
            "service.http_submit_ms": 1e3 * median(http_times["submit"]),
            "service.http_poll_ms": 1e3 * median(http_times["poll"]),
            "service.store_hit_frac": (
                doc["counts"].get("service.store_hits", 0) / gets if gets else 0.0
            ),
            "trace_overhead_frac": median([c["wall"] for c in cycles])
            / median([c["wall"] for c in plain]) - 1.0,
        }
    )
    return {"metrics": layer, "spans": spans_log, "cycles": plain + cycles}


def latency_ms(job: dict) -> float:
    record = job["record"]
    return (record.finished - record.submitted) * 1e3


def check_service(run: Run, jobs: list[dict], seen: dict) -> None:
    """Golden digests, replay identity and a direct-simulator sample."""
    golden = run.golden["service"]
    for job in jobs:
        record = job["record"]
        if record is None:
            continue  # the cycle's transport failure is already counted
        if not record.finished_ok:
            run.check(False, f"{job['class']} job {record.id}: {record.state} {record.error}")
            continue
        result = record.result
        expected = golden[str(job["index"])]["overlap" if job["class"] == "overlap" else "fresh"]
        ok = rows_digest(result_rows(result)) == expected
        if job["class"] == "replay":
            ok = ok and result["simulated"] == 0
        run.check(ok, f"{job['class']} job on trace {job['index']}: wrong result")

    from repro.cache.config import CacheConfig
    from repro.cache.simulator import simulate_trace
    from repro.service.jobs import build_trace_arrays

    rng = random.Random(run.seed)
    checkable = [
        (index, cls)
        for index, cycle_jobs in sorted(seen.items())
        for cls in ("fresh", "overlap")
        if cycle_jobs[cls]["record"].finished_ok
    ]
    for _ in range(ORACLE_CHECKS if checkable else 0):
        index, cls = rng.choice(checkable)
        row = rng.choice(result_rows(seen[index][cls]["record"].result))
        sets, assoc, line, accesses, misses = row
        starts, sizes = build_trace_arrays(trace_spec(index))
        direct = simulate_trace(CacheConfig(sets, assoc, line), starts, sizes)
        run.check(
            (direct.accesses, direct.misses) == (accesses, misses),
            f"trace {index} S{sets}A{assoc}L{line}: service {misses} misses, "
            f"direct simulator {direct.misses}",
        )


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_cli", "explore_cli", "service_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind normally: stop the server and remove the scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "paper_cli":
            outcome = cli_workload(run, PAPER_FLOW, PAPER_CLASSES)
        elif args.workload == "explore_cli":
            outcome = cli_workload(run, EXPLORE_FLOW, EXPLORE_CLASSES)
        else:
            outcome = service_workload(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    # The metrics BENCHMARK.json declares; layers a workload does not run
    # report 0.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": outcome["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
        for m in spec["per_layer" if run.trace else "end_to_end"]
    }
    env = {
        "nproc": os.cpu_count(),
        "python": run.env_info.get("python", platform.python_version()),
        "numpy": run.env_info.get("numpy"),
    }
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": int(run.trace), "env": env, "attempted": run.attempted,
        "failed": run.failed, "problems": run.problems, "metrics": metrics,
        "info": outcome.get("info", {}), "cycles": outcome.get("cycles"),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if run.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(outcome["spans"]))

    print(f"# {run.workload} seed={run.seed} env: {json.dumps(env)}")
    for name, metric in metrics.items():
        note = record["info"].get(name, "")
        print(f"#   {name:28s} {metric['value']:14.6g} {metric['unit']:8s} {note}")
    error_frac = run.failed / max(run.attempted, 1)
    print(f"#   {'error_frac':28s} {error_frac:14.6g} fraction "
          f"({run.failed} of {run.attempted} operations failed or wrong)")
    if "est_err_pct" in record["info"]:
        print(f"#   {'est_err_pct':28s} {record['info']['est_err_pct']:14.6g} %")
    for problem in run.problems:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": max(run.attempted, 1),
        "failed": run.failed, "metrics": metrics,
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
