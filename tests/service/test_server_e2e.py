"""End-to-end tests: HTTP API, concurrent clients, shared-store dedup.

The acceptance scenario lives in :class:`TestConcurrentClients`: two
clients submit overlapping sweep grids through HTTP against one shared
store; each overlapping configuration is simulated exactly once (the
later job serves it from the store, hit counters increase) and every
returned miss count equals direct in-process simulation.
"""

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.cli import main
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.jobs import build_trace_arrays
from repro.service.server import EvalService, make_server


SYNTH = {
    "kind": "synthetic",
    "seed": 11,
    "ranges": 150,
    "footprint": 4096,
    "max_size": 32,
}


def sweep_spec(sets):
    return {
        "kind": "sweep",
        "trace": SYNTH,
        "configs": {"sets": sets, "assocs": [1, 2], "line_sizes": [16]},
    }


@pytest.fixture
def service(tmp_path):
    # One worker: concurrently *submitted* jobs execute in FIFO order,
    # which makes the dedup arithmetic below deterministic.
    with EvalService(tmp_path / "service.sqlite", workers=1) as svc:
        server = make_server(svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            yield svc, ServiceClient(f"http://{host}:{port}")
        finally:
            server.shutdown()
            server.server_close()


class TestHTTPBasics:
    def test_health(self, service):
        _, client = service
        assert client.health() is True

    def test_keep_alive_responses_do_not_stall(self, service):
        # Headers and body leave in separate writes; with Nagle's
        # algorithm on, each response on a kept-alive connection waits
        # for the client's delayed ACK (about 40 ms on Linux).
        _, client = service
        url = urlsplit(client.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.1

    def test_submit_wait_and_fetch(self, service):
        _, client = service
        job_id = client.submit(sweep_spec([8]))
        record = client.wait(job_id, timeout=60)
        assert record.finished_ok
        assert record.result["total"] == 2
        assert client.job(job_id).state == "done"
        assert any(r.id == job_id for r in client.jobs(state="done"))

    def test_results_endpoint(self, service):
        _, client = service
        job_id = client.submit(sweep_spec([8]))
        record = client.wait(job_id, timeout=60)
        items = client.results(prefix=f"misses:{record.result['trace_key']}:")
        assert len(items) == 2
        for value in items.values():
            assert set(value) == {"accesses", "misses"}

    def test_metrics_endpoint(self, service):
        _, client = service
        client.wait(client.submit(sweep_spec([8])), timeout=60)
        metrics = client.metrics()
        assert metrics["jobs"]["done"] == 1
        assert metrics["store"]["entries"] >= 2
        assert "events" in metrics["journal"]

    def test_bad_spec_is_http_400(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit({"kind": "transmogrify"})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("job_retries", "x"),
            ("job_retries", -1),
            ("max_workers", "abc"),
            ("job_timeout", "soon"),
        ],
    )
    def test_bad_policy_field_is_http_400(self, service, field, value):
        svc, client = service
        spec = {**sweep_spec([8]), field: value}
        with pytest.raises(ServiceError, match="HTTP 400.*execution policy"):
            client.submit(spec)
        assert sum(svc.queue.counts().values()) == 0

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "estimate", "benchmark": "epic", "dilations": ["x"],
             "configs": [{"sets": 8, "assoc": 1, "line_size": 16}]},
            {"kind": "estimate", "benchmark": "epic", "dilations": 5,
             "configs": [{"sets": 8, "assoc": 1, "line_size": 16}]},
            {"kind": "explore", "benchmark": "epic", "scale": "big"},
            {"kind": "explore", "benchmark": "epic", "visits": -3},
            {"kind": "explore", "benchmark": "999.nope"},
            {"kind": "sweep", "configs": {"sets": [8], "assocs": [1],
                                          "line_sizes": [16]},
             "trace": {"kind": "benchmark", "benchmark": "999.nope"}},
        ],
        ids=["dilations-x", "dilations-5", "scale", "visits", "benchmark",
             "trace-benchmark"],
    )
    def test_malformed_spec_is_http_400_and_queues_nothing(
        self, service, spec
    ):
        svc, client = service
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit(spec)
        assert sum(svc.queue.counts().values()) == 0

    def test_unknown_job_is_http_404(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.job("deadbeef")

    def test_unknown_route_is_http_404(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="HTTP 404"):
            client._request("GET", "/nope")

    def test_failed_job_surfaces_error(self, service, tmp_path):
        svc, client = service
        # Valid shape, invalid at execution: the chunked trace file is
        # missing on the executing host (validation only checks shape,
        # since the file may live on the workers' filesystem).
        missing = str(tmp_path / "missing.rct")
        job_id = client.submit(
            {
                "kind": "sweep",
                "trace": {"kind": "chunked", "path": missing},
                "configs": [{"sets": 8, "assoc": 1, "line_size": 16}],
            },
            max_attempts=1,
        )
        with pytest.raises(ServiceError, match="failed after 1"):
            client.wait(job_id, timeout=60)
        assert svc.queue.counts()["failed"] == 1


class TestConcurrentClients:
    """The acceptance scenario (see module docstring)."""

    def test_overlapping_grids_simulate_each_config_once(self, service):
        svc, client_a = service
        client_b = ServiceClient(client_a.base_url)
        grid_a, grid_b = [8, 16], [16, 32]  # overlap: sets=16 (2 configs)
        records = {}

        def run(name, client, sets):
            job_id = client.submit(sweep_spec(sets))
            records[name] = client.wait(job_id, timeout=120)

        threads = [
            threading.Thread(target=run, args=("a", client_a, grid_a)),
            threading.Thread(target=run, args=("b", client_b, grid_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
            assert not thread.is_alive()

        result_a = records["a"].result
        result_b = records["b"].result
        # 6 distinct configs across both grids, 2 shared.  No config is
        # simulated twice: total simulation work equals the distinct
        # count even though 8 config-results were returned.
        assert result_a["total"] == result_b["total"] == 4
        simulated = result_a["simulated"] + result_b["simulated"]
        from_store = result_a["from_store"] + result_b["from_store"]
        assert simulated == 6
        assert from_store == 2
        # The shared store's hit counters moved for the overlap.
        assert svc.store.hits >= 2
        # Every returned miss count equals direct in-process simulation.
        starts, sizes = build_trace_arrays(SYNTH)
        for result in (result_a, result_b):
            for doc in result["results"]:
                config = CacheConfig(
                    doc["sets"], doc["assoc"], doc["line_size"]
                )
                expected = simulate_trace(config, starts, sizes)
                assert doc["misses"] == expected.misses
                assert doc["accesses"] == expected.accesses

    def test_identical_grids_second_is_pure_cache(self, service):
        _, client = service
        first = client.wait(client.submit(sweep_spec([8, 16])), timeout=120)
        second = client.wait(client.submit(sweep_spec([8, 16])), timeout=120)
        assert first.result["simulated"] == 4
        assert second.result["simulated"] == 0
        assert second.result["from_store"] == 4
        assert [d["misses"] for d in second.result["results"]] == [
            d["misses"] for d in first.result["results"]
        ]


class TestServiceRestart:
    def test_restart_recovers_and_reuses_store(self, tmp_path):
        db = tmp_path / "service.sqlite"
        with EvalService(db, workers=1) as svc:
            first = svc.submit(sweep_spec([8, 16]))
            assert svc.drain(timeout=120)
            assert svc.queue.get(first).finished_ok
        # New service process over the same database: already-stored
        # results short-circuit simulation entirely.
        with EvalService(db, workers=1) as svc:
            second = svc.submit(sweep_spec([8, 16]))
            assert svc.drain(timeout=120)
            record = svc.queue.get(second)
            assert record.result["from_store"] == 4
            assert record.result["simulated"] == 0


class TestCLISubmit:
    def test_submit_via_cli(self, service, tmp_path, capsys):
        _, client = service
        spec_path = tmp_path / "job.json"
        spec_path.write_text(json.dumps(sweep_spec([8])))
        code = main(
            [
                "submit",
                "--url",
                client.base_url,
                "--spec",
                str(spec_path),
                "--wait",
                "--timeout",
                "120",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "done"
        assert doc["result"]["total"] == 2

    def test_submit_no_wait_prints_id(self, service, tmp_path, capsys):
        _, client = service
        spec_path = tmp_path / "job.json"
        spec_path.write_text(json.dumps(sweep_spec([8])))
        assert main(["submit", "--url", client.base_url, "--spec", str(spec_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "queued"
        client.wait(doc["id"], timeout=60)
