"""Unit tests for repro.service.jobs (spec parsing and execution)."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.errors import ServiceError
from repro.service.jobs import (
    NS_EVALCACHE,
    NS_METRICS,
    build_trace_arrays,
    execute_job,
    parse_configs,
    result_key,
    trace_key,
    validate_spec,
)
from repro.service.store import ResultStore


SYNTH = {
    "kind": "synthetic",
    "seed": 7,
    "ranges": 200,
    "footprint": 8192,
    "max_size": 32,
}


def sweep_spec(**overrides):
    spec = {
        "kind": "sweep",
        "trace": SYNTH,
        "configs": {"sets": [8, 16], "assocs": [1, 2], "line_sizes": [16]},
    }
    spec.update(overrides)
    return spec


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "service.sqlite")


class TestContentAddressing:
    def test_trace_key_is_order_independent(self):
        a = {"kind": "synthetic", "seed": 1, "ranges": 10}
        b = {"ranges": 10, "seed": 1, "kind": "synthetic"}
        assert trace_key(a) == trace_key(b)
        assert trace_key(a).startswith("spec=")

    def test_different_specs_different_keys(self):
        assert trace_key({"seed": 1}) != trace_key({"seed": 2})

    def test_result_key_embeds_config_identity(self):
        key = result_key("spec=abc", CacheConfig(8, 2, 16))
        assert key == "misses:spec=abc:S8A2L16"


class TestParseConfigs:
    def test_grid_cross_product(self):
        configs = parse_configs(
            {"sets": [8, 16], "assocs": [1, 2], "line_sizes": [16, 32]}
        )
        assert len(configs) == 8
        assert CacheConfig(16, 2, 32) in configs

    def test_explicit_list(self):
        configs = parse_configs([{"sets": 8, "assoc": 1, "line_size": 16}])
        assert configs == [CacheConfig(8, 1, 16)]

    def test_duplicates_removed_order_kept(self):
        configs = parse_configs(
            [
                {"sets": 8, "assoc": 1, "line_size": 16},
                {"sets": 16, "assoc": 1, "line_size": 16},
                {"sets": 8, "assoc": 1, "line_size": 16},
            ]
        )
        assert configs == [CacheConfig(8, 1, 16), CacheConfig(16, 1, 16)]

    def test_malformed_raises(self):
        with pytest.raises(ServiceError, match="malformed configs"):
            parse_configs([{"sets": 8}])
        with pytest.raises(ServiceError, match="malformed configs"):
            parse_configs({"sets": [8]})

    def test_infeasible_config_raises(self):
        with pytest.raises(ServiceError, match="infeasible"):
            parse_configs([{"sets": 7, "assoc": 1, "line_size": 16}])

    def test_empty_raises(self):
        with pytest.raises(ServiceError, match="empty"):
            parse_configs([])


class TestTraceArrays:
    def test_ranges(self):
        starts, sizes = build_trace_arrays(
            {"kind": "ranges", "starts": [0, 32], "sizes": [16, 8]}
        )
        assert starts.tolist() == [0, 32]
        assert sizes.tolist() == [16, 8]

    def test_ranges_mismatch_raises(self):
        with pytest.raises(ServiceError, match="equal-length"):
            build_trace_arrays(
                {"kind": "ranges", "starts": [0], "sizes": [16, 8]}
            )

    def test_synthetic_is_deterministic(self):
        first = build_trace_arrays(SYNTH)
        second = build_trace_arrays(SYNTH)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        assert len(first[0]) == SYNTH["ranges"]
        assert first[1].min() >= 1
        assert first[1].max() <= SYNTH["max_size"]

    def test_synthetic_bad_params_raise(self):
        with pytest.raises(ServiceError, match="positive"):
            build_trace_arrays({"kind": "synthetic", "ranges": 0})

    def test_unknown_kind_raises(self):
        with pytest.raises(ServiceError, match="unknown trace kind"):
            build_trace_arrays({"kind": "mystery"})


class TestValidateSpec:
    def test_accepts_good_specs(self):
        validate_spec(sweep_spec())
        validate_spec(
            {
                "kind": "estimate",
                "benchmark": "085.gcc",
                "configs": [{"sets": 8, "assoc": 1, "line_size": 16}],
                "dilations": [1.0, 2.0],
            }
        )
        validate_spec({"kind": "explore", "benchmark": "085.gcc"})

    def test_accepts_policy_fields(self):
        validate_spec(
            sweep_spec(max_workers=2, job_timeout=1.5, job_retries=0)
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("job_retries", "x"),
            ("job_retries", -1),
            ("max_workers", "abc"),
            ("max_workers", 0),
            ("job_timeout", "soon"),
            ("job_timeout", 0),
        ],
    )
    def test_rejects_bad_policy_fields(self, field, value):
        with pytest.raises(ServiceError, match="execution policy"):
            validate_spec(sweep_spec(**{field: value}))

    def test_rejects_non_object(self):
        with pytest.raises(ServiceError, match="JSON object"):
            validate_spec([1, 2])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            validate_spec({"kind": "transmogrify"})

    def test_rejects_missing_fields(self):
        with pytest.raises(ServiceError, match="missing required field"):
            validate_spec({"kind": "sweep", "configs": []})
        with pytest.raises(ServiceError, match="missing required field"):
            validate_spec({"kind": "explore"})

    def test_rejects_bad_trace_eagerly(self):
        spec = sweep_spec(trace={"kind": "ranges", "starts": [], "sizes": []})
        with pytest.raises(ServiceError, match="equal-length"):
            validate_spec(spec)

    def test_rejects_bad_role_and_empty_dilations(self):
        base = {
            "kind": "estimate",
            "benchmark": "085.gcc",
            "configs": [{"sets": 8, "assoc": 1, "line_size": 16}],
        }
        with pytest.raises(ServiceError, match="unknown role"):
            validate_spec({**base, "role": "tlb"})
        with pytest.raises(ServiceError, match="at least one dilation"):
            validate_spec({**base, "dilations": []})


ESTIMATE = {
    "kind": "estimate",
    "benchmark": "epic",
    "configs": [{"sets": 8, "assoc": 1, "line_size": 16}],
}
BENCH_TRACE = {"kind": "benchmark", "benchmark": "epic", "role": "unified"}

#: Specs that used to pass validation and fail only at execution.
MALFORMED = {
    "dilations-strings": ({**ESTIMATE, "dilations": ["x"]}, "dilations"),
    "dilations-scalar": ({**ESTIMATE, "dilations": 5}, "dilations"),
    "dilations-negative": ({**ESTIMATE, "dilations": [-1.0]}, "dilations"),
    "dilations-bool": ({**ESTIMATE, "dilations": [True]}, "dilations"),
    "scale-string": ({**ESTIMATE, "scale": "big"}, "scale"),
    "scale-zero": ({"kind": "explore", "benchmark": "epic", "scale": 0},
                   "scale"),
    "visits-negative": ({**ESTIMATE, "visits": -3}, "visits"),
    "visits-float": ({"kind": "explore", "benchmark": "epic",
                      "visits": 1.5}, "visits"),
    "estimate-unknown-benchmark": ({**ESTIMATE, "benchmark": "999.nope"},
                                   "unknown benchmark"),
    "explore-unknown-benchmark": ({"kind": "explore", "benchmark": "nope"},
                                  "unknown benchmark"),
    "trace-unknown-benchmark": (
        sweep_spec(trace={**BENCH_TRACE, "benchmark": "nope"}),
        "unknown benchmark",
    ),
    "trace-scale": (sweep_spec(trace={**BENCH_TRACE, "scale": "big"}),
                    "scale"),
    "trace-visits": (sweep_spec(trace={**BENCH_TRACE, "visits": 0}),
                     "visits"),
    "trace-role": (sweep_spec(trace={**BENCH_TRACE, "role": "tlb"}),
                   "unknown role"),
    "explore-space": ({"kind": "explore", "benchmark": "epic",
                       "space": {"icache": {"sizes_kb": [1]}}},
                      "space overrides"),
}


class TestValidateSpecRejectsAtSubmission:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected(self, case):
        spec, message = MALFORMED[case]
        with pytest.raises(ServiceError, match=message):
            validate_spec(spec)

    def test_accepts_benchmark_fields(self):
        validate_spec({**ESTIMATE, "scale": 0.5, "visits": 100,
                       "dilations": [1, 2.5]})
        validate_spec(
            sweep_spec(trace={**BENCH_TRACE, "scale": 2, "visits": 10})
        )


class TestSweepExecution:
    def test_results_match_direct_simulation(self, store):
        result = execute_job(sweep_spec(), store)
        assert result["total"] == 4
        assert result["from_store"] == 0
        assert result["simulated"] == 4
        starts, sizes = build_trace_arrays(SYNTH)
        for doc in result["results"]:
            config = CacheConfig(doc["sets"], doc["assoc"], doc["line_size"])
            expected = simulate_trace(config, starts, sizes)
            assert doc["misses"] == expected.misses
            assert doc["accesses"] == expected.accesses
            assert doc["source"] == "simulated"

    def test_second_run_served_entirely_from_store(self, store):
        execute_job(sweep_spec(), store)
        before = (store.hits, store.misses)
        result = execute_job(sweep_spec(), store)
        assert result["from_store"] == 4
        assert result["simulated"] == 0
        assert store.hits > before[0]  # hit counters moved
        assert all(doc["source"] == "store" for doc in result["results"])

    def test_results_are_durable_metrics(self, store):
        result = execute_job(sweep_spec(), store)
        tkey = result["trace_key"]
        stored = store.items(prefix=f"misses:{tkey}:", namespace=NS_METRICS)
        assert len(stored) == 4
        for value in stored.values():
            assert set(value) == {"accesses", "misses"}

    def test_partial_overlap_reuses_group_checkpoints(self, store):
        execute_job(sweep_spec(), store)
        # A superset grid at the same line size: the overlapping configs
        # come straight from the metric store and the new ones reuse the
        # checkpointed single-pass group state (no extra full passes).
        bigger = sweep_spec(
            configs={"sets": [8, 16, 32], "assocs": [1, 2], "line_sizes": [16]}
        )
        result = execute_job(bigger, store)
        assert result["from_store"] == 4
        assert result["simulated"] == 2
        # The checkpoint namespace holds the shared group states.
        assert store.count(NS_EVALCACHE) > 0

    def test_result_carries_trace_length(self, store):
        assert execute_job(sweep_spec(), store)["ranges"] == 200
        explicit = {"kind": "ranges", "starts": [0, 64, 8], "sizes": [4, 4, 4]}
        result = execute_job(sweep_spec(trace=explicit), store)
        assert result["ranges"] == 3

    def test_served_job_reports_length_without_building_trace(
        self, store, monkeypatch
    ):
        from repro.service import jobs

        first = execute_job(sweep_spec(), store)

        def no_trace(trace_spec):
            raise AssertionError("a fully served job built its trace")

        monkeypatch.setattr(jobs, "sweep_trace", no_trace)
        again = execute_job(sweep_spec(), store)
        assert again["from_store"] == again["total"]
        assert again["ranges"] == first["ranges"]

    def test_equivalent_specs_share_store_entries(self, store):
        execute_job(sweep_spec(), store)
        # Same trace spec with keys in another order: same content address.
        reordered = sweep_spec(
            trace={
                "max_size": 32,
                "footprint": 8192,
                "ranges": 200,
                "seed": 7,
                "kind": "synthetic",
            }
        )
        result = execute_job(reordered, store)
        assert result["from_store"] == 4
        assert result["simulated"] == 0


class TestBenchmarkTraceSweeps:
    """Benchmark traces are built once, in the submitting process."""

    TRACE = {**BENCH_TRACE, "scale": 0.12, "visits": 2000}

    def spec(self, **overrides):
        return sweep_spec(
            trace=self.TRACE,
            configs={"sets": [8, 64], "assocs": [1, 2],
                     "line_sizes": [16, 32, 64]},
            **overrides,
        )

    def run(self, tmp_path, name, **overrides):
        from repro.runtime import RunJournal

        journal = RunJournal()
        result = execute_job(
            self.spec(**overrides),
            ResultStore(tmp_path / f"{name}.sqlite"),
            journal=journal,
        )
        return result, journal

    def test_parallel_passes_ship_by_shm(self, tmp_path):
        from repro.runtime.executor import shm_available

        if not shm_available():
            pytest.skip("no POSIX shared memory on this platform")
        serial, _ = self.run(tmp_path, "serial")
        parallel, journal = self.run(tmp_path, "parallel", max_workers=2)
        (shipping,) = journal.select("trace_shipping")
        assert shipping["mode"] == "shm"
        assert parallel["results"] == serial["results"]

    def test_result_carries_trace_length(self, tmp_path):
        result, _ = self.run(tmp_path, "serial")
        starts, _ = build_trace_arrays(self.TRACE)
        assert result["ranges"] == len(starts)


class TestEstimateAndExplore:
    def test_estimate_grid_shape(self, store):
        spec = {
            "kind": "estimate",
            "benchmark": "085.gcc",
            "role": "icache",
            "scale": 0.05,
            "visits": 4000,
            "configs": {"sets": [64], "assocs": [1, 2], "line_sizes": [32]},
            "dilations": [1.0, 2.0],
        }
        result = execute_job(spec, store)
        assert result["kind"] == "estimate"
        assert len(result["results"]) == 2
        for doc in result["results"]:
            assert set(doc["misses"]) == {"1", "2"}
            for value in doc["misses"].values():
                assert value >= 0
        # Priming checkpointed into the shared store: a second evaluator
        # adopts the states instead of re-simulating.
        assert store.count(NS_EVALCACHE) > 0
        before = store.count(NS_EVALCACHE)
        execute_job(spec, store)
        assert store.count(NS_EVALCACHE) == before

    def test_estimate_unknown_benchmark_raises(self, store):
        spec = {
            "kind": "estimate",
            "benchmark": "999.nope",
            "configs": [{"sets": 8, "assoc": 1, "line_size": 16}],
        }
        with pytest.raises(ServiceError, match="unknown benchmark"):
            execute_job(spec, store)


class TestChunkedTraceKind:
    def _chunked_spec(self, tmp_path, **overrides):
        from repro.trace.chunkstore import write_chunked

        starts, sizes = build_trace_arrays(SYNTH)
        path = tmp_path / "trace.rct"
        with write_chunked(path, starts, sizes, chunk_ranges=64) as trace:
            digest = trace.digest
        spec = sweep_spec(
            trace={"kind": "chunked", "path": str(path), "digest": digest}
        )
        spec.update(overrides)
        return spec

    def test_results_match_in_memory_sweep(self, store, tmp_path):
        result = execute_job(self._chunked_spec(tmp_path), store)
        assert result["simulated"] == 4
        assert result["ranges"] == SYNTH["ranges"]
        starts, sizes = build_trace_arrays(SYNTH)
        for doc in result["results"]:
            config = CacheConfig(doc["sets"], doc["assoc"], doc["line_size"])
            expected = simulate_trace(config, starts, sizes)
            assert doc["misses"] == expected.misses

    def test_digest_pin_rejects_changed_file(self, store, tmp_path):
        from repro.trace.chunkstore import write_chunked

        spec = self._chunked_spec(tmp_path)
        starts, sizes = build_trace_arrays(SYNTH)
        write_chunked(
            tmp_path / "trace.rct", starts[:50], sizes[:50]
        ).close()  # rewrite the file behind the pinned digest
        with pytest.raises(ServiceError, match="digest"):
            execute_job(spec, store)

    def test_validate_requires_path(self):
        with pytest.raises(ServiceError, match="path"):
            validate_spec(sweep_spec(trace={"kind": "chunked"}))

    def test_missing_file_is_service_error(self, store, tmp_path):
        spec = sweep_spec(
            trace={"kind": "chunked", "path": str(tmp_path / "nope.rct")}
        )
        with pytest.raises(ServiceError):
            execute_job(spec, store)


class TestSampledSweepJobs:
    SAMPLE = {"intervals": 4, "interval_ranges": 30, "warmup_ranges": 10}

    def test_sampled_results_flagged_and_plausible(self, store):
        result = execute_job(sweep_spec(sample=self.SAMPLE), store)
        assert result["sampled"] is True
        assert ":sample=" in result["trace_key"]
        exact = execute_job(sweep_spec(), store)
        by_config = {
            (d["sets"], d["assoc"], d["line_size"]): d
            for d in exact["results"]
        }
        for doc in result["results"]:
            assert doc["estimated"] is True
            assert doc["intervals"] >= 1
            true = by_config[(doc["sets"], doc["assoc"], doc["line_size"])]
            assert doc["misses"] == pytest.approx(true["misses"], rel=0.5)

    def test_sampled_and_exact_keys_never_collide(self, store):
        execute_job(sweep_spec(), store)
        sampled = execute_job(sweep_spec(sample=self.SAMPLE), store)
        assert sampled["from_store"] == 0  # exact results not reused
        again = execute_job(sweep_spec(sample=self.SAMPLE), store)
        assert again["from_store"] == 4  # same plan: reused
        exact = execute_job(sweep_spec(), store)
        assert exact["from_store"] == 4  # exact results untouched

    def test_different_plans_are_distinct(self, store):
        execute_job(sweep_spec(sample=self.SAMPLE), store)
        other = execute_job(
            sweep_spec(sample={**self.SAMPLE, "intervals": 2}), store
        )
        assert other["from_store"] == 0

    def test_validate_rejects_bad_sample(self):
        with pytest.raises(ServiceError, match="sample"):
            validate_spec(sweep_spec(sample={"intervals": 4}))
        with pytest.raises(ServiceError, match="sample"):
            validate_spec(sweep_spec(sample="first"))
        with pytest.raises(ServiceError):
            validate_spec(
                sweep_spec(sample={**self.SAMPLE, "mode": "random"})
            )


class TestJobsLeaveNoStateBehind:
    """Pipelines are memoized across jobs; a job's store and plan are not."""

    ESTIMATE = {
        **ESTIMATE,
        "scale": 0.12,
        "visits": 2000,
        "configs": [{"sets": 16, "assoc": 1, "line_size": 16}],
    }

    def test_sampled_job_does_not_leak_its_plan(self, tmp_path):
        exact = execute_job(self.ESTIMATE, ResultStore(tmp_path / "a.sqlite"))
        sample = {"intervals": 2, "interval_ranges": 64, "warmup_ranges": 0}
        sampled = execute_job(
            {**self.ESTIMATE, "sample": sample},
            ResultStore(tmp_path / "b.sqlite"),
        )
        assert sampled["results"] != exact["results"]
        again = execute_job(self.ESTIMATE, ResultStore(tmp_path / "c.sqlite"))
        assert again["results"] == exact["results"]

    def test_checkpoint_detached_after_job(self, tmp_path):
        from repro.experiments.runner import RunnerSettings, get_pipeline

        execute_job(self.ESTIMATE, ResultStore(tmp_path / "a.sqlite"))
        settings = RunnerSettings(scale=0.12, max_visits=2000)
        evaluator = get_pipeline("epic", settings).memory_evaluator()
        assert evaluator._checkpoint is None

    def test_overlapping_jobs_on_one_evaluator_run_one_at_a_time(
        self, tmp_path, monkeypatch
    ):
        import threading
        import time

        from repro.explore.evaluators import MemoryEvaluator

        sample = {"intervals": 2, "interval_ranges": 64, "warmup_ranges": 0}
        specs = {
            "exact": self.ESTIMATE,
            "sampled": {**self.ESTIMATE, "sample": sample},
        }
        serial = {
            name: execute_job(spec, ResultStore(tmp_path / f"s-{name}.db"))
            for name, spec in specs.items()
        }

        inside = []
        overlap = []
        original = MemoryEvaluator.misses_batch

        def slow_batch(self, *args, **kwargs):
            inside.append(1)
            overlap.append(len(inside))
            time.sleep(0.2)  # hold the evaluator while the other job starts
            try:
                return original(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(MemoryEvaluator, "misses_batch", slow_batch)
        barrier = threading.Barrier(len(specs))
        results, errors = {}, []

        def run(name):
            barrier.wait()
            try:
                results[name] = execute_job(
                    specs[name], ResultStore(tmp_path / f"t-{name}.db")
                )
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(n,)) for n in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert errors == []
        assert max(overlap) == 1
        for name in specs:
            assert results[name]["results"] == serial[name]["results"]
