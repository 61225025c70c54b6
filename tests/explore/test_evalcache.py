"""Unit tests for the evaluation cache (``StoreEvaluationCache``)."""

import multiprocessing
import sys

import pytest


class TestInMemory:
    def test_get_put(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        assert cache.get("k") is None
        cache.put("k", 1.5)
        assert cache.get("k") == 1.5
        assert "k" in cache
        assert len(cache) == 1

    def test_get_or_compute_calls_once(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute("k", compute) == 42
        assert cache.get_or_compute("k", compute) == 42
        assert len(calls) == 1
        assert cache.hits == 1
        assert cache.misses == 1


class TestHitMissAccounting:
    """Regression pin: get/get_or_compute/bulk all count hits AND misses."""

    def test_get_counts_misses(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        assert cache.get("absent") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_get_none_value_is_a_hit(self, tmp_path, checkpoint_at):
        # Present-with-None matches __contains__: stored null is a hit.
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        cache.put("k", None)
        assert "k" in cache
        assert cache.get("k") is None
        assert (cache.hits, cache.misses) == (1, 0)

    def test_get_or_compute_counts(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        cache.get_or_compute("k", lambda: 7)
        cache.get_or_compute("k", lambda: 7)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_bulk_preserves_counts(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        with cache.bulk():
            for i in range(4):
                cache.get_or_compute(f"k{i}", lambda: i)
            cache.get_or_compute("k0", lambda: 0)
            assert cache.get("k1") == 1
            assert cache.get("nope") is None
        assert (cache.hits, cache.misses) == (2, 5)

    def test_hit_rate_and_stats(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        assert cache.hit_rate == 0.0
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")
        assert cache.hit_rate == 0.5
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
            "entries": 1,
        }


class TestPersistent:
    def test_round_trip(self, tmp_path, checkpoint_at):
        path = tmp_path / "metrics.sqlite"
        cache = checkpoint_at(path)
        cache.put("misses/gcc/ic32", 1234)
        cache.put("dilation/6332", 2.79)
        reloaded = checkpoint_at(path)
        assert reloaded.get("misses/gcc/ic32") == 1234
        assert reloaded.get("dilation/6332") == 2.79

    def test_structured_values(self, tmp_path, checkpoint_at):
        path = tmp_path / "metrics.sqlite"
        cache = checkpoint_at(path)
        cache.put("vector", [1, 2, 3])
        cache.put("table", {"a": 1.0})
        reloaded = checkpoint_at(path)
        assert reloaded.get("vector") == [1, 2, 3]
        assert reloaded.get("table") == {"a": 1.0}

    def test_empty_file_ok(self, tmp_path, checkpoint_at):
        path = tmp_path / "metrics.sqlite"
        path.write_text("")
        cache = checkpoint_at(path)
        assert len(cache) == 0

    def test_parent_directory_created(self, tmp_path, checkpoint_at):
        path = tmp_path / "deep" / "nest" / "metrics.sqlite"
        cache = checkpoint_at(path)
        cache.put("k", 1)
        assert path.exists()


def _hammer_worker(checkpoint_at, path, worker, n_keys):
    cache = checkpoint_at(path)
    for i in range(n_keys):
        cache.put(f"w{worker}/k{i}", worker * 1000 + i)


class TestConcurrentWriters:
    """Regression: two writers of one database must union, not clobber."""

    def test_two_instances_merge_on_flush(self, tmp_path, checkpoint_at):
        path = tmp_path / "metrics.sqlite"
        first = checkpoint_at(path)
        second = checkpoint_at(path)
        first.put("a", 1)
        second.put("b", 2)
        reloaded = checkpoint_at(path)
        assert reloaded.get("a") == 1
        assert reloaded.get("b") == 2

    def test_later_writer_wins_per_key(self, tmp_path, checkpoint_at):
        path = tmp_path / "metrics.sqlite"
        first = checkpoint_at(path)
        second = checkpoint_at(path)
        first.put("k", "old")
        second.put("k", "new")
        assert checkpoint_at(path).get("k") == "new"

    def test_bulk_flush_merges(self, tmp_path, checkpoint_at):
        path = tmp_path / "metrics.sqlite"
        first = checkpoint_at(path)
        second = checkpoint_at(path)
        with first.bulk():
            for i in range(5):
                first.put(f"first/{i}", i)
        with second.bulk():
            for i in range(5):
                second.put(f"second/{i}", i)
        reloaded = checkpoint_at(path)
        assert len(reloaded) == 10

    @pytest.mark.skipif(
        sys.platform.startswith("win"), reason="fork is POSIX"
    )
    def test_multiprocess_hammer(self, tmp_path, checkpoint_at):
        path = tmp_path / "metrics.sqlite"
        ctx = multiprocessing.get_context("fork")
        workers, n_keys = 4, 20
        procs = [
            ctx.Process(target=_hammer_worker, args=(checkpoint_at, path, w, n_keys))
            for w in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        reloaded = checkpoint_at(path)
        assert len(reloaded) == workers * n_keys
        for w in range(workers):
            for i in range(n_keys):
                assert reloaded.get(f"w{w}/k{i}") == w * 1000 + i
