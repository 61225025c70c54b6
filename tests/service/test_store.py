"""Unit tests for repro.service.store."""

import multiprocessing
import sys

import pytest

from repro.errors import EvaluationCacheError
from repro.service.store import ResultStore, StoreEvaluationCache


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store.sqlite")


class TestKeyValue:
    def test_put_get_round_trip(self, store):
        store.put("k", {"misses": 10, "accesses": 99})
        assert store.get("k") == {"misses": 10, "accesses": 99}

    def test_get_absent_is_none_and_miss(self, store):
        assert store.get("absent") is None
        assert (store.hits, store.misses) == (0, 1)

    def test_present_null_is_a_hit(self, store):
        store.put("k", None)
        assert "k" in store
        assert store.get("k") is None
        assert (store.hits, store.misses) == (1, 0)

    def test_upsert_overwrites(self, store):
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2
        assert store.count() == 1

    def test_put_many_and_items(self, store):
        store.put_many({f"p/{i}": i for i in range(5)})
        store.put("other", -1)
        assert store.items(prefix="p/") == {f"p/{i}": i for i in range(5)}
        assert store.keys(prefix="p/") == [f"p/{i}" for i in range(5)]

    def test_items_limit(self, store):
        store.put_many({f"k{i}": i for i in range(10)})
        assert len(store.items(limit=3)) == 3

    def test_get_or_compute_calls_once(self, store):
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert store.get_or_compute("k", compute) == 42
        assert store.get_or_compute("k", compute) == 42
        assert len(calls) == 1
        assert (store.hits, store.misses) == (1, 1)

    def test_unserializable_value_raises(self, store):
        with pytest.raises(EvaluationCacheError, match="JSON"):
            store.put("bad", object())
        assert store.count() == 0

    def test_glob_metacharacters_in_prefix_are_literal(self, store):
        store.put("a*b[1]?", 1)
        store.put("axb11x", 2)  # would match if * ? [ were wildcards
        assert store.items(prefix="a*b[1]?") == {"a*b[1]?": 1}


class TestNamespaces:
    def test_namespaces_are_disjoint(self, store):
        store.put("k", 1, namespace="metrics")
        store.put("k", 2, namespace="evalcache")
        assert store.get("k", namespace="metrics") == 1
        assert store.get("k", namespace="evalcache") == 2
        assert store.namespaces() == {"metrics": 1, "evalcache": 1}

    def test_default_namespace(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite", namespace="frontiers")
        store.put("k", 1)
        assert store.count("frontiers") == 1
        assert store.count("metrics") == 0


class TestGC:
    def test_delete(self, store):
        store.put("k", 1)
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k") is None

    def test_gc_by_prefix(self, store):
        store.put_many({"old/a": 1, "old/b": 2, "keep": 3})
        assert store.gc(prefix="old/") == 2
        assert store.keys() == ["keep"]

    def test_gc_by_age(self, store):
        store.put("fresh", 1)
        # Everything was just written: an age threshold removes nothing,
        # no threshold clears the namespace.
        assert store.gc(older_than=3600) == 0
        assert store.gc() == 1
        store.vacuum()

    def test_gc_scoped_to_namespace(self, store):
        store.put("k", 1, namespace="metrics")
        store.put("k", 1, namespace="evalcache")
        assert store.gc(namespace="evalcache") == 1
        assert store.count("metrics") == 1


class TestStats:
    def test_stats_document(self, store):
        store.put("k", 1)
        store.get("k")
        store.get("absent")
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1
        assert stats["db_bytes"] > 0


class TestDurability:
    def test_reopen_sees_writes(self, tmp_path):
        path = tmp_path / "store.sqlite"
        ResultStore(path).put("k", {"a": 1})
        assert ResultStore(path).get("k") == {"a": 1}

    def test_two_handles_share_one_database(self, tmp_path):
        path = tmp_path / "store.sqlite"
        writer = ResultStore(path)
        reader = ResultStore(path)
        writer.put("k", 7)
        assert reader.get("k") == 7  # no stale snapshot

    def test_transaction_rolls_back_on_error(self, store):
        with pytest.raises(RuntimeError):
            with store.transaction() as conn:
                conn.execute(
                    "INSERT INTO results (namespace, key, value, created,"
                    " updated) VALUES ('metrics', 'k', '1', 0, 0)"
                )
                raise RuntimeError("boom")
        assert store.get("k") is None

    def test_parent_directory_created(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nest" / "s.sqlite")
        store.put("k", 1)
        assert store.get("k") == 1


def _store_hammer(path, worker, n_keys):
    store = ResultStore(path)
    for i in range(n_keys):
        store.put(f"w{worker}/k{i}", worker * 1000 + i)
        store.put("shared", worker)  # contended row
    store.close()


class TestConcurrentProcesses:
    @pytest.mark.skipif(
        sys.platform.startswith("win"), reason="fork is POSIX"
    )
    def test_multiprocess_hammer(self, tmp_path):
        path = tmp_path / "store.sqlite"
        ResultStore(path)  # bootstrap the schema before forking
        ctx = multiprocessing.get_context("fork")
        workers, n_keys = 4, 25
        procs = [
            ctx.Process(target=_store_hammer, args=(path, w, n_keys))
            for w in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = ResultStore(path)
        for w in range(workers):
            for i in range(n_keys):
                assert store.get(f"w{w}/k{i}") == w * 1000 + i
        assert store.get("shared") in range(workers)
        assert store.count() == workers * n_keys + 1


class TestAdapter:
    """StoreEvaluationCache: the evaluation cache over one namespace."""

    def test_get_put_equivalence(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        assert cache.get("k") is None
        cache.put("k", [1, 2.5, "x"])
        assert cache.get("k") == [1, 2.5, "x"]
        assert "k" in cache
        assert len(cache) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_null_value_hit_equivalence(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        cache.put("k", None)
        assert "k" in cache
        assert cache.get("k") is None
        assert (cache.hits, cache.misses) == (1, 0)

    def test_get_or_compute_equivalence(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        calls = []
        cache.get_or_compute("k", lambda: calls.append(1) or 9)
        assert cache.get_or_compute("k", lambda: 0) == 9
        assert len(calls) == 1

    def test_bulk_equivalence(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        with cache.bulk():
            for i in range(4):
                cache.put(f"k{i}", i)
            # Pending writes are visible inside the block.
            assert cache.get("k0") == 0
            assert "k3" in cache
            assert len(cache) == 4
        assert cache.get("k2") == 2

    def test_bulk_is_one_transaction(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        cache = StoreEvaluationCache(store)
        observer = ResultStore(tmp_path / "s.sqlite")
        with cache.bulk():
            cache.put("k", 1)
            assert observer.contains("k", namespace="evalcache") is False
        assert observer.contains("k", namespace="evalcache") is True

    def test_put_many_and_stats(self, tmp_path, checkpoint_at):
        cache = checkpoint_at(tmp_path / "metrics.sqlite")
        cache.put_many({"a": 1, "b": 2})
        stats = cache.stats()
        assert stats["entries"] == 2
        assert set(stats) == {"hits", "misses", "hit_rate", "entries"}

    def test_adapter_sees_other_writers_immediately(self, tmp_path):
        path = tmp_path / "s.sqlite"
        first = StoreEvaluationCache(ResultStore(path))
        second = StoreEvaluationCache(ResultStore(path))
        first.put("k", 1)
        assert second.get("k") == 1  # read-through, no snapshot
