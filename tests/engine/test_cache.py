"""Tests for the content-addressed run cache and its input digests."""

import numpy as np
import pytest

from repro.clique.bits import BitString
from repro.clique.errors import CacheCorruption
from repro.engine import RunCache, content_digest
from repro.problems import generators as gen


class TestContentDigest:
    def test_equal_content_equal_digest(self):
        assert content_digest({"n": 4, "p": 0.3}) == content_digest({"p": 0.3, "n": 4})

    def test_scalars_are_type_tagged(self):
        assert content_digest(1) != content_digest(True)
        assert content_digest(1) != content_digest(1.0)
        assert content_digest("1") != content_digest(1)
        assert content_digest(b"x") != content_digest("x")
        assert content_digest(None) != content_digest(0)

    def test_graphs_hash_by_matrix(self):
        g1 = gen.random_graph(8, 0.3, 1)
        g2 = gen.random_graph(8, 0.3, 1)
        g3 = gen.random_graph(8, 0.3, 2)
        assert content_digest(g1) == content_digest(g2)
        assert content_digest(g1) != content_digest(g3)

    def test_numpy_arrays(self):
        a = np.arange(12).reshape(3, 4)
        assert content_digest(a) == content_digest(a.copy())
        assert content_digest(a) != content_digest(a.T)
        assert content_digest(a) != content_digest(a.astype(np.float64))

    def test_bitstrings(self):
        assert content_digest(BitString(5, 4)) == content_digest(BitString(5, 4))
        # Same value, different declared width -> different content.
        assert content_digest(BitString(5, 4)) != content_digest(BitString(5, 8))

    def test_callables_hash_by_qualified_name(self):
        assert content_digest(gen.random_graph) == content_digest(gen.random_graph)
        assert content_digest(gen.random_graph) != content_digest(gen.rng_from)


class TestRunCache:
    def key(self, cache, **overrides):
        fields = {
            "program": "tests.echo",
            "n": 8,
            "bandwidth": 2,
            "input_digest": content_digest({"seed": 0}),
            "engine": {"engine": "fast", "check": "bandwidth"},
        }
        fields.update(overrides)
        return cache.key_for(**fields)

    def test_roundtrip(self, tmp_path):
        cache = RunCache(tmp_path)
        key = self.key(cache)
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, {"rounds": 3})
        assert key in cache
        assert cache.get(key) == {"rounds": 3}
        assert len(cache) == 1

    def test_key_sensitivity(self, tmp_path):
        cache = RunCache(tmp_path)
        base = self.key(cache)
        assert self.key(cache, n=16) != base
        assert self.key(cache, bandwidth=4) != base
        assert self.key(cache, program="tests.other") != base
        assert self.key(cache, engine={"engine": "reference"}) != base
        assert (self.key(cache, input_digest=content_digest({"seed": 1})) != base)
        assert self.key(cache, extra="v2") != base

    def test_observer_config_is_part_of_the_key(self, tmp_path):
        """Runs that observe differently carry different metrics payloads;
        an entry cached with metrics off must not satisfy a metrics-on
        lookup (and vice versa)."""
        from repro.obs import MetricsCollector, Tracer

        cache = RunCache(tmp_path)
        default = self.key(cache)  # observer omitted -> default metrics
        assert self.key(cache, observer=None) == default
        assert self.key(cache, observer=False) != default
        assert (
            self.key(
                cache,
                observer={"observer": "metrics", "links": False, "profile": False},
            )
            == default
        )
        assert self.key(cache, observer=MetricsCollector()) == default
        assert (self.key(cache, observer=MetricsCollector(links=True)) != default)
        assert self.key(cache, observer=Tracer()) != default
        # Pre-normalised dict descriptions are accepted as-is.
        assert (
            self.key(cache, observer={"observer": "off"})
            == self.key(cache, observer=False)
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        key = self.key(cache)
        cache.put(key, "payload")
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="evicted"):
            assert cache.get(key) is None
        assert not path.exists()

    def test_wrong_key_inside_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        a, b = self.key(cache), self.key(cache, n=16)
        cache.put(a, "payload")
        # Simulate a mis-filed entry by copying a's bytes to b's slot.
        cache._path(b).parent.mkdir(parents=True, exist_ok=True)
        cache._path(b).write_bytes(cache._path(a).read_bytes())
        with pytest.warns(RuntimeWarning, match="mismatched key"):
            assert cache.get(b) is None
        assert not cache._path(b).exists()
        assert cache.get(a) == "payload"  # the real entry is untouched

    def test_truncated_entry_is_evicted_with_warning(self, tmp_path):
        cache = RunCache(tmp_path)
        key = self.key(cache)
        cache.put(key, {"rounds": 3})
        path = cache._path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn write
        with pytest.warns(RuntimeWarning, match="corrupt run-cache entry"):
            assert cache.get(key) is None
        # Self-healed: the bad file is gone and the slot is writable again.
        assert not path.exists()
        assert cache.get(key) is None
        cache.put(key, {"rounds": 4})
        assert cache.get(key) == {"rounds": 4}

    def test_strict_get_raises_cache_corruption(self, tmp_path):
        cache = RunCache(tmp_path)
        key = self.key(cache)
        cache.put(key, "payload")
        path = cache._path(key)
        path.write_bytes(b"junk")
        with pytest.raises(CacheCorruption) as excinfo:
            cache.get(key, strict=True)
        assert excinfo.value.key == key
        assert excinfo.value.path == str(path)
        assert not path.exists()  # evicted even on the strict path

    def test_clean_miss_does_not_warn(self, tmp_path):
        import warnings

        cache = RunCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(self.key(cache)) is None

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        for n in (4, 8, 16):
            cache.put(self.key(cache, n=n), n)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_missing_root_is_empty(self, tmp_path):
        cache = RunCache(tmp_path / "never-created")
        assert len(cache) == 0
        assert cache.clear() == 0

    def test_env_var_default(self, tmp_path, monkeypatch):
        from repro.engine.cache import CACHE_DIR_ENV, default_cache_dir

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        assert RunCache().root == tmp_path / "alt"

    def test_repr_names_the_root(self, tmp_path):
        assert str(tmp_path) in repr(RunCache(tmp_path))


def _put_same_key_repeatedly(root, key, payload, count):
    """Child-process body for the concurrent-writer test."""
    cache = RunCache(root)
    for _ in range(count):
        assert cache.put(key, payload)
        cache.get(key)


class TestRunCacheBounds:
    """LRU bound, admission control and the stats() rollup."""

    def key(self, cache, **overrides):
        fields = {
            "program": "tests.echo",
            "n": 8,
            "bandwidth": 2,
            "input_digest": content_digest({"seed": 0}),
            "engine": {"engine": "fast", "check": "bandwidth"},
        }
        fields.update(overrides)
        return cache.key_for(**fields)

    def test_bounds_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            RunCache(tmp_path, max_entries=0)
        with pytest.raises(ValueError, match="max_entry_bytes"):
            RunCache(tmp_path, max_entry_bytes=0)

    def test_lru_evicts_oldest(self, tmp_path):
        import os

        cache = RunCache(tmp_path, max_entries=2)
        k1, k2 = self.key(cache, n=1), self.key(cache, n=2)
        cache.put(k1, "one")
        cache.put(k2, "two")
        # Pin distinct mtimes so the LRU order is unambiguous.
        os.utime(cache._path(k1), (100, 100))
        os.utime(cache._path(k2), (200, 200))
        k3 = self.key(cache, n=3)
        cache.put(k3, "three")
        assert k1 not in cache  # oldest mtime loses
        assert k2 in cache and k3 in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_hit_refreshes_lru_clock(self, tmp_path):
        import os

        cache = RunCache(tmp_path, max_entries=2)
        k1, k2 = self.key(cache, n=1), self.key(cache, n=2)
        cache.put(k1, "one")
        cache.put(k2, "two")
        os.utime(cache._path(k1), (100, 100))
        os.utime(cache._path(k2), (200, 200))
        assert cache.get(k1) == "one"  # refreshes k1's mtime to now
        cache.put(self.key(cache, n=3), "three")
        assert k1 in cache  # survived because the hit refreshed it
        assert k2 not in cache

    def test_admission_rejects_oversize_payload(self, tmp_path):
        cache = RunCache(tmp_path, max_entry_bytes=256)
        small, big = self.key(cache, n=1), self.key(cache, n=2)
        assert cache.put(small, "tiny") is True
        assert cache.put(big, b"x" * 4096) is False
        assert big not in cache
        assert cache.rejections == 1
        assert cache.get(big) is None  # a refusal is just a future miss

    def test_stats_rollup(self, tmp_path):
        cache = RunCache(tmp_path, max_entries=8, max_entry_bytes=1 << 20)
        key = self.key(cache)
        cache.get(key)
        cache.put(key, "payload")
        cache.get(key)
        stats = cache.stats()
        assert stats == {
            "root": str(tmp_path),
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "rejections": 0,
            "max_entries": 8,
            "max_entry_bytes": 1 << 20,
        }

    def test_concurrent_same_key_writers_never_corrupt(self, tmp_path):
        """Two processes hammering the same key must leave one intact
        winner: every concurrent read sees either a miss or the full
        payload, never a torn entry (atomic temp-file + rename)."""
        import multiprocessing
        import warnings

        cache = RunCache(tmp_path)
        key = self.key(cache)
        payload = {"rounds": 7, "bits": list(range(64))}
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(
                target=_put_same_key_repeatedly,
                args=(tmp_path, key, payload, 100),
            )
            for _ in range(2)
        ]
        for proc in workers:
            proc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # corruption would warn
                for _ in range(200):
                    value = cache.get(key)
                    assert value is None or value == payload
        finally:
            for proc in workers:
                proc.join(timeout=30)
        assert all(proc.exitcode == 0 for proc in workers)
        assert cache.get(key) == payload

    def test_corrupt_eviction_race_is_a_clean_miss(self, tmp_path):
        """Regression: when another process evicts a corrupt entry
        between our read and our unlink, the failed unlink must not
        escape — the lookup is still just a miss."""
        cache = RunCache(tmp_path)
        key = self.key(cache)
        cache.put(key, "payload")
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        path.unlink()  # the other process won the eviction race
        with pytest.warns(RuntimeWarning, match="eviction failed"):
            cache._evict_corrupt(key, path, "unreadable", strict=False)
        assert cache.get(key) is None  # plain miss afterwards
        cache.put(key, "fresh")
        assert cache.get(key) == "fresh"
