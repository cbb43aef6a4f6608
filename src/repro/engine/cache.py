"""Content-addressed on-disk run cache.

Re-running a sweep or a benchmark grid should be free when nothing
changed.  A :class:`RunCache` stores pickled run payloads under a key
derived from everything that determines the result:

* the program name (a stable, qualified identifier),
* the clique size ``n`` and bandwidth configuration,
* a digest of the inputs (:func:`content_digest` canonically hashes
  graphs, numpy arrays, bit strings and plain containers),
* the engine configuration (:meth:`repro.engine.base.Engine.describe`).

Entries are sharded two-level directories of ``<sha256>.pkl`` files;
writes are atomic (temp file + rename), so concurrent sweep workers and
concurrent sweeps can share one cache directory.  A corrupt or
unreadable entry behaves as a miss *and self-heals*: the bad file is
deleted (with a :class:`RuntimeWarning`) so repeated lookups don't
re-parse garbage; ``get(..., strict=True)`` raises
:class:`~repro.clique.errors.CacheCorruption` instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import Any, Iterator

from ..clique.errors import CacheCorruption

__all__ = ["RunCache", "content_digest", "default_cache_dir"]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every existing cache entry on format changes.
#: v2: keys include the observer configuration and payloads carry
#: ``RunResult.metrics`` (a v1 metrics-free entry must not satisfy a
#: metrics-on caller).
#: v3: ``RunMetrics`` gained the ``faults`` field (older pickled frozen
#: instances would lack the attribute) and keys may carry a fault-plan
#: description in ``extra``.
#: v4: the fast and columnar engine descriptions lost their
#: ``record_transcripts`` entry (transcripts come from the execution
#: spec or the clique, never from the engine).
_SCHEMA_VERSION = 4


def default_cache_dir() -> Path:
    """The default on-disk location: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro-clique/runs``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-clique" / "runs"


def _feed(h: "hashlib._Hash", obj: Any) -> None:
    """Recursively feed a canonical, type-tagged encoding of ``obj``."""
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, bool):
        h.update(b"\x00b1" if obj else b"\x00b0")
    elif isinstance(obj, int):
        h.update(b"\x00i" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"\x00f" + repr(obj).encode())
    elif isinstance(obj, str):
        h.update(b"\x00s" + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"\x00y" + obj)
    elif isinstance(obj, (list, tuple)):
        h.update(b"\x00l" + str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(b"\x00d" + str(len(obj)).encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (set, frozenset)):
        h.update(b"\x00e" + str(len(obj)).encode())
        for item in sorted(obj, key=repr):
            _feed(h, item)
    elif hasattr(obj, "adjacency") and hasattr(obj, "n"):
        # CliqueGraph (and weighted variants): hash the full matrix.
        h.update(b"\x00G" + str(obj.n).encode())
        _feed(h, obj.adjacency)
    elif hasattr(obj, "to_str") and hasattr(obj, "value"):
        # BitString: value + exact bit length.
        h.update(b"\x00B" + str(len(obj)).encode() + b":" + str(obj.value).encode())
    elif type(obj).__module__ == "numpy":
        import numpy as np

        arr = np.asarray(obj)
        h.update(b"\x00a" + str(arr.shape).encode() + str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    else:
        # Last resort: a stable repr.  Callables hash by qualified name.
        name = getattr(obj, "__qualname__", None)
        if name is not None:
            h.update(b"\x00c" + (getattr(obj, "__module__", "") + "." + name).encode())
        else:
            h.update(b"\x00r" + repr(obj).encode())


def content_digest(obj: Any) -> str:
    """SHA-256 hex digest of a canonical encoding of ``obj``.

    Handles graphs, numpy arrays, bit strings, containers and scalars;
    equal content yields equal digests across processes and runs.
    """
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


class RunCache:
    """On-disk, content-addressed store of run results.

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_dir`.  Created
        lazily on first write.
    max_entries:
        Optional LRU bound: after every write the oldest entries (by
        file mtime — a hit refreshes it) are evicted until at most this
        many remain.  ``None`` (the default) means unbounded, the
        historical behaviour.
    max_entry_bytes:
        Optional admission control: a payload whose pickled size exceeds
        this many bytes is not stored (``put`` returns ``False`` and
        counts a rejection).  Keeps one huge transcript-laden result
        from evicting thousands of small sweep points.
    """

    def __init__(
        self,
        root: "str | os.PathLike | None" = None,
        *,
        max_entries: "int | None" = None,
        max_entry_bytes: "int | None" = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_entry_bytes is not None and max_entry_bytes < 1:
            raise ValueError(f"max_entry_bytes must be >= 1, got {max_entry_bytes}")
        self.max_entries = max_entries
        self.max_entry_bytes = max_entry_bytes
        #: In-process lookup counters (benchmarks and sweep reports read
        #: them; corrupt/evicted entries count as misses).
        self.hits = 0
        self.misses = 0
        #: Entries removed by the LRU bound (this process only).
        self.evictions = 0
        #: Payloads refused by the admission bound (this process only).
        self.rejections = 0

    # -- keys ------------------------------------------------------------

    def key_for(
        self,
        *,
        program: str,
        n: Any,
        bandwidth: Any,
        input_digest: str,
        engine: Any,
        observer: Any = None,
        extra: Any = None,
    ) -> str:
        """Cache key from the fields that determine a run's outcome.

        ``observer`` is an observer spec or its description dict (see
        :func:`repro.obs.describe_observer`): runs observed differently
        carry different ``RunResult.metrics`` payloads, so a metrics-off
        entry must never be served to a metrics-on caller.  Specs are
        normalised, so the default ``None`` hashes identically to the
        default metrics-collector description.
        """
        if not isinstance(observer, dict):
            from ..obs import describe_observer

            observer = describe_observer(observer)
        blob = json.dumps(
            {
                "schema": _SCHEMA_VERSION,
                "program": program,
                "n": n,
                "bandwidth": bandwidth,
                "input": input_digest,
                "engine": engine,
                "observer": observer,
                "extra": extra,
            },
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- storage ---------------------------------------------------------

    def get(self, key: str, *, strict: bool = False) -> Any:
        """The stored payload for ``key``, or ``None`` on a miss.

        A corrupt or unreadable entry is treated as a miss, *evicted*
        from disk (so the next lookup doesn't re-parse garbage) and
        reported with a :class:`RuntimeWarning` — or, with
        ``strict=True``, by raising
        :class:`~repro.clique.errors.CacheCorruption` after eviction.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (
            OSError,
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
        ) as exc:
            self.misses += 1
            self._evict_corrupt(
                key, path, f"unreadable: {type(exc).__name__}: {exc}", strict
            )
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            self.misses += 1
            self._evict_corrupt(
                key,
                path,
                "malformed entry (missing or mismatched key)",
                strict,
            )
            return None
        self.hits += 1
        try:
            # Refresh the LRU clock: recently-hit entries survive longest.
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away after read
            pass
        return entry.get("payload")

    def _evict_corrupt(self, key: str, path: Path, why: str, strict: bool) -> None:
        """Delete a bad entry and report it (warn, or raise when strict)."""
        try:
            path.unlink()
            action = "evicted"
        except OSError as exc:  # pragma: no cover - unlink races are rare
            action = f"eviction failed ({exc})"
        message = f"corrupt run-cache entry {path} ({why}); {action}"
        if strict:
            raise CacheCorruption(message, key=key, path=str(path))
        warnings.warn(message, RuntimeWarning, stacklevel=3)

    def put(self, key: str, payload: Any) -> bool:
        """Atomically store ``payload`` under ``key``.

        Returns ``True`` when the entry was written, ``False`` when the
        admission bound refused it.  Writes go through a temp file and
        ``os.replace``, so two processes racing on the same key leave
        one intact winner, never a torn entry.
        """
        blob = pickle.dumps(
            {"key": key, "payload": payload}, protocol=pickle.HIGHEST_PROTOCOL
        )
        if self.max_entry_bytes is not None and len(blob) > self.max_entry_bytes:
            self.rejections += 1
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.max_entries is not None:
            self._evict_lru()
        return True

    def _evict_lru(self) -> None:
        """Unlink oldest-mtime entries until the LRU bound holds."""
        entries = []
        for path in self._entries():
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:  # pragma: no cover - entry raced away
                pass
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        entries.sort()
        for _, path in entries[:excess]:
            try:
                path.unlink()
                self.evictions += 1
            except OSError:  # pragma: no cover - concurrent eviction
                pass

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def _entries(self) -> Iterator[Path]:
        if not self.root.exists():
            return iter(())
        return self.root.glob("*/*.pkl")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        """Counters and occupancy as a JSON-able dict.

        ``entries`` is the current on-disk count (shared across
        processes); the hit/miss/eviction/rejection counters are this
        process's own.  ``repro serve --status`` prints this dict.
        """
        return {
            "root": str(self.root),
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "max_entries": self.max_entries,
            "max_entry_bytes": self.max_entry_bytes,
        }

    def __repr__(self) -> str:
        return f"RunCache(root={str(self.root)!r})"
