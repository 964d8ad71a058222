"""Thread-safe LRU cache for query results, keyed by cube version.

The serving layer caches *normalized* query results under the key
``(cube_version, query_kind, normalized_args)``.  Correct invalidation is
structural rather than heuristic: every cube mutation (a maintenance
insert/delete) and every snapshot hot-swap produces a *new* cube-version
string, so a stale entry can never be returned -- its key simply never
matches again.  :meth:`ResultCache.invalidate` additionally drops the dead
entries eagerly so a long-lived service does not carry old generations
until LRU pressure finds them.

Hit/miss/eviction/invalidation totals feed both the metrics registry (exported
as ``repro_serve_cache_*`` by the Prometheus endpoint) and a local
:meth:`stats` snapshot the ``/healthz`` document embeds.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from ..obs.metrics import registry

__all__ = ["ResultCache"]

# Handles survive metric resets; created once at import.
_HITS = registry().counter("serve.cache.hits")
_MISSES = registry().counter("serve.cache.misses")
_EVICTIONS = registry().counter("serve.cache.evictions")
_INVALIDATED = registry().counter("serve.cache.invalidated")
_SIZE = registry().gauge("serve.cache.size")

#: Lookup default, so a stored ``None`` still reads as a hit.
_ABSENT = object()


class ResultCache:
    """Bounded LRU cache.

    ``max_entries <= 0`` disables caching entirely (every lookup misses,
    nothing is stored), which keeps call sites branch-free.  Entries leave
    only via LRU pressure or invalidation.
    """

    def __init__(self, max_entries: int = 1024):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: key -> value; insertion order is LRU.
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable) -> tuple[Any, bool]:
        """Look up ``key``; returns ``(value, hit)``.

        A hit refreshes the entry's LRU position.
        """
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is not _ABSENT:
                self._entries.move_to_end(key)
                _HITS.inc()
                return value, True
            _MISSES.inc()
            return None, False

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the LRU tail if needed."""
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                _EVICTIONS.inc()
            _SIZE.set(len(self._entries))

    def invalidate(self, cube_version: str | None = None) -> int:
        """Drop entries of ``cube_version`` (all entries when None).

        Returns the number of entries removed.  Version-keyed lookups make
        this a memory-reclamation step, not a correctness requirement: a
        swapped-out version's entries could never be served again anyway.
        """
        with self._lock:
            if cube_version is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                stale = [
                    key
                    for key in self._entries
                    if isinstance(key, tuple) and key[0] == cube_version
                ]
                for key in stale:
                    del self._entries[key]
                dropped = len(stale)
            _SIZE.set(len(self._entries))
        _INVALIDATED.inc(dropped)
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Current totals (process-wide counters) plus the live size."""
        return {
            "size": len(self),
            "max_entries": self.max_entries,
            "hits": _HITS.value,
            "misses": _MISSES.value,
            "evictions": _EVICTIONS.value,
            "invalidated": _INVALIDATED.value,
        }
