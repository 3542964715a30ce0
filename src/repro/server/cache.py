"""The response cache: rendered bodies keyed by (map, endpoint, query, generation).

The weather map's read patterns are heavily skewed — the paper's
operators watch "the current snapshot" of a handful of maps — so the
server keeps fully-rendered response bodies, not parsed intermediates.
Correctness comes from the key, not from invalidation callbacks: the
index *generation token* (see :func:`repro.dataset.handles.read_generation`)
is part of every key, so an ingest checkpoint that rewrites the index
simply stops matching the old entries, which age out of the LRU on
their own.  Historical windows are immutable by construction, which is
what makes the strong ETags safe to serve with ``If-None-Match``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable

from repro.errors import ServerError
from repro.telemetry import get_registry

__all__ = ["CachedResponse", "ResponseCache"]


@dataclass(frozen=True)
class CachedResponse:
    """One rendered response body plus the headers derived from it."""

    body: bytes
    content_type: str
    #: Strong validator: a truncated SHA-256 of the body, quoted per
    #: RFC 9110.  Identical bodies yield identical ETags across
    #: processes and restarts, so clients can revalidate forever.
    etag: str = field(init=False)

    def __post_init__(self) -> None:
        digest = hashlib.sha256(self.body).hexdigest()[:32]
        object.__setattr__(self, "etag", f'"{digest}"')

    def matches(self, if_none_match: str | None) -> bool:
        """Whether an ``If-None-Match`` header revalidates this body.

        ETags here are strong hashes of the exact bytes, so a weak
        comparison (``W/`` prefix stripped) is still exact.
        """
        if not if_none_match:
            return False
        if if_none_match.strip() == "*":
            return True
        for candidate in if_none_match.split(","):
            candidate = candidate.strip()
            if candidate.startswith("W/"):
                candidate = candidate[2:]
            if candidate == self.etag:
                return True
        return False


class ResponseCache:
    """A thread-safe LRU over :class:`CachedResponse` entries.

    Keys are opaque hashables built by the app layer; the cache never
    inspects them.  Hits and misses land in
    ``repro_server_cache_total{endpoint, outcome}``, so the hit rate can
    be read straight off the registry.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ServerError(
                f"response cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, CachedResponse] = OrderedDict()  # repro: guarded-by[_lock]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, endpoint: str, key: Hashable) -> CachedResponse | None:
        """The cached response for ``key``, refreshing its LRU position."""
        counter = get_registry().counter(
            "repro_server_cache_total",
            "Response-cache lookups by endpoint and outcome",
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        counter.inc(1, endpoint=endpoint, outcome="hit" if entry else "miss")
        return entry

    def put(
        self, key: Hashable, body: bytes, content_type: str
    ) -> CachedResponse:
        """Store one rendered body, evicting the least-recently-used entry."""
        entry = CachedResponse(body=body, content_type=content_type)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        """Drop every entry (tests; generation keys make this optional)."""
        with self._lock:
            self._entries.clear()
