"""Generation-pinned query engines shared by every worker thread.

The whole point of the zero-copy engine (PR 7) is that many readers
share one read-only mapping; this module is where the server cashes
that in.  One :class:`EngineCache` holds at most one open
:data:`~repro.dataset.handles.ReadHandle` per map, pinned to the
generation token that was current when it was opened.  Every request
stats the token (one ``stat()``, no reads) and:

* token unchanged → serve the pinned handle, zero opens;
* token changed → reopen under the swap lock and *hot-swap* the pin.
  The superseded handle is **not** closed — in-flight scans on other
  worker threads may still hold its column views, and a mapped inode
  stays alive under its mapping until the views are garbage collected.
  Dropping the reference is the safe release;
* reopen failed (mid-checkpoint skew, manifest being rewritten) → keep
  serving the pinned generation.  An ingest checkpoint must never turn
  into a reader's 500; a slightly stale answer is the correct trade.
  The token that failed is remembered: a token names one atomically
  written manifest, so until it changes every request serves the pin
  (or the same typed error) without reading the manifest again.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.constants import MapName
from repro.dataset.handles import (
    GenerationToken,
    ReadHandle,
    read_generation,
    resolve_read_handle,
)
from repro.dataset.store import DatasetStore
from repro.errors import SnapshotIndexError, SnapshotNotFoundError
from repro.telemetry import get_registry

__all__ = ["EngineCache", "PinnedEngine"]


@dataclass
class PinnedEngine:
    """One map's open read handle and the generation it serves."""

    handle: ReadHandle
    token: GenerationToken | None


class EngineCache:
    """Per-map read handles with generation-pinned hot-swap."""

    def __init__(self, store: DatasetStore) -> None:
        self._store = store
        self._lock = threading.Lock()
        self._pinned: dict[MapName, PinnedEngine] = {}  # repro: guarded-by[_lock]
        #: Per map, the generation token whose manifest last failed to open.
        self._refused: dict[MapName, GenerationToken] = {}  # repro: guarded-by[_lock]

    @property
    def store(self) -> DatasetStore:
        return self._store

    def pinned(self, map_name: MapName) -> PinnedEngine | None:
        """The current pin, without opening anything (introspection)."""
        with self._lock:
            return self._pinned.get(map_name)

    def handle(self, map_name: MapName) -> PinnedEngine:
        """The map's engine at its current generation, opening if needed.

        The generation ``stat()`` runs outside the lock (it never touches
        the pin table); everything that reads or swaps the pin runs
        inside it.  The common token-unchanged case is one uncontended
        lock acquisition plus a dict lookup — far cheaper than the stat
        that precedes it.

        Raises:
            SnapshotNotFoundError: the map has no snapshots and no index
                (never raised while a previously-pinned generation can
                still serve).
            SnapshotIndexError: the map has snapshots but no shard index
                it can serve: never compacted (a 2.x dataset before its
                first ``index build``), or a shard manifest that was not
                read whole (damaged, or another parser version's).
        """
        token = read_generation(self._store, map_name)
        with self._lock:
            pinned = self._pinned.get(map_name)
            if pinned is not None and (token is None or pinned.token == token):
                # Token vanished mid-checkpoint, or another thread
                # already swapped: the pin is the best truth available.
                return pinned
            handle = None
            if token is None or self._refused.get(map_name) != token:
                handle = resolve_read_handle(
                    self._store, map_name, require_fresh=False
                )
            if handle is None:
                if token is not None:
                    self._refused[map_name] = token
                if pinned is not None:
                    return pinned
                if self._store.shard_keys(map_name):
                    raise SnapshotIndexError(
                        f"map {map_name.value!r} has snapshots but no readable "
                        f"shard index; build one with `repro-weather index build`"
                    )
                raise SnapshotNotFoundError(
                    f"no queryable index for map {map_name.value!r}; "
                    f"build one with `repro-weather index build`"
                )
            self._refused.pop(map_name, None)
            if pinned is not None:
                get_registry().counter(
                    "repro_server_hotswaps_total",
                    "Engine hot-swaps after an index generation change",
                ).inc(1, map=map_name.value)
            fresh = PinnedEngine(handle=handle, token=token)
            self._pinned[map_name] = fresh
            return fresh

    def invalidate(self, map_name: MapName) -> None:
        """Drop the pin so the next request reopens from disk.

        The dropped handle is left open for the same in-flight-scan
        reason hot-swap never closes it.
        """
        with self._lock:
            self._pinned.pop(map_name, None)

    def close(self) -> None:
        """Close every pinned handle (server shutdown, tests)."""
        with self._lock:
            for pinned in self._pinned.values():
                pinned.handle.close()
            self._pinned.clear()
