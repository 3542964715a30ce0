"""Frozen serving configuration — the ``ParseOptions`` pattern for the API.

Every knob the read API has — bind address, response-cache size, and
the generation feed's watch interval and ring size — lives in one
frozen :class:`ServeOptions` object, accepted by
:func:`repro.server.serve` and :func:`repro.server.create_server`, and
built by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServerError

__all__ = ["DEFAULT_SERVE_OPTIONS", "ServeOptions"]


@dataclass(frozen=True, slots=True)
class ServeOptions:
    """How the read API binds, caches, and feeds — one object, passed once.

    Attributes:
        host: bind address.
        port: bind port (0 picks a free one).
        cache_entries: rendered-response LRU capacity.
        watch_interval: seconds between generation-watcher ticks — one
            ``stat()`` per map per tick, shared by every subscriber.
        feed_ring_size: per-map replay ring capacity (also the bound on
            each subscriber's delivery queue; a slower client is evicted
            rather than buffered without bound).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    cache_entries: int = 256
    watch_interval: float = 5.0
    feed_ring_size: int = 256

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ServerError(f"port must lie in [0, 65535], got {self.port}")
        if self.cache_entries < 1:
            raise ServerError(
                f"cache_entries must be >= 1, got {self.cache_entries}"
            )
        if not self.watch_interval > 0:
            raise ServerError(
                f"watch_interval must be > 0 seconds, got {self.watch_interval}"
            )
        if self.feed_ring_size < 1:
            raise ServerError(
                f"feed_ring_size must be >= 1, got {self.feed_ring_size}"
            )


#: The defaults every entry point shares.
DEFAULT_SERVE_OPTIONS = ServeOptions()
