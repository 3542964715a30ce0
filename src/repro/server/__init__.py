"""``repro.server`` — the versioned HTTP read API + live generation feed.

The paper's weather map was, first and foremost, *served*: operators
watched the network's state continuously for 26 months.  This package
reproduces that serving role behind a stable **``/v1`` surface**: a
stdlib-only threaded HTTP API whose worker threads all share one
zero-copy query engine per (map, shard), with generation-pinned
hot-swap across ingest checkpoints, an ETag-bearing LRU response
cache, and a live generation feed — Server-Sent Events with
``Last-Event-ID`` resume plus a long-poll fallback — driven by one
shared watcher thread.  See ``docs/serving.md`` for the endpoint
reference, feed semantics, and the 2.0 migration table.
"""

from repro.server.app import (
    WeatherRequestHandler,
    WeatherServer,
    create_server,
    serve,
)
from repro.server.cache import CachedResponse, ResponseCache
from repro.server.core import AppState, handle_request
from repro.server.engines import EngineCache, PinnedEngine
from repro.server.feed import FeedEvent, GenerationWatcher, Subscription
from repro.server.options import ServeOptions
from repro.server.router import API_VERSION, RouteMatch, match_route

__all__ = [
    "API_VERSION",
    "AppState",
    "CachedResponse",
    "EngineCache",
    "FeedEvent",
    "GenerationWatcher",
    "PinnedEngine",
    "ResponseCache",
    "RouteMatch",
    "ServeOptions",
    "Subscription",
    "WeatherRequestHandler",
    "WeatherServer",
    "create_server",
    "handle_request",
    "match_route",
    "serve",
]
