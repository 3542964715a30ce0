"""Transport-neutral request handling: the read API's single request path.

The threaded :mod:`repro.server.app` transport is deliberately thin: it
turns each HTTP request into a call to :func:`handle_request` here and
writes back whatever comes out.  Routing, parameter validation, caching
and rendering all live on this side, so they can be exercised without
a socket.

``handle_request`` returns one of two shapes:

* :class:`Response` — a fully rendered body plus headers (every JSON
  endpoint, errors, 304 revalidations, long-poll results);
* :class:`EventStream` — a live SSE subscription the transport must
  drain: emit the replay backlog, then loop on the subscription's
  queue, interleaving heartbeats, until the client goes away or the
  watcher evicts it.

The shared :class:`AppState` owns the engines, the response cache, and
the generation watcher, so every worker thread agrees about the
current generation.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Mapping
from urllib.parse import parse_qs

from repro.analysis.imbalance import MINIMUM_ACTIVE_LOAD
from repro.constants import MapName
from repro.dataset.handles import ReadHandle, read_generation
from repro.dataset.store import DatasetStore
from repro.errors import (
    AnalysisError,
    QueryError,
    ServerError,
    SnapshotIndexError,
    SnapshotNotFoundError,
    UnknownEndpointError,
)
from repro.server import services
from repro.server.cache import ResponseCache
from repro.server.engines import EngineCache
from repro.server.feed import FeedEvent, GenerationWatcher, Subscription
from repro.server.options import DEFAULT_SERVE_OPTIONS, ServeOptions
from repro.server.router import match_route
from repro.telemetry import get_registry, snapshot_to_prometheus

logger = logging.getLogger(__name__)

__all__ = [
    "AppState",
    "EventStream",
    "Response",
    "error_response",
    "handle_request",
]

#: Query parameters each endpoint accepts; anything else is a 400.
ENDPOINT_PARAMS: dict[str, frozenset[str]] = {
    "healthz": frozenset(),
    "metrics": frozenset(),
    "maps": frozenset(),
    "snapshot": frozenset({"at"}),
    "series": frozenset({"link", "start", "end"}),
    "imbalance": frozenset({"start", "end", "min_load"}),
    "evolution": frozenset({"start", "end"}),
    "events": frozenset({"last_event_id"}),
    "generation": frozenset({"wait", "after"}),
}

#: Longest long-poll hold a client may request, seconds.
MAX_LONG_POLL_WAIT = 300.0


@dataclass(frozen=True)
class Response:
    """One fully rendered response, transport-agnostic."""

    status: int
    body: bytes
    content_type: str
    etag: str | None = None

    def headers(self) -> list[tuple[str, str]]:
        """Every header to write, in emission order."""
        names = [
            ("Content-Type", self.content_type),
            ("Content-Length", str(len(self.body))),
        ]
        if self.etag is not None:
            names.append(("ETag", self.etag))
        return names


@dataclass
class EventStream:
    """A live SSE subscription the transport must drain.

    ``replay`` is already rendered history (the ``Last-Event-ID``
    resume window, or the current-generation baseline); the transport
    emits it first, then loops ``subscription.next_event(heartbeat)``:
    an event → :func:`repro.server.feed.render_sse` bytes plus a
    ``state.feed.record_delivery`` call; ``None`` with the subscription
    open → one heartbeat comment; the subscription closed → end the
    response (the watcher evicted a slow reader or is shutting down).
    """

    subscription: Subscription
    replay: list[FeedEvent]
    heartbeat: float
    status: int = 200
    content_type: str = "text/event-stream"

    def headers(self) -> list[tuple[str, str]]:
        return [
            ("Content-Type", self.content_type),
            ("Cache-Control", "no-store"),
            ("X-Accel-Buffering", "no"),
        ]


class AppState:
    """Everything a transport needs to serve one store: engines, cache, feed."""

    def __init__(
        self, store: DatasetStore, options: ServeOptions | None = None
    ) -> None:
        self.options = options if options is not None else DEFAULT_SERVE_OPTIONS
        self.store = store
        self.engines = EngineCache(store)
        self.cache = ResponseCache(self.options.cache_entries)
        self.feed = GenerationWatcher(
            self.engines,
            interval=self.options.watch_interval,
            ring_size=self.options.feed_ring_size,
        )

    def start(self) -> None:
        """Start the generation watcher (idempotent)."""
        self.feed.start()

    def close(self) -> None:
        """Stop the watcher, then release every pinned engine."""
        self.feed.stop()
        self.engines.close()


# -- parameter parsing -----------------------------------------------------


def parse_timestamp(text: str | None, name: str) -> datetime | None:
    """An ISO-8601 or epoch-seconds query value, UTC when naive."""
    if text is None:
        return None
    try:
        return datetime.fromtimestamp(float(text), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        pass
    try:
        when = datetime.fromisoformat(text)
    except ValueError:
        raise QueryError(
            f"{name} must be an ISO-8601 timestamp or epoch seconds, "
            f"got {text!r}"
        ) from None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return when


def parse_params(raw_query: str, allowed: frozenset[str]) -> dict[str, str]:
    """The query string as a flat dict; unknown or repeated keys are 400s."""
    params: dict[str, str] = {}
    for name, values in parse_qs(
        raw_query, keep_blank_values=True, strict_parsing=False
    ).items():
        if name not in allowed:
            expected = ", ".join(sorted(allowed)) or "none"
            raise QueryError(
                f"unknown query parameter {name!r} (expected: {expected})"
            )
        if len(values) != 1:
            raise QueryError(
                f"query parameter {name!r} given {len(values)} times"
            )
        params[name] = values[0]
    return params


def _parse_int(text: str, name: str, minimum: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        raise QueryError(f"{name} must be an integer, got {text!r}") from None
    if value < minimum:
        raise QueryError(f"{name} must be >= {minimum}, got {value}")
    return value


def _error_message(exc: BaseException) -> str:
    """A clean message even for ``KeyError`` subclasses (which quote)."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


# -- rendering -------------------------------------------------------------


def _json_response(status: int, payload: dict) -> Response:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return Response(status=status, body=body, content_type="application/json")


def error_response(
    exc: BaseException, map_name: MapName | None = None
) -> Response:
    """The envelope for one typed error, through the services mapping."""
    status, code = services.error_status(exc)
    payload = services.error_body(code, _error_message(exc), map_name)
    return _json_response(status, payload)


# -- the shared request path ----------------------------------------------


def handle_request(
    state: AppState,
    path: str,
    raw_query: str,
    headers: Mapping[str, str],
) -> Response | EventStream:
    """Route, validate, and serve one GET — every transport's single entry.

    ``headers`` must be lower-cased keys.  Never raises: every failure
    renders as the unified error envelope through the typed mapping in
    :mod:`repro.server.services`.
    """
    match = match_route(path)
    if match is None:
        return error_response(UnknownEndpointError(f"no such path {path!r}"))
    try:
        params = parse_params(raw_query, ENDPOINT_PARAMS[match.endpoint])
    except QueryError as exc:
        return error_response(exc)
    if match.endpoint == "healthz":
        return _json_response(200, {"status": "ok"})
    if match.endpoint == "metrics":
        text = snapshot_to_prometheus(get_registry().snapshot())
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4",
        )
    map_name: MapName | None = None
    if match.map_slug is not None:
        try:
            map_name = MapName(match.map_slug)
        except ValueError:
            return error_response(
                UnknownEndpointError(f"unknown map {match.map_slug!r}")
            )
    try:
        if match.endpoint == "events":
            assert map_name is not None
            return _serve_events(state, map_name, params, headers)
        if match.endpoint == "generation":
            assert map_name is not None
            return _serve_generation(state, map_name, params)
        return _serve_cached(state, match.endpoint, map_name, params, headers)
    except (QueryError, AnalysisError, SnapshotNotFoundError) as exc:
        return error_response(exc, map_name)


# -- the live feed endpoints ----------------------------------------------


def _serve_events(
    state: AppState,
    map_name: MapName,
    params: dict[str, str],
    headers: Mapping[str, str],
) -> EventStream:
    """``GET /v1/maps/<m>/events`` — subscribe this connection to the feed.

    Resume honours the SSE contract: the ``Last-Event-ID`` header (what
    ``EventSource`` sends on reconnect) wins, with a ``last_event_id``
    query parameter for clients that cannot set headers.
    """
    raw_resume = headers.get("last-event-id") or params.get("last_event_id")
    last_event_id = (
        _parse_int(raw_resume, "last_event_id") if raw_resume else None
    )
    state.feed.start()
    subscription, replay = state.feed.subscribe(
        map_name, transport="sse", last_event_id=last_event_id
    )
    return EventStream(
        subscription=subscription,
        replay=replay,
        heartbeat=max(state.options.watch_interval * 3, 1.0),
    )


def _serve_generation(
    state: AppState,
    map_name: MapName,
    params: dict[str, str],
) -> Response:
    """``GET /v1/maps/<m>/generation`` — the long-poll twin of the SSE feed.

    Without ``wait`` it reports the current generation immediately.
    With ``wait=<seconds>`` it blocks until an event newer than
    ``after`` (default: the current id) lands, or the wait expires —
    the response carries ``timed_out`` so clients can tell the two
    apart without comparing ids.
    """
    wait = 0.0
    if "wait" in params:
        try:
            wait = float(params["wait"])
        except ValueError:
            raise QueryError(
                f"wait must be a number of seconds, got {params['wait']!r}"
            ) from None
        if not 0.0 <= wait <= MAX_LONG_POLL_WAIT:
            raise QueryError(
                f"wait must lie in [0, {MAX_LONG_POLL_WAIT:.0f}], got {wait}"
            )
    state.feed.start()
    current = state.feed.current(map_name)
    after = (
        _parse_int(params["after"], "after")
        if "after" in params
        else (current.id if current is not None else 0)
    )
    event = current
    timed_out = False
    if wait > 0:
        fresh = state.feed.wait_for_event(map_name, after, wait)
        if fresh is not None:
            event = fresh
            state.feed.record_delivery(fresh, "longpoll")
        else:
            event = state.feed.current(map_name)
            timed_out = True
    if event is None:
        raise SnapshotNotFoundError(
            f"map {map_name.value!r} has no generation to watch; "
            f"build an index with `repro-weather index build`"
        )
    payload = dict(event.payload())
    payload["timed_out"] = timed_out
    return _json_response(200, payload)


# -- the cached read endpoints --------------------------------------------


def _serve_cached(
    state: AppState,
    endpoint: str,
    map_name: MapName | None,
    params: dict[str, str],
    headers: Mapping[str, str],
) -> Response:
    """Serve one cacheable endpoint, retrying once across a hot-swap."""
    last_error: SnapshotIndexError | None = None
    for attempt in range(2):
        try:
            return _serve_once(state, endpoint, map_name, params, headers)
        except SnapshotIndexError as exc:  # includes StaleIndexError
            last_error = exc
            if map_name is not None:
                state.engines.invalidate(map_name)
            logger.info(
                "engine went stale serving %s (attempt %d): %s",
                endpoint,
                attempt + 1,
                exc,
            )
    assert last_error is not None
    return error_response(last_error, map_name)


def _serve_once(
    state: AppState,
    endpoint: str,
    map_name: MapName | None,
    params: dict[str, str],
    headers: Mapping[str, str],
) -> Response:
    canonical = tuple(sorted(params.items()))
    build: Callable[[], dict]
    if map_name is None:
        # /maps spans every map: its generation is the tuple of all.
        token: object = tuple(
            read_generation(state.engines.store, name) for name in MapName
        )
        key: tuple = ("*", endpoint, canonical, token)

        def build() -> dict:
            return services.maps_payload(state.engines)

    else:
        pinned = state.engines.handle(map_name)
        key = (map_name.value, endpoint, canonical, pinned.token)
        handle, bound_map = pinned.handle, map_name

        def build() -> dict:
            return _build_payload(endpoint, handle, bound_map, params)

    cached = state.cache.get(endpoint, key)
    if cached is None:
        body = json.dumps(
            build(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        cached = state.cache.put(key, body, "application/json")
    if cached.matches(headers.get("if-none-match")):
        return Response(
            status=304,
            body=b"",
            content_type=cached.content_type,
            etag=cached.etag,
        )
    return Response(
        status=200,
        body=cached.body,
        content_type=cached.content_type,
        etag=cached.etag,
    )


def _build_payload(
    endpoint: str,
    handle: ReadHandle,
    map_name: MapName,
    params: dict[str, str],
) -> dict:
    start = parse_timestamp(params.get("start"), "start")
    end = parse_timestamp(params.get("end"), "end")
    if endpoint == "snapshot":
        at = parse_timestamp(params.get("at"), "at")
        return services.snapshot_payload(handle, map_name, at)
    if endpoint == "series":
        raw_link = params.get("link")
        if raw_link is None:
            raise QueryError("series requires link=<node_a>:<node_b>")
        node_a, sep, node_b = raw_link.partition(":")
        if not sep or not node_a or not node_b:
            raise QueryError(
                f"link must be <node_a>:<node_b>, got {raw_link!r}"
            )
        return services.series_payload(
            handle, map_name, (node_a, node_b), start, end
        )
    if endpoint == "imbalance":
        minimum = MINIMUM_ACTIVE_LOAD
        raw_minimum = params.get("min_load")
        if raw_minimum is not None:
            try:
                minimum = float(raw_minimum)
            except ValueError:
                raise QueryError(
                    f"min_load must be a number, got {raw_minimum!r}"
                ) from None
            if not 0.0 <= minimum <= 100.0:
                raise QueryError(
                    f"min_load must lie in [0, 100], got {minimum}"
                )
        return services.imbalance_payload(
            handle, map_name, start, end, minimum
        )
    if endpoint == "evolution":
        return services.evolution_payload(handle, map_name, start, end)
    raise ServerError(f"no payload builder for endpoint {endpoint!r}")
