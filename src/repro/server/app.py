"""The threaded HTTP transport: ThreadingHTTPServer over the shared core.

Layering (thin-router → services → data access)::

    WeatherRequestHandler       transport only: read request, write bytes
        └─ core.handle_request      route, validate, render
            └─ router.match_route       names the endpoint, extracts the slug
            └─ services.*_payload       dicts computed off the column views
                  └─ EngineCache        one generation-pinned handle per map
                  └─ ResponseCache      rendered bodies keyed by generation
                  └─ GenerationWatcher  the live feed (SSE + long-poll)

Request-path guarantees:

* an ingest checkpoint never 500s a reader — generation changes are
  absorbed by the engine hot-swap, and a mid-swap
  :class:`~repro.errors.SnapshotIndexError` gets one invalidate-and-
  retry before degrading to 503;
* every cacheable response carries a strong ETag (a hash of the exact
  body), and ``If-None-Match`` revalidation answers 304 without
  rendering anything;
* every non-2xx body is the unified error envelope
  ``{"error": {"code", "message", "map"?}}`` rendered through the typed
  mapping in :mod:`repro.server.services`.

SSE responses stream over ``Connection: close`` (self-delimiting for
``EventSource`` and curl alike); a stalled reader is evicted by the
watcher when its bounded queue fills, and a blocked socket write is
bounded by :data:`STREAM_WRITE_TIMEOUT` so the worker thread is
reclaimed either way.
"""

from __future__ import annotations

import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.dataset.store import DatasetStore
from repro.server.cache import ResponseCache
from repro.server.core import (
    AppState,
    EventStream,
    Response,
    error_response,
    handle_request,
)
from repro.server.engines import EngineCache
from repro.server.feed import SSE_HEARTBEAT, GenerationWatcher, render_sse
from repro.server.options import ServeOptions
from repro.server.router import match_route
from repro.telemetry import get_registry

logger = logging.getLogger(__name__)

__all__ = [
    "WeatherRequestHandler",
    "WeatherServer",
    "create_server",
    "serve",
]

#: Upper bound on one blocking socket write during an SSE stream; a
#: reader stalled longer than this loses the connection (the watcher's
#: queue-based eviction usually fires first).
STREAM_WRITE_TIMEOUT = 30.0


class WeatherServer(ThreadingHTTPServer):
    """The threaded read API over one dataset store."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, store: DatasetStore, options: ServeOptions | None = None
    ) -> None:
        self.state = AppState(store, options)
        self.options = self.state.options
        super().__init__(
            (self.options.host, self.options.port), WeatherRequestHandler
        )
        self.state.start()

    @property
    def engines(self) -> EngineCache:
        """The shared engine cache (introspection and tests)."""
        return self.state.engines

    @property
    def cache(self) -> ResponseCache:
        """The shared response cache (introspection and tests)."""
        return self.state.cache

    @property
    def feed(self) -> GenerationWatcher:
        """The shared generation watcher (introspection and tests)."""
        return self.state.feed

    def server_close(self) -> None:
        super().server_close()
        self.state.close()


class WeatherRequestHandler(BaseHTTPRequestHandler):
    """One GET request: hand to the shared core, write what comes back."""

    server: WeatherServer
    protocol_version = "HTTP/1.1"
    server_version = "repro-weather"
    # Headers and body flush as separate writes; without TCP_NODELAY the
    # second one stalls ~40 ms behind Nagle + the client's delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: object) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def do_GET(self) -> None:
        parts = urlsplit(self.path)
        match = match_route(parts.path)
        endpoint = match.endpoint if match is not None else "unknown"
        registry = get_registry()
        status = 500
        try:
            with registry.span(
                "repro_server_request",
                "HTTP request wall time by endpoint",
                endpoint=endpoint,
            ):
                headers = {
                    name.lower(): value for name, value in self.headers.items()
                }
                outcome = handle_request(
                    self.server.state, parts.path, parts.query, headers
                )
                if isinstance(outcome, EventStream):
                    status = self._stream_events(outcome)
                else:
                    status = self._write_response(outcome)
        except Exception as exc:
            logger.exception("unhandled error serving %s", self.path)
            try:
                status = self._write_response(error_response(exc))
            except OSError as write_exc:
                logger.debug("client gone before error reply: %s", write_exc)
        registry.counter(
            "repro_server_requests_total",
            "HTTP requests by endpoint and response status",
        ).inc(1, endpoint=endpoint, status=str(status))

    # -- response writing --------------------------------------------------

    def _write_response(self, response: Response) -> int:
        self.send_response(response.status)
        for name, value in response.headers():
            self.send_header(name, value)
        self.end_headers()
        if response.body:
            self.wfile.write(response.body)
        return response.status

    def _stream_events(self, stream: EventStream) -> int:
        """Drain one SSE subscription onto the socket until either side quits."""
        feed = self.server.state.feed
        subscription = stream.subscription
        self.close_connection = True
        try:
            self.send_response(stream.status)
            for name, value in stream.headers():
                self.send_header(name, value)
            self.send_header("Connection", "close")
            self.end_headers()
            self.connection.settimeout(STREAM_WRITE_TIMEOUT)
            for event in stream.replay:
                self.wfile.write(render_sse(event))
                feed.record_delivery(event, subscription.transport)
            self.wfile.flush()
            while True:
                event = subscription.next_event(stream.heartbeat)
                if event is not None:
                    self.wfile.write(render_sse(event))
                    self.wfile.flush()
                    feed.record_delivery(event, subscription.transport)
                elif subscription.closed:
                    break  # evicted as a slow reader, or server shutdown
                else:
                    self.wfile.write(SSE_HEARTBEAT)
                    self.wfile.flush()
        except OSError as exc:
            logger.debug("SSE client went away: %s", exc)
        finally:
            feed.unsubscribe(subscription)
        return stream.status


def create_server(
    store: DatasetStore, options: ServeOptions | None = None
) -> WeatherServer:
    """Bind (but do not run) a :class:`WeatherServer` over one store."""
    return WeatherServer(store, options)


def serve(store: DatasetStore, options: ServeOptions | None = None) -> None:
    """Run the read API until interrupted (the ``repro-weather serve`` body)."""
    server = create_server(store, options)
    bound_host, bound_port = server.server_address[0], server.server_address[1]
    logger.info(
        "serving weather map read API on http://%s:%s/", bound_host, bound_port
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
