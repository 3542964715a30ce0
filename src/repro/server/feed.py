"""The live generation feed: one watcher, many subscribed connections.

The paper's weathermap is a *live* artifact on a 5-minute refresh grid;
PR 8 gave dashboards the pull side (cached reads) and this module gives
them the push side.  One :class:`GenerationWatcher` daemon thread stats
each map's generation token (:func:`repro.dataset.handles.read_generation`
— one ``stat()`` per map per tick, never per client) and, on a change:

1. triggers the :class:`~repro.server.engines.EngineCache` hot-swap, so
   the feed and the cached read path can never disagree about the
   current generation — a client that reacts to an event by fetching
   ``/v1/maps/<m>/snapshot`` is guaranteed the new data;
2. appends a :class:`FeedEvent` to a small bounded ring buffer (the
   ``Last-Event-ID`` replay window for reconnecting SSE clients);
3. fans the event out through per-connection **bounded** queues.  A
   subscriber that cannot drain its queue is evicted (counted in
   ``repro_feed_evictions_total``) instead of buffering without bound —
   a stalled dashboard must never hold the watcher's memory hostage;
4. wakes every long-poll waiter parked in :meth:`wait_for_event`.

Event ids are monotonic per map, which is what makes SSE resume exact:
a client reconnecting with ``Last-Event-ID: n`` replays every ring
event with id > n before going live.  The id is also the long-poll
cursor (``?after=n``).

Telemetry: ``repro_feed_subscribers`` (gauge, by transport),
``repro_feed_events_total{transport}`` (counted at delivery),
``repro_feed_notify_seconds`` (checkpoint → client-delivery latency,
measured against the generation file's mtime) and
``repro_feed_evictions_total{transport}`` — all catalogued in
``docs/observability.md``.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone

from repro.constants import MapName
from repro.dataset.handles import GenerationToken, read_generation
from repro.errors import SnapshotIndexError, SnapshotNotFoundError
from repro.server.engines import EngineCache
from repro.telemetry import get_registry

__all__ = [
    "FeedEvent",
    "GenerationWatcher",
    "Subscription",
    "render_sse",
]

#: Checkpoint-to-delivery latency bounds: sub-tick on a quiet host up to
#: a couple of watch intervals under load.
NOTIFY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@dataclass(frozen=True, slots=True)
class FeedEvent:
    """One observed generation change of one map."""

    map: str
    #: Monotonic per map; the SSE ``Last-Event-ID`` / long-poll cursor.
    id: int
    #: Opaque name of the new generation (stable across transports).
    generation: str
    #: When the checkpoint landed (the generation file's mtime), ISO-8601.
    changed_at: str
    #: The same instant as epoch seconds, for delivery-latency math.
    checkpoint_ts: float

    def payload(self) -> dict:
        """The JSON body shared by the SSE and long-poll deliveries."""
        return {
            "map": self.map,
            "id": self.id,
            "generation": self.generation,
            "changed_at": self.changed_at,
        }


def render_sse(event: FeedEvent) -> bytes:
    """One event as Server-Sent-Events wire bytes."""
    data = json.dumps(event.payload(), sort_keys=True, separators=(",", ":"))
    return (
        f"id: {event.id}\nevent: generation\ndata: {data}\n\n"
    ).encode("utf-8")


#: SSE comment line sent on idle so proxies and clients keep the
#: connection alive (and stalled sockets surface as write errors).
SSE_HEARTBEAT = b": keep-alive\n\n"


def _token_signature(token: GenerationToken) -> tuple[str, float]:
    """(opaque generation name, checkpoint epoch seconds) of one token."""
    layout, ino, size, mtime_ns = token
    return f"{layout}-{ino:x}-{size:x}-{mtime_ns:x}", mtime_ns / 1e9


class Subscription:
    """One connection's bounded delivery queue.

    The watcher publishes with a non-blocking put; :meth:`deliver`
    returning ``False`` means the queue was full — the caller (the
    watcher) then evicts by closing the subscription.  The consuming
    transport drains with :meth:`next_event`, which doubles as the
    heartbeat timer: ``None`` with :attr:`closed` unset means "idle,
    send a keep-alive", with it set "the watcher gave up on you".
    """

    def __init__(self, map_name: MapName, transport: str, capacity: int) -> None:
        self.map_name = map_name
        self.transport = transport
        self._queue: queue.Queue[FeedEvent] = queue.Queue(maxsize=capacity)
        self._closed = threading.Event()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def deliver(self, event: FeedEvent) -> bool:
        """Enqueue one event; ``False`` when the subscriber is too slow."""
        if self._closed.is_set():
            return False
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            return False
        return True

    def next_event(self, timeout: float) -> FeedEvent | None:
        """The next queued event, or ``None`` after ``timeout`` seconds."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        self._closed.set()


class _MapFeed:
    """Per-map watcher state: token, ring, subscribers, long-poll wakeup."""

    __slots__ = ("token", "last_id", "latest", "ring", "subscribers", "changed")

    def __init__(self, lock: threading.Lock, ring_size: int) -> None:
        self.token: GenerationToken | None = None  # repro: guarded-by[_lock]
        self.last_id = 0  # repro: guarded-by[_lock]
        self.latest: FeedEvent | None = None  # repro: guarded-by[_lock]
        self.ring: deque[FeedEvent] = deque(maxlen=ring_size)  # repro: guarded-by[_lock]
        self.subscribers: list[Subscription] = []  # repro: guarded-by[_lock]
        self.changed = threading.Condition(lock)


class GenerationWatcher:
    """One daemon thread broadcasting generation changes to all clients.

    The watcher is shared by every connection of a server process: each
    tick costs one ``stat()`` per map however many clients are
    subscribed, and fan-out happens through the subscribers' bounded
    queues.  :meth:`poll_now` runs one synchronous tick, which the
    long-poll path uses for a free immediate check and tests use for
    determinism.
    """

    def __init__(
        self,
        engines: EngineCache,
        *,
        interval: float = 5.0,
        ring_size: int = 256,
    ) -> None:
        self.interval = interval
        self.ring_size = ring_size
        self._engines = engines
        self._lock = threading.Lock()
        self._feeds = {name: _MapFeed(self._lock, ring_size) for name in MapName}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started = False  # repro: guarded-by[_lock]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Prime the per-map tokens and start the watcher thread (idempotent).

        Priming emits a baseline event (id 1) for every map that already
        has a built index, so a client connecting before any checkpoint
        still learns the current generation immediately.
        """
        with self._lock:
            if self._started:
                return
            self._started = True
        self.poll_now()
        self._thread = threading.Thread(
            target=self._run, name="repro-generation-watcher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread and close every subscription."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        with self._lock:
            for feed in self._feeds.values():
                for subscription in list(feed.subscribers):
                    self._drop(feed, subscription, evicted=False)
                feed.changed.notify_all()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.poll_now()

    # -- the tick ----------------------------------------------------------

    def poll_now(self) -> None:
        """One synchronous tick: stat every map, broadcast what changed.

        The ``stat()`` runs outside the lock (it never touches feed
        state); the change test and the broadcast run inside it — the
        unchanged case costs one uncontended acquisition per map per
        tick, never per client.
        """
        for map_name, feed in self._feeds.items():
            token = read_generation(self._engines.store, map_name)
            with self._lock:
                if token == feed.token:
                    continue
                feed.token = token
                if token is None:
                    # The index vanished (dataset wiped); nothing to
                    # announce — the next build is a fresh generation.
                    continue
                generation, checkpoint_ts = _token_signature(token)
                feed.last_id += 1
                event = FeedEvent(
                    map=map_name.value,
                    id=feed.last_id,
                    generation=generation,
                    changed_at=datetime.fromtimestamp(
                        checkpoint_ts, tz=timezone.utc
                    ).isoformat(),
                    checkpoint_ts=checkpoint_ts,
                )
                feed.latest = event
                feed.ring.append(event)
                for subscription in list(feed.subscribers):
                    if not subscription.deliver(event):
                        self._drop(subscription=subscription, feed=feed, evicted=True)
                feed.changed.notify_all()
            # Outside the lock: reopening an engine reads the manifest.
            # The read path would hot-swap lazily on its next request
            # anyway; doing it here means an event never races a stale
            # cached engine.
            try:
                self._engines.handle(map_name)
            except (SnapshotNotFoundError, SnapshotIndexError):
                pass

    # -- subscriptions (SSE) -----------------------------------------------

    def subscribe(
        self,
        map_name: MapName,
        *,
        transport: str = "sse",
        last_event_id: int | None = None,
    ) -> tuple[Subscription, list[FeedEvent]]:
        """Register one connection; returns ``(subscription, replay)``.

        ``replay`` is what the transport must emit before going live:
        with ``last_event_id`` every ring event newer than it (the
        reconnect path), otherwise just the latest event so a fresh
        client learns the current generation.
        """
        subscription = Subscription(map_name, transport, self.ring_size)
        feed = self._feeds[map_name]
        with self._lock:
            if last_event_id is None:
                replay = [feed.latest] if feed.latest is not None else []
            else:
                replay = [
                    event for event in feed.ring if event.id > last_event_id
                ]
            feed.subscribers.append(subscription)
        get_registry().gauge(
            "repro_feed_subscribers",
            "Live feed connections by transport",
        ).inc(1, transport=transport)
        return subscription, replay

    def unsubscribe(self, subscription: Subscription) -> None:
        """Drop one connection (client went away or transport finished)."""
        feed = self._feeds[subscription.map_name]
        with self._lock:
            self._drop(feed, subscription, evicted=False)

    def _drop(  # repro: locked-by-caller[_lock]
        self, feed: _MapFeed, subscription: Subscription, *, evicted: bool
    ) -> None:
        """Remove one subscription (caller holds the lock)."""
        if subscription.closed:
            return
        subscription.close()
        try:
            feed.subscribers.remove(subscription)
        except ValueError:
            return
        registry = get_registry()
        registry.gauge(
            "repro_feed_subscribers",
            "Live feed connections by transport",
        ).dec(1, transport=subscription.transport)
        if evicted:
            registry.counter(
                "repro_feed_evictions_total",
                "Subscribers evicted for not draining their queue",
            ).inc(1, transport=subscription.transport)

    def subscriber_count(self, map_name: MapName | None = None) -> int:
        """Live subscriptions, for one map or all (introspection/tests)."""
        with self._lock:
            if map_name is not None:
                return len(self._feeds[map_name].subscribers)
            return sum(len(feed.subscribers) for feed in self._feeds.values())

    # -- long-poll ---------------------------------------------------------

    def current(self, map_name: MapName) -> FeedEvent | None:
        """The newest event, or ``None`` when the map has no index yet."""
        with self._lock:
            return self._feeds[map_name].latest

    def wait_for_event(
        self, map_name: MapName, after: int, timeout: float
    ) -> FeedEvent | None:
        """Block until an event with id > ``after`` exists, or time out.

        The long-poll body.  Deliberately no synchronous re-stat here —
        the watcher's tick is the only thing that ever stats, so a
        thousand parked long-polls cost the filesystem exactly as much
        as zero; a fresh checkpoint is answered within one interval.
        """
        feed = self._feeds[map_name]
        deadline = time.monotonic() + timeout
        with self._lock:
            while not self._stop.is_set():
                if feed.latest is not None and feed.latest.id > after:
                    return feed.latest
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                feed.changed.wait(remaining)
            return None

    # -- delivery accounting (called by the transports) --------------------

    def record_delivery(self, event: FeedEvent, transport: str) -> None:
        """Count one client delivery and its checkpoint-to-client latency."""
        registry = get_registry()
        registry.counter(
            "repro_feed_events_total",
            "Feed events delivered to clients by transport",
        ).inc(1, transport=transport)
        registry.histogram(
            "repro_feed_notify_seconds",
            "Checkpoint to client-delivery latency",
            buckets=NOTIFY_BUCKETS,
        ).observe(max(0.0, time.time() - event.checkpoint_ts))
