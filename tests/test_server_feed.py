"""Tests for the live generation feed (repro.server.feed).

The feed contracts pinned here:

* one shared watcher tick stats each map once and broadcasts to every
  subscriber — baseline event on start, monotonic ids per checkpoint,
  nothing emitted while the generation is unchanged;
* SSE over the real threaded server: a subscriber sees every one of 10
  live ``compact_map_shards`` checkpoints as consecutive event ids with
  zero 5xx, and the snapshot fetched right after each event is already
  the new generation (feed and read path never disagree); several
  concurrent subscribers each see every checkpoint;
* ``Last-Event-ID`` reconnects replay exactly the missed ring events;
* a subscriber that stops draining its bounded queue is evicted rather
  than buffered without bound — and, over the AST of
  ``src/repro/server``, every queue is bounded and a subscription never
  blocks its publisher;
* the long-poll twin answers immediately without ``wait``, reports
  ``timed_out`` honestly, and is woken by a checkpoint mid-wait;
* the feed endpoints exist only under ``/v1`` (born versioned).
"""

from __future__ import annotations

import ast
import http.client
import json
import threading
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from repro.constants import MapName
from repro.dataset.ingest import IngestConfig, IngestDaemon
from repro.dataset.processor import process_svg_bytes
from repro.dataset.shards import compact_map_shards
from repro.dataset.store import ShardedDatasetStore
from repro.server import ServeOptions, create_server
from repro.server.engines import EngineCache
from repro.server.feed import (
    FeedEvent,
    GenerationWatcher,
    Subscription,
    render_sse,
)

T0 = datetime(2022, 9, 12, tzinfo=timezone.utc)
MAP = MapName.ASIA_PACIFIC
#: A fast tick so feed tests finish quickly; still one stat per tick.
TICK = 0.05
SERVER_SRC = Path(__file__).resolve().parents[1] / "src" / "repro" / "server"


@pytest.fixture(scope="module")
def reference_yaml(apac_svg) -> str:
    outcome = process_svg_bytes(apac_svg.encode("utf-8"), MAP, T0)
    assert outcome.yaml_text is not None
    return outcome.yaml_text


def build_corpus(root, yaml_text: str) -> ShardedDatasetStore:
    store = ShardedDatasetStore(root)
    store.mark()
    store.write(MAP, T0, "yaml", yaml_text)
    compact_map_shards(store, MAP)
    return store


def checkpoint(store, yaml_text: str, when: datetime) -> None:
    """One ingest checkpoint: append a snapshot, recompact its day-shard."""
    store.write(MAP, when, "yaml", yaml_text)
    compact_map_shards(store, MAP, only=[when.strftime("%Y-%m-%d")])


@contextmanager
def running_server(store, **option_kwargs):
    option_kwargs.setdefault("watch_interval", TICK)
    server = create_server(store, ServeOptions(port=0, **option_kwargs))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def get_json(port: int, path: str, expect: int = 200) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        assert response.status == expect, body.decode("utf-8", "replace")
        return json.loads(body)
    finally:
        conn.close()


class SseClient:
    """A raw streaming SSE reader over one HTTP/1.1 connection."""

    def __init__(self, port: int, path: str, headers=None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.conn.request("GET", path, headers=headers or {})
        self.response = self.conn.getresponse()

    def next_frame(self) -> dict | None:
        """The next SSE frame as a field dict; ``None`` at end of stream.

        Comment-only frames come back as ``{"comment": ...}`` so tests
        can assert heartbeats explicitly.
        """
        lines: list[bytes] = []
        while True:
            line = self.response.readline()
            if line == b"":
                return None
            if line == b"\n":
                if lines:
                    break
                continue
            lines.append(line.rstrip(b"\n"))
        if lines[0].startswith(b":"):
            return {"comment": lines[0][1:].strip().decode("utf-8")}
        frame: dict = {}
        for raw in lines:
            name, _, value = raw.partition(b": ")
            frame[name.decode("utf-8")] = value.decode("utf-8")
        return frame

    def next_event(self) -> dict:
        """The next generation event (heartbeats skipped), parsed."""
        while True:
            frame = self.next_frame()
            assert frame is not None, "stream ended unexpectedly"
            if "comment" in frame:
                continue
            assert frame["event"] == "generation"
            payload = json.loads(frame["data"])
            assert int(frame["id"]) == payload["id"]
            return payload

    def close(self) -> None:
        self.conn.close()


class TestWatcherUnits:
    """The watcher alone — no HTTP, ticks driven by ``poll_now``."""

    @pytest.fixture()
    def watcher(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        engines = EngineCache(store)
        watcher = GenerationWatcher(engines, interval=TICK, ring_size=4)
        yield store, watcher
        watcher.stop()
        engines.close()

    def test_first_poll_emits_a_baseline_event(self, watcher):
        store, watcher = watcher
        watcher.poll_now()
        latest = watcher.current(MAP)
        assert latest is not None and latest.id == 1
        assert latest.map == MAP.value
        # an unbuilt map has nothing to announce
        assert watcher.current(MapName.EUROPE) is None

    def test_unchanged_generation_emits_nothing(self, watcher):
        store, watcher = watcher
        watcher.poll_now()
        watcher.poll_now()
        watcher.poll_now()
        assert watcher.current(MAP).id == 1

    def test_a_run_that_changes_nothing_emits_nothing(self, watcher):
        store, watcher = watcher
        watcher.poll_now()
        assert IngestDaemon(store, IngestConfig(workers=1)).run([MAP]).ingested == 0
        watcher.poll_now()
        assert watcher.current(MAP).id == 1

    def test_checkpoints_bump_monotonic_ids(self, watcher, reference_yaml):
        store, watcher = watcher
        watcher.poll_now()
        subscription, replay = watcher.subscribe(MAP)
        assert [event.id for event in replay] == [1]
        for round_no in range(3):
            checkpoint(store, reference_yaml, T0 + timedelta(minutes=round_no + 1))
            watcher.poll_now()
        delivered = [subscription.next_event(1.0) for _ in range(3)]
        assert [event.id for event in delivered] == [2, 3, 4]
        generations = {event.generation for event in delivered}
        assert len(generations) == 3  # every checkpoint is a new generation
        watcher.unsubscribe(subscription)
        assert watcher.subscriber_count(MAP) == 0

    def test_resume_replays_only_missed_events(self, watcher, reference_yaml):
        store, watcher = watcher
        watcher.poll_now()
        for round_no in range(3):
            checkpoint(store, reference_yaml, T0 + timedelta(minutes=round_no + 1))
            watcher.poll_now()
        subscription, replay = watcher.subscribe(MAP, last_event_id=2)
        assert [event.id for event in replay] == [3, 4]
        watcher.unsubscribe(subscription)

    def test_slow_subscriber_is_evicted_not_buffered(
        self, tmp_path, reference_yaml
    ):
        store = build_corpus(tmp_path, reference_yaml)
        engines = EngineCache(store)
        watcher = GenerationWatcher(engines, interval=TICK, ring_size=1)
        try:
            watcher.poll_now()
            subscription, _ = watcher.subscribe(MAP)
            # The stalled reader never drains: the first event fills the
            # one-slot queue, the second finds it full -> eviction.
            checkpoint(store, reference_yaml, T0 + timedelta(minutes=1))
            watcher.poll_now()
            assert not subscription.closed
            checkpoint(store, reference_yaml, T0 + timedelta(minutes=2))
            watcher.poll_now()
            assert subscription.closed
            assert watcher.subscriber_count(MAP) == 0
        finally:
            watcher.stop()
            engines.close()

    def test_stop_closes_every_subscription(self, watcher):
        store, watcher = watcher
        watcher.start()
        subscription, _ = watcher.subscribe(MAP)
        watcher.stop()
        assert subscription.closed
        assert watcher.subscriber_count() == 0

    def test_wait_for_event_times_out(self, watcher):
        store, watcher = watcher
        watcher.poll_now()
        current = watcher.current(MAP)
        assert watcher.wait_for_event(MAP, current.id, timeout=0.05) is None

    def test_wait_for_event_woken_by_a_checkpoint(self, watcher, reference_yaml):
        store, watcher = watcher
        watcher.poll_now()
        before = watcher.current(MAP)
        results: list[FeedEvent | None] = []
        waiter = threading.Thread(
            target=lambda: results.append(
                watcher.wait_for_event(MAP, before.id, timeout=10.0)
            )
        )
        waiter.start()
        checkpoint(store, reference_yaml, T0 + timedelta(minutes=1))
        watcher.poll_now()
        waiter.join(timeout=10)
        assert results and results[0] is not None
        assert results[0].id == before.id + 1

    def test_subscription_queue_is_bounded(self):
        subscription = Subscription(MAP, "sse", capacity=2)
        event = FeedEvent(
            map=MAP.value, id=1, generation="g", changed_at="t", checkpoint_ts=0.0
        )
        assert subscription.deliver(event)
        assert subscription.deliver(event)
        assert not subscription.deliver(event)  # full -> caller evicts
        subscription.close()
        assert not subscription.deliver(event)

    def test_server_queues_are_bounded_and_deliver_never_blocks(self):
        # An unbounded queue is an unbounded RSS; a blocking put parks the
        # one watcher thread behind its slowest subscriber.
        unbounded = []
        deliver_puts = []
        for path in sorted(SERVER_SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef) and node.name == "Subscription":
                    deliver = next(f for f in node.body if getattr(f, "name", "") == "deliver")
                    deliver_puts += [
                        call.func.attr
                        for call in ast.walk(deliver)
                        if isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr.startswith("put")
                    ]
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                keywords = {keyword.arg: keyword.value for keyword in node.keywords}
                if name in ("Queue", "LifoQueue", "PriorityQueue"):
                    bound = keywords.get("maxsize", node.args[0] if node.args else None)
                    bounded = bound is not None and not (
                        isinstance(bound, ast.Constant) and bound.value <= 0
                    )
                elif name == "deque":
                    bounded = "maxlen" in keywords or len(node.args) >= 2
                else:
                    bounded = name != "SimpleQueue"
                if not bounded:
                    unbounded.append(f"{path.name}:{node.lineno}")
        assert unbounded == []
        assert deliver_puts == ["put_nowait"]

    def test_render_sse_wire_format(self):
        event = FeedEvent(
            map="europe",
            id=7,
            generation="sharded-1-2-3",
            changed_at="2022-09-12T00:00:00+00:00",
            checkpoint_ts=0.0,
        )
        assert render_sse(event) == (
            b"id: 7\nevent: generation\ndata: "
            b'{"changed_at":"2022-09-12T00:00:00+00:00",'
            b'"generation":"sharded-1-2-3","id":7,"map":"europe"}\n\n'
        )


class TestSseEndToEnd:
    def test_ten_checkpoints_zero_missed_zero_5xx(
        self, tmp_path, reference_yaml
    ):
        """The acceptance scenario: 10 live compactions, every generation
        seen in order, and the snapshot right after each event is fresh."""
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            client = SseClient(port, f"/v1/maps/{MAP.value}/events")
            assert client.response.status == 200
            content_type = client.response.getheader("Content-Type")
            assert content_type == "text/event-stream"
            baseline = client.next_event()
            assert baseline["map"] == MAP.value
            last_id = baseline["id"]
            seen_generations = {baseline["generation"]}
            for round_no in range(10):
                when = T0 + timedelta(minutes=round_no + 1)
                checkpoint(store, reference_yaml, when)
                event = client.next_event()
                assert event["id"] == last_id + 1, "missed a generation"
                last_id = event["id"]
                assert event["generation"] not in seen_generations
                seen_generations.add(event["generation"])
                # The read path already serves the new generation: the
                # watcher hot-swapped before (or the engine re-pins on
                # demand) — never a 5xx, never stale.
                payload = get_json(port, f"/v1/maps/{MAP.value}/snapshot")
                assert payload["timestamp"] == when.isoformat()
            client.close()

    def test_every_subscriber_sees_every_checkpoint(self, tmp_path, reference_yaml):
        """Fan-out: concurrent streams each get every generation, in order."""
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            clients = [
                SseClient(port, f"/v1/maps/{MAP.value}/events") for _ in range(4)
            ]
            last_ids = [client.next_event()["id"] for client in clients]
            for round_no in range(3):
                checkpoint(store, reference_yaml, T0 + timedelta(minutes=round_no + 1))
                events = [client.next_event() for client in clients]
                assert [event["id"] for event in events] == [i + 1 for i in last_ids]
                assert len({event["generation"] for event in events}) == 1
                last_ids = [event["id"] for event in events]
            for client in clients:
                client.close()

    def test_last_event_id_resumes_from_the_ring(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            first = SseClient(port, f"/v1/maps/{MAP.value}/events")
            baseline = first.next_event()
            for round_no in range(4):
                checkpoint(
                    store, reference_yaml, T0 + timedelta(minutes=round_no + 1)
                )
                first.next_event()
            first.close()
            # Reconnect as EventSource would: the missed tail replays.
            resumed = SseClient(
                port,
                f"/v1/maps/{MAP.value}/events",
                headers={"Last-Event-ID": str(baseline["id"] + 1)},
            )
            replayed = [resumed.next_event()["id"] for _ in range(3)]
            assert replayed == [
                baseline["id"] + 2, baseline["id"] + 3, baseline["id"] + 4,
            ]
            resumed.close()
            # Clients that cannot set headers use the query parameter.
            resumed = SseClient(
                port,
                f"/v1/maps/{MAP.value}/events"
                f"?last_event_id={baseline['id'] + 3}",
            )
            assert resumed.next_event()["id"] == baseline["id"] + 4
            resumed.close()

    def test_idle_stream_heartbeats(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            client = SseClient(port, f"/v1/maps/{MAP.value}/events")
            first = client.next_frame()
            assert "data" in first  # the baseline event
            idle = client.next_frame()  # nothing changes -> keep-alive
            assert idle == {"comment": "keep-alive"}
            client.close()

    def test_events_path_is_versioned_only(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            payload = get_json(port, f"/maps/{MAP.value}/events", expect=404)
            assert payload["error"]["code"] == "unknown_endpoint"

    def test_feed_metrics_are_exposed(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            client = SseClient(port, f"/v1/maps/{MAP.value}/events")
            client.next_event()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/v1/metrics")
            text = conn.getresponse().read().decode("utf-8")
            conn.close()
            client.close()
            assert "repro_feed_subscribers" in text
            assert 'repro_feed_events_total{transport="sse"}' in text
            assert "repro_feed_notify_seconds" in text


class TestLongPoll:
    def test_immediate_generation_report(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            payload = get_json(port, f"/v1/maps/{MAP.value}/generation")
            assert payload["map"] == MAP.value
            assert payload["id"] >= 1
            assert payload["timed_out"] is False
            assert payload["generation"] and payload["changed_at"]

    def test_wait_times_out_without_a_checkpoint(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            current = get_json(port, f"/v1/maps/{MAP.value}/generation")
            payload = get_json(
                port,
                f"/v1/maps/{MAP.value}/generation"
                f"?wait=0.2&after={current['id']}",
            )
            assert payload["timed_out"] is True
            assert payload["id"] == current["id"]

    def test_wait_races_a_checkpoint_and_wins(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            current = get_json(port, f"/v1/maps/{MAP.value}/generation")
            writer = threading.Timer(
                0.1,
                checkpoint,
                args=(store, reference_yaml, T0 + timedelta(minutes=1)),
            )
            writer.start()
            try:
                payload = get_json(
                    port, f"/v1/maps/{MAP.value}/generation?wait=10"
                )
            finally:
                writer.join()
            assert payload["timed_out"] is False
            assert payload["id"] == current["id"] + 1

    def test_bad_wait_values_are_400(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            for query in ("wait=forever", "wait=-1", "wait=301", "after=x"):
                payload = get_json(
                    port, f"/v1/maps/{MAP.value}/generation?{query}", expect=400
                )
                assert payload["error"]["code"] == "bad_query"

    def test_unbuilt_map_is_404(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            payload = get_json(port, "/v1/maps/europe/generation", expect=404)
            assert payload["error"]["code"] == "snapshot_not_found"
            assert payload["error"]["map"] == "europe"
