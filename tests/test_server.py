"""Tests for the cached HTTP read API (repro.server).

The serving contracts pinned here, end to end over a real
``ThreadingHTTPServer`` bound to an ephemeral port:

* every cacheable response carries a strong ETag that is stable across
  identical queries, and ``If-None-Match`` revalidation answers 304
  with an empty body;
* the response cache keys on the index *generation*, so an ingest
  checkpoint (new YAML + ``compact_map_shards``) makes the very next
  request serve fresh data — no TTLs, no manual purges;
* concurrent readers never see a 5xx while compaction hot-swaps the
  engine under them;
* a windowed request opens only the day-shards its window overlaps
  (the shard-prune satellite, asserted through the HTTP layer);
* a damaged or version-skewed shard manifest makes its map answer 503
  ``index_unavailable`` (never an empty or partial map) until the next
  ``index build``, while an already-pinned engine keeps serving.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import warnings
from contextlib import contextmanager
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from urllib.parse import quote

import numpy
import pytest

from repro.cli.main import main as cli_main
from repro.constants import MapName
from repro.dataset.ingest import IngestConfig, IngestDaemon
from repro.dataset.processor import process_svg_bytes
from repro.dataset.shards import ShardManifest, ShardedMappedIndex, compact_map_shards
from repro.dataset.store import ShardedDatasetStore
from repro.errors import ServerError
from repro.server import AppState, ServeOptions, create_server, match_route, serve
from repro.server import services
from repro.server.cache import CachedResponse, ResponseCache

T0 = datetime(2022, 9, 12, tzinfo=timezone.utc)
MAP = MapName.ASIA_PACIFIC
DAYS = (T0, T0 + timedelta(days=1), T0 + timedelta(days=2))
PER_DAY = 3


@pytest.fixture(scope="module")
def reference_yaml(apac_svg) -> str:
    outcome = process_svg_bytes(apac_svg.encode("utf-8"), MAP, T0)
    assert outcome.yaml_text is not None
    return outcome.yaml_text


def build_corpus(root, yaml_text: str) -> ShardedDatasetStore:
    """Three compacted day-shards of snapshots in a marked sharded store."""
    store = ShardedDatasetStore(root)
    store.mark()
    for day in DAYS:
        for slot in range(PER_DAY):
            store.write(MAP, day + timedelta(minutes=5 * slot), "yaml", yaml_text)
    compact_map_shards(store, MAP)
    return store


@contextmanager
def running_server(store, **option_kwargs):
    """A live server on an ephemeral port, torn down afterwards."""
    server = create_server(store, ServeOptions(port=0, **option_kwargs))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class Client:
    """A persistent HTTP/1.1 connection with JSON conveniences."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def get(self, path, headers=None):
        self.conn.request("GET", path, headers=headers or {})
        response = self.conn.getresponse()
        body = response.read()
        return response.status, response.getheader("ETag"), body

    def get_full(self, path, headers=None):
        """(status, headers-dict, body) — for header-sensitive assertions."""
        self.conn.request("GET", path, headers=headers or {})
        response = self.conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), body

    def get_json(self, path, expect=200):
        status, _, body = self.get(path)
        assert status == expect, body.decode("utf-8", "replace")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


@pytest.fixture(scope="module")
def corpus_store(tmp_path_factory, reference_yaml):
    return build_corpus(tmp_path_factory.mktemp("serving"), reference_yaml)


@pytest.fixture(scope="module")
def served(corpus_store):
    """One shared read-only server + client for the endpoint tests."""
    with running_server(corpus_store) as server:
        client = Client(server.server_address[1])
        yield client
        client.close()


class TestRouting:
    def test_literal_routes(self):
        assert match_route("/v1/healthz").endpoint == "healthz"
        assert match_route("/v1/metrics").endpoint == "metrics"
        match = match_route("/v1/maps")
        assert match.endpoint == "maps" and match.map_slug is None

    def test_map_view_routes(self):
        for view in ("snapshot", "series", "imbalance", "evolution"):
            match = match_route(f"/v1/maps/asia-pacific/{view}")
            assert match is not None
            assert match.endpoint == view
            assert match.map_slug == "asia-pacific"

    def test_v1_routes_are_versioned(self):
        for path in ("/v1/healthz", "/v1/metrics", "/v1/maps"):
            assert match_route(path) is not None
        for path in ("/healthz", "/maps"):
            assert match_route(path) is None
        match = match_route("/v1/maps/asia-pacific/snapshot")
        assert match.endpoint == "snapshot"
        assert match.map_slug == "asia-pacific"

    def test_feed_routes_exist_only_under_v1(self):
        assert match_route("/v1/maps/europe/events").endpoint == "events"
        assert match_route("/v1/maps/europe/generation").endpoint == "generation"
        assert match_route("/maps/europe/events") is None
        assert match_route("/maps/europe/generation") is None

    def test_metrics_also_answers_at_the_root(self):
        # Prometheus scrapes /metrics by default
        assert match_route("/metrics").endpoint == "metrics"

    def test_unroutable_paths(self):
        for path in ("/", "/maps/", "/maps/europe", "/maps/europe/latest",
                     "/maps/EUROPE/snapshot", "/healthz/extra",
                     "/healthz", "/maps", "/maps/europe/snapshot",
                     "/v1/maps/EUROPE/snapshot", "/v1/maps/europe/latest",
                     "/v1", "/v1/", "/v2/maps", "/v1/v1/maps"):
            assert match_route(path) is None


class TestEndpoints:
    def test_healthz(self, served):
        assert served.get_json("/v1/healthz") == {"status": "ok"}

    def test_maps_lists_extent(self, served):
        payload = served.get_json("/v1/maps")
        assert [entry["name"] for entry in payload["maps"]] == [MAP.value]
        entry = payload["maps"][0]
        assert entry["snapshots"] == len(DAYS) * PER_DAY
        assert entry["first"] == T0.isoformat()
        last = DAYS[-1] + timedelta(minutes=5 * (PER_DAY - 1))
        assert entry["last"] == last.isoformat()

    def test_snapshot_serves_newest_row(self, served):
        payload = served.get_json(f"/v1/maps/{MAP.value}/snapshot")
        last = DAYS[-1] + timedelta(minutes=5 * (PER_DAY - 1))
        assert payload["timestamp"] == last.isoformat()
        assert payload["map"] == MAP.value
        assert payload["routers"] and payload["peerings"] and payload["links"]
        link = payload["links"][0]
        assert set(link) == {
            "node_a", "label_a", "load_a", "node_b", "label_b", "load_b",
        }

    def test_snapshot_at_pins_a_row(self, served):
        at = quote((T0 + timedelta(minutes=5)).isoformat())
        payload = served.get_json(f"/v1/maps/{MAP.value}/snapshot?at={at}")
        assert payload["timestamp"] == (T0 + timedelta(minutes=5)).isoformat()
        # epoch seconds are accepted too, and floor to the row at or before
        epoch = int(T0.timestamp()) + 60
        payload = served.get_json(f"/v1/maps/{MAP.value}/snapshot?at={epoch}")
        assert payload["timestamp"] == T0.isoformat()

    def test_series_normalises_direction(self, served):
        snapshot = served.get_json(f"/v1/maps/{MAP.value}/snapshot")
        link = snapshot["links"][0]
        a, b = link["node_a"], link["node_b"]
        forward = served.get_json(f"/v1/maps/{MAP.value}/series?link={a}:{b}")
        assert forward["link"] == {"a": a, "b": b}
        assert len(forward["points"]) >= len(DAYS) * PER_DAY
        times = [point["time"] for point in forward["points"]]
        assert times == sorted(times)
        backward = served.get_json(f"/v1/maps/{MAP.value}/series?link={b}:{a}")
        assert len(backward["points"]) == len(forward["points"])
        assert backward["points"][0]["a_to_b"] == forward["points"][0]["b_to_a"]
        assert backward["points"][0]["b_to_a"] == forward["points"][0]["a_to_b"]

    def test_series_honours_the_window(self, served):
        snapshot = served.get_json(f"/v1/maps/{MAP.value}/snapshot")
        link = snapshot["links"][0]
        day2 = DAYS[1]
        path = (
            f"/v1/maps/{MAP.value}/series?link={link['node_a']}:{link['node_b']}"
            f"&start={int(day2.timestamp())}"
            f"&end={int((day2 + timedelta(days=1)).timestamp())}"
        )
        windowed = served.get_json(path)
        times = {point["time"] for point in windowed["points"]}
        assert times == {
            (day2 + timedelta(minutes=5 * slot)).isoformat()
            for slot in range(PER_DAY)
        }

    def test_imbalance_summary(self, served):
        payload = served.get_json(f"/v1/maps/{MAP.value}/imbalance")
        assert payload["internal"]["count"] > 0
        assert 0.0 <= payload["internal"]["fraction_within"]["5.0"] <= 1.0
        strict = served.get_json(f"/v1/maps/{MAP.value}/imbalance?min_load=99.5")
        assert strict["minimum_load"] == 99.5
        assert strict["internal"]["count"] <= payload["internal"]["count"]

    def test_evolution_counts(self, served):
        payload = served.get_json(f"/v1/maps/{MAP.value}/evolution")
        assert len(payload["routers"]["times"]) == len(DAYS) * PER_DAY
        assert len(payload["routers"]["values"]) == len(DAYS) * PER_DAY
        day2 = DAYS[1]
        windowed = served.get_json(
            f"/v1/maps/{MAP.value}/evolution"
            f"?start={int(day2.timestamp())}"
            f"&end={int((day2 + timedelta(days=1)).timestamp())}"
        )
        assert len(windowed["routers"]["times"]) == PER_DAY

    def test_metrics_exposition(self, served):
        status, _, body = served.get("/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_server_requests_total" in text
        assert "# TYPE repro_server_request_seconds histogram" in text


class TestErrorMapping:
    def test_envelope_shape(self, served):
        payload = served.get_json("/nope", expect=404)
        assert set(payload) == {"error"}
        assert set(payload["error"]) == {"code", "message"}

    def test_unknown_path_is_404(self, served):
        error = served.get_json("/nope", expect=404)["error"]
        assert error["code"] == "unknown_endpoint"
        assert "no such path" in error["message"]

    def test_unknown_map_is_404(self, served):
        error = served.get_json("/v1/maps/atlantis/snapshot", expect=404)["error"]
        assert error["code"] == "unknown_endpoint"
        assert "atlantis" in error["message"]

    def test_unindexed_map_is_404(self, served):
        # europe exists as a map name but holds no data in this store
        error = served.get_json("/v1/maps/europe/snapshot", expect=404)["error"]
        assert error["code"] == "snapshot_not_found"
        assert "europe" in error["message"]
        assert error["map"] == "europe"

    def test_unknown_parameter_is_400(self, served):
        error = served.get_json(
            f"/v1/maps/{MAP.value}/snapshot?bogus=1", expect=400
        )["error"]
        assert error["code"] == "bad_query"
        assert "bogus" in error["message"]

    def test_repeated_parameter_is_400(self, served):
        served.get_json(f"/v1/maps/{MAP.value}/snapshot?at=1&at=2", expect=400)

    def test_bad_timestamp_is_400(self, served):
        error = served.get_json(
            f"/v1/maps/{MAP.value}/snapshot?at=yesterday", expect=400
        )["error"]
        assert "yesterday" in error["message"]

    def test_missing_link_is_400(self, served):
        error = served.get_json(f"/v1/maps/{MAP.value}/series", expect=400)["error"]
        assert error["code"] == "bad_query"
        assert "link" in error["message"]

    def test_malformed_link_is_400(self, served):
        served.get_json(f"/v1/maps/{MAP.value}/series?link=lonely", expect=400)

    def test_min_load_out_of_range_is_400(self, served):
        served.get_json(f"/v1/maps/{MAP.value}/imbalance?min_load=101", expect=400)

    def test_empty_evolution_window_is_400(self, served):
        early = int((T0 - timedelta(days=30)).timestamp())
        served.get_json(
            f"/v1/maps/{MAP.value}/evolution?start={early}&end={early + 60}",
            expect=400,
        )

    def test_snapshot_before_corpus_is_404(self, served):
        early = int((T0 - timedelta(days=30)).timestamp())
        served.get_json(f"/v1/maps/{MAP.value}/snapshot?at={early}", expect=404)


class TestVersionedSurface:
    """``/v1`` is the only surface, plus Prometheus's ``/metrics``."""

    UNVERSIONED = ("/healthz", "/maps", f"/maps/{MAP.value}/snapshot")

    def test_unversioned_paths_are_unknown_endpoints(self, served):
        for path in self.UNVERSIONED:
            status, headers, body = served.get_full(path)
            assert status == 404, path
            assert json.loads(body)["error"]["code"] == "unknown_endpoint"
            assert "Deprecation" not in headers

    def test_v1_paths_are_not_deprecated(self, served):
        status, headers, _ = served.get_full(f"/v1/maps/{MAP.value}/snapshot")
        assert status == 200
        assert "Deprecation" not in headers
        assert "Link" not in headers

    def test_metrics_answers_at_the_root_and_under_v1(self, served):
        for path in ("/metrics", "/v1/metrics"):
            status, headers, body = served.get_full(path)
            assert status == 200, path
            assert "Deprecation" not in headers
            assert "repro_server_requests_total" in body.decode("utf-8")


class TestCaching:
    def test_etag_stable_across_identical_queries(self, served):
        path = f"/v1/maps/{MAP.value}/evolution"
        status_a, etag_a, body_a = served.get(path)
        status_b, etag_b, body_b = served.get(path)
        assert status_a == status_b == 200
        assert etag_a is not None and etag_a == etag_b
        assert body_a == body_b

    def test_if_none_match_answers_304(self, served):
        path = f"/v1/maps/{MAP.value}/snapshot"
        _, etag, _ = served.get(path)
        status, revalidated, body = served.get(
            path, headers={"If-None-Match": etag}
        )
        assert status == 304
        assert revalidated == etag
        assert body == b""

    def test_star_and_lists_revalidate(self, served):
        path = f"/v1/maps/{MAP.value}/snapshot"
        _, etag, _ = served.get(path)
        status, _, _ = served.get(path, headers={"If-None-Match": "*"})
        assert status == 304
        status, _, _ = served.get(
            path, headers={"If-None-Match": f'"stale", {etag}'}
        )
        assert status == 304

    def test_stale_etag_gets_a_full_response(self, served):
        path = f"/v1/maps/{MAP.value}/snapshot"
        status, _, body = served.get(path, headers={"If-None-Match": '"stale"'})
        assert status == 200 and body

    def test_generation_change_invalidates_mid_flight(
        self, tmp_path, reference_yaml
    ):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            client = Client(server.server_address[1])
            path = f"/v1/maps/{MAP.value}/snapshot"
            _, old_etag, _ = client.get(path)
            before = client.get_json("/v1/maps")["maps"][0]["snapshots"]

            # An ingest checkpoint lands: new day of data, shard compacted.
            new_day = DAYS[-1] + timedelta(days=1)
            store.write(MAP, new_day, "yaml", reference_yaml)
            compact_map_shards(store, MAP, only=["2022-09-15"])

            payload = client.get_json(path)
            assert payload["timestamp"] == new_day.isoformat()
            status, new_etag, _ = client.get(
                path, headers={"If-None-Match": old_etag}
            )
            assert status == 200  # the old validator no longer matches
            assert new_etag != old_etag
            assert client.get_json("/v1/maps")["maps"][0]["snapshots"] == before + 1
            client.close()


    def test_repeats_within_a_generation_are_cache_hits(
        self, tmp_path, reference_yaml
    ):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            client = Client(server.server_address[1])
            path = f"/v1/maps/{MAP.value}/evolution"

            def lookups() -> dict[str, float]:
                text = client.get("/metrics")[2].decode("utf-8")
                return {
                    outcome: float(value)
                    for outcome, value in re.findall(
                        r'^repro_server_cache_total\{endpoint="evolution",'
                        r'outcome="(hit|miss)"\} (\S+)$',
                        text,
                        re.MULTILINE,
                    )
                }

            def five_requests() -> dict[str, float]:
                # The registry is process-wide: count this test's lookups.
                before = lookups()
                for _ in range(5):
                    client.get(path)
                after = lookups()
                return {key: after[key] - before.get(key, 0.0) for key in after}

            assert five_requests() == {"hit": 4.0, "miss": 1.0}
            # A checkpoint moves the generation: one miss, then hits again.
            new_day = DAYS[-1] + timedelta(days=1)
            store.write(MAP, new_day, "yaml", reference_yaml)
            compact_map_shards(store, MAP, only=["2022-09-15"])
            assert five_requests() == {"hit": 4.0, "miss": 1.0}
            client.close()

    def test_a_run_that_changes_nothing_keeps_the_pin_and_the_cache(
        self, tmp_path, reference_yaml
    ):
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            client = Client(server.server_address[1])
            path = f"/v1/maps/{MAP.value}/evolution"

            def counters() -> dict[str, float]:
                text = client.get("/metrics")[2].decode("utf-8")
                found = re.findall(
                    r'^repro_server_(hotswaps_total\{map="asia-pacific"\}|'
                    r'cache_total\{endpoint="evolution",outcome="(?:hit|miss)"\}) (\S+)$',
                    text,
                    re.MULTILINE,
                )
                return {name: float(value) for name, value in found}

            client.get(path)  # pins the generation and caches the body
            before = counters()
            assert IngestDaemon(store, IngestConfig(workers=1)).run([MAP]).ingested == 0
            client.get(path)
            after = counters()
            moved = {
                name: after.get(name, 0.0) - before.get(name, 0.0)
                for name in after.keys() | before.keys()
            }
            # One more cache hit; no miss, no hot-swap.
            assert {name: delta for name, delta in moved.items() if delta} == {
                'cache_total{endpoint="evolution",outcome="hit"}': 1.0
            }
            client.close()


class TestHotSwap:
    def test_no_5xx_while_compaction_hot_swaps(self, tmp_path, reference_yaml):
        """Readers hammer the API while checkpoints rewrite the shards."""
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            port = server.server_address[1]
            stop = threading.Event()
            statuses: list[int] = []
            failures: list[str] = []
            lock = threading.Lock()
            paths = (
                f"/v1/maps/{MAP.value}/snapshot",
                f"/v1/maps/{MAP.value}/evolution",
                "/v1/maps",
            )

            def reader(offset: int) -> None:
                client = Client(port)
                try:
                    turn = 0
                    while not stop.is_set():
                        status, _, body = client.get(
                            paths[(turn + offset) % len(paths)]
                        )
                        with lock:
                            statuses.append(status)
                            if status >= 500:
                                failures.append(body.decode("utf-8", "replace"))
                        turn += 1
                except (OSError, http.client.HTTPException) as exc:
                    with lock:
                        failures.append(f"transport error: {exc}")
                finally:
                    client.close()

            readers = [
                threading.Thread(target=reader, args=(i,)) for i in range(3)
            ]
            for thread in readers:
                thread.start()
            try:
                # Five checkpoints: append a snapshot, recompact its shard.
                for round_no in range(5):
                    when = DAYS[-1] + timedelta(days=1, minutes=5 * round_no)
                    store.write(MAP, when, "yaml", reference_yaml)
                    compact_map_shards(store, MAP, only=["2022-09-15"])
            finally:
                stop.set()
                for thread in readers:
                    thread.join(timeout=30)

            assert not failures, failures[:3]
            assert statuses and all(status < 500 for status in statuses)
            final = Client(port)
            payload = final.get_json(f"/v1/maps/{MAP.value}/snapshot")
            expected = DAYS[-1] + timedelta(days=1, minutes=5 * 4)
            assert payload["timestamp"] == expected.isoformat()
            final.close()


class TestShardPruning:
    def test_windowed_request_opens_only_its_shards(
        self, tmp_path, reference_yaml
    ):
        """The prune satellite, asserted through the HTTP layer."""
        store = build_corpus(tmp_path, reference_yaml)
        with running_server(store) as server:
            client = Client(server.server_address[1])
            snapshot_keys = None
            day2 = DAYS[1]
            client.get_json(
                f"/v1/maps/{MAP.value}/evolution"
                f"?start={int(day2.timestamp())}"
                f"&end={int((day2 + timedelta(days=1)).timestamp())}"
            )
            pinned = server.engines.pinned(MAP)
            assert pinned is not None
            assert isinstance(pinned.handle, ShardedMappedIndex)
            snapshot_keys = pinned.handle.opened_shard_keys
            assert snapshot_keys == ["2022-09-13"]
            client.close()


def _with_rows(document: dict, key: str, rows: object) -> dict:
    shards = dict(document["shards"])
    shards[key] = {**shards[key], "rows": rows}
    return {**document, "shards": shards}


#: Ways a shard manifest can be unreadable as a whole, each a rewrite of
#: the parsed document to the file's new text.
MANIFEST_DAMAGE = {
    "skew": lambda document: json.dumps({**document, "parser_version": 1}),
    "not-json": lambda document: "{not json",
    "shards-list": lambda document: json.dumps({**document, "shards": []}),
    "rows-string": lambda document: json.dumps(
        _with_rows(document, "2022-09-13", "big")
    ),
}


class TestDamagedManifest:
    """A damaged or skewed shard manifest makes its map unavailable, not empty."""

    OTHER = MapName.WORLD

    @pytest.fixture()
    def store(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        for day in DAYS:
            store.write(self.OTHER, day, "yaml", reference_yaml)
        compact_map_shards(store, self.OTHER)
        return store

    @staticmethod
    def paths(map_name):
        return [
            f"/v1/maps/{map_name.value}/{endpoint}"
            for endpoint in ("snapshot", "evolution", "imbalance")
        ]

    @staticmethod
    def damage(store, mangle):
        path = store.shards_manifest_path(MAP)
        path.write_text(mangle(json.loads(path.read_text(encoding="utf-8"))))

    def bodies(self, client, map_name):
        found = []
        for path in self.paths(map_name):
            status, _, body = client.get(path)
            assert status == 200, body.decode("utf-8", "replace")
            found.append(body)
        return found

    @pytest.mark.parametrize(
        "mangle", list(MANIFEST_DAMAGE.values()), ids=list(MANIFEST_DAMAGE)
    )
    def test_the_damaged_map_is_503_until_index_build(self, store, mangle):
        with running_server(store) as server:
            client = Client(server.server_address[1])
            intact = self.bodies(client, MAP)
            client.close()
        self.damage(store, mangle)
        with running_server(store) as server:
            client = Client(server.server_address[1])
            for path in self.paths(MAP):
                error = client.get_json(path, expect=503)["error"]
                assert error["code"] == "index_unavailable"
            self.bodies(client, self.OTHER)
            assert cli_main(["index", "build", str(store.root)]) == 0
            assert self.bodies(client, MAP) == intact
            client.close()

    def test_a_pinned_engine_keeps_serving_across_the_damage(self, store):
        with running_server(store) as server:
            client = Client(server.server_address[1])
            snapshot, *_ = self.paths(MAP)
            status, _, pinned = client.get(snapshot)
            assert status == 200
            self.damage(store, MANIFEST_DAMAGE["skew"])
            # evolution and imbalance were never cached: they scan the pin.
            assert self.bodies(client, MAP)[0] == pinned
            assert server.engines.pinned(MAP) is not None
            client.close()

    @pytest.mark.parametrize("pin", [True, False], ids=["pinned", "unpinned"])
    def test_a_damaged_manifest_is_read_once_per_generation(self, store, monkeypatch, pin):
        loads = []
        load = ShardManifest.load.__func__

        def spy(cls, path):
            loads.append(path)
            return load(cls, path)

        monkeypatch.setattr(ShardManifest, "load", classmethod(spy))
        snapshot, *_ = self.paths(MAP)
        with running_server(store) as server:
            client = Client(server.server_address[1])
            status, _, intact = client.get(snapshot)
            assert status == 200
            if not pin:
                server.engines.invalidate(MAP)
            self.damage(store, MANIFEST_DAMAGE["skew"])
            loads.clear()
            for _ in range(20):
                status, _, body = client.get(snapshot)
                assert (status, body) == (200, intact) if pin else status == 503
            assert len(loads) == 1
            assert cli_main(["index", "build", str(store.root)]) == 0
            assert client.get(snapshot)[::2] == (200, intact)
            client.close()


class TestCacheUnits:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ServerError):
            ResponseCache(0)

    def test_lru_eviction(self):
        cache = ResponseCache(2)
        cache.put(("a",), b"1", "application/json")
        cache.put(("b",), b"2", "application/json")
        assert cache.get("t", ("a",)) is not None  # refresh "a"
        cache.put(("c",), b"3", "application/json")
        assert cache.get("t", ("b",)) is None  # "b" was the LRU entry
        assert cache.get("t", ("a",)) is not None
        assert cache.get("t", ("c",)) is not None
        assert len(cache) == 2

    def test_etag_is_a_strong_body_hash(self):
        one = CachedResponse(b"payload", "application/json")
        two = CachedResponse(b"payload", "text/plain")
        other = CachedResponse(b"different", "application/json")
        assert one.etag == two.etag
        assert one.etag != other.etag
        assert one.etag.startswith('"') and one.etag.endswith('"')

    def test_matches_handles_weak_and_lists(self):
        cached = CachedResponse(b"payload", "application/json")
        assert cached.matches(cached.etag)
        assert cached.matches(f"W/{cached.etag}")
        assert cached.matches(f'"zzz", {cached.etag}')
        assert cached.matches("*")
        assert not cached.matches(None)
        assert not cached.matches('"zzz"')


class TestServiceUnits:
    def test_prefix_sum_matches_the_loop_reference(self):
        counts = numpy.array([3, 0, 7, 2**32 - 1, 2**32 - 1, 5], dtype=numpy.uint32)
        for row in range(len(counts) + 1):
            expected = sum(int(count) for count in counts[:row])
            assert services._prefix_sum(counts, row) == expected


class TestConfigUnits:
    def test_bad_port_rejected(self):
        with pytest.raises(ServerError):
            ServeOptions(port=70000)

    def test_bad_cache_entries_rejected(self):
        with pytest.raises(ServerError):
            ServeOptions(cache_entries=0)

    def test_bad_watch_interval_rejected(self):
        with pytest.raises(ServerError):
            ServeOptions(watch_interval=0.0)

    def test_bad_feed_ring_size_rejected(self):
        with pytest.raises(ServerError):
            ServeOptions(feed_ring_size=0)

    def test_options_pass_through_unwarned(self, tmp_path):
        options = ServeOptions(port=0, watch_interval=0.5)
        store = ShardedDatasetStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert AppState(store, options).options is options
            assert AppState(store).options == ServeOptions()

    def test_serve_options_fields(self):
        assert {field.name for field in fields(ServeOptions)} == {
            "host", "port", "cache_entries", "watch_interval", "feed_ring_size",
        }

    def test_mixing_options_and_keywords_raises(self, tmp_path):
        store = ShardedDatasetStore(tmp_path)
        with pytest.raises(TypeError):
            serve(store, ServeOptions(port=0), port=0)
        with pytest.raises(TypeError):
            create_server(store, port=0)
