"""A 2.x flat dataset under 3.0: served from YAML until ``index build``.

2.x wrote one ``<map>/index.bin`` per map unless ``--sharded`` was given,
and no ``layout.json``.  3.0 reads only the per-day shard indexes, so
such a dataset must load correctly from its YAML, must not be served by
the query engine, and must become fully indexed after one
``repro-weather index build``.
"""

from __future__ import annotations

import http.client
import json
import threading
from datetime import datetime, timedelta, timezone

import pytest

from repro.cli.main import main
from repro.constants import MapName
from repro.dataset.handles import resolve_read_handle
from repro.dataset.index import build_index
from repro.dataset.loader import load_all
from repro.dataset.processor import process_svg_bytes
from repro.dataset.store import open_store
from repro.server import ServeOptions, create_server
from repro.telemetry import MetricsRegistry, use_registry

T0 = datetime(2022, 9, 11, 23, 50, tzinfo=timezone.utc)  # crosses midnight
MAP = MapName.ASIA_PACIFIC
FILES = 4


@pytest.fixture()
def flat_dataset(tmp_path, apac_svg):
    """A YAML tree plus ``<map>/index.bin``; no ``layout.json``, no ``shards/``."""
    store = open_store(tmp_path)
    for slot in range(FILES):
        when = T0 + timedelta(minutes=5 * slot)
        outcome = process_svg_bytes(apac_svg.encode("utf-8"), MAP, when)
        assert outcome.yaml_text is not None
        store.write(MAP, when, "yaml", outcome.yaml_text)
    build_index(MAP, list(store.iter_refs(MAP, "yaml")), tmp_path / MAP.value / "index.bin")
    assert not (tmp_path / "layout.json").exists()
    assert not store.shards_root(MAP).exists()
    return tmp_path


def _load_by_source(root) -> tuple[list, dict[str, float]]:
    with use_registry(MetricsRegistry()) as registry:
        snapshots = load_all(open_store(root), MAP)
    loaded = registry.get("repro_snapshots_loaded_total")
    return snapshots, {
        source: loaded.value(map=MAP.value, source=source) for source in ("index", "yaml")
    }


def _get(store, path: str) -> tuple[int, dict]:
    server = create_server(store, ServeOptions(port=0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=30)
        conn.request("GET", path)
        response = conn.getresponse()
        status, body = response.status, json.loads(response.read())
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return status, body


def test_flat_dataset_loads_from_yaml(flat_dataset):
    snapshots, by_source = _load_by_source(flat_dataset)
    assert snapshots == load_all(open_store(flat_dataset), MAP, use_index=False)
    assert by_source == {"index": 0, "yaml": FILES}


def test_flat_dataset_is_not_served(flat_dataset):
    store = open_store(flat_dataset)
    assert resolve_read_handle(store, MAP) is None
    status, body = _get(store, f"/v1/maps/{MAP.value}/snapshot")
    assert status == 503
    assert body["error"]["code"] == "index_unavailable"
    assert "index build" in body["error"]["message"]
    # A map with no snapshots at all is still a 404.
    status, body = _get(store, f"/v1/maps/{MapName.EUROPE.value}/snapshot")
    assert (status, body["error"]["code"]) == (404, "snapshot_not_found")
    status, body = _get(store, "/v1/maps")
    assert (status, body) == (200, {"maps": []})


def test_index_build_migrates(flat_dataset, capsys):
    assert main(["index", "status", str(flat_dataset)]) == 1
    assert main(["index", "build", str(flat_dataset)]) == 0
    assert main(["index", "status", str(flat_dataset)]) == 0
    assert "fresh" in capsys.readouterr().out
    snapshots, by_source = _load_by_source(flat_dataset)
    assert snapshots == load_all(open_store(flat_dataset), MAP, use_index=False)
    assert by_source == {"index": FILES, "yaml": 0}
    store = open_store(flat_dataset)
    assert store.shard_keys(MAP) == ["2022-09-11", "2022-09-12"]
    handle = resolve_read_handle(store, MAP)
    assert handle is not None and len(handle) == FILES
    handle.close()
