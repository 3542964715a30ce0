"""Each entry point imports only the layers it runs.

These tests check the *transitive* import closure, in a fresh
interpreter per entry point, by reading ``sys.modules``:

* the ingest daemon's modules never load the simulator, the renderer,
  the SVG writer, networkx or ``urllib.request``, nor numpy, which only
  the read side runs, nor ``multiprocessing``, which only an open parse
  pool needs;
* the HTTP server loads numpy but none of the others, and never the
  parser, the YAML stack, the snapshot loader, the write path (bulk
  engine, processor, ingest daemon) or ``multiprocessing``; no module
  under ``src/repro/server`` names ``MapSnapshot`` either, so responses
  are computed off the column views, never from snapshot objects;
* ``repro.cli.main`` defers every heavy layer to the subcommand using it.

The hot-path tests then pin the other half of the bargain: deferring an
import must not move it onto a request or an ingest run.  A ready server
answering every ``/v1`` endpoint, and a daemon run over one new SVG,
load no further ``repro``, numpy, YAML or networkx module (nor, for a
one-worker run, ``multiprocessing``), and ``repro-weather ingest run``
ingests one file without ever loading numpy or ``multiprocessing``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from repro.constants import MapName
from repro.dataset.processor import process_svg_bytes
from repro.dataset.shards import compact_map_shards
from repro.dataset.store import ShardedDatasetStore

SRC = Path(__file__).resolve().parents[1] / "src"
MAP = MapName.ASIA_PACIFIC
T0 = datetime(2022, 9, 12, tzinfo=timezone.utc)

#: Layers neither long-lived process runs.
NEVER_IN_PROCESSES = (
    "networkx",
    "repro.simulation",
    "repro.layout",
    "repro.svgdoc.writer",
    "repro.peeringdb",
    "urllib.request",
)

#: Module prefixes whose late arrival would mean work moved onto the hot path.
HOT_PATH_WATCHED = ("repro", "numpy", "yaml", "networkx")

#: Prints the sorted ``sys.modules`` keys as JSON; appended to every script.
_DUMP = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def run_python(script: str, *args: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; its last stdout line, parsed."""
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def loaded(modules: list[str], names: tuple[str, ...]) -> list[str]:
    """The entries of ``names`` present in ``modules``, packages or submodules."""
    return sorted(
        name
        for name in names
        if any(module == name or module.startswith(name + ".") for module in modules)
    )


class TestImportClosure:
    def test_ingest_daemon_modules(self):
        modules = run_python(
            "import repro.constants, repro.dataset.engine, repro.dataset.ingest, "
            "repro.dataset.shards, repro.dataset.store\n" + _DUMP
        )
        # numpy comes only with the shard read side, which the daemon never
        # runs; multiprocessing only with a pool, opened on first use.
        assert loaded(modules, NEVER_IN_PROCESSES + ("numpy", "multiprocessing")) == []
        # The daemon really does carry the parser and the YAML writer.
        assert loaded(modules, ("repro.parsing", "yaml")) == ["repro.parsing", "yaml"]

    def test_server(self):
        modules = run_python("from repro.server import create_server\n" + _DUMP)
        assert loaded(
            modules,
            NEVER_IN_PROCESSES
            + (
                "yaml",
                "repro.yamlio",
                "repro.parsing",
                "repro.dataset.loader",
                "repro.dataset.engine",
                "repro.dataset.processor",
                "repro.dataset.ingest",
                "multiprocessing",
            ),
        ) == []

    def test_server_never_names_map_snapshot(self):
        # Imported lazily or constructed on a request path, a MapSnapshot
        # would put the object graph back under the column views.
        offenders = [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for path in sorted((SRC / "repro" / "server").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (
                isinstance(node, ast.ImportFrom)
                and any(alias.name == "MapSnapshot" for alias in node.names)
            )
            or (
                isinstance(node, ast.Call)
                and "MapSnapshot"
                in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            )
        ]
        assert offenders == []

    def test_cli(self):
        modules = run_python("import repro.cli.main\n" + _DUMP)
        assert loaded(modules, ("networkx", "repro.simulation", "repro.layout")) == []

    def test_root_package_loads_no_layer(self):
        modules = run_python("import repro\n" + _DUMP)
        assert [name for name in modules if name.startswith("repro")] == [
            "repro",
            "repro._lazy",
        ]


@pytest.fixture(scope="module")
def reference_yaml(apac_svg) -> str:
    outcome = process_svg_bytes(apac_svg.encode("utf-8"), MAP, T0)
    assert outcome.yaml_text is not None
    return outcome.yaml_text


class TestNothingMovedOntoTheHotPath:
    def test_server_requests(self, tmp_path, reference_yaml):
        store = ShardedDatasetStore(tmp_path)
        store.mark()
        for day in range(2):
            for slot in range(2):
                when = T0 + timedelta(days=day, minutes=5 * slot)
                store.write(MAP, when, "yaml", reference_yaml)
        compact_map_shards(store, MAP)

        late = run_python(
            """
            import http.client, json, sys, threading
            from repro.dataset.store import open_store
            from repro.server import ServeOptions, create_server

            server = create_server(open_store(sys.argv[1]), ServeOptions(port=0))
            threading.Thread(target=server.serve_forever, daemon=True).start()
            port = server.server_address[1]
            before = set(sys.modules)

            def get(path):
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                conn.request("GET", path)
                response = conn.getresponse()
                if path.endswith("/events"):
                    body = response.readline()  # the baseline frame's first line
                else:
                    body = response.read()
                conn.close()
                assert response.status == 200, (path, response.status, body)
                return body

            base = "/v1/maps/" + sys.argv[2]
            link = json.loads(get(base + "/snapshot"))["links"][0]
            for path in (
                "/v1/healthz",
                "/v1/metrics",
                "/v1/maps",
                base + "/series?link=%s:%s" % (link["node_a"], link["node_b"]),
                base + "/imbalance",
                base + "/evolution",
                base + "/generation",
                base + "/events",
            ):
                get(path)
            server.shutdown()
            print(json.dumps(sorted(set(sys.modules) - before)))
            """,
            str(tmp_path),
            MAP.value,
        )
        assert loaded(late, HOT_PATH_WATCHED) == []

    def test_daemon_run(self, tmp_path, apac_svg):
        store = ShardedDatasetStore(tmp_path)
        store.mark()
        store.write(MAP, T0, "svg", apac_svg)

        late = run_python(
            """
            import json, sys
            from repro.constants import MapName
            from repro.dataset.ingest import IngestConfig, IngestDaemon
            from repro.dataset.store import open_store

            daemon = IngestDaemon(open_store(sys.argv[1]), IngestConfig(workers=1))
            before = set(sys.modules)
            stats = daemon.run([MapName(sys.argv[2])])
            assert stats.ingested == 1, stats
            print(json.dumps(sorted(set(sys.modules) - before)))
            """,
            str(tmp_path),
            MAP.value,
        )
        assert loaded(late, HOT_PATH_WATCHED + ("multiprocessing",)) == []

    def test_cli_ingest_run(self, tmp_path, apac_svg):
        store = ShardedDatasetStore(tmp_path)
        store.mark()
        store.write(MAP, T0, "svg", apac_svg)

        modules = run_python(
            """
            import contextlib, io, json, sys
            from repro.cli.main import main

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["ingest", "run", sys.argv[1]]) == 0
            assert out.getvalue().startswith("ingested 1 files"), out.getvalue()
            print(json.dumps(sorted(sys.modules)))
            """,
            str(tmp_path),
        )
        assert loaded(modules, ("numpy", "multiprocessing")) == []
