"""End-to-end tests for the repro-weather CLI."""

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_map_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "--map", "mars"])

    def test_serve_args(self):
        args = build_parser().parse_args(["serve", "/tmp/x", "--port", "0"])
        assert (args.host, args.port, args.cache_entries) == ("127.0.0.1", 0, 256)
        assert (args.watch_interval, args.feed_ring_size) == (5.0, 256)
        for removed in ("--backend", "--no-mmap", "--asgi"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "/tmp/x", removed])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "/tmp/x", "--start", "2022-01-01", "--end", "2022-01-02"]
        )
        assert args.output == "/tmp/x"
        assert args.interval == 5

    def test_sharded_flag_removed(self):
        for command in (
            ["generate", "/tmp/x", "--start", "2022-01-01", "--end", "2022-01-02"],
            ["ingest", "run", "/tmp/x"],
            ["crawl", "/tmp/x", "--start", "2022-01-01", "--end", "2022-01-02"],
        ):
            build_parser().parse_args(command)
            with pytest.raises(SystemExit):
                build_parser().parse_args([*command, "--sharded"])

    def test_process_workers_args(self):
        args = build_parser().parse_args(["ingest", "run", "/tmp/x"])
        assert args.workers == 2
        assert args.overwrite is False
        args = build_parser().parse_args(
            ["ingest", "run", "/tmp/x", "--workers", "4", "--overwrite"]
        )
        assert args.workers == 4
        assert args.overwrite is True

    def test_removed_write_commands_are_usage_errors(self, capsys):
        # 7.0.0: ``ingest run`` is the one command that writes YAML twins.
        for argv in (["process", "/tmp/x"], ["ingest", "resume", "/tmp/x"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_removed_check_command_is_a_usage_error(self, capsys):
        # 8.0.0: the REP rules are tier-1 tests (tests/test_rep0*.py).
        for argv in (["check"], ["check", "--update-api-snapshot"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "invalid choice: 'check'" in capsys.readouterr().err

    def test_export_workers_args(self):
        # 4.0.0 removed ``export --workers``: the series loads serially or
        # from the shard indexes.
        args = build_parser().parse_args(["export", "/tmp/x"])
        assert not hasattr(args, "workers")
        assert args.output_dir is None
        args = build_parser().parse_args(["export", "/tmp/x", "--output-dir", "/tmp/out"])
        assert args.output_dir == "/tmp/out"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export", "/tmp/x", "--workers", "2"])

    def test_workers_must_be_int(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "run", "/tmp/x", "--workers", "many"])

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "run", "/tmp/x", "--workers", "-1"])

    def test_metrics_out_flags(self):
        args = build_parser().parse_args(
            ["ingest", "run", "/tmp/x", "--metrics-out", "/tmp/m.json"]
        )
        assert args.metrics_out == "/tmp/m.json"
        args = build_parser().parse_args(["index", "build", "/tmp/x"])
        assert args.metrics_out is None

    def test_metrics_command_args(self):
        args = build_parser().parse_args(["metrics", "m.json"])
        assert args.format == "prom"
        args = build_parser().parse_args(["metrics", "m.json", "--format", "json"])
        assert args.format == "json"

    def test_workers_accepts_auto(self):
        args = build_parser().parse_args(["ingest", "run", "/tmp/x", "--workers", "auto"])
        assert args.workers == "auto"

    def test_index_build_args(self):
        args = build_parser().parse_args(["index", "build", "/tmp/x"])
        assert args.index_command == "build"
        assert args.rebuild is False
        assert args.workers is None
        args = build_parser().parse_args(
            ["index", "build", "/tmp/x", "--rebuild", "--map", "europe", "--workers", "auto"]
        )
        assert args.rebuild is True
        assert args.workers == "auto"

    @pytest.mark.parametrize("command", ["run"])
    @pytest.mark.parametrize(
        "flag, value, parsed",
        [
            ("--workers", "auto", "auto"),
            ("--workers", "0", 0),
            ("--workers", "-1", None),
            ("--checkpoint-every", "0", None),
            ("--fsync-every", "0", None),
            ("--fsync-every", "many", None),
            ("--max-files", "0", None),
            ("--max-files", "3", 3),
        ],
    )
    def test_ingest_counts_are_checked_as_usage(self, capsys, command, flag, value, parsed):
        argv = ["ingest", command, "/tmp/x", flag, value]
        if parsed is not None:
            args = build_parser().parse_args(argv)
            assert getattr(args, flag[2:].replace("-", "_")) == parsed
            return
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_index_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index", "/tmp/x"])


class TestRender:
    def test_render_to_file(self, tmp_path, capsys):
        target = tmp_path / "map.svg"
        code = main(["render", "--map", "world", "--output", str(target)])
        assert code == 0
        assert target.read_text(encoding="utf-8").startswith("<?xml")

    def test_render_to_stdout(self, capsys):
        code = main(["render", "--map", "world"])
        assert code == 0
        assert "<svg" in capsys.readouterr().out


class TestPipelineCommands:
    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-dataset")
        code = main(
            [
                "generate",
                str(root),
                "--start",
                "2022-09-11T23:40:00",
                "--end",
                "2022-09-12T00:00:00",
                "--map",
                "asia-pacific",
            ]
        )
        assert code == 0
        return root

    def test_generate_wrote_files(self, dataset_dir):
        assert list(dataset_dir.rglob("*.svg"))
        # Marked so that a 2.x install reads the dataset through its shards.
        assert (dataset_dir / "layout.json").exists()

    def test_process(self, dataset_dir, capsys):
        code = main(["ingest", "run", str(dataset_dir)])
        assert code == 0
        assert capsys.readouterr().out.startswith("ingested ")
        svgs = len(list(dataset_dir.rglob("*.svg")))
        assert len(list(dataset_dir.rglob("*.yaml"))) == svgs

    def test_catalog(self, dataset_dir, capsys):
        code = main(["catalog", str(dataset_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "asia-pacific" in out
        assert "5-minute resolution" in out

    def test_tables(self, dataset_dir, capsys):
        main(["ingest", "run", str(dataset_dir)])
        capsys.readouterr()
        code = main(["tables", str(dataset_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Asia Pacific" in out
        assert "# SVGs" in out

    def test_process_with_workers(self, dataset_dir, capsys):
        code = main(
            ["ingest", "run", str(dataset_dir), "--workers", "2", "--overwrite"]
        )
        assert code == 0
        assert "0 skipped" in capsys.readouterr().out
        # The engine path leaves its incremental manifest behind.
        assert (dataset_dir / "asia-pacific" / "manifest.json").exists()

    def test_index_build_and_status(self, dataset_dir, capsys):
        main(["ingest", "run", str(dataset_dir)])
        capsys.readouterr()
        code = main(["index", "build", str(dataset_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "asia-pacific" in out
        assert "rows" in out
        assert (dataset_dir / "asia-pacific" / "shards" / "manifest.json").exists()
        assert not (dataset_dir / "asia-pacific" / "index.bin").exists()
        code = main(["index", "status", str(dataset_dir)])
        assert code == 0
        assert "fresh" in capsys.readouterr().out

    def test_index_status_stale_exits_nonzero(self, dataset_dir, capsys):
        main(["ingest", "run", str(dataset_dir)])
        main(["index", "build", str(dataset_dir)])
        capsys.readouterr()
        shard = next((dataset_dir / "asia-pacific" / "shards").glob("*/index.bin"))
        shard.write_bytes(b"garbage")
        code = main(["index", "status", str(dataset_dir)])
        assert code == 1
        assert "STALE" in capsys.readouterr().out

    def test_index_build_empty_dataset(self, tmp_path, capsys):
        code = main(["index", "build", str(tmp_path / "empty")])
        assert code == 1

    def test_export_series(self, dataset_dir, tmp_path, capsys):
        main(["ingest", "run", str(dataset_dir)])
        capsys.readouterr()
        target = tmp_path / "series"
        code = main(
            [
                "export",
                str(dataset_dir),
                "--map",
                "asia-pacific",
                "--format",
                "csv",
                "--output-dir",
                str(target),
            ]
        )
        assert code == 0
        written = sorted(target.glob("asia-pacific-*.csv"))
        assert len(written) == len(list(dataset_dir.rglob("*.yaml")))
        assert "wrote" in capsys.readouterr().out


class TestIngestRunCommand:
    """``ingest run`` is the one write command: ``--overwrite`` rebuilds."""

    @pytest.fixture()
    def ingested(self, tmp_path):
        root = tmp_path / "ds"
        assert main(
            [
                "generate", str(root),
                "--start", "2022-09-11T23:45:00",
                "--end", "2022-09-12T00:00:00",
                "--map", "asia-pacific",
            ]
        ) == 0
        assert main(["ingest", "run", str(root), "--workers", "1"]) == 0
        return root

    @staticmethod
    def twins(root):
        """Every YAML twin's bytes, by relative path."""
        return {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*.yaml"))
        }

    def test_overwrite_reparses_every_file_and_rebuilds_the_shards(
        self, ingested, monkeypatch, capsys
    ):
        from repro.dataset import ingest as ingest_module
        from repro.dataset import shards as shards_module

        before = self.twins(ingested)
        assert before
        parsed, compactions = [], []
        process = ingest_module.process_svg_bytes
        compact = shards_module.compact_map_shards

        def counting_process(data, map_name, timestamp, *args, **kwargs):
            parsed.append(timestamp)
            return process(data, map_name, timestamp, *args, **kwargs)

        def recording_compact(store, map_name, **kwargs):
            compactions.append((map_name.value, kwargs.get("rebuild", False)))
            return compact(store, map_name, **kwargs)

        monkeypatch.setattr(ingest_module, "process_svg_bytes", counting_process)
        monkeypatch.setattr(shards_module, "compact_map_shards", recording_compact)
        assert main(["ingest", "run", str(ingested), "--workers", "1"]) == 0
        assert parsed == []
        compactions.clear()
        capsys.readouterr()
        assert main(
            ["ingest", "run", str(ingested), "--workers", "1", "--overwrite"]
        ) == 0
        svgs = list(ingested.rglob("*.svg"))
        assert len(parsed) == len(svgs) > 0
        assert compactions == [("asia-pacific", True)]
        assert capsys.readouterr().out.startswith(f"ingested {len(svgs)} files")
        assert self.twins(ingested) == before
        # The rebuilt shards index the rewritten twins.
        assert main(["index", "status", str(ingested)]) == 0
        assert "fresh" in capsys.readouterr().out

    def test_index_commands_do_not_list_every_twin(self, ingested, monkeypatch, capsys):
        import re

        from repro.dataset.store import DatasetStore

        def outputs():
            runs = []
            for argv in (["index", "build", str(ingested)], ["index", "status", str(ingested)]):
                code = main(argv)
                captured = capsys.readouterr()
                # The build line ends with its wall time, which varies.
                out = re.sub(r"in \d+\.\d+ s", "in - s", captured.out)
                runs.append((code, out, captured.err))
            return runs

        capsys.readouterr()
        expected = outputs()
        assert [code for code, _, _ in expected] == [0, 0]

        def forbidden(self, map_name, kind):
            raise AssertionError("an emptiness test must not list every twin")

        monkeypatch.setattr(DatasetStore, "iter_refs", forbidden)
        assert outputs() == expected


class TestMetricsCommand:
    def test_process_metrics_out_then_render(self, tmp_path, capsys):
        """The acceptance path: --metrics-out, then ``metrics --format prom``."""
        root = tmp_path / "ds"
        assert main(
            [
                "generate", str(root),
                "--start", "2022-09-11T23:50:00",
                "--end", "2022-09-12T00:00:00",
                "--map", "asia-pacific",
            ]
        ) == 0
        metrics_path = tmp_path / "m.json"
        assert main(
            ["ingest", "run", str(root), "--metrics-out", str(metrics_path)]
        ) == 0
        assert metrics_path.exists()
        capsys.readouterr()
        assert main(["metrics", str(metrics_path)]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_files_total counter" in prom
        assert 'repro_files_total{map="asia-pacific",outcome="processed"}' in prom
        assert "# TYPE repro_parse_stage_seconds histogram" in prom
        assert 'le="+Inf"' in prom
        assert "repro_parse_fast_path_total" in prom
        assert main(["metrics", str(metrics_path), "--format", "json"]) == 0
        import json as json_module

        document = json_module.loads(capsys.readouterr().out)
        assert document["version"] == 1

    def test_metrics_unreadable_snapshot_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("nonsense", encoding="utf-8")
        assert main(["metrics", str(bad)]) == 1
        assert capsys.readouterr().err

    def test_metrics_output_file(self, tmp_path, capsys):
        from repro.telemetry import MetricsRegistry, write_metrics_file

        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        source = tmp_path / "m.json"
        write_metrics_file(source, registry)
        target = tmp_path / "m.prom"
        assert main(["metrics", str(source), "--output", str(target)]) == 0
        assert "c_total 2" in target.read_text(encoding="utf-8")


class TestUpgradeCommand:
    def test_upgrade_case_study(self, capsys):
        code = main(["upgrade", "--step-hours", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AMS-IX" in out
        assert "400 -> 500 Gbps" in out
        assert "per-link capacity 100 Gbps" in out


class TestQueryCommand:
    @pytest.fixture()
    def indexed_dataset(self, tmp_path):
        from datetime import datetime, timedelta, timezone

        from repro.constants import MapName
        from repro.dataset.shards import compact_map_shards
        from repro.dataset.store import DatasetStore
        from repro.topology.model import Link, LinkEnd, MapSnapshot, Node
        from repro.yamlio.serialize import snapshot_to_yaml

        store = DatasetStore(tmp_path)
        t0 = datetime(2022, 3, 1, tzinfo=timezone.utc)
        for step in range(4):
            when = t0 + timedelta(minutes=5 * step)
            snapshot = MapSnapshot(map_name=MapName.EUROPE, timestamp=when)
            snapshot.add_node(Node.from_name("fra-r1"))
            snapshot.add_node(Node.from_name("par-r2"))
            snapshot.add_link(
                Link(
                    LinkEnd("fra-r1", "#1", float(20 * step)),
                    LinkEnd("par-r2", "#1", 3.0),
                )
            )
            store.write(MapName.EUROPE, when, "yaml", snapshot_to_yaml(snapshot))
        compact_map_shards(store, MapName.EUROPE)
        return tmp_path

    def test_query_args(self):
        args = build_parser().parse_args(
            ["query", "/tmp/x", "--node", "fra-r1", "--min-load", "25",
             "--link", "a", "b"]
        )
        assert args.node == "fra-r1"
        assert args.min_load == 25.0
        assert args.link == ["a", "b"]
        assert args.limit == 20
        assert args.format == "table"
        for removed in ("--backend", "--no-mmap"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["query", "/tmp/x", removed])

    def test_table_output(self, indexed_dataset, capsys):
        assert main(["query", str(indexed_dataset)]) == 0
        out = capsys.readouterr().out
        assert "4 matching links over 4 snapshots" in out
        assert "mmap source" in out
        assert "fra-r1[#1]" in out

    def test_filters_and_csv(self, indexed_dataset, capsys):
        assert main(
            ["query", str(indexed_dataset), "--min-load", "30", "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("timestamp,node_a")
        assert len(lines) == 1 + 2  # loads 40 and 60 pass the threshold
        assert all("fra-r1" in line for line in lines[1:])

    def test_no_mmap_runs_buffered(self, indexed_dataset, capsys, monkeypatch):
        from repro.dataset import index

        monkeypatch.setattr(index, "_mmap", None)
        assert main(["query", str(indexed_dataset)]) == 0
        assert "buffered source" in capsys.readouterr().out

    def test_missing_index_fails_with_hint(self, tmp_path, capsys):
        assert main(["query", str(tmp_path)]) == 1
        assert "index build" in capsys.readouterr().err

    def test_invalid_predicate_fails(self, indexed_dataset, capsys):
        assert main(
            ["query", str(indexed_dataset), "--min-load", "80", "--max-load", "20"]
        ) == 1
        assert "min_load" in capsys.readouterr().err

    def test_metrics_out(self, indexed_dataset, tmp_path, capsys):
        import json as json_module

        metrics_path = tmp_path / "query-metrics.json"
        assert main(
            ["query", str(indexed_dataset), "--metrics-out", str(metrics_path)]
        ) == 0
        document = json_module.loads(metrics_path.read_text(encoding="utf-8"))
        names = {metric["name"] for metric in document["metrics"]}
        assert "repro_query_scans_total" in names
        assert "repro_query_scan_seconds" in names
