"""Tests for the crawl and export CLI subcommands."""

import pytest

from repro.cli.main import main


@pytest.fixture(scope="module")
def crawled(tmp_path_factory):
    root = tmp_path_factory.mktemp("crawl")
    code = main(
        [
            "crawl",
            str(root),
            "--start",
            "2022-09-11T23:40:00",
            "--end",
            "2022-09-12T00:00:00",
            "--map",
            "world",
            "--no-backfill",
        ]
    )
    assert code == 0
    assert main(["ingest", "run", str(root)]) == 0
    return root


class TestCrawl:
    def test_documents_stored(self, crawled):
        assert list(crawled.rglob("*.svg"))

    def test_backfill_pulls_archive(self, tmp_path, capsys):
        code = main(
            [
                "crawl",
                str(tmp_path),
                "--start",
                "2022-09-11T02:00:00",
                "--end",
                "2022-09-11T02:10:00",
                "--map",
                "world",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backfilled" in out
        # Two hours of same-day archive (00:00, 01:00) recovered.
        svgs = sorted(p.name for p in tmp_path.rglob("*.svg"))
        assert any("T000000Z" in name for name in svgs)
        assert any("T010000Z" in name for name in svgs)


class TestExport:
    def test_graphml_stdout(self, crawled, capsys):
        code = main(["export", str(crawled), "--map", "world"])
        assert code == 0
        assert "graphml" in capsys.readouterr().out

    def test_csv_file(self, crawled, tmp_path, capsys):
        target = tmp_path / "links.csv"
        code = main(
            [
                "export",
                str(crawled),
                "--map",
                "world",
                "--format",
                "csv",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        assert target.read_text(encoding="utf-8").startswith("node_a,")

    def test_empty_map_errors(self, crawled, capsys):
        code = main(["export", str(crawled), "--map", "europe"])
        assert code == 1

    def test_graphml_round_trips(self, crawled):
        from repro.topology.export import from_graphml
        from repro.dataset.loader import latest_snapshot
        from repro.dataset.store import DatasetStore
        from repro.constants import MapName
        from repro.topology.export import to_graphml

        snapshot = latest_snapshot(DatasetStore(crawled), MapName.WORLD)
        restored = from_graphml(to_graphml(snapshot))
        assert restored.summary_counts() == snapshot.summary_counts()


class TestArchiveCli:
    def test_pack_and_unpack(self, crawled, tmp_path, capsys):
        code = main(
            ["archive", str(crawled), "--output", str(tmp_path / "bundles")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "world-svg" in out and "world-yaml" in out

        bundle = next((tmp_path / "bundles").glob("world-yaml-*.tar.gz"))
        code = main(
            ["archive", str(tmp_path / "restored"), "--unpack", str(bundle)]
        )
        assert code == 0
        assert list((tmp_path / "restored").rglob("*.yaml"))

    def test_pack_empty_dataset_errors(self, tmp_path, capsys):
        code = main(
            ["archive", str(tmp_path / "void"), "--output", str(tmp_path / "b")]
        )
        assert code == 1
