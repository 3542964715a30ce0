"""Tests for the analyze and status CLI subcommands."""

import pytest

from repro.cli.main import main


class TestAnalyze:
    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("analyze-dataset")
        assert (
            main(
                [
                    "generate",
                    str(root),
                    "--start",
                    "2022-09-11T23:30:00",
                    "--end",
                    "2022-09-12T00:00:00",
                    "--map",
                    "world",
                ]
            )
            == 0
        )
        assert main(["ingest", "run", str(root)]) == 0
        return root

    def test_analyze_output(self, dataset_dir, capsys):
        code = main(["analyze", str(dataset_dir), "--map", "world"])
        out = capsys.readouterr().out
        assert code == 0
        assert "snapshots" in out
        assert "router degrees" in out
        assert "link loads" in out

    def test_analyze_empty_dataset(self, dataset_dir, capsys):
        code = main(["analyze", str(dataset_dir), "--map", "europe"])
        assert code == 1
        assert "no processed snapshots" in capsys.readouterr().err

    def test_analyze_missing_directory(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nowhere"), "--map", "world"])
        assert code == 1


class TestStatus:
    def test_status_correlates_everything(self, capsys):
        code = main(["status", "--map", "europe"])
        out = capsys.readouterr().out
        assert code == 0
        assert "structural changes" in out
        assert "100% explained" in out
        assert "UNEXPLAINED" not in out

    def test_status_small_map(self, capsys):
        code = main(["status", "--map", "asia-pacific"])
        assert code == 0
        assert "Asia Pacific" in capsys.readouterr().out
