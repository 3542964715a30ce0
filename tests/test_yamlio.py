"""Unit tests for YAML serialisation of snapshots."""

from datetime import datetime, timezone

import pytest

from repro.constants import MapName
from repro.errors import SchemaError
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node
from repro.yamlio.deserialize import read_snapshot, snapshot_from_yaml
from repro.yamlio.serialize import snapshot_to_yaml, write_snapshot

NOW = datetime(2022, 9, 12, 10, 5, tzinfo=timezone.utc)


def _snapshot() -> MapSnapshot:
    snapshot = MapSnapshot(map_name=MapName.EUROPE, timestamp=NOW)
    for name in ("fra-r1", "par-r2", "AMS-IX"):
        snapshot.add_node(Node.from_name(name))
    snapshot.add_link(Link(LinkEnd("fra-r1", "#1", 42), LinkEnd("par-r2", "#1", 9)))
    snapshot.add_link(Link(LinkEnd("par-r2", "#1", 30), LinkEnd("AMS-IX", "#1", 5)))
    return snapshot


class TestRoundTrip:
    def test_counts_preserved(self):
        restored = snapshot_from_yaml(snapshot_to_yaml(_snapshot()))
        assert restored.summary_counts() == _snapshot().summary_counts()

    def test_loads_preserved(self):
        restored = snapshot_from_yaml(snapshot_to_yaml(_snapshot()))
        assert restored.links[0].a.load == 42

    def test_labels_preserved(self):
        restored = snapshot_from_yaml(snapshot_to_yaml(_snapshot()))
        assert restored.links[0].a.label == "#1"

    def test_timestamp_preserved(self):
        restored = snapshot_from_yaml(snapshot_to_yaml(_snapshot()))
        assert restored.timestamp == NOW

    def test_map_name_preserved(self):
        restored = snapshot_from_yaml(snapshot_to_yaml(_snapshot()))
        assert restored.map_name is MapName.EUROPE

    def test_node_kinds_preserved(self):
        restored = snapshot_from_yaml(snapshot_to_yaml(_snapshot()))
        assert restored.nodes["AMS-IX"].is_peering
        assert restored.nodes["fra-r1"].is_router

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "snap.yaml"
        size = write_snapshot(_snapshot(), path)
        assert size == path.stat().st_size
        assert read_snapshot(path).summary_counts() == (2, 1, 1)


class TestSchemaValidation:
    def test_invalid_yaml(self):
        with pytest.raises(SchemaError):
            snapshot_from_yaml("links: [unclosed")

    def test_non_mapping_root(self):
        with pytest.raises(SchemaError):
            snapshot_from_yaml("- a\n- b\n")

    def test_missing_map(self):
        with pytest.raises(SchemaError):
            snapshot_from_yaml("timestamp: '2022-01-01T00:00:00+00:00'\nrouters: []\npeerings: []\nlinks: []\n")

    def test_unknown_map(self):
        text = snapshot_to_yaml(_snapshot()).replace("europe", "mars")
        with pytest.raises(SchemaError):
            snapshot_from_yaml(text)

    def test_bad_timestamp(self):
        text = snapshot_to_yaml(_snapshot()).replace(NOW.isoformat(), "yesterday-ish")
        with pytest.raises(SchemaError):
            snapshot_from_yaml(text)

    def test_link_missing_end(self):
        text = (
            "map: europe\ntimestamp: '2022-01-01T00:00:00+00:00'\n"
            "routers: [r1, r2]\npeerings: []\n"
            "links:\n- a: {node: r1, label: '#1', load: 5}\n"
        )
        with pytest.raises(SchemaError):
            snapshot_from_yaml(text)

    def test_link_load_out_of_range_propagates(self):
        from repro.errors import LoadRangeError

        text = (
            "map: europe\ntimestamp: '2022-01-01T00:00:00+00:00'\n"
            "routers: [r1, r2]\npeerings: []\n"
            "links:\n"
            "- a: {node: r1, label: '#1', load: 500}\n"
            "  b: {node: r2, label: '#1', load: 5}\n"
        )
        with pytest.raises(LoadRangeError):
            snapshot_from_yaml(text)

    def test_boolean_load_rejected(self):
        text = (
            "map: europe\ntimestamp: '2022-01-01T00:00:00+00:00'\n"
            "routers: [r1, r2]\npeerings: []\n"
            "links:\n"
            "- a: {node: r1, label: '#1', load: true}\n"
            "  b: {node: r2, label: '#1', load: 5}\n"
        )
        with pytest.raises(SchemaError):
            snapshot_from_yaml(text)

    def test_non_string_router_name(self):
        text = (
            "map: europe\ntimestamp: '2022-01-01T00:00:00+00:00'\n"
            "routers: [42]\npeerings: []\nlinks: []\n"
        )
        with pytest.raises(SchemaError):
            snapshot_from_yaml(text)


class TestLibyamlEquivalence:
    """The accelerated (libyaml) code paths must be drop-in equivalent.

    When PyYAML was built without its C extension the aliases already
    point at the pure-Python classes and these assertions are trivially
    true — the contract is that callers can never tell which one ran.
    """

    def test_dump_byte_identical_to_pure_python(self, monkeypatch):
        import yaml

        from repro.yamlio import serialize

        accelerated = snapshot_to_yaml(_snapshot())
        monkeypatch.setattr(serialize, "_DUMPER", yaml.SafeDumper)
        assert snapshot_to_yaml(_snapshot()) == accelerated

    @staticmethod
    def _force_fallback(monkeypatch):
        """Send every document to ``yaml.load``, whatever its layout.

        Canonical text would otherwise never reach ``_LOADER``: the fast
        reader builds its document first.
        """
        from repro.yamlio import deserialize

        monkeypatch.setattr(deserialize, "fast_document", lambda text: None)

    def test_load_matches_pure_python(self, monkeypatch):
        import yaml

        from repro.yamlio import deserialize

        text = snapshot_to_yaml(_snapshot())
        self._force_fallback(monkeypatch)
        accelerated = snapshot_from_yaml(text)
        monkeypatch.setattr(deserialize, "_LOADER", yaml.SafeLoader)
        assert snapshot_from_yaml(text) == accelerated

    def test_parse_errors_identical(self, monkeypatch):
        import yaml

        from repro.yamlio import deserialize

        text = snapshot_to_yaml(_snapshot()).replace("links:", "links: [unclosed", 1)
        self._force_fallback(monkeypatch)
        with pytest.raises(SchemaError, match="invalid YAML"):
            snapshot_from_yaml(text)
        monkeypatch.setattr(deserialize, "_LOADER", yaml.SafeLoader)
        with pytest.raises(SchemaError, match="invalid YAML"):
            snapshot_from_yaml(text)


class TestCompactness:
    def test_yaml_much_smaller_than_svg(self, apac_reference, apac_svg):
        # Table 2: the processed YAMLs are roughly 8x smaller than SVGs.
        yaml_text = snapshot_to_yaml(apac_reference)
        assert len(yaml_text) * 3 < len(apac_svg)

    def test_full_snapshot_round_trip(self, apac_reference):
        restored = snapshot_from_yaml(snapshot_to_yaml(apac_reference))
        assert restored.summary_counts() == apac_reference.summary_counts()
        assert len(restored.links) == len(apac_reference.links)
