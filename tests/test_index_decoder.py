"""The index build's column decoder against the object path.

``build_index`` decodes each YAML twin straight into the index's columns
(``_TwinDecoder``) and hands any twin outside its rules to
``try_read_snapshot`` + ``append_snapshot``.  A decoded row must be the
row the object path builds with the ``yaml.load`` fallback forced; a
handed-on twin must leave the index, string tables included, exactly as
it was; and a compacted archive must be byte-identical either way.
"""

from __future__ import annotations

import math
import re
import tracemalloc
from datetime import timedelta, timezone
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.constants import REFERENCE_DATE, MapName
from repro.dataset import index as index_module
from repro.dataset.index import SnapshotIndex, _COLUMNS, _TwinDecoder
from repro.dataset.shards import compact_map_shards
from repro.dataset.store import DatasetStore
from repro.errors import LoadRangeError, SchemaError
from repro.telemetry import MetricsRegistry, use_registry
from repro.yamlio import deserialize
from repro.yamlio.deserialize import snapshot_from_yaml
from repro.yamlio.serialize import snapshot_to_yaml
from tests.test_yamlio_fastpath import _ADVERSARIAL, _LOADS, _MUTATIONS, _mutate, duck_snapshot

MAP = MapName.ASIA_PACIFIC
EPOCH = int(REFERENCE_DATE.timestamp())
#: The ``(size, mtime_ns)`` every row here records; the build takes them from ``stat``.
SIZE, MTIME = 1234, 5678


def state(index: SnapshotIndex) -> dict:
    """Everything a build writes: string tables and every column."""
    return {
        "names": list(index.names),
        "labels": list(index.labels),
        **{attribute: list(getattr(index, attribute)) for attribute, _ in _COLUMNS},
    }


def object_row(index: SnapshotIndex, text: str, epoch: int = EPOCH) -> bool:
    """Append ``text`` the object way with ``yaml.load`` forced; ``False``
    if the object path rejects it."""
    with mock.patch.object(deserialize, "fast_document", lambda text: None):
        try:
            snapshot = snapshot_from_yaml(text)
        except (SchemaError, LoadRangeError):
            return False
    snapshot.timestamp = index_module._when(epoch)
    index.append_snapshot(snapshot, SIZE, MTIME)
    return True


class Pair:
    """One index filled by the decoder and one by the object path."""

    def __init__(self, path, warm: str) -> None:
        self.path = path
        self.decoded = SnapshotIndex(MAP)
        self.expected = SnapshotIndex(MAP)
        self.decoder = _TwinDecoder(self.decoded)
        # A warm row first: the text then meets filled caches and tables.
        assert self.add(warm, EPOCH - 300) == "decoded"

    def add(self, text: str, epoch: int = EPOCH) -> str:
        """Feed ``text`` to both sides; how the decoder took it."""
        self.path.write_text(text, encoding="utf-8")
        before = state(self.decoded)
        decoded = self.decoder.append(self.path, epoch, SIZE, MTIME)
        accepted = object_row(self.expected, text, epoch)
        if decoded:
            assert accepted, "the decoder took a twin the object path rejects"
            assert state(self.decoded) == state(self.expected)
            return "decoded"
        assert state(self.decoded) == before, "a handed-on twin changed the index"
        if accepted:
            # The object path's own row, so both sides go on from one state.
            object_row(self.decoded, text, epoch)
        assert state(self.decoded) == state(self.expected)
        return "handed on"


@pytest.fixture(scope="module")
def twin_path(tmp_path_factory):
    return tmp_path_factory.mktemp("decoder") / "twin.yaml"


# ---------------------------------------------------------------------------
# Generated twins
# ---------------------------------------------------------------------------

_SLUGS = st.from_regex(r"[a-z]{3}(-[a-z0-9]{1,4}){0,2}", fullmatch=True)
_NAMES = st.one_of(st.sampled_from(_ADVERSARIAL), st.text(max_size=12), _SLUGS)
_BAD_STAMPS = ("2022-13-01T00:00:00", "yesterday", "", "12:30", "2022-09-12T10:05:00+25:00")


@st.composite
def near_valid_twins(draw) -> str:
    """Twins that are mostly valid, with every rule broken now and then:
    unknown maps, bad timestamps, names in both lists, unknown or self
    link ends, out-of-range or non-float loads, adversarial names."""
    rarely = st.sampled_from([False] * 15 + [True])
    name = st.builds(lambda odd, slug, other: other if odd else slug, rarely, _SLUGS, _NAMES)
    routers = draw(st.lists(name, min_size=1, max_size=8))
    peerings = draw(st.lists(name.map(str.upper), max_size=4))
    known = st.sampled_from(routers + peerings)
    node = st.builds(lambda odd, node, other: other if odd else node, rarely, known, _NAMES)
    label = st.one_of(st.sampled_from(["#1", "#2", "#10"]), _NAMES)
    load = st.builds(
        lambda odd, load, other: other if odd else load,
        rarely, st.floats(min_value=0.0, max_value=100.0), _LOADS,
    )
    links = draw(st.lists(st.tuples(node, label, load, node, label, load), max_size=6))
    maps = st.sampled_from([m.value for m in MapName])
    map_value = draw(_NAMES if draw(rarely) else maps)
    when = draw(st.datetimes(timezones=st.just(timezone.utc)))
    text = snapshot_to_yaml(duck_snapshot(map_value, when, routers, peerings, links))
    stamp = draw(st.sampled_from(_BAD_STAMPS)) if draw(rarely) else None
    if stamp is not None:
        text = re.sub(r"^timestamp: .*$", f"timestamp: '{stamp}'", text, count=1, flags=re.M)
    return text


class TestDifferential:
    @given(text=near_valid_twins())
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_generated_twins(self, twin_path, engine_twins, text):
        pair = Pair(twin_path, engine_twins[MAP])
        pair.add(text)
        pair.add(text, EPOCH + 300)  # again, through the filled caches

    @given(
        map_name=st.sampled_from([MapName.ASIA_PACIFIC, MapName.WORLD]),
        kind=st.sampled_from(_MUTATIONS),
        i=st.integers(min_value=0, max_value=10**6),
        j=st.integers(min_value=0, max_value=10**6),
    )
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_mutated_engine_twins(self, twin_path, engine_twins, map_name, kind, i, j):
        pair = Pair(twin_path, engine_twins[map_name])
        pair.add(_mutate(engine_twins[map_name], kind, i, j))

    @pytest.mark.parametrize("map_name", list(MapName))
    def test_engine_twins_decode(self, twin_path, engine_twins, map_name):
        pair = Pair(twin_path, engine_twins[map_name])
        assert pair.add(engine_twins[map_name]) == "decoded"

    @pytest.mark.parametrize(
        "edit",
        [
            ("map: asia-pacific", "map: mars"),
            ("timestamp: '", "timestamp: '2022-13-"),
            ("peerings: [", "peerings: [{router}, "),
            ("- a: {{node: {a}", "- a: {{node: {b}"),
            ("- a: {{node: {a}", "- a: {{node: nowhere-r1"),
            ("- a: {{node: {a}", "- a: {{node: ''"),
            ("load: {load}", "load: 150.0"),
            ("load: {load}", "load: -0.5"),
            ("load: {load}", "load: 7"),
            ("label: ", "label: yes, x: "),
        ],
        ids=[
            "unknown-map", "bad-timestamp", "router-and-peering", "self-link",
            "unknown-node", "empty-node", "load-above-100", "negative-load", "int-load",
            "extra-key",
        ],
    )
    def test_each_rule_hands_the_twin_on(self, twin_path, engine_twins, edit):
        text = engine_twins[MAP]
        first = re.search(r"- a: \{node: ([^,]+), label: [^,]+, load: ([^}]+)\}\n"
                          r"  b: \{node: ([^,]+),", text)
        a, load, b = first.group(1), first.group(2), first.group(3)
        router = re.search(r"routers: \[([^,\]]+)", text).group(1)
        old, new = (part.format(a=a, b=b, load=load, router=router) for part in edit)
        assert old in text
        pair = Pair(twin_path, engine_twins[MAP])
        assert pair.add(text.replace(old, new, 1)) == "handed on"

    @pytest.mark.parametrize(
        "routers, link",
        [
            (["fra-r1", "par-r2"], ("fra-r1", "zrh-r3")),  # a node of the warm twin only
            (["", "fra-r1"], ("fra-r1", "")),  # an empty name may be a node, not a link end
        ],
        ids=["node-of-another-twin", "empty-name-node"],
    )
    def test_link_ends_are_non_empty_nodes_of_their_twin(self, twin_path, routers, link):
        def twin(names, ends):
            a, b = ends
            return snapshot_to_yaml(
                duck_snapshot("europe", REFERENCE_DATE, names, [], [(a, "#1", 1.0, b, "#1", 2.0)])
            )

        pair = Pair(twin_path, twin(["", "fra-r1", "par-r2", "zrh-r3"], ("fra-r1", "zrh-r3")))
        assert pair.add(twin(routers, link)) == "handed on"

    def test_a_handed_on_twin_leaves_no_new_string(self, twin_path, engine_twins):
        pair = Pair(twin_path, engine_twins[MAP])
        # New names and labels are interned before the last link breaks a rule.
        text = engine_twins[MAP].replace("routers: [", "routers: [aaa-new1, zzz-new2, ", 1)
        text = text.replace("label: '#1'", "label: '#new'", 1)
        text = re.sub(r"load: [^}]+\}\n$", "load: 150.0}\n", text)
        names, labels = len(pair.decoded.names), len(pair.decoded.labels)
        assert pair.add(text) == "handed on"
        assert (len(pair.decoded.names), len(pair.decoded.labels)) == (names, labels)
        assert pair.add(engine_twins[MAP], EPOCH + 300) == "decoded"


class TestCaches:
    def test_caches_are_bounded(self, twin_path, monkeypatch):
        monkeypatch.setattr(deserialize, "_CACHE_LIMIT", 8)
        index, expected = SnapshotIndex(MAP), SnapshotIndex(MAP)
        decoder = _TwinDecoder(index)
        for i in range(40):
            routers = [f"r{i}-{k}" for k in range(4)]
            links = [(f"r{i}-0", f"#{i}", i + 0.5, f"r{i}-1", "#1", i + 0.25),
                     (f"r{(i + 1) % 4}-1", "#1", 0.0, f"r{i}-2", f"#{i}", math.pi)]
            links = [link for link in links if link[0] in routers]
            text = snapshot_to_yaml(duck_snapshot("europe", REFERENCE_DATE, routers, [], links))
            twin_path.write_text(text, encoding="utf-8")
            assert decoder.append(twin_path, EPOCH + i, SIZE, MTIME)
            assert object_row(expected, text, EPOCH + i)
            assert all(len(cache) <= 9 for cache in (decoder._nodes, decoder._labels, decoder._loads))
        assert state(index) == state(expected)

    def test_decoding_a_europe_run_keeps_memory_bounded(self, tmp_path, europe_reference):
        """Decoding holds one twin's text and one link's tokens at a time:
        past the columns it keeps, its peak stays under 1 MiB."""
        text = snapshot_to_yaml(europe_reference)
        assert len(text) > 100_000
        paths = []
        for i in range(12):
            paths.append(tmp_path / f"twin-{i}.yaml")
            paths[-1].write_text(text, encoding="utf-8")
        index = SnapshotIndex(MapName.EUROPE)
        decoder = _TwinDecoder(index)
        assert decoder.append(paths[0], EPOCH, SIZE, MTIME)  # warm the caches
        tracemalloc.start()
        try:
            for i, path in enumerate(paths[1:], start=1):
                assert decoder.append(path, EPOCH + 300 * i, SIZE, MTIME)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(index.link_counts) > 12 * 1000
        assert peak - kept < 1 << 20


# ---------------------------------------------------------------------------
# A mixed archive, compacted both ways
# ---------------------------------------------------------------------------


class TestMixedArchive:
    @pytest.fixture()
    def store(self, tmp_path, engine_twins, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        store = DatasetStore(tmp_path)
        text = engine_twins[MAP]
        day = REFERENCE_DATE.replace(hour=0, minute=0)
        bad = {
            1: _mutate(text, "comment-line", 3, 0),
            2: re.sub(r"load: [^,}]+", "load: 150.0", text, count=1),
            3: b"\xff\xfe" + text.encode("utf-8"),
            4: _mutate(text, "truncate", 4000, 0),
            6: _mutate(text, "single-to-double", 3, 0),
            8: _mutate(text, "drop", 5, 0),
            9: text.replace("map: asia-pacific", "map: mars", 1),
        }
        for shard in range(3):
            for slot in range(6):
                when = day + timedelta(days=shard, minutes=5 * slot)
                store.write(MAP, when, "yaml", bad.get(shard * 6 + slot, text))
        return store

    def compacted(self, store, workers):
        errors = []
        compact_map_shards(
            store, MAP, rebuild=True, workers=workers,
            on_error=lambda ref, exc: errors.append((ref.timestamp, type(exc), str(exc))),
        )
        files = {
            key: store.shard_index_path(MAP, key).read_bytes()
            for key in store.shard_keys(MAP, "yaml")
        }
        return files, errors

    def test_index_bin_identical_to_the_object_path(self, store, monkeypatch):
        outputs = [self.compacted(store, workers) for workers in (1, 2)]
        with monkeypatch.context() as patch:
            patch.setattr(_TwinDecoder, "append", lambda self, *args: False)
            forced = self.compacted(store, 1)
        assert len(forced[0]) == 3
        assert len(forced[1]) >= 4  # out of range, not UTF-8, truncated, unknown map
        assert outputs[0] == forced
        assert outputs[1] == forced

    def test_every_twin_is_counted_once(self, store):
        with use_registry(MetricsRegistry()) as registry:
            _, errors = self.compacted(store, 1)
        docs = registry.get("repro_yaml_docs_total").value(op="deserialize")
        fast_path = registry.get("repro_yaml_fast_path_total")
        readable = 18 - len(errors)
        assert docs == readable
        # The non-UTF-8 twin never reaches a reader; every other twin is
        # one hit or one fallback.
        hits, fallbacks = fast_path.value(outcome="hit"), fast_path.value(outcome="fallback")
        assert hits + fallbacks == 17
        assert fallbacks >= 1
