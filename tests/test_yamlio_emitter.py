"""The direct YAML emitter against ``yaml.dump``, its oracle and fallback.

``snapshot_to_yaml`` must write exactly the text ``yaml.dump`` writes for
the snapshot's document, byte for byte, whether it formats the text
itself or leaves it to ``yaml.dump``, and must raise a ``SchemaError``
naming the field when YAML cannot represent a value.  Source mutants of
the emitter check that these inputs are sharp enough to notice a wrong
wrap column, quoting or resolver check.
"""

from __future__ import annotations

import math
import types
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy
import pytest
import yaml
from hypothesis import given, settings

from repro.constants import REFERENCE_DATE, MapName
from repro.errors import SchemaError
from repro.telemetry import MetricsRegistry, use_registry
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node
from repro.yamlio import serialize
from repro.yamlio.deserialize import snapshot_from_yaml
from repro.yamlio.serialize import snapshot_to_document, snapshot_to_yaml
from tests.test_yamlio_fastpath import _ADVERSARIAL, duck_snapshot, duck_snapshots


def _oracle(snapshot):
    """What a caller must see: ``yaml.dump``'s text, or a ``SchemaError``."""
    try:
        return yaml.dump(
            snapshot_to_document(snapshot),
            Dumper=serialize._DUMPER,
            sort_keys=False,
            default_flow_style=None,
            width=120,
        )
    except yaml.representer.RepresenterError:
        return SchemaError


def _observed(module, snapshot):
    try:
        return module.snapshot_to_yaml(snapshot)
    except SchemaError:
        return SchemaError


def _outcomes(snapshots) -> tuple[float, float]:
    """``(direct, fallback)`` emits over ``snapshots``, each checked."""
    registry = MetricsRegistry()
    with use_registry(registry):
        for snapshot in snapshots:
            assert _observed(serialize, snapshot) == _oracle(snapshot)
    counter = registry.get("repro_yaml_emit_total")
    return counter.value(outcome="direct"), counter.value(outcome="fallback")


def _list_snapshot(routers, peerings=()):
    return duck_snapshot("europe", REFERENCE_DATE, routers, peerings, [])


def _link_snapshot(node, label, load=42.0):
    return duck_snapshot(
        "europe", REFERENCE_DATE, [node, "b"], [], [(node, label, load, "b", "#1", 0.5)]
    )


def _wrap_snapshots():
    """Flow lists whose ``,`` lands on each column around the width.

    ``routers: [`` ends at column 10, so a first name of ``column - 11``
    characters puts the first comma at ``column``.
    """
    for column in range(117, 125):
        first = "r" * (column - 11)
        yield _list_snapshot([first, "s1", "s2"])
        yield _list_snapshot(["a", "b"], [first.upper(), "T"])
    yield _list_snapshot([f"rbx-g{i}-nc{i}" for i in range(60)])
    yield _list_snapshot([f"n{'x' * (i % 13)}{i}" for i in range(200)])


def _link_width_snapshot(column):
    """A link whose ``- a: {node: …, label: '#1',`` ends at ``column``."""
    return _link_snapshot("n" * (column - 22 - len("'#1'")), "#1")


def _name_snapshots():
    """Each adversarial name alone, in a list and in a link."""
    for name in _ADVERSARIAL:
        yield _list_snapshot(["a", name, "z"])
        yield _link_snapshot("fra-r1", name)
        yield duck_snapshot(name, REFERENCE_DATE, [], [], [])


_LOADS = (0.0, -0.0, 0.1, 0.1 + 0.2, 42.0, 99.99999999999999, 1e-5, 1.5e-7, 1e16,
          1e17, 12345678901234.5, math.nan, math.inf, -math.inf, 7, True, numpy.float64(12.5))


def _load_snapshots():
    for load in _LOADS:
        yield _link_snapshot("fra-r1", "#1", load)


def _fixed_snapshots():
    yield from _wrap_snapshots()
    yield from (_link_width_snapshot(column) for column in range(117, 125))
    yield from _name_snapshots()
    yield from _load_snapshots()


class TestOracle:
    @given(duck_snapshots())
    @settings(max_examples=400, deadline=None)
    def test_hypothesis_snapshots_match_yaml_dump(self, snapshot):
        assert _observed(serialize, snapshot) == _oracle(snapshot)

    def test_engine_twins_are_written_directly(self, engine_twins, engine_snapshots):
        registry = MetricsRegistry()
        with use_registry(registry):
            for snapshot, text in zip(engine_snapshots, engine_twins.values()):
                assert snapshot_to_yaml(snapshot) == text == _oracle(snapshot)
        emits = registry.get("repro_yaml_emit_total")
        assert emits.value(outcome="direct") == len(MapName)
        assert emits.value(outcome="fallback") == 0
        docs = registry.get("repro_yaml_docs_total")
        assert docs.value(op="serialize") == len(MapName)

    def test_wrapped_lists(self):
        assert _outcomes(list(_wrap_snapshots()))[1] == 0
        assert ",\n  " in snapshot_to_yaml(_list_snapshot(["r" * 110, "s1"]))

    def test_link_lines_fall_back_exactly_when_they_would_wrap(self):
        assert _outcomes([_link_width_snapshot(120)]) == (1, 0)
        assert _outcomes([_link_width_snapshot(121)]) == (0, 1)

    def test_adversarial_names(self):
        direct, fallback = _outcomes(list(_name_snapshots()))
        assert direct and fallback

    def test_loads(self):
        # 0.0, -0.0, 0.1, 0.1 + 0.2, 42.0, 99.99…, 12345678901234.5
        assert _outcomes(list(_load_snapshots()))[0] == 7

    @pytest.mark.parametrize("hours", [0, 5, -3])
    def test_timestamps(self, hours):
        when = datetime(2022, 9, 12, 10, 5, 7, 123456, tzinfo=timezone(timedelta(hours=hours)))
        snapshot = duck_snapshot("world", when, ["a"], ["B"], [("a", "#1", 1.0, "B", "#2", 2.0)])
        assert _outcomes([snapshot]) == (1, 0)

    def test_one_document_counted_per_fallback(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            snapshot_to_yaml(_list_snapshot(["a b"]))
        assert registry.get("repro_yaml_docs_total").value(op="serialize") == 1
        assert registry.get("repro_yaml_emit_total").value(outcome="fallback") == 1


class TestUnrepresentable:
    @staticmethod
    def _numpy_load_snapshot() -> MapSnapshot:
        snapshot = MapSnapshot(map_name=MapName.EUROPE, timestamp=REFERENCE_DATE)
        for name in ("fra-r1", "par-r2"):
            snapshot.add_node(Node.from_name(name))
        snapshot.add_link(
            Link(LinkEnd("fra-r1", "#1", 1.0), LinkEnd("par-r2", "#1", numpy.float64(12.5)))
        )
        return snapshot

    def test_schema_error_names_the_field(self):
        registry = MetricsRegistry()
        with use_registry(registry), pytest.raises(SchemaError, match=r"'links\[0\]\.b\.load'.*float64"):
            snapshot_to_yaml(self._numpy_load_snapshot())
        assert registry.get("repro_yaml_docs_total") is None

    def test_schema_error_on_the_fallback_path_too(self):
        with pytest.raises(SchemaError, match=r"'links\[0\]\.b\.load'"):
            serialize._dump(self._numpy_load_snapshot())

    def test_unrepresentable_name(self):
        snapshot = _list_snapshot(["a", numpy.str_("b")])
        with pytest.raises(SchemaError, match=r"'routers\[1\]'.*str_"):
            snapshot_to_yaml(snapshot)


# ---------------------------------------------------------------------------
# Mutants: the inputs above must notice each edit to the emitter's source
# ---------------------------------------------------------------------------

_MUTANTS = {
    "wrap-at-119": ("_WIDTH = 120", "_WIDTH = 119"),
    "wrap-at-121": ("_WIDTH = 120", "_WIDTH = 121"),
    "no-quote-doubling": ('value.replace("\'", "\'\'")', "value"),
    # ``str`` is ``repr`` for an exact float, so the mutant also widens the
    # type check to float subclasses, whose ``str`` differs.
    "str-for-repr": (
        "if type(load) is not float:\n        return None\n    text = repr(load)",
        "if not isinstance(load, float):\n        return None\n    text = str(load)",
    ),
    "no-resolver-check": (
        "_RESOLVER.resolve(\n        ScalarNode, value, (True, False)\n    ) != _STR_TAG",
        "False",
    ),
    "no-indicator-check": ("(flow and value[0] in _INDICATORS) or ", ""),
    "link-wrap-late": ("+ 22 > _WIDTH", "+ 21 > _WIDTH"),
}


def _mutant(name: str) -> types.ModuleType:
    """A private copy of the emitter module with one source edit."""
    before, after = _MUTANTS[name]
    source = Path(serialize.__file__).read_text(encoding="utf-8")
    assert source.count(before) == 1, f"mutant {name} no longer applies"
    module = types.ModuleType(f"mutant_{name.replace('-', '_')}")
    exec(compile(source.replace(before, after), serialize.__file__, "exec"), module.__dict__)
    return module


def _caught(module, engine_snapshots, fixed_snapshots) -> bool:
    """Whether ``module`` sends an engine twin to ``yaml.dump`` or gets
    any fixed input wrong."""
    registry = MetricsRegistry()
    with use_registry(registry):
        for snapshot in engine_snapshots:
            module.snapshot_to_yaml(snapshot)
    if registry.get("repro_yaml_emit_total").value(outcome="fallback"):
        return True
    return any(_observed(module, s) != _oracle(s) for s in fixed_snapshots)


@pytest.fixture(scope="module")
def engine_snapshots(engine_twins):
    return [snapshot_from_yaml(text) for text in engine_twins.values()]


@pytest.fixture(scope="module")
def fixed_snapshots(engine_snapshots):
    return [*engine_snapshots, *_fixed_snapshots()]


def test_unmutated_emitter_passes(engine_snapshots, fixed_snapshots):
    assert not _caught(serialize, engine_snapshots, fixed_snapshots)


@pytest.mark.parametrize("name", list(_MUTANTS))
def test_mutant_is_caught(engine_snapshots, fixed_snapshots, name):
    assert _caught(_mutant(name), engine_snapshots, fixed_snapshots)
