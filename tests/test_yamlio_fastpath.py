"""The fast YAML reader against ``yaml.load``, its oracle and fallback.

``fast_document`` must build exactly the document ``yaml.load`` builds,
type for type, or step aside with ``None``.  ``snapshot_from_yaml`` must
then give the same snapshot, or the same exception type and message, as
when the fallback is forced.
"""

from __future__ import annotations

import math
import re
from datetime import timedelta, timezone
from types import SimpleNamespace
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from repro.constants import REFERENCE_DATE, MapName
from repro.dataset.processor import process_svg_bytes
from repro.layout.renderer import MapRenderer
from repro.telemetry import MetricsRegistry, use_registry
from repro.yamlio import deserialize
from repro.yamlio.deserialize import fast_document, snapshot_from_yaml
from repro.yamlio.serialize import snapshot_to_yaml


def _typed(value):
    """``value`` with every type spelled out, so ``-0.0`` differs from ``0.0``."""
    if isinstance(value, dict):
        return ("dict", [(_typed(key), _typed(item)) for key, item in value.items()])
    if isinstance(value, list):
        return ("list", [_typed(item) for item in value])
    if isinstance(value, float):
        return ("float", "nan" if math.isnan(value) else repr(value))
    return (type(value).__name__, value)


def _yaml_load(text: str):
    return yaml.load(text, Loader=deserialize._LOADER)


def _twin(map_value, when, routers, peerings, links) -> str:
    """``snapshot_to_yaml`` of a duck-typed snapshot.

    A real ``MapSnapshot`` rejects the names and loads these tests need
    (``nan``, empty names, ...); the emitter only reads attributes.
    """
    return snapshot_to_yaml(
        SimpleNamespace(
            map_name=SimpleNamespace(value=map_value),
            timestamp=when,
            routers=[SimpleNamespace(name=name) for name in routers],
            peerings=[SimpleNamespace(name=name) for name in peerings],
            links=[
                SimpleNamespace(
                    a=SimpleNamespace(node=a, label=label_a, load=load_a),
                    b=SimpleNamespace(node=b, label=label_b, load=load_b),
                )
                for a, label_a, load_a, b, label_b, load_b in links
            ],
        )
    )


_ADVERSARIAL = (
    "yes", "No", "null", "~", "1e3", "0x1F", "0o17", "1_000", "12:30", "#x",
    "a: b", "a #b", "a#b", "it's", 'say "hi"', "'q'", '"dq"', "Zürich", "東京",
    "", " ", " lead", "trail ", "a  b", "a\tb", "two\nlines", "-", "- x",
    "-x", "[x]", "{x}", "a, b", "?q", "&anchor", "*alias", "!tag", "%pct",
    "@at", "`tick`", "|pipe", ">fold", "=", "<<", ".inf", ".5", "-.5", "+1",
    "...", "---", "a\\b", "\x85", " ", "﻿", "\U0001f600",
    "fra-fr5-pb6-nc5", "AMS-IX", "x" * 130, "long name " * 14,
)
_NAMES = st.one_of(
    st.sampled_from(_ADVERSARIAL),
    st.text(max_size=24),
    st.from_regex(r"[a-z]{3}(-[a-z0-9]{1,6}){0,4}", fullmatch=True),
)
_LOADS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.sampled_from(
        (0.0, -0.0, 1e17, 1e16, 1e-5, 42.0, 0.1, math.nan, math.inf, -math.inf, 7, True)
    ),
)


@st.composite
def _twins(draw) -> str:
    return _twin(
        draw(st.one_of(st.sampled_from([m.value for m in MapName]), _NAMES)),
        draw(st.datetimes(timezones=st.just(timezone.utc))),
        draw(st.lists(_NAMES, max_size=14)),
        draw(st.lists(_NAMES, max_size=6)),
        draw(st.lists(st.tuples(_NAMES, _NAMES, _LOADS, _NAMES, _NAMES, _LOADS), max_size=5)),
    )


class TestDocuments:
    @given(_twins())
    @settings(max_examples=400, deadline=None)
    def test_fast_document_is_none_or_the_yaml_load_document(self, text):
        fast = fast_document(text)
        if fast is not None:
            assert _typed(fast) == _typed(_yaml_load(text))

    def test_quoted_adversarial_names_take_the_fast_path(self):
        names = ["yes", "null", "~", "0x1F", "#x", "a: b", "it's", 'say "hi"',
                 "Zürich", "", "a\tb", "\U0001f600", "1e3", "a#b"]
        text = _twin("europe", REFERENCE_DATE, names, ["AMS-IX"],
                     [("1e3", "#1", 42.0, "a#b", "", -0.0)])
        fast = fast_document(text)
        assert fast is not None
        assert _typed(fast) == _typed(_yaml_load(text))

    def test_wrapped_lists_take_the_fast_path(self):
        routers = [f"rbx-g{i}-nc{i}" for i in range(40)]
        text = _twin("europe", REFERENCE_DATE, routers, [], [])
        assert ",\n  " in text
        fast = fast_document(text)
        assert fast is not None and fast["routers"] == sorted(routers)
        assert fast["links"] == []

    @pytest.mark.parametrize("load", [7, 1e17, 1e-5, math.nan, math.inf, True])
    def test_loads_outside_repr_form_fall_back(self, load):
        text = _twin("europe", REFERENCE_DATE, ["a", "b"], [], [("a", "#1", load, "b", "#1", 1.0)])
        assert fast_document(text) is None

    def test_non_string_plain_scalars_fall_back(self):
        text = _twin("europe", REFERENCE_DATE, ["a", "b"], [], [])
        assert fast_document(text.replace("[a, b]", "[a, yes]")) is None
        assert fast_document(text.replace("[a, b]", "[a, 12]")) is None

    def test_caches_are_bounded(self, monkeypatch):
        monkeypatch.setattr(deserialize, "_CACHE_LIMIT", 8)
        for i in range(40):
            text = _twin("europe", REFERENCE_DATE, [f"r{i}-{k}" for k in range(4)], [],
                         [(f"r{i}-0", f"#{i}", i + 0.5, f"r{i}-1", "#1", i + 0.25)])
            assert fast_document(text) is not None
            assert len(deserialize._SCALAR_CACHE) <= 9
            assert len(deserialize._LOAD_CACHE) <= 9


# ---------------------------------------------------------------------------
# Twins written by the engine, and mutations of them
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine_twins(simulator) -> dict[MapName, str]:
    """One YAML twin per map, made the way the engine makes them."""
    twins = {}
    for offset, map_name in enumerate(MapName):
        when = REFERENCE_DATE - timedelta(days=offset)
        svg = MapRenderer().render(simulator.snapshot(map_name, when))
        outcome = process_svg_bytes(svg.encode("utf-8"), map_name, when)
        assert outcome.ok, outcome.failure_message
        twins[map_name] = outcome.yaml_text
    return twins


def test_every_engine_twin_takes_the_fast_path(engine_twins):
    registry = MetricsRegistry()
    with use_registry(registry):
        for text in engine_twins.values():
            assert _typed(fast_document(text)) == _typed(_yaml_load(text))
            snapshot_from_yaml(text)
    counter = registry.get("repro_yaml_fast_path_total")
    assert counter.value(outcome="hit") == len(MapName)
    assert counter.value(outcome="fallback") == 0


def _observed(text: str):
    """What a caller sees: the snapshot, or the exception type and message."""
    try:
        return ("ok", snapshot_from_yaml(text))
    except Exception as exc:  # the comparison is the point of the test
        return ("error", type(exc), str(exc))


def _observed_via_fallback(text: str):
    with mock.patch.object(deserialize, "fast_document", lambda text: None):
        return _observed(text)


_QUOTED = re.compile(r"'((?:[^'\n]|'')*)'")
_PLAIN_VALUE = re.compile(r"(?<=node: )[^,'\"{}\n]+(?=,)")


def _mutate(text: str, kind: str, i: int, j: int) -> str:
    lines = text.split("\n")
    at, other = i % len(lines), j % len(lines)
    if kind == "truncate":
        return text[: i % (len(text) + 1)]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind in ("single-to-double", "plain-to-single"):
        pattern = _QUOTED if kind == "single-to-double" else _PLAIN_VALUE
        matches = list(pattern.finditer(text))
        if not matches:
            return text
        match = matches[i % len(matches)]
        if kind == "single-to-double":
            inner = match.group(1).replace("''", "'")
            replacement = '"' + inner.replace("\\", "\\\\").replace('"', '\\"') + '"'
        else:
            replacement = f"'{match.group(0)}'"
        return text[: match.start()] + replacement + text[match.end():]
    if kind == "tab":
        position = i % (len(text) + 1)
        return text[:position] + "\t" + text[position:]
    if kind == "drop":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "comment-line":
        lines.insert(at, "# injected")
    elif kind == "comment-tail":
        lines[at] += " # injected"
    elif kind == "anchor":
        lines[at] = lines[at].replace(": ", ": &x ", 1)
    return "\n".join(lines)


_MUTATIONS = (
    "truncate", "drop", "duplicate", "swap", "single-to-double", "plain-to-single",
    "comment-line", "comment-tail", "tab", "anchor", "crlf",
)


class TestMutatedTwins:
    @given(
        map_name=st.sampled_from([MapName.ASIA_PACIFIC, MapName.WORLD]),
        kind=st.sampled_from(_MUTATIONS),
        i=st.integers(min_value=0, max_value=10**6),
        j=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=250, deadline=None)
    def test_mutation_matches_forced_fallback(self, engine_twins, map_name, kind, i, j):
        text = _mutate(engine_twins[map_name], kind, i, j)
        assert _observed(text) == _observed_via_fallback(text)

    @pytest.mark.parametrize("kind", _MUTATIONS)
    @pytest.mark.parametrize("map_name", list(MapName))
    def test_each_mutation_on_each_map(self, engine_twins, map_name, kind):
        text = _mutate(engine_twins[map_name], kind, 7919, 104729)
        assert _observed(text) == _observed_via_fallback(text)

    def test_truncation_at_every_line_end(self, engine_twins):
        text = engine_twins[MapName.WORLD]
        for end in [index + 1 for index, char in enumerate(text) if char == "\n"]:
            assert _observed(text[:end]) == _observed_via_fallback(text[:end])

    def test_quote_style_change_keeps_the_fast_path(self, engine_twins):
        text = _mutate(engine_twins[MapName.ASIA_PACIFIC], "single-to-double", 3, 0)
        assert '"#' in text
        assert fast_document(text) is not None
        assert _observed(text) == _observed_via_fallback(text)
