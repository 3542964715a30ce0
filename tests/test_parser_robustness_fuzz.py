"""Robustness fuzzing: the parser never crashes with untyped exceptions.

The bulk processor's contract is that *any* input — however mangled —
either parses or raises an exception from the repro error taxonomy, so
Table 2's accounting can always classify it.  Random mutations of a valid
document must never escape that contract.
"""

from hypothesis import given, settings, strategies as st

from repro.constants import MapName
from repro.errors import ReproError
from repro.parsing.pipeline import ParseOptions, parse_svg
from repro.yamlio.serialize import snapshot_to_yaml


def _mutate(document: str, operations) -> str:
    """Apply a list of (kind, position, payload) mutations."""
    data = document
    for kind, position, payload in operations:
        index = position % max(1, len(data))
        if kind == "delete":
            span = payload % 50 + 1
            data = data[:index] + data[index + span:]
        elif kind == "insert":
            junk = chr(32 + payload % 94) * (payload % 9 + 1)
            data = data[:index] + junk + data[index:]
        elif kind == "truncate":
            data = data[:index]
        elif kind == "duplicate":
            span = payload % 120 + 1
            data = data[:index] + data[index:index + span] + data[index:]
    return data


mutations = st.lists(
    st.tuples(
        st.sampled_from(("delete", "insert", "truncate", "duplicate")),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
    ),
    min_size=1,
    max_size=6,
)


@given(mutations)
@settings(max_examples=150, deadline=None)
def test_mutated_documents_fail_typed_or_parse(apac_svg, operations):
    mutated = _mutate(apac_svg, operations)
    try:
        parsed = parse_svg(mutated, MapName.ASIA_PACIFIC, strict=False)
    except ReproError:
        return  # typed failure: countable by the processor
    # Or it still parses — then the result must be structurally sound.
    for link in parsed.snapshot.links:
        assert 0 <= link.a.load <= 100
        assert 0 <= link.b.load <= 100
        assert link.a.node != link.b.node


@given(st.binary(min_size=0, max_size=400))
@settings(max_examples=100, deadline=None)
def test_arbitrary_bytes_fail_typed(data):
    try:
        parse_svg(data, MapName.EUROPE, strict=False)
    except ReproError:
        pass


def _observed_outcome(document, fast_path: bool):
    """What a caller can see from one parse: the YAML or the typed error."""
    try:
        parsed = parse_svg(
            document,
            MapName.ASIA_PACIFIC,
            strict=False,
            options=ParseOptions(fast_path=fast_path),
        )
    except ReproError as exc:
        return ("error", type(exc), str(exc))
    return ("ok", snapshot_to_yaml(parsed.snapshot))


@given(mutations)
@settings(max_examples=150, deadline=None)
def test_mutated_documents_fast_and_faithful_agree(apac_svg, operations):
    """Differential fuzzing of the two parse paths.

    On *any* mutated document the streaming fast path must be
    indistinguishable from the faithful DOM pipeline: either both produce
    byte-identical YAML, or both raise the same exception type with the
    same message.  (The fast path guarantees this by falling back to the
    DOM path on anything outside the expected shape, so the property holds
    even for inputs the stream machine refuses.)
    """
    mutated = _mutate(apac_svg, operations)
    assert _observed_outcome(mutated, True) == _observed_outcome(mutated, False)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_truncated_documents_fast_and_faithful_agree(apac_svg, cut):
    """Every truncation point yields identical outcomes on both paths."""
    truncated = apac_svg[: cut % (len(apac_svg) + 1)]
    assert _observed_outcome(truncated, True) == _observed_outcome(
        truncated, False
    )
