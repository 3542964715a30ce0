"""Exception hierarchy for the repro library.

The paper's processing scripts "report an error when a link is not connected to
two (distinct) routers" and reject malformed SVGs.  Every failure mode from
Section 4 ("Parsing sanity checks" and "The OVH Weather dataset") has a typed
exception so callers can build the unprocessed-file accounting of Table 2.
"""

from __future__ import annotations

from argparse import ArgumentTypeError


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GeometryError(ReproError, ValueError):
    """Raised for degenerate geometric inputs (zero-length lines, empty boxes).

    Also a :class:`ValueError`: geometric degeneracy is an invalid-argument
    condition, and callers validating inputs expect the stdlib taxonomy.
    """


class SvgError(ReproError):
    """Base class for SVG-level problems."""


class MalformedSvgError(SvgError):
    """The SVG document is not well-formed XML or has invalid attribute values.

    The paper observes such files in the wild: "we observed some SVG files to
    be invalid, e.g., with malformed attribute values".
    """


class ParseError(ReproError):
    """Base class for extraction failures (Algorithms 1 and 2)."""


class IncompleteLinkError(ParseError):
    """A link was not constructed from exactly two arrows and two loads."""


class LoadRangeError(ParseError):
    """A link load lies outside the valid [0, 100] range."""


class AttributionError(ParseError):
    """Base class for Algorithm 2 object-attribution failures."""


class MissingRouterError(AttributionError):
    """A link end intersects no router box.

    The paper attributes these to SVGs "lacking elements, such as OVH routers,
    resulting in a failure to find intersections for a given link".
    """


class SelfLinkError(AttributionError):
    """A link was attributed the same router at both ends."""


class MissingLabelError(AttributionError):
    """A link end has no label within the attribution distance threshold."""

    def __init__(self, message: str, distance: float | None = None) -> None:
        super().__init__(message)
        self.distance = distance


class IsolatedRouterError(ParseError):
    """A router was attributed no link at all after attribution completed."""


class SchemaError(ReproError):
    """A YAML document does not conform to the dataset schema."""


class DatasetError(ReproError):
    """Base class for dataset-store problems (missing snapshots, bad layout)."""


class SnapshotNotFoundError(DatasetError):
    """No snapshot exists for the requested map and timestamp."""


class WorkerCountError(DatasetError, ValueError):
    """An invalid worker-count request (negative, non-integral, bad string).

    Also a :class:`ValueError`: worker counts arrive from CLI flags and
    plain library calls alike, and callers validating arguments expect
    the stdlib taxonomy.
    """


class SnapshotIndexError(DatasetError):
    """The columnar snapshot index is missing, corrupt, or incompatible.

    Callers on the read path treat this as "no index": the YAML series is
    authoritative and the index is only ever a derived cache, so a bad
    index file must degrade to a slower load, never to a failed one.
    """


class StaleIndexError(SnapshotIndexError):
    """A memory-mapped index generation superseded on disk.

    The zero-copy query engine maps one *generation* of ``index.bin``;
    an incremental :func:`repro.dataset.index.build_index` replaces the
    file atomically, so existing mappings keep serving their generation
    (the old inode stays alive under the mapping) but
    :meth:`~repro.dataset.query.MappedIndex.check_generation` reports
    the supersession with this error so long-lived readers can reopen.
    """


class IndexSkewError(SnapshotIndexError):
    """An intact ``index.bin`` written for another host byte order, map or
    parser version.

    Not damage: a parser bump makes every shard's previous generation
    one of these, and the builder re-decodes it from its twins.
    """


class QueryError(DatasetError, ValueError):
    """An invalid scan request to the zero-copy query engine.

    Raised for malformed predicates (an empty node name, a load bound
    outside [0, 100], an end before a start), unknown backend names, and
    scans against a closed engine.  Also a :class:`ValueError`: predicate
    validation is plain argument validation.
    """


class AnalysisError(ReproError, ValueError):
    """An analysis invoked on inputs it cannot summarise (an empty or
    single-snapshot series where a trend or changelog needs at least two
    observations).  Also a :class:`ValueError`."""


class StatsMergeError(DatasetError, ValueError):
    """Two processing-stat accumulators that cannot be folded together.

    Merging per-map accounting across maps would silently corrupt the
    Table 2 bookkeeping, so the mismatch is an error, not a best-effort
    union.
    """


class UnknownEndpointError(ReproError, KeyError):
    """A node queried on a link it is not an endpoint of.

    Also a :class:`KeyError`: the link's two ends form a tiny mapping
    from node name to :class:`~repro.topology.model.LinkEnd`, and lookup
    misses follow the stdlib taxonomy.
    """


class NameRegistryError(ReproError, ValueError):
    """A router/peering name request the deterministic generator must refuse
    (reserving a name that was already issued)."""


class ColumnarCapacityError(ReproError, OverflowError):
    """A columnar computation would overflow its packed representation.

    The vectorised link-key packing fits four string-table ids into one
    int64; tables large enough to break that bound abort loudly instead
    of aliasing keys.  Also an :class:`OverflowError`.
    """


class CliUsageError(ReproError, ArgumentTypeError):
    """An invalid command-line argument value.

    Subclasses :class:`argparse.ArgumentTypeError` so argparse renders
    the message verbatim in its usage error, while staying catchable as
    part of the typed :class:`ReproError` hierarchy.
    """


class ConcurrencyError(ReproError):
    """The runtime lock sanitizer observed a broken locking invariant.

    Raised only in the opt-in instrumented-lock mode of the test tree's
    sanitizer (``tests/lock_sanitizer.py``, installed by ``pytest
    --repro-tsan``) when a thread re-acquires a non-reentrant lock it
    already holds — turning what would be a silent deadlock into an
    immediate, attributable failure.  Lock-order inversions and
    long-held locks are reported as findings instead of raised, since
    the offending thread is not the one that would hang.
    """


class IngestError(DatasetError):
    """The ingestion daemon cannot run or resume.

    Raised for configuration problems (a non-positive queue bound, a
    resume requested against a dataset with no prior state) — never for
    per-file parse failures, which are accounted as data in
    :class:`~repro.dataset.processor.ProcessingStats`.
    """


class JournalError(IngestError):
    """The write-ahead journal cannot be appended to or replayed.

    Corrupt *tail* records are not an error — an append-only journal
    truncated by a crash is expected and recovery simply drops the torn
    tail — but corruption in the middle of the file, or an unwritable
    journal path, aborts loudly instead of silently dropping history.
    """


class ServerError(ReproError):
    """The HTTP serving layer cannot start or route.

    Raised for configuration problems (an invalid bind address, a
    non-positive cache capacity) and for programming errors in route
    registration — never for per-request failures, which map to HTTP
    status codes (400/404/503) so one bad query can't take a worker
    thread down.
    """


class SimulationError(ReproError):
    """Invalid simulation configuration or impossible event timeline."""


class TelemetryError(ReproError):
    """Misused metrics API or an unreadable metrics snapshot.

    Raised for programming errors (decreasing a counter, re-registering a
    name under a different kind) and for corrupt ``--metrics-out``
    artefacts — never from the instrumented hot paths themselves, which
    only ever add observations.
    """
