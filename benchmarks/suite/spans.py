"""Outside-in tracing for the benchmark suite: call-through wrappers and the reducer.

The system under test has no internal span tree yet, so the benchmark
records spans from its own files, around the public calls into each
layer.  A traced child process (``sut_ingest.py --trace`` or
``sut_server.py --trace``) replaces those callables with wrappers
*before* it builds anything.  A wrapper returns the wrapped call's value,
raises its exceptions, and records one span: layer name, start and end
in ``perf_counter_ns`` (``CLOCK_MONOTONIC``, so parent and children share
one clock), the parent span from a per-thread stack, the thread, a trace
id, and the counts observed at the same boundary (bytes written, rows
returned, cache hit or miss).  Spans stay in memory and are written as
JSON lines when the child exits.

Recording is switched per operation.  The ingest child sets
:attr:`Tracer.active` around the daemon runs it was told to trace; the
server child traces a request only when it carries an ``X-Bench-Request``
header, whose value becomes the trace id.  Every other call goes through
the wrapper's one-branch fast path, so a traced run can time traced and
untraced operations side by side and report the tracing overhead.

:func:`reduce_layers` turns the span files into the per-layer block:
``<layer>.calls``, ``<layer>.self_s`` (the span minus the part its child
spans on the same thread cover) and ``<layer>.ms_per_call`` (mean
inclusive duration), plus the counts, ratios and explicit unattributed
remainders the span boundaries carry.  ``BENCHMARK.json`` lists every
name with its unit.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterable, Sequence

#: Every traced layer, in the order the README tables list them.
LAYERS: tuple[str, ...] = (
    "parse.extract",
    "parse.attribute",
    "parse.checks",
    "parse.serialize",
    "store.read_ref",
    "store.write",
    "store.iter_refs",
    "ingest.journal_append",
    "ingest.journal_sync",
    "ingest.manifest_save",
    "device.fsync",
    "ingest.run",
    "shards.compact_touched",
    "shards.compact_full",
    "index.build",
    "server.handle_request",
    "server.route",
    "server.engine_pin",
    "server.cache_get",
    "server.cache_put",
    "server.payload.snapshot",
    "server.payload.series",
    "server.payload.evolution",
    "server.payload.imbalance",
    "server.payload.maps",
    "query.open",
    "query.scan",
    "analysis.imbalance_samples",
    "analysis.count_series",
    "server.json_encode",
    "feed.poll",
)

#: Header whose value names a traced request's trace id.
REQUEST_HEADER = "X-Bench-Request"


# ---------------------------------------------------------------------------
# Recording (child side)
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder shared by every wrapper in one process.

    A span is a list ``[id, name, start_ns, end_ns, parent_id, thread,
    trace, counts]``; the id is drawn when the span opens, so children
    can name their parent before it closes.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: Record root spans on any thread (the ingest child's traced runs).
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def recording(self) -> bool:
        """Whether a call made now on this thread belongs to a trace."""
        return self.active or bool(getattr(self._local, "stack", None))

    def _new(self, name: str, start: int, end: int, trace: str | None, counts: dict | None) -> list[Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = parent[6] if parent is not None else ""
        span = [
            next(self._ids), name, start, end,
            parent[0] if parent is not None else -1,
            threading.get_ident(), trace, counts,
        ]
        self.spans.append(span)
        return span

    def open(self, name: str, trace: str | None = None) -> list[Any]:
        span = self._new(name, perf_counter_ns(), 0, trace, None)
        self._stack().append(span)
        return span

    def close(self, span: list[Any], counts: dict | None = None) -> None:
        span[3] = perf_counter_ns()
        span[7] = counts
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, trace: str, counts: dict | None) -> None:
        """Record an already-finished span under this thread's open span."""
        self._new(name, start_ns, end_ns, trace, counts)

    def dump(self, path: Path) -> None:
        """Write every closed span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span[3]:
                    handle.write(json.dumps(span) + "\n")


def wrap(
    tracer: Tracer,
    name: str | Callable[..., str],
    func: Callable[..., Any],
    *,
    trace_of: Callable[..., str | None] | None = None,
    counts_of: Callable[..., dict | None] | None = None,
    root_of: Callable[..., str | None] | None = None,
) -> Callable[..., Any]:
    """A call-through wrapper recording one span per traced call.

    ``root_of(args, kwargs)`` returns a trace id when the call starts a
    trace of its own (a tagged request, a watcher tick); otherwise the
    call is recorded only inside an open span or while the tracer is
    :attr:`~Tracer.active`.
    """

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        trace = root_of(args, kwargs) if root_of is not None else None
        if trace is None:
            if not tracer.recording():
                return func(*args, **kwargs)
            trace = trace_of(args, kwargs) if trace_of is not None else None
        label = name(args, kwargs) if callable(name) else name
        span = tracer.open(label, trace)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            tracer.close(span, {"error": 1})
            raise
        tracer.close(
            span, counts_of(result, args, kwargs) if counts_of is not None else None
        )
        return result

    return wrapper


def _wrap_method(owner: type, attr: str, tracer: Tracer, name: str, **options: Any) -> None:
    setattr(owner, attr, wrap(tracer, name, getattr(owner, attr), **options))


def _stamp_of(map_name: Any, when: Any) -> str:
    return f"{map_name.value}/{when.strftime('%Y%m%dT%H%M%SZ')}"


#: (StageTimings key, layer): the DOM fallback's separate read stage is
#: charged to ``parse.extract``, which the fused fast path cannot split.
_PARSE_STAGES = (
    (("read", "extract"), "parse.extract"),
    (("attribute",), "parse.attribute"),
    (("checks",), "parse.checks"),
    (("serialize",), "parse.serialize"),
)


def install_ingest(tracer: Tracer) -> None:
    """Wrap the write-path layers the ingestion daemon calls."""
    from repro.dataset import engine, ingest, shards
    from repro.dataset.store import DatasetStore
    from repro.parsing.pipeline import StageTimings

    process = ingest.process_svg_bytes

    @functools.wraps(process)
    def traced_process(data: bytes, map_name: Any, timestamp: Any, *args: Any, **kwargs: Any) -> Any:
        if not tracer.recording() or kwargs.get("timings") is not None:
            return process(data, map_name, timestamp, *args, **kwargs)
        timings = StageTimings()
        cursor = perf_counter_ns()
        outcome = process(data, map_name, timestamp, *args, timings=timings, **kwargs)
        # StageTimings carries durations only: lay the stages back to
        # back from the call's start.
        trace = _stamp_of(map_name, timestamp)
        for keys, layer in _PARSE_STAGES:
            elapsed = int(sum(timings.seconds.get(key, 0.0) for key in keys) * 1e9)
            counts = None
            if layer == "parse.extract":
                counts = {"fast": timings.fast_path_hits, "fallback": timings.fallbacks}
            tracer.add(layer, cursor, cursor + elapsed, trace, counts)
            cursor += elapsed
        return outcome

    ingest.process_svg_bytes = traced_process

    _wrap_method(
        DatasetStore, "read_ref", tracer, "store.read_ref",
        trace_of=lambda a, k: _stamp_of(a[1].map_name, a[1].timestamp),
        counts_of=lambda result, a, k: {"svg_bytes": len(result)} if a[1].kind == "svg" else None,
    )
    _wrap_method(
        DatasetStore, "write", tracer, "store.write",
        trace_of=lambda a, k: _stamp_of(a[1], a[2]),
        counts_of=lambda ref, a, k: {f"{ref.kind}_bytes": ref.size},
    )

    iter_refs = DatasetStore.iter_refs

    @functools.wraps(iter_refs)
    def traced_iter_refs(self: Any, *args: Any, **kwargs: Any) -> Any:
        # The listing walks and sorts the whole tree on the first next();
        # the span covers exactly that step, and the refs are unchanged.
        if not tracer.recording():
            yield from iter_refs(self, *args, **kwargs)
            return
        span = tracer.open("store.iter_refs")
        try:
            refs = list(iter_refs(self, *args, **kwargs))
        except BaseException:
            tracer.close(span, {"error": 1})
            raise
        tracer.close(span, {"refs": len(refs)})
        yield from refs

    DatasetStore.iter_refs = traced_iter_refs

    _wrap_method(
        ingest.IngestJournal, "append", tracer, "ingest.journal_append",
        trace_of=lambda a, k: f"{a[1].map_value}/{a[1].stamp}",
        counts_of=lambda _, a, k: {"bytes": len(a[1].to_json()) + 10},
    )
    _wrap_method(ingest.IngestJournal, "sync", tracer, "ingest.journal_sync")
    _wrap_method(
        engine.Manifest, "save", tracer, "ingest.manifest_save",
        counts_of=lambda _, a, k: {"bytes": Path(a[1]).stat().st_size},
    )
    os.fsync = wrap(tracer, "device.fsync", os.fsync)
    _wrap_method(
        ingest.IngestDaemon, "run", tracer, "ingest.run",
        trace_of=lambda a, k: "run",
        counts_of=lambda stats, a, k: {
            "recover_s": stats.recovery_seconds,
            "ingested": stats.ingested,
        },
    )
    shards.compact_map_shards = wrap(
        tracer,
        lambda a, k: "shards.compact_touched" if k.get("only") is not None else "shards.compact_full",
        shards.compact_map_shards,
        trace_of=lambda a, k: a[1].value,
        counts_of=lambda stats, a, k: {"built": len(stats.built), "skipped": len(stats.skipped)},
    )
    shards.build_index = wrap(
        tracer, "index.build", shards.build_index,
        counts_of=lambda result, a, k: {
            "parsed": result[1].parsed,
            "reused": result[1].reused,
            "bytes": result[1].bytes_written,
        },
    )


class _JsonProxy:
    """Stands in for the ``json`` module inside :mod:`repro.server.core`."""

    def __init__(self, module: Any, dumps: Callable[..., str]) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def install_server(tracer: Tracer) -> None:
    """Wrap the read-path layers one HTTP request passes through."""
    from repro.dataset import query, shards
    from repro.server import app, cache, core, engines, feed, services

    header = REQUEST_HEADER.lower()
    app.handle_request = wrap(
        tracer, "server.handle_request", app.handle_request,
        root_of=lambda a, k: a[3].get(header),
    )
    core.match_route = wrap(tracer, "server.route", core.match_route)
    _wrap_method(engines.EngineCache, "handle", tracer, "server.engine_pin")
    _wrap_method(engines.EngineCache, "invalidate", tracer, "server.invalidate")
    _wrap_method(
        cache.ResponseCache, "get", tracer, "server.cache_get",
        counts_of=lambda entry, a, k: {"hit": 1} if entry is not None else {"miss": 1},
    )
    _wrap_method(cache.ResponseCache, "put", tracer, "server.cache_put")
    for endpoint in ("snapshot", "series", "evolution", "imbalance", "maps"):
        attr = f"{endpoint}_payload"
        setattr(services, attr, wrap(tracer, f"server.payload.{endpoint}", getattr(services, attr)))
    services.imbalance_samples = wrap(
        tracer, "analysis.imbalance_samples", services.imbalance_samples
    )
    services.count_series = wrap(tracer, "analysis.count_series", services.count_series)

    opener = query.MappedIndex.__dict__["open"].__func__
    query.MappedIndex.open = classmethod(wrap(tracer, "query.open", opener))
    for owner in (query.MappedIndex, shards.ShardedMappedIndex):
        _wrap_method(
            owner, "scan", tracer, "query.scan",
            counts_of=lambda result, a, k: {"rows": len(result)},
        )
    core.json = _JsonProxy(json, wrap(tracer, "server.json_encode", json.dumps))
    _wrap_method(
        feed.GenerationWatcher, "poll_now", tracer, "feed.poll",
        root_of=lambda a, k: "feed",
    )


# ---------------------------------------------------------------------------
# Reduction (parent side)
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One recorded span, keyed by ``(source, id)`` across span files."""

    source: str
    span_id: int
    name: str
    start: int
    end: int
    parent: int
    thread: int
    trace: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


def load_spans(paths: Iterable[Path]) -> list[Span]:
    """Every span in the given ``trace.jsonl`` files (missing files skipped)."""
    spans: list[Span] = []
    for path in paths:
        if not path.exists():
            continue
        source = path.name
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                span_id, name, start, end, parent, thread, trace, counts = json.loads(line)
                spans.append(
                    Span(source, span_id, name, start, end, parent, thread, trace, counts or {})
                )
    return spans


def covered(intervals: Sequence[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    cursor = lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> dict[tuple[str, int], int]:
    """Each span's duration minus what its child spans on its thread cover."""
    children: dict[tuple[str, int], list[tuple[int, int]]] = defaultdict(list)
    threads = {(span.source, span.span_id): span.thread for span in spans}
    for span in spans:
        key = (span.source, span.parent)
        if span.parent >= 0 and threads.get(key) == span.thread:
            children[key].append((span.start, span.end))
    return {
        (span.source, span.span_id): span.duration
        - covered(children.get((span.source, span.span_id), ()), span.start, span.end)
        for span in spans
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reduce_layers(
    spans: Sequence[Span], client_ns: dict[str, int] | None = None
) -> dict[str, float]:
    """The per-layer block from recorded spans.

    ``client_ns`` maps a request trace id to the latency the load
    generator saw for it; ``server.transport`` is that minus the
    request's ``server.handle_request`` span (socket, parsing and
    writing outside the shared core).  ``ingest.unattributed_s`` is the
    time inside ``ingest.run`` during which no other span in the ingest
    process, on any thread, was open; ``server.unattributed_ms_per_request``
    is the mean self time of ``server.handle_request``.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    out: dict[str, float] = {}
    for layer in LAYERS:
        group = by_name.get(layer, [])
        total = sum(span.duration for span in group)
        out[f"{layer}.calls"] = float(len(group))
        out[f"{layer}.self_s"] = sum(own[(s.source, s.span_id)] for s in group) / 1e9
        out[f"{layer}.ms_per_call"] = total / len(group) / 1e6 if group else 0.0

    def total_count(layer: str, key: str) -> float:
        return float(sum(span.counts.get(key, 0) for span in by_name.get(layer, [])))

    fast = total_count("parse.extract", "fast")
    out["parse.fast_path_hit_ratio"] = _ratio(
        fast, fast + total_count("parse.extract", "fallback")
    )
    written = (
        total_count("store.write", "yaml_bytes")
        + total_count("index.build", "bytes")
        + total_count("ingest.manifest_save", "bytes")
        + total_count("ingest.journal_append", "bytes")
    )
    out["store.bytes_per_svg_byte"] = _ratio(written, total_count("store.read_ref", "svg_bytes"))
    out["ingest.recover_s"] = total_count("ingest.run", "recover_s")

    unattributed = 0
    for run in by_name.get("ingest.run", []):
        others = [
            (span.start, span.end)
            for span in spans
            if span.source == run.source and span is not run and span.name != "ingest.run"
        ]
        unattributed += run.duration - covered(others, run.start, run.end)
    out["ingest.unattributed_s"] = unattributed / 1e9

    built = total_count("shards.compact_touched", "built") + total_count("shards.compact_full", "built")
    skipped = total_count("shards.compact_touched", "skipped") + total_count(
        "shards.compact_full", "skipped"
    )
    out["shards.built_ratio"] = _ratio(built, built + skipped)
    reused = total_count("index.build", "reused")
    out["index.rows_reused_ratio"] = _ratio(reused, reused + total_count("index.build", "parsed"))
    hits = total_count("server.cache_get", "hit")
    out["server.cache_hit_ratio"] = _ratio(hits, hits + total_count("server.cache_get", "miss"))

    requests = by_name.get("server.handle_request", [])
    client_ns = client_ns or {}
    gaps = [
        client_ns[span.trace] - span.duration for span in requests if span.trace in client_ns
    ]
    out["server.transport"] = sum(gaps) / len(gaps) / 1e6 if gaps else 0.0
    out["server.unattributed_ms_per_request"] = (
        sum(own[(s.source, s.span_id)] for s in requests) / len(requests) / 1e6
        if requests
        else 0.0
    )
    out["server.stale_retries"] = float(len(by_name.get("server.invalidate", [])))
    return out
