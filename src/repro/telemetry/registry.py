"""Instruments and the thread-safe metrics registry.

The design follows the Prometheus client-library data model — counters,
gauges, and fixed-bucket histograms, each fanning out into labelled
series — restricted to what the reproduction's hot paths need:

* **cheap writes** — one dict lookup plus one lock acquisition per
  update, so instrumenting a 50 files/s pipeline costs well under the
  2% overhead budget ``scripts/telemetry_overhead.py`` measures;
* **picklable snapshots** — :meth:`MetricsRegistry.snapshot` produces a
  plain JSON-safe dict, which is how worker processes ship their counts
  back to the parent for :meth:`MetricsRegistry.merge`;
* **zero dependencies** — stdlib only, like the rest of the library.

A process-wide registry is always active (:func:`get_registry`);
instrumented modules write to whatever registry is active at call time,
which is what lets pool workers swap in a private registry per batch
(:func:`use_registry`) and tests isolate themselves, and lets the
benchmark price the subsystem by swapping in a :class:`NullRegistry`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from repro.errors import TelemetryError

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram bounds (seconds): spans range from sub-millisecond
#: pipeline stages to multi-second whole-map runs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: A labelled series key: label pairs sorted by name, hashable.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    """Normalise a label set into a hashable, order-independent key."""
    if not labels:
        return ()
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class Instrument:
    """Shared shell of every metric: a name, help text, labelled series."""

    kind = "untyped"

    __slots__ = ("name", "help", "_lock", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise TelemetryError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: dict[LabelKey, object] = {}  # repro: guarded-by[_lock]

    def series(self) -> dict[LabelKey, object]:
        """A point-in-time copy of every labelled series."""
        with self._lock:
            return dict(self._series)


class Counter(Instrument):
    """A monotonically increasing count (events, files, bytes)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``.

        ``inc(0, **labels)`` is meaningful: it materialises the series at
        zero, so exported reports show the instrument even before the
        first event (cache *misses* exist even when every lookup hit).
        """
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of one labelled series (0 when never touched)."""
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every labelled series."""
        with self._lock:
            return float(sum(self._series.values()))


class Gauge(Instrument):
    """A value that can go both ways (queue depth, pool width)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))


class _HistogramSeries:
    """One labelled series of a histogram: per-bucket counts + sum."""

    __slots__ = ("counts", "sum")

    def __init__(self, slots: int) -> None:
        self.counts = [0] * slots  # one per bound, plus the +Inf overflow
        self.sum = 0.0

    def copy(self) -> "_HistogramSeries":
        twin = _HistogramSeries(len(self.counts))
        twin.counts = list(self.counts)
        twin.sum = self.sum
        return twin


class Histogram(Instrument):
    """Fixed-bucket distribution (durations, sizes).

    Buckets follow Prometheus ``le`` semantics: an observation lands in
    the first bucket whose upper bound is >= the value, with a final
    implicit ``+Inf`` bucket.  Counts are stored per bucket (not
    cumulative); the exporters cumulate at render time.
    """

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        slot = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets) + 1
                )
            series.counts[slot] += 1
            series.sum += value

    def count(self, **labels: object) -> int:
        """Observations recorded in one labelled series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return 0 if series is None else sum(series.counts)

    def total_seconds(self, **labels: object) -> float:
        """Sum of observed values in one labelled series."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return 0.0 if series is None else series.sum

    def series(self) -> dict[LabelKey, _HistogramSeries]:
        with self._lock:
            return {key: series.copy() for key, series in self._series.items()}


class Span:
    """Context manager charging its wall time to a histogram series."""

    __slots__ = ("_histogram", "_labels", "_start", "elapsed")

    def __init__(self, histogram: Histogram, labels: dict[str, object]) -> None:
        self._histogram = histogram
        self._labels = labels
        self.elapsed = 0.0

    def __enter__(self) -> "Span":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = perf_counter() - self._start
        self._histogram.observe(self.elapsed, **self._labels)


class MetricsRegistry:
    """A named collection of instruments, safe to share across threads.

    Instruments are get-or-create by name — calling :meth:`counter` twice
    with the same name returns the same object, so call sites don't need
    module-level instrument singletons.  Asking for an existing name with
    a different kind (or different histogram buckets) raises
    :class:`~repro.errors.TelemetryError` rather than silently splitting
    the data.
    """

    #: Bumped when the snapshot schema changes shape.
    SNAPSHOT_VERSION = 1

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}  # repro: guarded-by[_lock]

    # -- instrument access -------------------------------------------------

    def _get_or_create(
        self, cls: type, name: str, help: str, **extra: object
    ) -> Instrument:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help, **extra)
                self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise TelemetryError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        if extra:
            bounds = tuple(float(bound) for bound in extra["buckets"])
            if instrument.buckets != bounds:
                raise TelemetryError(
                    f"histogram {name!r} already registered with different buckets"
                )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def span(self, name: str, help: str = "", **labels: object) -> Span:
        """Time a block into the histogram ``<name>_seconds``::

            with registry.span("repro_index_build", map="europe"):
                ...
        """
        return Span(self.histogram(f"{name}_seconds", help), labels)

    def instruments(self) -> list[Instrument]:
        """Every registered instrument, sorted by name."""
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def get(self, name: str) -> Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def reset(self) -> None:
        """Drop every instrument (tests and fresh CLI runs)."""
        with self._lock:
            self._instruments.clear()

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-safe, picklable view of every instrument and series.

        The schema is what ``--metrics-out`` writes and what
        ``repro-weather metrics`` reads back::

            {"version": 1,
             "metrics": [
               {"name": ..., "kind": "counter", "help": ...,
                "series": [[[["map", "europe"]], 12.0], ...]},
               {"name": ..., "kind": "histogram", "buckets": [...],
                "series": [[[], {"counts": [...], "sum": 0.8}], ...]}]}
        """
        metrics = []
        for instrument in self.instruments():
            entry: dict = {
                "name": instrument.name,
                "kind": instrument.kind,
                "help": instrument.help,
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.buckets)
                entry["series"] = [
                    [
                        [list(pair) for pair in key],
                        {"counts": list(series.counts), "sum": series.sum},
                    ]
                    for key, series in sorted(instrument.series().items())
                ]
            else:
                entry["series"] = [
                    [[list(pair) for pair in key], value]
                    for key, value in sorted(instrument.series().items())
                ]
            metrics.append(entry)
        return {"version": self.SNAPSHOT_VERSION, "metrics": metrics}

    def merge(self, snapshot: "MetricsRegistry | dict") -> None:
        """Fold another registry (or its snapshot dict) into this one.

        Counters and histograms add; gauges take the incoming value
        (last write wins — the natural semantics for "current" values
        arriving from a worker).  Unknown instruments are created with
        the snapshot's kind, help, and buckets, so merging into an empty
        registry reproduces the source exactly.
        """
        if isinstance(snapshot, MetricsRegistry):
            snapshot = snapshot.snapshot()
        version = snapshot.get("version")
        if version != self.SNAPSHOT_VERSION:
            raise TelemetryError(
                f"cannot merge metrics snapshot version {version!r} "
                f"(expected {self.SNAPSHOT_VERSION})"
            )
        for entry in snapshot.get("metrics", []):
            name = entry["name"]
            kind = entry["kind"]
            help_text = entry.get("help", "")
            if kind == "counter":
                counter = self.counter(name, help_text)
                for raw_key, value in entry["series"]:
                    labels = {pair[0]: pair[1] for pair in raw_key}
                    counter.inc(float(value), **labels)
            elif kind == "gauge":
                gauge = self.gauge(name, help_text)
                for raw_key, value in entry["series"]:
                    labels = {pair[0]: pair[1] for pair in raw_key}
                    gauge.set(float(value), **labels)
            elif kind == "histogram":
                histogram = self.histogram(
                    name, help_text, buckets=tuple(entry["buckets"])
                )
                slots = len(histogram.buckets) + 1
                for raw_key, value in entry["series"]:
                    key = _label_key({pair[0]: pair[1] for pair in raw_key})
                    counts = list(value["counts"])
                    if len(counts) != slots:
                        raise TelemetryError(
                            f"histogram {name!r} snapshot has {len(counts)} "
                            f"buckets, expected {slots}"
                        )
                    with histogram._lock:
                        series = histogram._series.get(key)
                        if series is None:
                            series = histogram._series[key] = _HistogramSeries(
                                slots
                            )
                        for slot, count in enumerate(counts):
                            series.counts[slot] += count
                        series.sum += float(value["sum"])
            else:
                raise TelemetryError(
                    f"metric {name!r} has unknown kind {kind!r}"
                )


class _NullSpan:
    __slots__ = ("elapsed",)

    def __enter__(self) -> "_NullSpan":
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float, **labels: object) -> None:
        pass

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float, **labels: object) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """A registry that records nothing.

    Swapped in (``use_registry(NullRegistry())``) to measure what the
    telemetry itself costs — ``scripts/telemetry_overhead.py``'s
    with/without-sink comparison — or to switch the subsystem off outright.
    """

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(_NullCounter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(_NullGauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(_NullHistogram, name, help, buckets=buckets)

    def span(self, name: str, help: str = "", **labels: object) -> _NullSpan:
        return _NullSpan()


#: The process-wide registry every instrumented module writes to.
_ACTIVE = MetricsRegistry()
_ACTIVE_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The currently active registry."""
    return _ACTIVE


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the active one; returns the previous."""
    global _ACTIVE
    if not isinstance(registry, MetricsRegistry):
        raise TelemetryError("set_registry expects a MetricsRegistry")
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Swap the active registry for the duration of a block.

    Pool workers run each batch under a private registry this way, then
    ship ``registry.snapshot()`` back for the parent to merge.
    """
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
