"""repro.telemetry — stdlib-only metrics for the processing pipeline.

The paper's Table 2 is an operational report — files collected,
processed, and failed per map.  This package makes that report (and the
perf trajectory guarding it) a first-class, always-on output of every
run instead of an ad-hoc struct bolted onto one code path:

* :class:`MetricsRegistry` holds thread-safe :class:`Counter`,
  :class:`Gauge`, and fixed-bucket :class:`Histogram` instruments plus
  lightweight :meth:`~MetricsRegistry.span` timers;
* worker processes run under a private registry
  (:func:`use_registry`) and return
  :meth:`~MetricsRegistry.snapshot` dicts for the parent to
  :meth:`~MetricsRegistry.merge`, so parallel totals equal serial
  totals;
* snapshots export as structured JSON (:func:`snapshot_to_json`) and
  Prometheus text exposition (:func:`snapshot_to_prometheus`), surfaced
  by ``repro-weather metrics`` and ``--metrics-out``.

Telemetry never changes outputs — YAML bytes and index contents are
identical with the subsystem swapped for a :class:`NullRegistry` — and
stays within a <=2% overhead budget, which ``scripts/telemetry_overhead.py``
measures (see ``docs/observability.md`` for the instrument catalogue).
"""

from repro.telemetry.export import (
    load_metrics_file,
    read_snapshot_file,
    snapshot_to_json,
    snapshot_to_prometheus,
    write_metrics_file,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "load_metrics_file",
    "read_snapshot_file",
    "set_registry",
    "snapshot_to_json",
    "snapshot_to_prometheus",
    "use_registry",
    "write_metrics_file",
]
