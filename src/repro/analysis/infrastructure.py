"""Network infrastructure evolution (Figures 4a and 4b).

Produces the router-count and internal/external link-count time series for
one map, plus a structural-event classifier that recovers the paper's
narrative: *increase then decrease* sequences read as make-before-break
upgrades, *decrease then increase* as forced maintenance or failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import TYPE_CHECKING, Callable, Iterable

from repro.analysis.timeseries import Step, TimeSeries, detect_steps
from repro.constants import MapName
from repro.errors import AnalysisError
from repro.topology.model import MapSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.network import BackboneSimulator


@dataclass(frozen=True)
class InfrastructureEvolution:
    """The three evolution series of one map."""

    map_name: MapName
    routers: TimeSeries
    internal_links: TimeSeries
    external_links: TimeSeries


def infrastructure_evolution(
    simulator: BackboneSimulator,
    map_name: MapName,
    start: datetime | None = None,
    end: datetime | None = None,
    interval: timedelta = timedelta(hours=6),
) -> InfrastructureEvolution:
    """Sample the evolution counts over a window (fast: O(log n) per tick).

    Sampling every few hours is lossless for these figures — structural
    events are rare compared to the five-minute snapshot cadence.
    """
    start = start if start is not None else simulator.config.window_start
    end = end if end is not None else simulator.config.window_end
    times: list[datetime] = []
    router_counts: list[float] = []
    internal_counts: list[float] = []
    external_counts: list[float] = []
    current = start
    while current <= end:
        routers, internal, external = simulator.counts(map_name, current)
        times.append(current)
        router_counts.append(routers)
        internal_counts.append(internal)
        external_counts.append(external)
        current += interval
    if times[-1] != end:
        # Always sample the window end: callers read values[-1] as "the
        # state at the end", which must not depend on interval alignment.
        routers, internal, external = simulator.counts(map_name, end)
        times.append(end)
        router_counts.append(routers)
        internal_counts.append(internal)
        external_counts.append(external)
    return InfrastructureEvolution(
        map_name=map_name,
        routers=TimeSeries(tuple(times), tuple(router_counts)),
        internal_links=TimeSeries(tuple(times), tuple(internal_counts)),
        external_links=TimeSeries(tuple(times), tuple(external_counts)),
    )


def evolution_from_snapshots(snapshots: Iterable[MapSnapshot]) -> InfrastructureEvolution:
    """Same series, computed from stored snapshots (the YAML path)."""
    ordered = sorted(snapshots, key=lambda snapshot: snapshot.timestamp)
    if not ordered:
        raise AnalysisError("no snapshots given")
    times = tuple(snapshot.timestamp for snapshot in ordered)
    return InfrastructureEvolution(
        map_name=ordered[0].map_name,
        routers=TimeSeries(times, tuple(float(len(s.routers)) for s in ordered)),
        internal_links=TimeSeries(times, tuple(float(len(s.internal_links)) for s in ordered)),
        external_links=TimeSeries(times, tuple(float(len(s.external_links)) for s in ordered)),
    )


@dataclass(frozen=True, slots=True)
class StructuralEvent:
    """A classified infrastructure change."""

    kind: str  # "make-before-break" | "maintenance" | "growth" | "shrink"
    start: datetime
    end: datetime
    delta: float


def structural_events(
    series: TimeSeries,
    pairing_window: timedelta = timedelta(days=60),
    min_delta: float = 2.0,
    classifier: Callable[[Step, Step | None], str] | None = None,
) -> list[StructuralEvent]:
    """Classify steps of an evolution series into the paper's narrative.

    An increase followed by a decrease within ``pairing_window`` is a
    make-before-break upgrade; a decrease followed by an increase is a
    maintenance/failure event; unpaired steps are growth or shrink.
    """
    steps = detect_steps(series, min_delta=min_delta, window=4)
    events: list[StructuralEvent] = []
    used = [False] * len(steps)
    for index, step in enumerate(steps):
        if used[index]:
            continue
        partner_index = None
        for j in range(index + 1, len(steps)):
            if used[j]:
                continue
            if steps[j].when - step.when > pairing_window:
                break
            if (step.delta > 0) != (steps[j].delta > 0):
                partner_index = j
                break
        if classifier is not None:
            kind = classifier(step, steps[partner_index] if partner_index is not None else None)
        elif partner_index is not None and step.delta > 0:
            kind = "make-before-break"
        elif partner_index is not None:
            kind = "maintenance"
        else:
            kind = "growth" if step.delta > 0 else "shrink"
        if partner_index is not None:
            used[partner_index] = True
            events.append(
                StructuralEvent(
                    kind=kind,
                    start=step.when,
                    end=steps[partner_index].when,
                    delta=step.delta + steps[partner_index].delta,
                )
            )
        else:
            events.append(
                StructuralEvent(kind=kind, start=step.when, end=step.when, delta=step.delta)
            )
        used[index] = True
    return events
