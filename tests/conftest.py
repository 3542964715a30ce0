"""Shared fixtures and the opt-in lock-sanitizer pytest lane.

Expensive artefacts (the paper-calibrated simulator, rendered reference
snapshots) are session-scoped: the simulator is deterministic, so sharing
it across tests loses nothing.

``pytest --repro-tsan`` (or ``REPRO_TSAN=1``) installs the instrumented
lock mode from :mod:`repro.devtools.sanitizer` for the whole session:
every ``threading.Lock``/``RLock`` constructed inside the ``repro``
package records acquisition order, and the run **fails** if any test
provokes a lock-order inversion or a same-lock re-entry — turning
would-be deadlocks into red test output.
"""

from __future__ import annotations

import os
from datetime import timedelta

import pytest

from repro.constants import MapName, REFERENCE_DATE
from repro.dataset.processor import process_svg_bytes
from repro.layout.renderer import MapRenderer
from repro.parsing.pipeline import parse_svg
from repro.simulation.network import BackboneSimulator

_TSAN_KEY = pytest.StashKey[bool]()


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--repro-tsan",
        action="store_true",
        default=False,
        help="instrument repro-package locks and fail the run on "
        "lock-order inversions, re-entry, or long-held locks",
    )


def pytest_configure(config: pytest.Config) -> None:
    enabled = bool(config.getoption("--repro-tsan")) or os.environ.get(
        "REPRO_TSAN", ""
    ) not in ("", "0")
    config.stash[_TSAN_KEY] = enabled
    if enabled:
        from repro.devtools.sanitizer import install_sanitizer

        install_sanitizer()


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    if not session.config.stash.get(_TSAN_KEY, False):
        return
    from repro.devtools.sanitizer import active_sanitizer

    sanitizer = active_sanitizer()
    if sanitizer is None:  # a test uninstalled it; nothing left to report
        return
    report = sanitizer.report
    rendered = report.render()
    if rendered:
        print(f"\n{rendered}")
    if report.fatal() and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_unconfigure(config: pytest.Config) -> None:
    if not config.stash.get(_TSAN_KEY, False):
        return
    from repro.devtools.sanitizer import uninstall_sanitizer

    uninstall_sanitizer()


@pytest.fixture(scope="session")
def simulator() -> BackboneSimulator:
    """The default paper-calibrated simulator."""
    return BackboneSimulator()


@pytest.fixture(scope="session")
def europe_reference(simulator):
    """The Europe map on the Table 1 reference date."""
    return simulator.snapshot(MapName.EUROPE, REFERENCE_DATE)


@pytest.fixture(scope="session")
def apac_reference(simulator):
    """The smallest peered map — cheap to render and parse."""
    return simulator.snapshot(MapName.ASIA_PACIFIC, REFERENCE_DATE)


@pytest.fixture(scope="session")
def apac_svg(apac_reference):
    """A rendered Asia-Pacific reference SVG document."""
    return MapRenderer().render(apac_reference)


@pytest.fixture(scope="session")
def apac_parsed(apac_svg, apac_reference):
    """The Asia-Pacific SVG pushed back through the extraction pipeline."""
    return parse_svg(
        apac_svg, MapName.ASIA_PACIFIC, apac_reference.timestamp
    )


@pytest.fixture(scope="session")
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
