"""The tiny router: one regex table from paths to endpoint names.

Routing is deliberately dumb — a literal table plus one pattern for the
per-map views — so the layering stays thin-router → service → data
access: the router names the endpoint and extracts the map slug, the
app layer validates parameters, the services compute.  The endpoint
name doubles as the telemetry label on
``repro_server_requests_total{endpoint, ...}``, which is why unmatched
paths still resolve (to ``None``) rather than raising: unknown-path
counts are worth having.

Every endpoint mounts under ``/v1/...``.  The one path outside it is
``/metrics``, Prometheus's default scrape path, which answers beside
``/v1/metrics`` with the same exposition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["API_VERSION", "RouteMatch", "match_route"]

#: The mount point of the current stable surface.
API_VERSION = "v1"

_PREFIX = f"/{API_VERSION}/"

#: Endpoints with a fixed path under the mount.
_FIXED = frozenset({"healthz", "metrics", "maps"})

_MAP_VIEW = re.compile(
    r"^maps/(?P<map>[a-z0-9-]+)/"
    r"(?P<view>snapshot|series|imbalance|evolution|events|generation)$"
)


@dataclass(frozen=True)
class RouteMatch:
    """What the router decided about one request path."""

    endpoint: str
    #: The raw map slug from the path; the app layer resolves it to a
    #: :class:`~repro.constants.MapName` (404 on an unknown value).
    map_slug: str | None = None


def match_route(path: str) -> RouteMatch | None:
    """Resolve a request path to its endpoint, ``None`` when unrouted."""
    if path == "/metrics":
        return RouteMatch(endpoint="metrics")
    if not path.startswith(_PREFIX):
        return None
    rest = path[len(_PREFIX):]
    if rest in _FIXED:
        return RouteMatch(endpoint=rest)
    matched = _MAP_VIEW.match(rest)
    if matched is None:
        return None
    return RouteMatch(endpoint=matched.group("view"), map_slug=matched.group("map"))
