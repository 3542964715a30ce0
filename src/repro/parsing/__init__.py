"""The SVG-to-topology extraction pipeline — the paper's core contribution.

Two stages, exactly as in Section 4:

* :mod:`repro.parsing.algorithm1` — sequential tag-stream parsing into flat
  lists of routers, links (two arrows + two loads each), and link labels,
  relying only on tag classes and document order;
* :mod:`repro.parsing.algorithm2` — geometric *object attribution*: each
  link's line (through its two arrow bases) is intersected with router and
  label boxes; each link end is connected to its nearest intersecting
  router and assigned its nearest intersecting label, labels being consumed
  exactly once.

:mod:`repro.parsing.checks` implements the paper's sanity checks and
:mod:`repro.parsing.pipeline` wraps everything into ``SVG file → MapSnapshot
→ YAML`` with the error taxonomy needed for Table 2's unprocessed-file
accounting.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_EXPORTS: dict[str, str] = {
    "ExtractedLink": "repro.parsing.algorithm1",
    "ExtractionResult": "repro.parsing.algorithm1",
    "extract_objects": "repro.parsing.algorithm1",
    "AttributedLink": "repro.parsing.algorithm2",
    "attribute_objects": "repro.parsing.algorithm2",
    "ParseReport": "repro.parsing.checks",
    "run_sanity_checks": "repro.parsing.checks",
    "ParsedMap": "repro.parsing.pipeline",
    "parse_svg": "repro.parsing.pipeline",
    "parse_svg_file": "repro.parsing.pipeline",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
