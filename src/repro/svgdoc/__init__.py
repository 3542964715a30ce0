"""SVG document layer.

The OVH Network Weathermap publishes its maps as SVG files whose tags are
"not all hierarchically organized": routers are self-contained groups, but
link arrows, load percentages, and link labels appear as a flat sequence of
tags positioned in the 2D image space.  This package provides:

* :mod:`repro.svgdoc.colors` — the PHP-Weathermap load-to-colour scale,
* :mod:`repro.svgdoc.elements` — typed views over raw SVG tags,
* :mod:`repro.svgdoc.writer` — a builder emitting weathermap-style SVGs,
* :mod:`repro.svgdoc.reader` — a document-order tag-stream reader feeding
  Algorithm 1.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_EXPORTS: dict[str, str] = {
    "LoadColorScale": "repro.svgdoc.colors",
    "WEATHERMAP_SCALE": "repro.svgdoc.colors",
    "ArrowElement": "repro.svgdoc.elements",
    "LabelBoxElement": "repro.svgdoc.elements",
    "LabelTextElement": "repro.svgdoc.elements",
    "LoadTextElement": "repro.svgdoc.elements",
    "ObjectElement": "repro.svgdoc.elements",
    "RawTag": "repro.svgdoc.elements",
    "classify_tag": "repro.svgdoc.elements",
    "SvgTagStream": "repro.svgdoc.reader",
    "read_svg_tags": "repro.svgdoc.reader",
    "WeathermapSvgWriter": "repro.svgdoc.writer",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
