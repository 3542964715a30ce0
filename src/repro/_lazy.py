"""PEP 562 lazy re-exports, shared by the ``repro`` package ``__init__`` files.

A package lists its re-exports as ``{name: defining module}`` and binds
the two hooks this module builds::

    _EXPORTS = {"DatasetStore": "repro.dataset.store", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

Importing the package then runs no submodule: each name imports its
module on first touch, so a process pays only for the layers it uses.
Submodule imports (``from repro.dataset import engine``) are unaffected:
an unlisted name raises :class:`AttributeError`, which is what makes the
import system fall back to loading the submodule.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` hooks resolving ``exports`` lazily.

    ``namespace`` is the package's ``globals()``; a resolved name is cached
    there, so later lookups never reach ``__getattr__`` again.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module_name = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module_name), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
