"""The lazy re-export contract of the ``repro`` packages (PEP 562).

Every package ``__init__`` resolves its public names on first touch
(:mod:`repro._lazy`).  Laziness must be invisible to callers: each name
stays importable from the same place, ``import *`` still works, unknown
names still raise :class:`AttributeError`, and ``from pkg import
submodule`` still returns the submodule.
"""

from __future__ import annotations

import importlib
from types import ModuleType

import pytest

import repro.constants
import repro.parsing.pipeline

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.dataset",
    "repro.parsing",
    "repro.svgdoc",
    "repro.topology",
)


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestLazyPackage:
    def test_every_public_name_resolves_to_its_defining_module(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            value = getattr(package, name)
            if name in package._EXPORTS:
                defining = importlib.import_module(package._EXPORTS[name])
                assert value is getattr(defining, name), name

    def test_star_import_binds_all(self, package_name):
        package = importlib.import_module(package_name)
        namespace: dict = {}
        exec(f"from {package_name} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_dir_lists_names_not_yet_resolved(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(package, "no_such_name")
        assert not hasattr(package, "no_such_name")


def test_submodule_imports_still_return_modules():
    from repro.dataset import engine, ingest, shards

    for module, name in ((engine, "engine"), (ingest, "ingest"), (shards, "shards")):
        assert isinstance(module, ModuleType)
        assert module.__name__ == f"repro.dataset.{name}"


def test_parser_version_has_one_home():
    assert repro.parsing.pipeline.PARSER_VERSION is repro.constants.PARSER_VERSION
