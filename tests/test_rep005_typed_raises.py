"""REP005: every raise uses the typed ``repro.errors`` hierarchy; no blind excepts.

Table 2's unprocessed-file accounting works because every failure mode
has a class in :mod:`repro.errors`; an ad-hoc ``ValueError`` deep in a
pipeline stage would be invisible to that taxonomy.  Allowed raise forms:

* bare ``raise``, and ``raise name`` re-raising a bound exception or a
  sentinel class;
* a class imported from :mod:`repro.errors` (or reached through the
  module: ``errors.TypedError(...)``, ``repro.errors.TypedError(...)``);
* a module-private ``_Sentinel`` class, control flow that never escapes
  its module;
* a module-level class whose bases reach the typed hierarchy;
* ``raise AttributeError(...)`` inside ``__getattr__`` /
  ``__getattribute__``, which the protocol requires.

A bare ``except:`` is always a finding; ``except Exception:`` (or
``BaseException``) only when the handler neither binds the exception nor
re-raises, so that it can swallow everything silently.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tests.source_scan import PACKAGE, Module, iter_modules, write_package

#: Functions whose protocol mandates raising AttributeError.
_ATTR_PROTOCOL_FUNCTIONS = frozenset({"__getattr__", "__getattribute__"})


class _ErrorNames:
    """How one module can name :mod:`repro.errors` and its classes."""

    def __init__(self, module: Module) -> None:
        self.classes: set[str] = set()  # from repro.errors import X [as Y]
        self.modules: set[str] = set()  # import repro.errors as e / from repro import errors
        for node in module.walk():
            if isinstance(node, ast.ImportFrom) and node.module == "repro.errors":
                self.classes.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module == "repro":
                self.modules.update(
                    a.asname or a.name for a in node.names if a.name == "errors"
                )
            elif isinstance(node, ast.Import):
                self.modules.update(
                    a.asname
                    for a in node.names
                    if a.name == "repro.errors" and a.asname
                )
        self.local_classes = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }

    def is_errors_module(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.modules
        return (  # repro.errors
            isinstance(expr, ast.Attribute)
            and expr.attr == "errors"
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "repro"
        )

    def is_typed_class(self, name: str, seen: frozenset[str] = frozenset()) -> bool:
        """Imported from repro.errors, private, or a local class whose
        bases reach the hierarchy."""
        if name in self.classes or name.startswith("_"):
            return True
        definition = self.local_classes.get(name)
        if definition is None or name in seen:
            return False
        return any(
            self.is_typed_class(base.id, seen | {name})
            if isinstance(base, ast.Name)
            else isinstance(base, ast.Attribute) and self.is_errors_module(base.value)
            for base in definition.bases
        )


def _enclosing_function_name(module: Module, node: ast.AST) -> str | None:
    for parent in module.ancestors(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return parent.name
        if isinstance(parent, ast.Lambda):
            return None
    return None


def _raise_problem(module: Module, names: _ErrorNames, node: ast.Raise) -> str | None:
    exc = node.exc
    if exc is None or isinstance(exc, ast.Name):
        return None  # bare re-raise, a bound exception, a sentinel class
    if not isinstance(exc, ast.Call):
        return f"raise of non-name expression {ast.unparse(exc)!r}"
    func = exc.func
    if isinstance(func, ast.Attribute) and names.is_errors_module(func.value):
        return None
    if isinstance(func, ast.Name):
        if names.is_typed_class(func.id):
            return None
        if (
            func.id == "AttributeError"
            and _enclosing_function_name(module, node) in _ATTR_PROTOCOL_FUNCTIONS
        ):
            return None
    return f"raise of untyped exception {ast.unparse(func)!r}"


def _handler_problem(node: ast.ExceptHandler) -> str | None:
    if node.type is None:
        return "bare 'except:' hides every failure mode"
    if (
        isinstance(node.type, ast.Name)
        and node.type.id in ("Exception", "BaseException")
        and node.name is None
        and not any(isinstance(stmt, ast.Raise) for stmt in ast.walk(node))
    ):
        return f"blind 'except {node.type.id}:' swallows failures"
    return None


def untyped_failures(package: Path) -> tuple[int, list[str]]:
    """Every untyped raise and blind handler under ``package``.

    Returns the count of raises and handlers seen, and the findings.
    """
    count = 0
    findings: list[str] = []
    for module in iter_modules(package):
        names = _ErrorNames(module)
        for node in module.walk():
            if isinstance(node, ast.Raise):
                problem = _raise_problem(module, names, node)
            elif isinstance(node, ast.ExceptHandler):
                problem = _handler_problem(node)
            else:
                continue
            count += 1
            if problem is not None:
                findings.append(module.at(node, problem))
    return count, findings


class TestTypedRaises:
    def test_src_raises_are_typed_and_handlers_not_blind(self):
        count, findings = untyped_failures(PACKAGE)
        assert count > 0, "the scan found no raise or handler at all"
        assert findings == [], (
            "raise repro.errors classes and bind or re-raise in broad "
            f"handlers; found {findings}"
        )

    def test_untyped_raise_flagged(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "bad.py": (
                    "def go(x):\n"
                    "    if not x:\n"
                    "        raise ValueError('empty')\n"
                    "    raise x.error\n"
                )
            },
        )
        assert untyped_failures(package) == (
            2,
            [
                "repro/bad.py:3: raise of untyped exception 'ValueError'",
                "repro/bad.py:4: raise of non-name expression 'x.error'",
            ],
        )

    def test_typed_raise_and_reraise_forms_allowed(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "good.py": (
                    "import repro.errors as errs\n"
                    "from repro import errors\n"
                    "from repro.errors import ParseError\n"
                    "class _Sentinel(Exception):\n"
                    "    pass\n"
                    "class LocalError(ParseError):\n"
                    "    pass\n"
                    "class DeeperError(LocalError):\n"
                    "    pass\n"
                    "class ViaModule(errors.ReproError):\n"
                    "    pass\n"
                    "def go(x):\n"
                    "    try:\n"
                    "        if not x:\n"
                    "            raise ParseError('empty')\n"
                    "        if x == 1:\n"
                    "            raise DeeperError('deep')\n"
                    "        if x == 2:\n"
                    "            raise ViaModule('module base')\n"
                    "        if x == 3:\n"
                    "            raise errs.ParseError('alias')\n"
                    "        if x == 4:\n"
                    "            raise repro.errors.ParseError('dotted')\n"
                    "        raise _Sentinel('jump')\n"
                    "    except _Sentinel as exc:\n"
                    "        raise\n"
                )
            },
        )
        assert untyped_failures(package) == (8, [])

    def test_getattr_protocol_attributeerror_allowed(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "lazy.py": (
                    "def __getattr__(name):\n"
                    "    raise AttributeError(name)\n"
                    "def elsewhere(name):\n"
                    "    raise AttributeError(name)\n"
                )
            },
        )
        _, findings = untyped_failures(package)
        assert findings == [
            "repro/lazy.py:4: raise of untyped exception 'AttributeError'"
        ]

    def test_bare_and_blind_excepts_flagged(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "handlers.py": (
                    "def a(fn):\n"
                    "    try:\n"
                    "        fn()\n"
                    "    except:\n"
                    "        pass\n"
                    "def b(fn):\n"
                    "    try:\n"
                    "        fn()\n"
                    "    except Exception:\n"
                    "        pass\n"
                )
            },
        )
        assert untyped_failures(package) == (
            2,
            [
                "repro/handlers.py:4: bare 'except:' hides every failure mode",
                "repro/handlers.py:9: blind 'except Exception:' swallows failures",
            ],
        )

    def test_binding_or_reraising_handler_allowed(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "handlers.py": (
                    "from repro.errors import ReproError\n"
                    "def a(fn, log):\n"
                    "    try:\n"
                    "        fn()\n"
                    "    except Exception as exc:\n"
                    "        log(exc)\n"
                    "def b(fn):\n"
                    "    try:\n"
                    "        fn()\n"
                    "    except Exception:\n"
                    "        raise ReproError('wrapped')\n"
                )
            },
        )
        assert untyped_failures(package) == (3, [])
