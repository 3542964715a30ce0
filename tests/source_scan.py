"""The source walk shared by the invariant scans (``tests/test_rep0*.py``).

Each REP test walks the AST of every ``*.py`` file under a package
directory: the real ``src/repro`` in the test that must come back clean,
a throwaway tree under ``tmp_path`` in the probes that plant a
violation.  Findings are strings, ``relpath:line: message``, so a
failing assertion names every site at once.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

#: The package every scan's real-tree test walks.
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


@dataclass
class Module:
    """One parsed source file under the scanned package."""

    relpath: str  # relative to the package's parent, e.g. "repro/server/app.py"
    name: str  # dotted module name, e.g. "repro.server.app"
    text: str
    tree: ast.Module

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child → parent for every node, so a check can climb for context."""
        mapping: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                mapping[child] = parent
        return mapping

    def walk(self) -> Iterator[ast.AST]:
        """Every node, depth first in source order (``ast.walk`` is
        breadth first), so findings come out by line."""
        stack: list[ast.AST] = [self.tree]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(ast.iter_child_nodes(node))))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The nodes enclosing ``node``, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def comments(self) -> Iterator[tuple[int, str]]:
        """``(line, text)`` of every comment token: a directive quoted in a
        docstring is not a comment."""
        readline = io.StringIO(self.text).readline
        for token in tokenize.generate_tokens(readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string

    def at(self, node: ast.AST, message: str) -> str:
        """A finding at ``node``'s line."""
        return f"{self.relpath}:{getattr(node, 'lineno', 1)}: {message}"


def iter_modules(package: Path) -> Iterator[Module]:
    """Every ``*.py`` file under ``package``, parsed, in path order."""
    for path in sorted(package.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        relative = path.relative_to(package.parent)
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        text = path.read_text(encoding="utf-8")
        yield Module(
            relpath=relative.as_posix(),
            name=".".join(parts),
            text=text,
            tree=ast.parse(text, filename=str(path)),
        )


def write_package(tmp_path: Path, files: dict[str, str]) -> Path:
    """Lay ``files`` (paths relative to the package) out as ``repro/``."""
    package = tmp_path / "repro"
    for relpath, text in files.items():
        target = package / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return package
