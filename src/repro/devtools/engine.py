"""Project-native static analysis: the invariant-linter engine.

The reproduction's credibility rests on invariants no general-purpose
linter knows about — byte-identical fast-path/DOM output, picklable pool
workers, the typed :mod:`repro.errors` hierarchy, ``ParseOptions``-only
internal calls, telemetry naming conventions, a frozen public API
surface.  This module provides the machinery that machine-checks them:

* **file discovery** over one or more source roots (``__pycache__``
  skipped, deterministic order);
* **per-rule visitor dispatch** — each rule declares ``visit_<Node>``
  methods and every file is walked exactly once, with nodes fanned out
  to the rules that care;
* a :class:`Finding` record (rule id, path, line, column, severity,
  message) with stable ordering;
* **suppressions** — ``# repro: noqa[REP005]`` (comma-separated ids) on
  the offending line, with unused suppressions reported as ``REP000``
  findings so stale annotations cannot linger;
* **human and JSON reporters** (:func:`render_human`,
  :func:`render_json`).

The rule pack itself lives in :mod:`repro.devtools.rules`; the CLI front
door is ``repro-weather check``.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.errors import StaticAnalysisError

#: Rule id reserved for unused-suppression findings.
UNUSED_SUPPRESSION_RULE = "REP000"
#: Rule id reserved for files the engine cannot parse.
UNPARSEABLE_RULE = "REP999"

#: Matches the suppression marker inside a comment token — the text
#: after the hash reads ``repro: noqa[REP005]`` (ids comma-separated).
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]")

#: Matches any ``repro:`` directive — ``guarded-by[_lock]``,
#: ``locked-by-caller[_lock]``, and whatever future rules define.  The
#: ``noqa`` marker also matches; :attr:`SourceModule.directives` filters
#: it out since suppression handling has its own machinery.
_DIRECTIVE_RE = re.compile(r"#\s*repro:\s*([a-z][a-z0-9-]*)\[([^\]]*)\]")

_JSON_SCHEMA_VERSION = 2


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # root-relative, POSIX separators
    line: int
    col: int
    message: str
    severity: str = "error"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass(frozen=True)
class CheckConfig:
    """Where the checker looks and which cross-file inputs it verifies.

    Attributes:
        root: repository root; every reported path is relative to it.
        src_roots: package directories whose ``*.py`` files are linted.
        observability_doc: the instrument catalogue REP002 cross-checks
            (``None`` or missing file: the documentation half of REP002
            is skipped, the naming half still runs).
        api_init: the ``__init__.py`` whose public surface REP006
            guards (``None`` or missing file: REP006 is skipped).
        api_snapshot: the committed JSON snapshot REP006 compares
            against.
        update_api_snapshot: rewrite ``api_snapshot`` from the current
            surface instead of diffing against it.
    """

    root: Path
    src_roots: tuple[Path, ...]
    observability_doc: Path | None = None
    api_init: Path | None = None
    api_snapshot: Path | None = None
    update_api_snapshot: bool = False


def discover_root(start: Path | None = None) -> Path:
    """Locate the repository root: the directory holding ``src/repro``.

    Walks upward from ``start`` (default: the working directory); falls
    back to the installed package location when it sits in an src
    layout.

    Raises:
        StaticAnalysisError: no plausible root anywhere.
    """
    probe = (start or Path.cwd()).resolve()
    for candidate in (probe, *probe.parents):
        if (candidate / "src" / "repro" / "__init__.py").is_file():
            return candidate
    package_dir = Path(__file__).resolve().parent.parent  # src/repro
    if package_dir.parent.name == "src":
        return package_dir.parent.parent
    raise StaticAnalysisError(
        f"cannot locate a repository root (no src/repro above {probe})"
    )


def default_config(
    root: Path | None = None, update_api_snapshot: bool = False
) -> CheckConfig:
    """The repository's standard check configuration."""
    resolved = discover_root(root) if root is None else Path(root).resolve()
    package = resolved / "src" / "repro"
    if not package.is_dir():
        raise StaticAnalysisError(f"no src/repro package under {resolved}")
    return CheckConfig(
        root=resolved,
        src_roots=(package,),
        observability_doc=resolved / "docs" / "observability.md",
        api_init=package / "__init__.py",
        api_snapshot=resolved / "api_surface.json",
        update_api_snapshot=update_api_snapshot,
    )


class SourceModule:
    """One parsed source file plus the derived views rules share."""

    def __init__(self, path: Path, relpath: str, name: str, text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.name = name  # dotted module name, e.g. "repro.parsing.pipeline"
        self.text = text
        self.tree = ast.parse(text, filename=str(path))

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child → parent for every node (rules climb for context)."""
        mapping: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                mapping[child] = parent
        return mapping

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        """The innermost function/lambda definition containing ``node``."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return current
            current = self.parents.get(current)
        return None

    @cached_property
    def suppressions(self) -> dict[int, set[str]]:
        """Line number → rule ids suppressed on that line.

        Tokenizer-based, so the marker only counts inside real comment
        tokens — a noqa example quoted in a docstring is inert.
        """
        table: dict[int, set[str]] = {}
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except tokenize.TokenError:
            return table
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is None:
                continue
            rules = {
                item.strip().upper()
                for item in match.group(1).split(",")
                if item.strip()
            }
            if rules:
                table.setdefault(token.start[0], set()).update(rules)
        return table

    @cached_property
    def directives(self) -> dict[int, list[tuple[str, str]]]:
        """Line number → ``(directive, argument)`` pairs on that line.

        The generic half of the comment grammar: ``# repro: <name>[<arg>]``
        with a lowercase-kebab name.  Tokenizer-based like
        :attr:`suppressions`, so a directive quoted in a docstring is
        inert.  ``noqa`` markers are excluded — they are suppressions,
        not declarations.
        """
        table: dict[int, list[tuple[str, str]]] = {}
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except tokenize.TokenError:
            return table
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            for match in _DIRECTIVE_RE.finditer(token.string):
                name, argument = match.group(1), match.group(2).strip()
                if name == "noqa":
                    continue
                table.setdefault(token.start[0], []).append((name, argument))
        return table

    @cached_property
    def errors_imports(self) -> set[str]:
        """Local names imported from :mod:`repro.errors`."""
        names: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.errors":
                for alias in node.names:
                    names.add(alias.asname or alias.name)
        return names

    @cached_property
    def errors_module_aliases(self) -> set[str]:
        """Local names bound to the :mod:`repro.errors` module itself."""
        aliases: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.errors" and alias.asname:
                        aliases.add(alias.asname)
            elif isinstance(node, ast.ImportFrom) and node.module == "repro":
                for alias in node.names:
                    if alias.name == "errors":
                        aliases.add(alias.asname or alias.name)
        return aliases

    @cached_property
    def local_classes(self) -> dict[str, ast.ClassDef]:
        """Module-level class definitions by name."""
        return {
            node.name: node
            for node in self.tree.body
            if isinstance(node, ast.ClassDef)
        }


class Rule:
    """Base class for one invariant check.

    Subclasses set :attr:`rule_id` and :attr:`summary`, implement any
    ``visit_<NodeType>`` methods (called once per matching node during
    the engine's single walk, returning an iterable of findings or
    ``None``), and may override :meth:`end_module` / :meth:`finish` for
    per-file wrap-up and cross-file checks.
    """

    rule_id = "REP???"
    summary = ""

    def begin_module(self, module: SourceModule) -> None:
        """Reset per-file state before ``module`` is walked."""

    def end_module(self, module: SourceModule) -> Iterable[Finding]:
        """Findings that need the whole file to have been walked."""
        return ()

    def finish(self, config: CheckConfig) -> Iterable[Finding]:
        """Cross-file findings, after every module has been walked."""
        return ()

    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        """A finding of this rule at ``node``'s location."""
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class CheckResult:
    """Everything one run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressions_used: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for item in self.findings:
            counts[item.rule] = counts.get(item.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_source_files(config: CheckConfig) -> Iterator[tuple[Path, str, str]]:
    """Yield ``(path, root-relative path, dotted module name)`` for every
    linted file, in deterministic order."""
    for src_root in config.src_roots:
        if not src_root.is_dir():
            raise StaticAnalysisError(f"source root {src_root} is not a directory")
        package_parent = src_root.parent
        for path in sorted(src_root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            relative = path.relative_to(config.root)
            dotted = path.relative_to(package_parent).with_suffix("")
            parts = list(dotted.parts)
            if parts[-1] == "__init__":
                parts.pop()
            yield path, relative.as_posix(), ".".join(parts)


def _dispatch_table(
    rule: Rule,
) -> dict[str, Callable[[ast.AST, SourceModule], Iterable[Finding] | None]]:
    """``visit_<NodeType>`` methods of one rule, keyed by node type name."""
    table = {}
    for attr in dir(rule):
        if attr.startswith("visit_"):
            table[attr[len("visit_"):]] = getattr(rule, attr)
    return table


def run_checks(
    config: CheckConfig, rules: Iterable[Rule] | None = None
) -> CheckResult:
    """Run the rule pack over the configured tree.

    Raises:
        StaticAnalysisError: the configuration is unusable (bad roots);
            individual file problems become findings instead.
    """
    if rules is None:
        from repro.devtools.rules import default_rules

        rules = default_rules()
    active = list(rules)
    tables = [(rule, _dispatch_table(rule)) for rule in active]

    result = CheckResult()
    kept: list[Finding] = []
    for path, relpath, name in iter_source_files(config):
        text = path.read_text(encoding="utf-8")
        try:
            module = SourceModule(path, relpath, name, text)
        except SyntaxError as exc:
            kept.append(
                Finding(
                    rule=UNPARSEABLE_RULE,
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        result.files_checked += 1
        raw: list[Finding] = []
        for rule in active:
            rule.begin_module(module)
        for node in ast.walk(module.tree):
            node_type = type(node).__name__
            for rule, table in tables:
                visitor = table.get(node_type)
                if visitor is not None:
                    produced = visitor(node, module)
                    if produced:
                        raw.extend(produced)
        for rule in active:
            raw.extend(rule.end_module(module))
        kept.extend(_apply_suppressions(module, raw, result))
    for rule in active:
        kept.extend(rule.finish(config))
    result.findings = sorted(kept, key=Finding.sort_key)
    return result


def _apply_suppressions(
    module: SourceModule, raw: list[Finding], result: CheckResult
) -> list[Finding]:
    """Drop suppressed findings; report suppressions that caught nothing."""
    used: set[tuple[int, str]] = set()
    kept: list[Finding] = []
    for item in raw:
        if item.rule in module.suppressions.get(item.line, set()):
            used.add((item.line, item.rule))
            result.suppressions_used += 1
        else:
            kept.append(item)
    for line, rules in sorted(module.suppressions.items()):
        for rule_id in sorted(rules):
            if (line, rule_id) not in used:
                kept.append(
                    Finding(
                        rule=UNUSED_SUPPRESSION_RULE,
                        path=module.relpath,
                        line=line,
                        col=1,
                        message=(
                            f"unused suppression: no {rule_id} finding on "
                            f"this line — remove the noqa"
                        ),
                    )
                )
    return kept


def render_human(result: CheckResult) -> str:
    """The terminal report: one line per finding plus a summary."""
    lines = [
        f"{item.path}:{item.line}:{item.col} {item.rule} {item.message}"
        for item in result.findings
    ]
    if result.findings:
        by_rule = ", ".join(
            f"{rule}:{count}" for rule, count in result.counts_by_rule().items()
        )
        lines.append(
            f"{len(result.findings)} finding"
            f"{'s' if len(result.findings) != 1 else ''} "
            f"in {result.files_checked} files ({by_rule})"
        )
    else:
        lines.append(f"clean: {result.files_checked} files checked")
    return "\n".join(lines)


def rule_catalogue() -> dict[str, str]:
    """Every rule id → one-line summary, engine-reserved ids included."""
    from repro.devtools.rules import default_rules

    catalogue = {
        UNUSED_SUPPRESSION_RULE: "unused suppression or stale declaration",
        UNPARSEABLE_RULE: "file does not parse",
    }
    for rule in default_rules():
        catalogue[rule.rule_id] = rule.summary
    return dict(sorted(catalogue.items()))


def render_json(result: CheckResult) -> str:
    """The machine report (schema version 2, stable key order).

    Version 2 adds the ``rules`` catalogue (id → summary for every rule
    the engine ships, including the reserved ids) so consumers can label
    the per-rule ``counts`` without a copy of the docs.
    """
    payload = {
        "version": _JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "ok": result.ok,
        "rules": rule_catalogue(),
        "counts": result.counts_by_rule(),
        "suppressions_used": result.suppressions_used,
        "findings": [item.as_dict() for item in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
