"""REP004 — pool-submitted callables must be module-level (picklable).

``ProcessPoolExecutor`` pickles the submitted callable by qualified
name.  A lambda or a function defined inside another function pickles
only at submission *time of failure* — the error surfaces deep inside
the pool machinery, long after the code that introduced it.  Every pool
is driven by ``repro.dataset.workers.OrderedPool``, whose one
``.submit(...)`` site passes the module-level ``_call_with_metrics``;
the kernels it carries as arguments (``ingest._process_batch``,
``index._index_batch``) are module-level for the same reason, and the
pooled tier-1 tests run each of them.  The rule keeps every
``.submit(...)`` site that way.

Accepted first arguments: a name bound at module level (def, class, or
import), a dotted attribute rooted in an imported module, and
``functools.partial(...)`` of either.  Everything else — lambdas, names
only bound inside the enclosing function, bound methods of local
objects — is flagged.

``ThreadPoolExecutor`` receivers are exempt: threads share the process,
nothing is pickled, and bound methods are the natural way to hand a
worker its shared state.  The rule tracks names bound to ``ThreadPoolExecutor(...)`` —
by assignment or ``with ... as name`` — and skips their ``.submit``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.engine import Finding, Rule, SourceModule


def _root_name(expr: ast.expr) -> str | None:
    """The leftmost name of a dotted attribute chain, if any."""
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _leaf_name(expr: ast.expr) -> str | None:
    """The rightmost name of a call target (``x.y.Z`` → ``Z``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return expr.id if isinstance(expr, ast.Name) else None


def _is_thread_pool_call(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and _leaf_name(expr.func) == "ThreadPoolExecutor"
    )


class PicklableSubmitRule(Rule):
    rule_id = "REP004"
    summary = "callables handed to ProcessPoolExecutor.submit are module-level"

    def __init__(self) -> None:
        self._thread_pools: set[str] = set()

    def begin_module(self, module: SourceModule) -> None:
        """Collect the names this file binds to ``ThreadPoolExecutor``s."""
        self._thread_pools = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and _is_thread_pool_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._thread_pools.add(target.id)
            elif isinstance(node, ast.withitem) and _is_thread_pool_call(
                node.context_expr
            ):
                if isinstance(node.optional_vars, ast.Name):
                    self._thread_pools.add(node.optional_vars.id)

    def visit_Call(
        self, node: ast.Call, module: SourceModule
    ) -> Iterable[Finding]:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            return ()
        receiver = _root_name(node.func.value)
        if receiver is not None and receiver in self._thread_pools:
            return ()  # thread pools share the process; nothing pickles
        if _is_thread_pool_call(node.func.value):
            return ()  # ThreadPoolExecutor(...).submit(...) inline
        problem = self._describe_problem(node.args[0], module)
        if problem is None:
            return ()
        return [
            self.finding(
                module,
                node,
                f"{problem} submitted to a process pool — workers must be "
                f"module-level so they pickle",
            )
        ]

    def _describe_problem(
        self, candidate: ast.expr, module: SourceModule
    ) -> str | None:
        """Why ``candidate`` may not pickle; ``None`` when it looks safe."""
        if isinstance(candidate, ast.Lambda):
            return "lambda"
        if isinstance(candidate, ast.Name):
            if candidate.id in module.toplevel_names:
                return None
            return f"locally-bound callable {candidate.id!r}"
        if isinstance(candidate, ast.Attribute):
            root = _root_name(candidate)
            if root is not None and root in module.imported_modules:
                return None
            return f"bound attribute {ast.unparse(candidate)!r}"
        if isinstance(candidate, ast.Call):
            callee = candidate.func
            callee_name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr
                if isinstance(callee, ast.Attribute)
                else None
            )
            if callee_name == "partial" and candidate.args:
                return self._describe_problem(candidate.args[0], module)
            return "dynamically constructed callable"
        return "non-name callable expression"
