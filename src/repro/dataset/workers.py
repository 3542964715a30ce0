"""Worker-count resolution and pool-task plumbing shared by every pool user.

A process pool can *lose* to a serial loop on small machines: spawning
workers, pickling results, and re-importing the library costs more than
the parallelism returns when there is nothing to run in parallel with
(``docs/performance.md``, "Worker tuning", has measured figures).  Every
pool user therefore resolves its worker request through
:func:`resolve_workers`, which collapses to serial execution whenever the
effective width is one — including any request on a single-core machine.

The helpers below are the pool users' shared task plumbing:
:func:`process_pool` opens a forked pool, :func:`contiguous_batches` cuts
work into one ordered batch per task, and :func:`call_with_metrics` runs
a task under a private metrics registry so the parent can merge what the
worker observed.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

from repro.errors import WorkerCountError
from repro.telemetry import MetricsRegistry, use_registry

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

T = TypeVar("T")

#: The sentinel accepted everywhere a worker count is: one worker per core.
AUTO_WORKERS = "auto"


def default_workers() -> int:
    """The default fan-out: one worker per available core."""
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: int | str | None, default: int | str = 1) -> int:
    """Resolve a worker request to the count of workers actually worth using.

    Args:
        workers: ``None`` (take ``default``), ``"auto"`` or ``0`` (one per
            CPU core), or an explicit positive count.
        default: what ``None`` means for this call site — ``1`` for the
            loaders (serial unless asked), ``"auto"`` for the bulk engine.

    Returns:
        The effective worker count.  Always ``1`` on a single-core machine,
        whatever was requested: the pool cannot win there, so callers skip
        it entirely.

    Raises:
        WorkerCountError: for counts below 1 (other than the ``0`` /
            ``"auto"`` sentinel), non-integral counts, or unrecognised
            strings.  Also a :class:`ValueError`, so argument-validating
            callers catch it naturally.  A negative count must never
            reach :class:`~concurrent.futures.ProcessPoolExecutor`,
            which would only reject it with an opaque message — or,
            after a ``min()`` against a batch count, silently spawn the
            wrong pool.
    """
    if workers is None:
        workers = default
    if isinstance(workers, str):
        if workers != AUTO_WORKERS:
            raise WorkerCountError(
                f"workers must be a count, 0, or {AUTO_WORKERS!r}; got {workers!r}"
            )
        workers = 0
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise WorkerCountError(
            f"workers must be an int, 0, or {AUTO_WORKERS!r}; got {workers!r}"
        )
    if workers < 0:
        raise WorkerCountError(
            f"workers must be >= 1 (0 or {AUTO_WORKERS!r} = one per CPU core), "
            f"got {workers}"
        )
    cpus = os.cpu_count() or 1
    if workers == 0:
        workers = cpus
    if cpus <= 1:
        return 1
    return workers


def process_pool(max_workers: int) -> "ProcessPoolExecutor":
    """A forked process pool of ``max_workers`` — the one place pools open.

    ``multiprocessing`` (and the pool machinery on top of it) is imported
    here, on first use, so a process that never opens a pool — the
    server, a one-worker ingest run — never loads it.  Workers fork, so
    they inherit every module the parent already imported.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=max_workers, mp_context=multiprocessing.get_context("fork")
    )


def contiguous_batches(items: Sequence[T], count: int) -> list[Sequence[T]]:
    """``items`` cut into at most ``count`` near-equal slices, in order."""
    size = max(1, -(-len(items) // count))
    return [items[start : start + size] for start in range(0, len(items), size)]


def call_with_metrics(function: Callable[..., T], *args: Any) -> tuple[T, dict]:
    """Pool-task side: run ``function(*args)`` under a private registry.

    Returns the result and the registry's snapshot.  A worker process's
    own registry never reaches the parent, so the parent merges the
    snapshot instead (:meth:`~repro.telemetry.MetricsRegistry.merge`);
    counters then total what a serial run records.
    """
    local = MetricsRegistry()
    with use_registry(local):
        result = function(*args)
    return result, local.snapshot()
