"""Worker-count resolution and the one pool driver shared by every pool user.

A process pool can *lose* to a serial loop on small machines: spawning
workers, pickling results, and re-importing the library costs more than
the parallelism returns when there is nothing to run in parallel with
(``docs/performance.md``, "Worker tuning", has measured figures).  Every
pool user therefore resolves its worker request through
:func:`resolve_workers`, which collapses to serial execution whenever the
effective width is one — including any request on a single-core machine.

Every pool is driven by one :class:`OrderedPool`: it opens a forked
pool (:func:`process_pool`) the first time it is handed more than one
batch, returns each batch's result in submission order, and merges each
worker's metrics into the caller's registry.  The ingest daemon owns one
per run; :func:`~repro.dataset.index.build_index` borrows the caller's
(:func:`lend_pool`) or opens its own.  :func:`contiguous_batches` cuts
work into one ordered batch per task.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TypeVar

from repro.errors import WorkerCountError
from repro.telemetry import MetricsRegistry, get_registry, use_registry

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

B = TypeVar("B")
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
    they inherit every module the parent already imported.  Each worker
    exits on its own once the parent is gone (:func:`_exit_with_parent`),
    so a SIGKILL'd daemon leaves no orphaned workers behind.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )


#: How often a pool worker checks that its parent is still alive.
_PARENT_POLL_SECONDS = 1.0


def _exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: exit once the parent process is gone.

    A worker blocks on its task queue, whose write end every forked
    sibling also holds, so a parent killed without a shutdown never
    wakes it: the worker is reparented and lives on.  A daemon thread
    notices the reparenting (``os.getppid()`` no longer ``parent``)
    and ends the process.
    """
    import threading
    import time

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def contiguous_batches(items: Sequence[T], count: int) -> list[Sequence[T]]:
    """``items`` cut into at most ``count`` near-equal slices, in order."""
    size = max(1, -(-len(items) // count))
    return [items[start : start + size] for start in range(0, len(items), size)]


def _call_with_metrics(task: Callable[[B], T], batch: B) -> tuple[T, dict]:
    """Pool-task side: run ``task(batch)`` under a private registry.

    Returns the result and the registry's snapshot.  A worker process's
    own registry never reaches the parent, so the parent merges the
    snapshot instead (:meth:`~repro.telemetry.MetricsRegistry.merge`);
    counters then total what a serial run records.
    """
    local = MetricsRegistry()
    with use_registry(local):
        result = task(batch)
    return result, local.snapshot()


class OrderedPool:
    """A forked pool of ``width`` workers, opened on first need.

    :meth:`map` runs a lone batch in the calling thread; given more, it
    opens :func:`process_pool` (once, for every later map too).
    :meth:`close` shuts it down, cancelling queued tasks.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self._executor: ProcessPoolExecutor | None = None

    def map(self, task: Callable[[B], T], batches: Sequence[B]) -> Iterator[T]:
        """``task(batch)`` for each batch, in order; ``task`` must pickle.

        At most two batches per worker are in flight.  Each pool task
        runs under a private registry whose snapshot is merged into the
        caller's as its result is taken, so counters total what a serial
        run records.
        """
        if len(batches) <= 1:
            yield from (task(batch) for batch in batches)
            return
        if self._executor is None:
            self._executor = process_pool(self.width)
        registry = get_registry()
        queued = iter(batches)
        in_flight: deque[Future] = deque()
        while True:
            for batch in islice(queued, 2 * self.width - len(in_flight)):
                in_flight.append(self._executor.submit(_call_with_metrics, task, batch))
            if not in_flight:
                return
            result, worker_metrics = in_flight.popleft().result()
            registry.merge(worker_metrics)
            yield result

    def close(self) -> None:
        """Shut the pool down (if it opened), cancelling queued tasks."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None


@contextmanager
def lend_pool(workers: int | str | None | OrderedPool) -> Iterator[OrderedPool]:
    """``workers`` itself if it is a pool, else a new one closed on exit."""
    if isinstance(workers, OrderedPool):
        yield workers
        return
    pool = OrderedPool(resolve_workers(workers))
    try:
        yield pool
    finally:
        pool.close()
