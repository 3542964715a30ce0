"""The runtime lock sanitizer: instrumented locks for the repro package.

Test tooling, kept beside the tests it serves (pytest does not collect
it).  REP009 (``tests/test_rep009_guarded_by.py``) checks the lock
discipline the source *declares*; this module checks the discipline the
process *executes*.  In the opt-in instrumented mode (``REPRO_TSAN=1``
or ``pytest --repro-tsan``) every ``threading.Lock`` / ``threading.RLock``
constructed **from inside the repro package** is wrapped so the
sanitizer observes each acquisition and release:

* **lock-order inversions** — acquiring B while holding A records the
  directed edge A→B in a process-wide graph; the first acquisition that
  completes a reversed edge is reported with both acquisition sites
  (the lockdep algorithm: the inversion is caught even when the unlucky
  interleaving never happens in the run);
* **same-lock re-entry** — a thread blocking on a non-reentrant lock it
  already holds would deadlock silently; the sanitizer raises
  :class:`~repro.errors.ConcurrencyError` at the faulty ``acquire``
  instead, with the original acquisition site in the message;
* **long-held locks** — a hold longer than :data:`LONG_HOLD_MS` is
  reported as a non-fatal warning (slow I/O under a hot lock is a
  latency bug, not a correctness one).

Stdlib internals stay raw: the wrapping decision looks at the *calling
module* of the lock constructor, so ``queue.Queue``'s mutex, executor
plumbing, and test-file locks are untouched and the probe overhead lands
only where the invariants live.  Nonblocking acquires are exempt from
re-entry/inversion checks — they cannot deadlock, and
``threading.Condition``'s ``_is_owned`` fallback legitimately probes a
self-held lock with ``acquire(False)``.

The pytest plugin in ``tests/conftest.py`` installs the sanitizer for
the whole session and fails the run on any fatal finding; unit tests
instrument individual locks through :meth:`LockSanitizer.wrap` without
touching global state.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Union

from repro.errors import ConcurrencyError

__all__ = [
    "LONG_HOLD_MS",
    "LockSanitizer",
    "SanitizerFinding",
    "SanitizerReport",
    "active_sanitizer",
    "install_sanitizer",
    "measure_overhead",
    "uninstall_sanitizer",
]

#: The real factories, captured before any patching can happen.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

#: Finding kinds that fail a sanitized run.
FATAL_KINDS = frozenset({"lock-order-inversion", "lock-reentry"})

#: The warning threshold for a single lock hold: far above any correct
#: hot-path hold (microseconds) but below anything a user would call a
#: stall.
LONG_HOLD_MS = 500.0


@dataclass(frozen=True)
class SanitizerFinding:
    """One observed violation (or warning) with its acquisition sites."""

    kind: str
    message: str

    @property
    def fatal(self) -> bool:
        return self.kind in FATAL_KINDS


class SanitizerReport:
    """Thread-safe accumulator of everything a sanitized run observed."""

    def __init__(self) -> None:
        self._lock = _REAL_LOCK()
        self._findings: list[SanitizerFinding] = []

    def add(self, finding: SanitizerFinding) -> None:
        with self._lock:
            self._findings.append(finding)

    def findings(self) -> list[SanitizerFinding]:
        with self._lock:
            return list(self._findings)

    def fatal(self) -> list[SanitizerFinding]:
        return [finding for finding in self.findings() if finding.fatal]

    def clear(self) -> None:
        with self._lock:
            self._findings.clear()

    def render(self) -> str:
        """The human report: one line per finding plus a verdict."""
        items = self.findings()
        if not items:
            return "repro-tsan: clean — no lock-order inversions or races"
        lines = [f"repro-tsan: {len(items)} finding(s)"]
        for finding in items:
            marker = "FATAL" if finding.fatal else "warn"
            lines.append(f"  [{marker}] {finding.kind}: {finding.message}")
        return "\n".join(lines)


@dataclass
class _Held:
    """One entry of a thread's held-lock stack."""

    lock: "_InstrumentedLock"
    since: float
    site: str


@dataclass(frozen=True)
class _Edge:
    """First-observed acquisition order between two locks."""

    outer_name: str
    inner_name: str
    site: str
    thread: str


def _describe_frame(depth: int) -> str:
    """``file:line in function`` of the nearest non-machinery caller."""
    frame = sys._getframe(depth)
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name != __name__ and name != "threading":
            return (
                f"{frame.f_code.co_filename}:{frame.f_lineno} "
                f"in {frame.f_code.co_name}"
            )
        frame = frame.f_back
    return "<unknown>"


class _InstrumentedLock:
    """One wrapped lock delegating to a real Lock/RLock, reporting to the
    owning :class:`LockSanitizer`.

    Implements the full ``threading.Lock`` protocol (``acquire`` /
    ``release`` / context manager / ``locked``), so it composes with
    ``threading.Condition`` and any code written against the stdlib API.
    """

    __slots__ = (
        "_inner", "_sanitizer", "name", "seq", "reentrant", "_owner", "_depth",
    )

    def __init__(
        self,
        sanitizer: "LockSanitizer",
        seq: int,
        name: str,
        reentrant: bool,
    ) -> None:
        self._inner = _REAL_RLOCK() if reentrant else _REAL_LOCK()
        self._sanitizer = sanitizer
        self.name = name
        self.seq = seq
        self.reentrant = reentrant
        self._owner: int | None = None
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        tid = threading.get_ident()
        if self.reentrant and self._owner == tid:
            # Nested hold of an RLock: legal, and only the outermost
            # acquisition participates in ordering.
            self._inner.acquire(blocking, timeout)
            self._depth += 1
            return True
        if blocking:
            # Nonblocking probes cannot deadlock and are how Condition's
            # _is_owned fallback legitimately touches a self-held lock.
            self._sanitizer._before_blocking_acquire(self, tid)
        if timeout == -1:
            acquired = self._inner.acquire(blocking)
        else:
            acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            if self.reentrant:
                self._owner = tid
                self._depth = 1
            self._sanitizer._on_acquired(self)
        return acquired

    def release(self) -> None:
        if self.reentrant and self._owner == threading.get_ident():
            if self._depth > 1:
                self._depth -= 1
                self._inner.release()
                return
            self._owner = None
            self._depth = 0
        self._sanitizer._on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        locked = getattr(self._inner, "locked", None)
        if locked is not None:
            return bool(locked())
        return self._owner is not None  # RLocks grew .locked() only in 3.12

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        kind = "RLock" if self.reentrant else "Lock"
        return f"<sanitized {kind} #{self.seq} {self.name}>"


class LockSanitizer:
    """The observer: wraps locks, tracks per-thread holds, finds trouble.

    One instance owns one report and one acquisition-order graph.
    :func:`install_sanitizer` creates the process-global instance and
    patches the ``threading`` factories; tests build private instances
    and wrap individual locks with :meth:`wrap`.
    """

    def __init__(self) -> None:
        self.report = SanitizerReport()
        self._state = _REAL_LOCK()  # guards _edges and _seq (raw: never observed)
        self._edges: dict[tuple[int, int], _Edge] = {}
        self._seq = 0
        self._held = threading.local()

    # -- construction --------------------------------------------------------

    def wrap(self, name: str | None = None, reentrant: bool = False) -> _InstrumentedLock:
        """A fresh instrumented lock reporting to this sanitizer."""
        with self._state:
            self._seq += 1
            seq = self._seq
        if name is None:
            name = _describe_frame(1)
        return _InstrumentedLock(self, seq, name, reentrant)

    # -- per-thread held stack ----------------------------------------------

    def _stack(self) -> list[_Held]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def held_count(self) -> int:
        """Locks the calling thread currently holds (introspection/tests)."""
        return len(self._stack())

    # -- the three detectors -------------------------------------------------

    def _before_blocking_acquire(
        self, lock: _InstrumentedLock, tid: int
    ) -> None:
        stack = self._stack()
        site = _describe_frame(3)
        thread = threading.current_thread().name
        for held in stack:
            if held.lock is lock:
                finding = SanitizerFinding(
                    kind="lock-reentry",
                    message=(
                        f"thread {thread!r} re-acquires non-reentrant lock "
                        f"{lock.name} at {site}; first acquired at "
                        f"{held.site} — this blocks forever"
                    ),
                )
                self.report.add(finding)
                raise ConcurrencyError(finding.message)
        if not stack:
            return
        with self._state:
            for held in stack:
                key = (held.lock.seq, lock.seq)
                reverse = self._edges.get((lock.seq, held.lock.seq))
                if reverse is not None:
                    self.report.add(
                        SanitizerFinding(
                            kind="lock-order-inversion",
                            message=(
                                f"thread {thread!r} takes {lock.name} while "
                                f"holding {held.lock.name} (at {site}), but "
                                f"thread {reverse.thread!r} took them in the "
                                f"opposite order (at {reverse.site}) — "
                                f"deadlock under the unlucky interleaving"
                            ),
                        )
                    )
                elif key not in self._edges:
                    self._edges[key] = _Edge(
                        outer_name=held.lock.name,
                        inner_name=lock.name,
                        site=site,
                        thread=thread,
                    )

    def _on_acquired(self, lock: _InstrumentedLock) -> None:
        self._stack().append(
            _Held(lock=lock, since=perf_counter(), site=_describe_frame(3))
        )

    def _on_release(self, lock: _InstrumentedLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].lock is lock:
                held = stack.pop(index)
                held_ms = (perf_counter() - held.since) * 1000.0
                if held_ms > LONG_HOLD_MS:
                    self.report.add(
                        SanitizerFinding(
                            kind="long-held-lock",
                            message=(
                                f"lock {lock.name} held {held_ms:.0f} ms "
                                f"(> {LONG_HOLD_MS:.0f} ms) by "
                                f"thread "
                                f"{threading.current_thread().name!r}; "
                                f"acquired at {held.site}"
                            ),
                        )
                    )
                return
        # Released by a thread that never acquired it (legal for Lock,
        # e.g. hand-off patterns) or acquired before instrumentation:
        # nothing to account.


# ---------------------------------------------------------------------------
# Global install: patch the threading factories for repro-package callers
# ---------------------------------------------------------------------------

_ACTIVE: LockSanitizer | None = None
_INSTALL_LOCK = _REAL_LOCK()


def _caller_module_name() -> str:
    """``__name__`` of the module calling the patched factory."""
    frame = sys._getframe(2)
    if frame is None:
        return ""
    return str(frame.f_globals.get("__name__", ""))


def install_sanitizer() -> LockSanitizer:
    """Install the process-global sanitizer (idempotent).

    After this call, ``threading.Lock()`` / ``threading.RLock()``
    executed from a module whose name starts with ``repro`` return
    instrumented locks reporting to the returned sanitizer; every other
    caller (stdlib, tests, third-party) gets the real thing.
    """
    global _ACTIVE
    with _INSTALL_LOCK:
        if _ACTIVE is not None:
            return _ACTIVE
        sanitizer = LockSanitizer()

        def _lock_factory() -> Union[_InstrumentedLock, threading.Lock]:
            if _caller_module_name().startswith("repro"):
                return sanitizer.wrap(name=_describe_frame(1), reentrant=False)
            return _REAL_LOCK()

        def _rlock_factory() -> Union[_InstrumentedLock, threading.RLock]:
            if _caller_module_name().startswith("repro"):
                return sanitizer.wrap(name=_describe_frame(1), reentrant=True)
            return _REAL_RLOCK()

        setattr(threading, "Lock", _lock_factory)
        setattr(threading, "RLock", _rlock_factory)
        _ACTIVE = sanitizer
        return sanitizer


def uninstall_sanitizer() -> LockSanitizer | None:
    """Restore the real factories; returns the sanitizer that was active.

    Locks created while installed stay instrumented (and functional) —
    only construction reverts.
    """
    global _ACTIVE
    with _INSTALL_LOCK:
        previous = _ACTIVE
        if previous is not None:
            setattr(threading, "Lock", _REAL_LOCK)
            setattr(threading, "RLock", _REAL_RLOCK)
            _ACTIVE = None
        return previous


def active_sanitizer() -> LockSanitizer | None:
    """The installed sanitizer, or ``None`` outside instrumented mode."""
    return _ACTIVE


def measure_overhead(iterations: int = 50_000) -> dict[str, float]:
    """Price one uncontended acquire/release pair, raw vs instrumented.

    Informational only — the tsan lane is a correctness gate, not a
    throughput one — but the number belongs in the docs so nobody
    guesses.  Typical result on this codebase's hosts: a handful of
    microseconds per pair instrumented vs ~0.1 µs raw.
    """
    if iterations < 1:
        raise ConcurrencyError(
            f"iterations must be positive, got {iterations!r}"
        )
    raw = _REAL_LOCK()
    started = perf_counter()
    for _ in range(iterations):
        raw.acquire()
        raw.release()
    raw_seconds = perf_counter() - started

    sanitizer = LockSanitizer()
    wrapped = sanitizer.wrap(name="overhead-probe")
    started = perf_counter()
    for _ in range(iterations):
        wrapped.acquire()
        wrapped.release()
    instrumented_seconds = perf_counter() - started

    return {
        "iterations": float(iterations),
        "raw_ns_per_pair": raw_seconds / iterations * 1e9,
        "instrumented_ns_per_pair": instrumented_seconds / iterations * 1e9,
        "overhead_x": (
            instrumented_seconds / raw_seconds if raw_seconds > 0 else 0.0
        ),
    }
