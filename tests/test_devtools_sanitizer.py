"""Tests for the runtime lock sanitizer (tests/lock_sanitizer.py).

The detectors are driven on private :class:`LockSanitizer` instances —
a genuine two-thread lock-order inversion, same-lock re-entry raising
:class:`~repro.errors.ConcurrencyError` instead of deadlocking, legal
RLock nesting, the long-held warning, and the nonblocking-probe
exemption that keeps ``threading.Condition`` working.  The global
install path is exercised separately: repro-package constructors get
instrumented locks, everyone else keeps the real thing, and a real
server-cache/registry workload runs clean under instrumentation.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConcurrencyError
from tests.lock_sanitizer import (
    LockSanitizer,
    active_sanitizer,
    install_sanitizer,
    measure_overhead,
    uninstall_sanitizer,
)


def run_thread(target) -> None:
    """Run ``target`` on a worker thread to completion, surfacing errors."""
    failures: list[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - reraised below
            failures.append(exc)

    worker = threading.Thread(target=guarded)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "worker wedged"
    if failures:
        raise failures[0]


class TestInversionDetector:
    def test_two_thread_lock_order_inversion_caught(self):
        sanitizer = LockSanitizer()
        a = sanitizer.wrap("A")
        b = sanitizer.wrap("B")

        def forward() -> None:
            with a:
                with b:
                    pass

        def backward() -> None:
            with b:
                with a:
                    pass

        run_thread(forward)
        run_thread(backward)
        fatal = sanitizer.report.fatal()
        assert len(fatal) == 1
        assert fatal[0].kind == "lock-order-inversion"
        assert "A" in fatal[0].message and "B" in fatal[0].message
        assert "opposite order" in fatal[0].message

    def test_consistent_order_is_clean(self):
        sanitizer = LockSanitizer()
        a = sanitizer.wrap("A")
        b = sanitizer.wrap("B")

        def forward() -> None:
            with a:
                with b:
                    pass

        run_thread(forward)
        run_thread(forward)
        with a:
            with b:
                pass
        assert sanitizer.report.findings() == []

    def test_render_names_the_verdict(self):
        sanitizer = LockSanitizer()
        assert "clean" in sanitizer.report.render()


class TestReentryDetector:
    def test_reentry_raises_instead_of_deadlocking(self):
        sanitizer = LockSanitizer()
        lock = sanitizer.wrap("L")
        lock.acquire()
        try:
            with pytest.raises(ConcurrencyError, match="re-acquires"):
                lock.acquire()
        finally:
            lock.release()
        assert [f.kind for f in sanitizer.report.fatal()] == ["lock-reentry"]

    def test_rlock_nesting_is_legal(self):
        sanitizer = LockSanitizer()
        rlock = sanitizer.wrap("R", reentrant=True)
        with rlock:
            with rlock:
                assert sanitizer.held_count() == 1
        assert sanitizer.held_count() == 0
        assert sanitizer.report.findings() == []

    def test_nonblocking_probe_on_self_held_lock_is_exempt(self):
        # threading.Condition._is_owned probes a self-held lock with
        # acquire(False); that must neither raise nor record anything.
        sanitizer = LockSanitizer()
        lock = sanitizer.wrap("L")
        lock.acquire()
        try:
            assert lock.acquire(blocking=False) is False
        finally:
            lock.release()
        assert sanitizer.report.findings() == []

    def test_condition_over_instrumented_lock_works(self):
        sanitizer = LockSanitizer()
        condition = threading.Condition(sanitizer.wrap("C"))  # type: ignore[arg-type]
        with condition:
            condition.notify_all()
        assert sanitizer.report.fatal() == []


class TestLongHoldDetector:
    def test_slow_hold_warns_but_does_not_fail(self, monkeypatch):
        monkeypatch.setattr("tests.lock_sanitizer.LONG_HOLD_MS", 1.0)
        sanitizer = LockSanitizer()
        lock = sanitizer.wrap("slow")
        with lock:
            time.sleep(0.01)
        (finding,) = sanitizer.report.findings()
        assert finding.kind == "long-held-lock"
        assert not finding.fatal
        assert sanitizer.report.fatal() == []

    def test_fast_hold_is_silent(self, monkeypatch):
        monkeypatch.setattr("tests.lock_sanitizer.LONG_HOLD_MS", 1000.0)
        sanitizer = LockSanitizer()
        with sanitizer.wrap("fast"):
            pass
        assert sanitizer.report.findings() == []


class TestGlobalInstall:
    def test_scopes_instrumentation_to_repro_modules(self):
        sanitizer = install_sanitizer()
        try:
            assert active_sanitizer() is sanitizer
            assert install_sanitizer() is sanitizer  # idempotent

            # This test module is not repro.*: the factory hands back a
            # real lock.
            raw = threading.Lock()
            assert not hasattr(raw, "seq")

            # A constructor whose calling module is repro.* gets wrapped.
            namespace = {"__name__": "repro.fake_module"}
            exec(
                "import threading\n"
                "def make():\n"
                "    return threading.Lock()\n",
                namespace,
            )
            wrapped = namespace["make"]()
            assert hasattr(wrapped, "seq")
            with wrapped:
                pass
        finally:
            uninstall_sanitizer()
        assert active_sanitizer() is None
        assert threading.Lock is not None and not hasattr(
            threading.Lock(), "seq"
        )

    def test_real_server_state_runs_clean_under_instrumentation(self):
        # The integration the tsan pytest lane relies on: real repro
        # objects built while installed carry instrumented locks, and a
        # concurrent cache + registry workload reports nothing.
        sanitizer = install_sanitizer()
        sanitizer.report.clear()
        try:
            from repro.server.cache import ResponseCache
            from repro.telemetry.registry import MetricsRegistry

            cache = ResponseCache(capacity=32)
            registry = MetricsRegistry()

            def hammer() -> None:
                for index in range(200):
                    key = ("k", index % 8)
                    cache.put(key, b"body", "application/json")
                    cache.get("probe", key)
                    registry.counter("repro_probe_total", "probe").inc(1)
                    len(cache)

            workers = [threading.Thread(target=hammer) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert sanitizer.report.fatal() == []
        finally:
            uninstall_sanitizer()


class TestOverheadProbe:
    def test_measure_overhead_reports_sane_numbers(self):
        numbers = measure_overhead(iterations=500)
        assert numbers["iterations"] == 500.0
        assert numbers["raw_ns_per_pair"] > 0
        assert numbers["instrumented_ns_per_pair"] > 0
        assert numbers["overhead_x"] > 0

    def test_measure_overhead_rejects_nonpositive(self):
        with pytest.raises(ConcurrencyError):
            measure_overhead(iterations=0)
