"""The load generator's plumbing: child processes, one HTTP connection, one event loop.

Everything here runs in the parent process on one thread.  The system
under test lives in the child processes this module starts; the parent
talks to them through their stdin/stdout command lines and through at
most one persistent HTTP connection.  :class:`Pump` is the single-threaded
scheduler that drives an open loop: periodic timers (requests due at
fixed times, ingest ticks, RSS samples) interleaved with reading the
children's replies, waiting in ``select`` in between.
"""

from __future__ import annotations

import http.client
import os
import platform
import select
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

from spans import REQUEST_HEADER

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"


class BenchError(Exception):
    """The benchmark could not run (a child died, a reply never came)."""


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_info() -> dict:
    """The host block every result record carries."""
    # A checkout that is not a repository reads "unknown"; the ceiling
    # keeps git from searching the directories above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": rev or "unknown",
    }


class Child:
    """One system-under-test process speaking the line protocol."""

    def __init__(self, name: str, script: str, args: list[str], log_dir: Path) -> None:
        self.name = name
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR), *filter(None, [env.get("PYTHONPATH")])]
        )
        with open(log_dir / f"{name}.log", "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(SUITE_DIR / script), *args],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                cwd=REPO_ROOT,
            )
        self.log_path = log_dir / f"{name}.log"
        self._buffer = b""
        self.lines: list[str] = []

    def fileno(self) -> int:
        assert self.proc.stdout is not None
        return self.proc.stdout.fileno()

    def feed(self) -> None:
        """Read what the child wrote; complete lines land in :attr:`lines`."""
        chunk = os.read(self.fileno(), 65536)
        if not chunk:
            raise BenchError(f"{self.name} exited unexpectedly; see {self.log_path}")
        self._buffer += chunk
        *complete, self._buffer = self._buffer.split(b"\n")
        self.lines.extend(line.decode("utf-8") for line in complete)

    def send(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line.encode("utf-8") + b"\n")
        self.proc.stdin.flush()

    def stop(self, timeout: float = 60.0) -> None:
        """Ask the child to quit, then make sure it has ended."""
        if self.proc.poll() is None:
            try:
                self.send("quit")
                assert self.proc.stdin is not None
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=timeout)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def rss_mb(self) -> float:
        """Current VmRSS in MiB, 0 once the process is gone."""
        try:
            text = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="ascii")
        except OSError:
            return 0.0
        for line in text.splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
        return 0.0


@dataclass
class Timer:
    """A periodic callback; ``callback(due)`` runs at or after each due time."""

    period: float
    callback: Callable[[float], None]
    due: float
    catch_up: bool = True
    cancelled: bool = False


class Pump:
    """The parent's event loop: timers plus the children's reply lines."""

    def __init__(self) -> None:
        self.handlers: dict[int, tuple[Child, Callable[[str], None]]] = {}
        self.timers: list[Timer] = []

    def watch(self, child: Child, handler: Callable[[str], None]) -> None:
        self.handlers[child.fileno()] = (child, handler)

    def unwatch(self, child: Child) -> None:
        self.handlers.pop(child.fileno(), None)

    def every(
        self, period: float, callback: Callable[[float], None], *, catch_up: bool = True
    ) -> Timer:
        """Run ``callback`` every ``period`` seconds, starting now.

        With ``catch_up`` the schedule is fixed (an open loop: a late
        timer fires again at once for every period it missed); without,
        the next due time restarts from the late firing.
        """
        timer = Timer(period, callback, perf_counter(), catch_up)
        self.timers.append(timer)
        return timer

    def _fire_timers(self) -> float:
        """Run every due timer; return the next due time (or +inf)."""
        while True:
            now = perf_counter()
            live = [timer for timer in self.timers if not timer.cancelled]
            self.timers = live
            due = [timer for timer in live if timer.due <= now]
            if not due:
                return min((timer.due for timer in live), default=float("inf"))
            timer = min(due, key=lambda t: t.due)
            scheduled = timer.due
            timer.due = scheduled + timer.period if timer.catch_up else now + timer.period
            timer.callback(scheduled)

    def _dispatch(self, timeout: float) -> None:
        fds = list(self.handlers)
        if not fds:
            if timeout > 0:
                select.select([], [], [], timeout)
            return
        ready, _, _ = select.select(fds, [], [], max(0.0, timeout))
        for fd in ready:
            child, handler = self.handlers[fd]
            child.feed()
            lines, child.lines = child.lines, []
            for line in lines:
                handler(line)

    def run_until(self, deadline: float, condition: Callable[[], bool] | None = None) -> bool:
        """Serve timers and children until ``deadline`` or ``condition()``.

        Returns whether ``condition`` came true (``True`` without one).
        """
        while True:
            next_due = self._fire_timers()
            if condition is not None and condition():
                return True
            now = perf_counter()
            if now >= deadline:
                return condition is None
            self._dispatch(min(deadline, next_due) - now)

    def service(self) -> None:
        """Fire due timers and read queued replies without waiting."""
        self._fire_timers()
        self._dispatch(0.0)


class Http:
    """The load generator's single persistent HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def get(self, path: str, trace_id: str | None = None) -> tuple[int, bytes, int, int]:
        """``(status, body, sent_ns, done_ns)``; status 0 is a transport error."""
        headers = {REQUEST_HEADER: trace_id} if trace_id else {}
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        sent = perf_counter_ns()
        try:
            self._conn.request("GET", path, headers=headers)
            response = self._conn.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.close()
            status, body = 0, b""
        return status, body, sent, perf_counter_ns()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class RssSampler:
    """Peak summed VmRSS of the children, sampled from ``/proc``."""

    children: list[Child] = field(default_factory=list)
    peak_mb: float = 0.0

    def sample(self, _due: float = 0.0) -> None:
        self.peak_mb = max(self.peak_mb, sum(child.rss_mb() for child in self.children))
