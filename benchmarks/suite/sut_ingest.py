"""Benchmark child: the ingestion side of the system under test.

Usage::

    python3 sut_ingest.py STORE MAP[,MAP...] [--trace SPANS.jsonl]

Prints ``ready`` once imports are done, then answers each command read
from stdin with one ``done <json>`` line on stdout:

``process MAP[,MAP...]``
    ``process_map_parallel(store, map, workers=2)`` per map: the archive
    build of the set-up phase (YAML twins, manifest, shard indexes).
``compact MAP[,MAP...]``
    ``compact_map_shards(store, map, workers=2)`` per map: indexes an
    archive written as YAML.
``run ID [traced]``
    One ``IngestDaemon(store, IngestConfig()).run(MAPS)`` with the
    production defaults.  ``run`` commands that queued up while a run was
    in progress are answered by the next run together, the way a daemon
    woken by new files catches up in one pass; the reply lists their ids.
``quit`` (or end of input)
    Exit, writing the recorded spans first when tracing.

A command that raises is answered ``error <json>`` instead, after the
traceback goes to stderr.

With ``--trace`` the write-path layers are wrapped before anything runs
(see ``spans.py``), and a run is recorded when any of its ``run``
commands says ``traced``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import traceback
from pathlib import Path

from spans import Tracer, install_ingest


class CommandReader:
    """Line reader over stdin that can tell whether more input is queued."""

    def __init__(self) -> None:
        self._fd = sys.stdin.fileno()
        self._buffer = b""
        self._eof = False

    def _fill(self, timeout: float | None) -> None:
        ready, _, _ = select.select([self._fd], [], [], timeout)
        if ready:
            chunk = os.read(self._fd, 65536)
            if chunk:
                self._buffer += chunk
            else:
                self._eof = True

    def next(self, block: bool = True) -> str | None:
        """The next command line; ``None`` at end of input or, unblocked, when none is queued."""
        while b"\n" not in self._buffer and not self._eof:
            self._fill(None if block else 0.0)
            if not block and b"\n" not in self._buffer:
                return None
        if b"\n" not in self._buffer:
            return None
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8").strip()

    def peek_is(self, word: str) -> bool:
        """Whether the next complete queued line starts with ``word``."""
        self._fill(0.0)
        if b"\n" not in self._buffer:
            return False
        return self._buffer.split(b"\n", 1)[0].split(b" ", 1)[0] == word.encode()


def answer(word: str, payload: dict) -> None:
    sys.stdout.write(f"{word} {json.dumps(payload, sort_keys=True)}\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store")
    parser.add_argument("maps")
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args()

    tracer = Tracer()
    if args.trace is not None:
        install_ingest(tracer)

    from repro.constants import MapName
    from repro.dataset.engine import process_map_parallel
    from repro.dataset.ingest import IngestConfig, IngestDaemon
    from repro.dataset.shards import compact_map_shards
    from repro.dataset.store import open_store

    store = open_store(args.store)
    maps = [MapName(value) for value in args.maps.split(",")]
    reader = CommandReader()
    print("ready", flush=True)
    try:
        while True:
            line = reader.next()
            if line is None or line == "quit":
                return 0
            verb, _, rest = line.partition(" ")
            payload: dict = {"verb": verb}
            try:
                if verb == "process":
                    for value in rest.split(","):
                        process_map_parallel(store, MapName(value), workers=2)
                elif verb == "compact":
                    for value in rest.split(","):
                        compact_map_shards(store, MapName(value), workers=2)
                elif verb == "run":
                    commands = [rest.split()]
                    while reader.peek_is("run"):
                        commands.append((reader.next(block=False) or "").split()[1:])
                    payload["ids"] = [command[0] for command in commands]
                    tracer.active = args.trace is not None and any(
                        "traced" in command[1:] for command in commands
                    )
                    try:
                        stats = IngestDaemon(store, IngestConfig()).run(maps)
                    finally:
                        tracer.active = False
                    payload.update(
                        ingested=stats.ingested, failed=stats.failed, run_s=stats.run_seconds
                    )
                else:
                    raise ValueError(f"unknown command {line!r}")
            except Exception:
                traceback.print_exc()
                answer("error", payload)
            else:
                answer("done", payload)
    finally:
        if args.trace is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
