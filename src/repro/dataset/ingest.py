"""The one SVG→YAML writer: a write-ahead journal, crash-safe resume, a parse pool.

The paper's archive was collected continuously for 26 months by a
five-minute crontab; anything that long-lived *will* be interrupted —
reboots, OOM kills, power loss — and the CAIDA longitudinal-collection
line of work is blunt about why that matters: the asset is the unbroken
series, so recovery must resume exactly, not approximately.
:class:`IngestDaemon` writes every YAML twin the system has — ``ingest
run``, ``process`` and the bulk entry points of
:mod:`repro.dataset.engine` are all daemon runs — with three guarantees:

* **Bounded memory** — a map's pending SVGs are cut into balanced
  batches of at most ``chunk_size`` files.  A map with no more pending
  files than that (every live tick) parses and compacts in the calling
  thread; a larger backlog parses, and compacts its shards, in the run's
  one forked pool (:class:`~repro.dataset.workers.OrderedPool`), with at
  most two batches per worker in flight, applied in submission order.
  Either way the calling thread is the only writer, and peak RSS is flat
  in corpus size.

* **Crash-safe resume** — every ingested file is recorded in an
  append-only write-ahead journal (one CRC-32-framed JSON line per
  file), and the journal is fsync'd *after* the YAML files it describes,
  so a journal record on disk implies its YAML is durable.  Checkpoints
  fold the journal into the engine's ``manifest.json`` (atomically,
  fsync'd) and truncate it.  After a SIGKILL, recovery replays the
  journal tail into the manifest and re-ingests only files neither knew
  about — no re-parse of journaled work, no duplicate rows, and because
  parsing is deterministic the resumed run's YAML tree is byte-identical
  to an uninterrupted one.

* **O(new shard) index maintenance** — checkpoints compact only the
  day-shards touched since the last checkpoint via
  :func:`~repro.dataset.shards.compact_map_shards`, so a tick never
  pays for the archive behind it.

Journal record format (one line, ``crc32-hex space json newline``)::

    5f3a9c01 {"failure":null,"map":"europe","mtime_ns":...,"sha256":"...",
              "size":126526,"stamp":"20220912T000000Z","yaml_bytes":14836}

A torn tail (the only damage a crash can produce on an append-only file)
is dropped silently; a bad record *followed by a good one* means real
corruption and raises :class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import zlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter, time
from typing import Any, BinaryIO, Iterator, Sequence

# Loaded before the run's pool forks: its compaction tasks read twins.
import repro.yamlio.deserialize  # noqa: F401
from repro.constants import MapName
from repro.dataset import shards
from repro.dataset.engine import (
    DEFAULT_CHUNK_SIZE,
    Manifest,
    ManifestEntry,
    _batches,
    _skip_from_manifest,
)
from repro.dataset.processor import (
    ProcessingStats,
    ProcessOutcome,
    file_metrics,
    process_svg_bytes,
)
from repro.dataset.store import (
    DatasetStore,
    SnapshotRef,
    atomic_write_text,
    format_timestamp,
    fsync_directory,
    shard_key,
)
from repro.dataset.workers import OrderedPool, resolve_workers
from repro.errors import IngestError, JournalError
from repro.parsing.pipeline import ParseOptions
from repro.telemetry import get_registry

logger = logging.getLogger(__name__)

__all__ = [
    "IngestConfig",
    "IngestDaemon",
    "IngestJournal",
    "IngestStats",
    "JournalRecord",
    "read_ingest_status",
    "resume_ingest",
    "status_path",
]

STATUS_FILE_NAME = "ingest-status.json"


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One ingested file's durable fact: source stat, hash, outcome."""

    map_value: str
    stamp: str
    sha256: str
    size: int
    mtime_ns: int
    yaml_bytes: int | None = None
    failure: str | None = None

    def to_entry(self) -> ManifestEntry:
        """The manifest entry this record folds into at a checkpoint."""
        return ManifestEntry(
            sha256=self.sha256,
            size=self.size,
            mtime_ns=self.mtime_ns,
            yaml_bytes=self.yaml_bytes,
            failure=self.failure,
        )

    def to_json(self) -> str:
        """Canonical JSON payload (sorted keys — what the CRC covers)."""
        return json.dumps(
            {
                "failure": self.failure,
                "map": self.map_value,
                "mtime_ns": self.mtime_ns,
                "sha256": self.sha256,
                "size": self.size,
                "stamp": self.stamp,
                "yaml_bytes": self.yaml_bytes,
            },
            sort_keys=True,
        )

    @classmethod
    def from_payload(cls, payload: object) -> "JournalRecord":
        """Parse one decoded JSON payload; :class:`JournalError` on shape."""
        if not isinstance(payload, dict):
            raise JournalError("journal payload is not an object")
        try:
            yaml_bytes = payload["yaml_bytes"]
            failure = payload["failure"]
            return cls(
                map_value=str(payload["map"]),
                stamp=str(payload["stamp"]),
                sha256=str(payload["sha256"]),
                size=int(payload["size"]),
                mtime_ns=int(payload["mtime_ns"]),
                yaml_bytes=None if yaml_bytes is None else int(yaml_bytes),
                failure=None if failure is None else str(failure),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"journal payload malformed: {exc}") from exc


def _parse_journal_line(line: bytes) -> JournalRecord | None:
    """One framed line → record, or ``None`` if the frame is damaged."""
    if not line.endswith(b"\n"):
        return None  # torn write: the trailing newline never made it
    body = line[:-1]
    if len(body) < 10 or body[8:9] != b" ":
        return None
    crc_text, payload = body[:8], body[9:]
    try:
        expected = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(payload) != expected:
        return None
    try:
        return JournalRecord.from_payload(json.loads(payload))
    except (ValueError, JournalError):
        return None


class IngestJournal:
    """Append-only, CRC-framed, explicitly-fsync'd write-ahead journal.

    Appends buffer in the OS; callers decide when :meth:`sync` runs (the
    daemon fsyncs the YAML files a batch of records describes *first*,
    so every durable record points at durable data).  :meth:`clear`
    truncates after a checkpoint has folded the records somewhere safer.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle: BinaryIO | None = None
        self.appended = 0

    def append(self, record: JournalRecord) -> None:
        """Buffer one framed record at the journal's tail."""
        payload = record.to_json().encode("utf-8")
        line = b"%08x %s\n" % (zlib.crc32(payload), payload)
        if self._handle is None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "ab")
            except OSError as exc:
                raise JournalError(f"cannot open journal {self.path}: {exc}") from exc
        try:
            self._handle.write(line)
        except OSError as exc:
            raise JournalError(f"cannot append to journal {self.path}: {exc}") from exc
        self.appended += 1

    def sync(self) -> None:
        """Flush buffered records and fsync the journal file."""
        if self._handle is None:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush and close the append handle (the file stays)."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def clear(self) -> None:
        """Drop the journal after its records were checkpointed."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        fsync_directory(self.path.parent)

    def replay(self) -> tuple[list[JournalRecord], int]:
        """Read every sound record back; ``(records, dropped_lines)``.

        A damaged frame with only damaged (or no) frames after it is a
        torn tail and is silently dropped — that is what a crash leaves.

        Raises:
            JournalError: a damaged frame *followed by a sound one*,
                which an append-only crash cannot produce — the journal
                is corrupt, and dropping the middle of it would silently
                lose history.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return [], 0
        except OSError as exc:
            raise JournalError(f"cannot read journal {self.path}: {exc}") from exc
        records: list[JournalRecord] = []
        dropped = 0
        bad_seen = False
        for line in raw.splitlines(keepends=True):
            record = _parse_journal_line(line)
            if record is None:
                bad_seen = True
                dropped += 1
                continue
            if bad_seen:
                raise JournalError(
                    f"journal {self.path} has a sound record after a damaged "
                    f"one — mid-file corruption, not a torn tail"
                )
            records.append(record)
        return records, dropped


# ---------------------------------------------------------------------------
# Daemon configuration and accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IngestConfig:
    """Knobs of one ingestion run; validated eagerly.

    ``workers`` is the parse pool's width, resolved through
    :func:`~repro.dataset.workers.resolve_workers` (one on a single-core
    host).  A map with more than ``chunk_size`` pending files parses in
    the pool, in batches of at most ``chunk_size``; any other map parses
    in the calling thread.  ``checkpoint_every`` paces manifest folds and
    shard compaction; ``fsync_every`` paces the YAML-then-journal
    durability batches inside a checkpoint interval.
    """

    workers: int = 2
    chunk_size: int = DEFAULT_CHUNK_SIZE
    checkpoint_every: int = 512
    fsync_every: int = 64
    max_files: int | None = None
    strict: bool = False
    update_index: bool = True
    options: ParseOptions | None = None

    def __post_init__(self) -> None:
        for name in ("workers", "chunk_size", "checkpoint_every", "fsync_every"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise IngestError(f"{name} must be a positive integer, got {value!r}")
        if self.max_files is not None and (
            not isinstance(self.max_files, int) or self.max_files < 1
        ):
            raise IngestError(
                f"max_files must be a positive integer or None, got {self.max_files!r}"
            )


@dataclass
class IngestStats:
    """What one :class:`IngestDaemon` run (or resume) did."""

    processed: int = 0
    failed: int = 0
    skipped: int = 0
    replayed: int = 0
    dropped: int = 0
    checkpoints: int = 0
    recovery_seconds: float = 0.0
    run_seconds: float = 0.0
    per_map: dict[MapName, ProcessingStats] = field(default_factory=dict)

    @property
    def ingested(self) -> int:
        """Files actually read and parsed this run (not skipped)."""
        return self.processed + self.failed

    @property
    def sustained_fps(self) -> float:
        """Ingested files per second of total run wall time."""
        if self.run_seconds <= 0:
            return 0.0
        return self.ingested / self.run_seconds


def status_path(store: DatasetStore) -> Path:
    """Where the daemon's liveness/progress file lives."""
    return store.root / STATUS_FILE_NAME


def read_ingest_status(root: str | Path) -> dict[str, object] | None:
    """The last status the daemon published, or ``None`` if never/corrupt.

    The file is written atomically, so a reader sees either a complete
    status document or nothing — never a torn one.
    """
    try:
        raw = (Path(root) / STATUS_FILE_NAME).read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def _process_batch(
    store: DatasetStore,
    map_name: MapName,
    refs: Sequence[SnapshotRef],
    strict: bool,
    options: ParseOptions | None,
) -> list[tuple[ProcessOutcome, ManifestEntry]]:
    """The parse kernel: read, hash and extract one batch of SVGs, in order.

    Runs in the daemon's thread or, pickled by name, in a worker of the
    run's :class:`~repro.dataset.workers.OrderedPool`.  Each file
    comes back as its outcome and the manifest entry the writer records
    for it (``yaml_bytes`` is filled in once the twin is written).
    """
    results: list[tuple[ProcessOutcome, ManifestEntry]] = []
    with get_registry().span(
        "repro_engine_batch", "Parse batch wall time", map=map_name.value
    ):
        for ref in refs:
            data = store.read_ref(ref)
            size, mtime_ns = ref.stat_key()
            outcome = process_svg_bytes(
                data, map_name, ref.timestamp, strict=strict, options=options
            )
            entry = ManifestEntry(
                sha256=hashlib.sha256(data).hexdigest(),
                size=size,
                mtime_ns=mtime_ns,
                failure=outcome.failure_cause,
            )
            results.append((outcome, entry))
    return results


def _log_unindexed(ref: SnapshotRef, exc: Exception) -> None:
    logger.warning("not indexing unreadable %s: %s", ref.path.name, exc)


# ---------------------------------------------------------------------------
# Daemon
# ---------------------------------------------------------------------------


class IngestDaemon:
    """The SVG→YAML writer of a dataset directory.

    The calling thread owns the manifest, the journal, and every YAML
    write.  Parsing and shard compaction run in that thread too, unless
    a map has more than ``config.chunk_size`` pending files and
    ``config.workers`` exceeds one: then the run's one pool of
    ``config.workers`` processes parses the map's balanced batches, which
    the writer applies in submission order, and rebuilds its shards.
    """

    def __init__(self, store: DatasetStore, config: IngestConfig | None = None) -> None:
        self.store = store
        self.config = config if config is not None else IngestConfig()
        self.stats = IngestStats()
        self._workers = resolve_workers(self.config.workers)
        self._pool = OrderedPool(self._workers)
        self._rebuild = False
        self._started = 0.0
        self._recent_mark = (0.0, 0)  # (perf_counter, ingested) at last status
        self._maps: list[MapName] = []
        self._pending_total = 0

    # -- public entry points ------------------------------------------------

    def run(
        self, maps: Sequence[MapName] | None = None, *, rebuild: bool = False
    ) -> IngestStats:
        """Recover, then ingest everything pending; returns the accounting.

        Safe to invoke on a dataset a previous run was SIGKILL'd out of:
        recovery replays the journal into the manifest first, so nothing
        already ingested is read, parsed, or written again.  ``rebuild``
        ignores the manifest instead — every SVG is parsed again — and
        rebuilds the maps' shard indexes from scratch.

        Raises:
            IngestError: a parse or a shard compaction failed outside the
                typed failures the accounting counts (an unreadable file,
                a dead or raising pool worker).
        """
        registry = get_registry()
        run_span = registry.span(
            "repro_ingest_run", "Whole ingestion run wall time"
        )
        self._maps = list(maps) if maps is not None else list(MapName)
        self._rebuild = rebuild
        self._started = perf_counter()
        self._recent_mark = (self._started, 0)
        self._write_status("starting")
        try:
            with run_span:
                for map_name in self._maps:
                    self._ingest_map(map_name)
                    if self._budget_left() == 0:
                        break
        finally:
            self._pool.close()
        self.stats.run_seconds = perf_counter() - self._started
        self._write_status("done")
        logger.info(
            "ingested %d files (%d failed, %d skipped, %d replayed) in %.1fs",
            self.stats.ingested,
            self.stats.failed,
            self.stats.skipped,
            self.stats.replayed,
            self.stats.run_seconds,
        )
        return self.stats

    # -- recovery -----------------------------------------------------------

    def _recover_map(self, map_name: MapName, journal: IngestJournal) -> Manifest:
        """Fold any journal tail into the manifest — the resume fast path."""
        registry = get_registry()
        journal_counter = registry.counter(
            "repro_ingest_journal_records_total",
            "Write-ahead journal records by event (appended, replayed, dropped)",
        )
        recover_seconds = registry.histogram(
            "repro_ingest_recover_seconds", "Crash-recovery wall time per map"
        )
        started = perf_counter()
        manifest = Manifest.load(self.store.manifest_path(map_name))
        records, dropped = journal.replay()
        for record in records:
            manifest.entries[record.stamp] = record.to_entry()
        if records:
            # The journal facts are durable; promote them before the
            # journal is truncated so a crash here loses nothing.
            manifest.save(self.store.manifest_path(map_name))
            journal.clear()
        self.stats.replayed += len(records)
        self.stats.dropped += dropped
        journal_counter.inc(len(records), map=map_name.value, event="replayed")
        journal_counter.inc(dropped, map=map_name.value, event="dropped")
        if records or dropped:
            logger.info(
                "recovered %s: %d journal records replayed, %d torn dropped",
                map_name.value,
                len(records),
                dropped,
            )
        elapsed = perf_counter() - started
        self.stats.recovery_seconds += elapsed
        recover_seconds.observe(elapsed, map=map_name.value)
        return manifest

    # -- the pipeline -------------------------------------------------------

    def _budget_left(self) -> int | None:
        """Files this run may still ingest, or ``None`` for unlimited."""
        if self.config.max_files is None:
            return None
        return max(0, self.config.max_files - self.stats.ingested)

    def _pending_refs(self, map_name: MapName, manifest: Manifest) -> list[SnapshotRef]:
        """SVG refs the manifest does not already account for, in time order."""
        registry = get_registry()
        files_counter, _, _ = file_metrics(registry)
        ingest_files = registry.counter(
            "repro_ingest_files_total",
            "Ingestion daemon files by outcome (processed, failed, skipped)",
        )
        manifest_lookups = registry.counter(
            "repro_manifest_lookups_total",
            "Manifest skip-cache lookups by outcome (hit = file skipped)",
        )
        map_stats = self.stats.per_map.setdefault(
            map_name, ProcessingStats(map_name=map_name)
        )
        pending: list[SnapshotRef] = []
        for ref in self.store.iter_refs(map_name, "svg"):
            entry = manifest.entries.get(format_timestamp(ref.timestamp))
            if entry is not None:
                size, mtime_ns = ref.stat_key()
                if entry.size == size and entry.mtime_ns == mtime_ns:
                    _skip_from_manifest(map_stats, entry)
                    self.stats.skipped += 1
                    manifest_lookups.inc(1, map=map_name.value, outcome="hit")
                    files_counter.inc(1, map=map_name.value, outcome="skipped")
                    ingest_files.inc(1, map=map_name.value, outcome="skipped")
                    continue
            manifest_lookups.inc(1, map=map_name.value, outcome="miss")
            pending.append(ref)
        budget = self._budget_left()
        if budget is not None and len(pending) > budget:
            pending = pending[:budget]
        return pending

    def _parsed(
        self, map_name: MapName, batches: Sequence[Sequence[SnapshotRef]], pooled: bool
    ) -> Iterator[list[tuple[ProcessOutcome, ManifestEntry]]]:
        """Each batch's parse results, in submission order: in the run's
        pool if ``pooled``, else in-process, one batch per step."""
        parse = partial(
            _process_batch,
            self.store,
            map_name,
            strict=self.config.strict,
            options=self.config.options,
        )
        try:
            yield from self._pool.map(parse, batches) if pooled else map(parse, batches)
        except Exception as exc:
            raise IngestError(f"parsing {map_name.value} failed: {exc!r}") from exc

    def _sync_batch(self, journal: IngestJournal, yaml_paths: list[Path]) -> None:
        """Make a batch durable: YAML files first, then their journal records."""
        parents: set[Path] = set()
        for path in yaml_paths:
            try:
                fd = os.open(path, os.O_RDONLY)
            except OSError:
                continue
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            parents.add(path.parent)
        for parent in parents:
            fsync_directory(parent)
        yaml_paths.clear()
        journal.sync()

    def _checkpoint(
        self,
        map_name: MapName,
        manifest: Manifest,
        journal: IngestJournal,
        yaml_paths: list[Path],
        touched_shards: set[str],
        pooled: bool,
        pending_left: int,
    ) -> None:
        """Fold the journal into the manifest and compact touched shards.

        A rebuilding run leaves every shard to :meth:`_finish_map`, which
        rebuilds them all once.
        """
        registry = get_registry()
        checkpoint_seconds = registry.histogram(
            "repro_ingest_checkpoint_seconds", "Checkpoint (fold + compact) wall time"
        )
        started = perf_counter()
        self._sync_batch(journal, yaml_paths)
        manifest.save(self.store.manifest_path(map_name))
        journal.clear()
        if self.config.update_index and touched_shards and not self._rebuild:
            self._compact(map_name, pooled, only=sorted(touched_shards))
        touched_shards.clear()
        self.stats.checkpoints += 1
        checkpoint_seconds.observe(perf_counter() - started, map=map_name.value)
        self._write_status("running", pending_left=pending_left)

    def _ingest_map(self, map_name: MapName) -> None:
        """Recover one map, then parse and write its pending SVGs."""
        registry = get_registry()
        _, _, yaml_bytes_counter = file_metrics()
        ingest_files = registry.counter(
            "repro_ingest_files_total",
            "Ingestion daemon files by outcome (processed, failed, skipped)",
        )
        journal_counter = registry.counter(
            "repro_ingest_journal_records_total",
            "Write-ahead journal records by event (appended, replayed, dropped)",
        )
        journal = IngestJournal(self.store.journal_path(map_name))
        manifest = self._recover_map(map_name, journal)
        if self._rebuild:
            manifest.entries.clear()
        pending = self._pending_refs(map_name, manifest)
        self._pending_total += len(pending)
        pooled = self._workers > 1 and len(pending) > self.config.chunk_size
        if not pending:
            # Nothing new, but leave the indexes consistent with the tree.
            self._finish_map(map_name, journal, pooled)
            return

        map_stats = self.stats.per_map[map_name]
        batches = _batches(pending, self.config.chunk_size, self._workers)
        yaml_batch: list[Path] = []
        touched_shards: set[str] = set()
        since_sync = since_checkpoint = done = 0
        for batch, results in zip(batches, self._parsed(map_name, batches, pooled)):
            for ref, (outcome, entry) in zip(batch, results):
                if outcome.yaml_text is None:
                    map_stats.unprocessed += 1
                    map_stats.failure_causes[outcome.failure_cause] += 1
                    self.stats.failed += 1
                    ingest_files.inc(1, map=map_name.value, outcome="failed")
                    logger.warning(
                        "unprocessable %s (%s: %s)",
                        ref.path.name,
                        outcome.failure_cause,
                        outcome.failure_message,
                    )
                else:
                    written = self.store.write(
                        map_name, ref.timestamp, "yaml", outcome.yaml_text
                    )
                    entry.yaml_bytes = written.size_bytes
                    map_stats.processed += 1
                    map_stats.yaml_bytes += written.size_bytes
                    yaml_bytes_counter.inc(written.size_bytes, map=map_name.value)
                    self.stats.processed += 1
                    ingest_files.inc(1, map=map_name.value, outcome="processed")
                    yaml_batch.append(written.path)
                    touched_shards.add(shard_key(ref.timestamp))
                stamp = format_timestamp(ref.timestamp)
                manifest.entries[stamp] = entry
                journal.append(
                    JournalRecord(
                        map_value=map_name.value,
                        stamp=stamp,
                        sha256=entry.sha256,
                        size=entry.size,
                        mtime_ns=entry.mtime_ns,
                        yaml_bytes=entry.yaml_bytes,
                        failure=entry.failure,
                    )
                )
                journal_counter.inc(1, map=map_name.value, event="appended")
                done += 1
                since_sync += 1
                since_checkpoint += 1
                if since_sync >= self.config.fsync_every:
                    self._sync_batch(journal, yaml_batch)
                    since_sync = 0
                if since_checkpoint >= self.config.checkpoint_every:
                    self._checkpoint(
                        map_name,
                        manifest,
                        journal,
                        yaml_batch,
                        touched_shards,
                        pooled,
                        pending_left=len(pending) - done,
                    )
                    since_checkpoint = 0

        self._checkpoint(
            map_name,
            manifest,
            journal,
            yaml_batch,
            touched_shards,
            pooled,
            pending_left=0,
        )
        self._finish_map(map_name, journal, pooled)

    def _finish_map(self, map_name: MapName, journal: IngestJournal, pooled: bool) -> None:
        """Close the journal and leave this map's indexes fully compacted."""
        journal.close()
        if not self.config.update_index:
            return
        if not any(True for _ in self.store.iter_refs(map_name, "yaml")):
            return
        self._compact(map_name, pooled, rebuild=self._rebuild)

    def _compact(self, map_name: MapName, pooled: bool, **options: Any) -> None:
        """Compact the map's shards, in the run's pool if the map parses there."""
        try:
            shards.compact_map_shards(
                self.store,
                map_name,
                workers=self._pool if pooled else 1,
                on_error=_log_unindexed,
                **options,
            )
        except Exception as exc:
            raise IngestError(f"indexing {map_name.value} failed: {exc!r}") from exc

    # -- status -------------------------------------------------------------

    def _write_status(self, state: str, pending_left: int | None = None) -> None:
        """Publish progress atomically; readers never see a torn file."""
        now = perf_counter()
        elapsed = max(now - self._started, 1e-9)
        recent_t, recent_n = self._recent_mark
        window = max(now - recent_t, 1e-9)
        recent_fps = (self.stats.ingested - recent_n) / window
        self._recent_mark = (now, self.stats.ingested)
        payload = {
            "state": state,
            "pid": os.getpid(),
            "maps": [map_name.value for map_name in self._maps],
            "processed": self.stats.processed,
            "failed": self.stats.failed,
            "skipped": self.stats.skipped,
            "replayed": self.stats.replayed,
            "checkpoints": self.stats.checkpoints,
            "pending_left": pending_left,
            "pending_total": self._pending_total,
            "recovery_seconds": self.stats.recovery_seconds,
            "elapsed_seconds": elapsed,
            "overall_fps": self.stats.ingested / elapsed,
            "recent_fps": recent_fps,
            "updated_unix": time(),
        }
        atomic_write_text(
            status_path(self.store),
            json.dumps(payload, sort_keys=True),
            durable=False,
        )


def resume_ingest(
    store: DatasetStore,
    config: IngestConfig | None = None,
    maps: Sequence[MapName] | None = None,
) -> IngestStats:
    """Resume an interrupted ingestion run; refuses a dataset with no state.

    ``run()`` on a fresh :class:`IngestDaemon` already *is* the resume
    path — this wrapper just makes "there was nothing to resume" a typed
    error instead of silently starting from scratch, which is what the
    ``ingest resume`` CLI wants.
    """
    targets = list(maps) if maps is not None else list(MapName)
    has_state = any(
        store.manifest_path(map_name).exists() or store.journal_path(map_name).exists()
        for map_name in targets
    )
    if not has_state:
        raise IngestError(
            f"nothing to resume under {store.root}: no manifest and no journal"
        )
    return IngestDaemon(store, config).run(targets)
