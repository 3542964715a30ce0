"""The one SVG→YAML writer: a write-ahead journal, crash-safe resume, a parse pool.

The paper's archive was collected continuously for 26 months by a
five-minute crontab; anything that long-lived *will* be interrupted —
reboots, OOM kills, power loss — and the CAIDA longitudinal-collection
line of work is blunt about why that matters: the asset is the unbroken
series, so recovery must resume exactly, not approximately.
:class:`IngestDaemon` writes every YAML twin the system has — ``ingest
run`` and :func:`~repro.dataset.engine.process_map_parallel` are both
daemon runs — with three guarantees:

* **Bounded memory** — a map's pending SVGs are cut into balanced
  batches of at most ``chunk_size`` files, one per worker per round.
  The batches parse, and the map's shards compact, in the run's one
  :class:`~repro.dataset.workers.OrderedPool`, with at most two batches
  per worker in flight, applied in submission order; the pool runs a
  lone batch (every one-file live tick) or a one-worker run in the
  calling thread, and forks only for more.  Either way the calling
  thread is the only writer.  Peak RSS is flat in corpus size and in
  day size: a batch holds its own files, and a checkpoint's compaction
  holds the rows it decodes plus about one 256 KiB chunk of the
  day-shard it streams over, however many rows that shard carries.

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
  pays for the archive behind it.  A shard build reuses the rows of
  unchanged twins and decodes each new twin straight into its columns,
  the one way every twin is indexed.

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
from dataclasses import asdict, dataclass, field
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
    DEFAULT_WORKERS,
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
from repro.errors import DatasetError, IngestError, JournalError
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
    "status_path",
]

STATUS_FILE_NAME = "ingest-status.json"


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One ingested file's manifest entry, framed for the journal."""

    map_value: str
    stamp: str
    entry: ManifestEntry

    def to_json(self) -> str:
        """Canonical JSON payload (sorted keys — what the CRC covers)."""
        return json.dumps(
            {"map": self.map_value, "stamp": self.stamp, **asdict(self.entry)},
            sort_keys=True,
        )


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
        fields = json.loads(payload)
        return JournalRecord(
            map_value=str(fields["map"]),
            stamp=str(fields["stamp"]),
            entry=ManifestEntry.coerce(fields),
        )
    except (KeyError, TypeError, ValueError, DatasetError):
        return None


class IngestJournal:
    """Append-only, CRC-framed, explicitly-fsync'd write-ahead journal.

    Appends are held in memory until :meth:`sync` writes and fsyncs
    them; callers decide when it runs (the daemon fsyncs the YAML files
    a batch of records describes *first*, so every record in the file
    points at durable data, and a run that fails before the sync writes
    none of the batch).  :meth:`clear` truncates after a checkpoint has
    folded the records somewhere safer.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle: BinaryIO | None = None
        self._pending = bytearray()
        self.appended = 0

    def append(self, record: JournalRecord) -> None:
        """Buffer one framed record for the next :meth:`sync`."""
        payload = record.to_json().encode("utf-8")
        self._pending += b"%08x %s\n" % (zlib.crc32(payload), payload)
        self.appended += 1

    def sync(self) -> None:
        """Write the buffered records at the journal's tail and fsync it."""
        if not self._pending:
            return
        try:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "ab")
            self._handle.write(self._pending)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise JournalError(f"cannot sync journal {self.path}: {exc}") from exc
        self._pending.clear()

    def close(self) -> None:
        """Sync and close the append handle (the file stays)."""
        self.sync()
        if self._handle is not None:
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
    host).  A map's pending files parse in batches of at most
    ``chunk_size``, one per worker per round; a lone batch parses in the
    calling thread.  ``checkpoint_every`` paces manifest folds and
    shard compaction; ``fsync_every`` paces the YAML-then-journal
    durability batches inside a checkpoint interval.
    """

    workers: int = DEFAULT_WORKERS
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
    """What one :class:`IngestDaemon` run did."""

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


#: One parsed file: its outcome and its manifest entry.
_Parsed = tuple[ProcessOutcome, ManifestEntry]


def _process_batch(
    store: DatasetStore,
    map_name: MapName,
    refs: Sequence[SnapshotRef],
    strict: bool,
    options: ParseOptions | None,
) -> list[_Parsed]:
    """The parse kernel: read, hash and extract one batch of SVGs, in order.

    Runs in the daemon's thread or, pickled by name, in a worker of the
    run's :class:`~repro.dataset.workers.OrderedPool`.  Each file
    comes back as its outcome and the manifest entry the writer records
    for it (``yaml_bytes`` is filled in once the twin is written).
    """
    results: list[_Parsed] = []
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
    write.  The run's one pool of ``config.workers`` processes parses
    each map's balanced batches, which the writer applies in submission
    order, and rebuilds its shards; it runs a lone batch, or any batch
    of a one-worker run, in the calling thread.
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
            manifest.entries[record.stamp] = record.entry
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
            if entry is not None and (entry.size, entry.mtime_ns) == ref.stat_key():
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
        self, map_name: MapName, batches: Sequence[Sequence[SnapshotRef]]
    ) -> Iterator[list[_Parsed]]:
        """Each batch's parse results, in submission order, from the run's pool."""
        parse = partial(
            _process_batch,
            self.store,
            map_name,
            strict=self.config.strict,
            options=self.config.options,
        )
        try:
            yield from self._pool.map(parse, batches)
        except Exception as exc:
            raise IngestError(f"parsing {map_name.value} failed: {exc!r}") from exc

    def _sync_batch(self, journal: IngestJournal, yaml_paths: list[Path]) -> None:
        """Make a batch durable: YAML files first, then their journal records.

        Raises:
            IngestError: a twin could not be opened or fsync'd.  The
                journal is not synced then, so no durable record
                describes a twin that may not be durable.
        """
        parents: set[Path] = set()
        for path in yaml_paths:
            try:
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            except OSError as exc:
                raise IngestError(f"cannot make {path} durable: {exc}") from exc
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
            self._compact(map_name, only=sorted(touched_shards))
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
        if not pending:
            # Nothing new, but leave the indexes consistent with the tree.
            self._finish_map(map_name, journal)
            return

        map_stats = self.stats.per_map[map_name]
        batches = _batches(pending, self.config.chunk_size, self._workers)
        yaml_batch: list[Path] = []
        touched_shards: set[str] = set()
        since_sync = since_checkpoint = done = 0
        for batch, results in zip(batches, self._parsed(map_name, batches)):
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
                journal.append(JournalRecord(map_name.value, stamp, entry))
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
                        pending_left=len(pending) - done,
                    )
                    since_checkpoint = 0

        self._checkpoint(
            map_name,
            manifest,
            journal,
            yaml_batch,
            touched_shards,
            pending_left=0,
        )
        self._finish_map(map_name, journal)

    def _finish_map(self, map_name: MapName, journal: IngestJournal) -> None:
        """Close the journal and leave this map's indexes fully compacted."""
        journal.close()
        if not self.config.update_index:
            return
        if not self.store.shard_keys(map_name, "yaml"):
            return
        self._compact(map_name, rebuild=self._rebuild)

    def _compact(self, map_name: MapName, **options: Any) -> None:
        """Compact the map's shards through the run's pool."""
        try:
            shards.compact_map_shards(
                self.store,
                map_name,
                workers=self._pool,
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

