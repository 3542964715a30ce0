"""Tests for the crash-safe ingestion daemon and its write-ahead journal.

The contracts under test, in escalating order of paranoia:

* the journal round-trips records, drops torn tails silently, and
  refuses mid-file corruption loudly;
* a daemon run produces byte-for-byte the YAML tree the one-shot serial
  processor produces, over any backend;
* a daemon SIGKILL'd mid-run and then resumed converges to a YAML tree
  byte-identical to an uninterrupted run, re-parsing nothing it
  journaled.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import signal
import subprocess
import sys
import time
import zlib
from dataclasses import asdict, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from repro.constants import MapName
from repro.dataset import ingest
from repro.dataset import shards as shards_module
from repro.dataset import workers as workers_module
from repro.dataset.engine import Manifest, ManifestEntry, process_map_parallel
from repro.dataset.handles import read_generation
from repro.dataset.ingest import (
    IngestConfig,
    IngestDaemon,
    IngestJournal,
    JournalRecord,
    read_ingest_status,
    status_path,
)
from repro.dataset.processor import process_svg_bytes
from repro.dataset.shards import verify_shards
from repro.dataset.store import (
    DatasetStore,
    ShardedDatasetStore,
    format_timestamp,
)
from repro.errors import IngestError, JournalError
from repro.yamlio import deserialize

T0 = datetime(2022, 9, 12, tzinfo=timezone.utc)
MAP = MapName.ASIA_PACIFIC
SRC = Path(__file__).resolve().parents[1] / "src"


def build_corpus(store, svg_text: str, files: int = 6, corrupt_at: int | None = None):
    """SVGs spanning two day-shards; optionally one unparseable file."""
    for index in range(files):
        when = T0 + timedelta(hours=14 * index)  # crosses a UTC midnight
        data = "<svg broken" if index == corrupt_at else svg_text
        store.write(MAP, when, "svg", data)
    return store


def yaml_tree(store) -> dict[str, bytes]:
    return {
        ref.path.name: store.read_ref(ref) for ref in store.iter_refs(MAP, "yaml")
    }


RECORD = JournalRecord(
    map_value="asia-pacific",
    stamp="20220912T000000Z",
    entry=ManifestEntry(sha256="ab" * 32, size=123, mtime_ns=456, yaml_bytes=789),
)


class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        journal = IngestJournal(tmp_path / "j.wal")
        failed = JournalRecord(
            map_value="asia-pacific",
            stamp="20220912T000500Z",
            entry=ManifestEntry(
                sha256="cd" * 32, size=5, mtime_ns=6, failure="MalformedSvgError"
            ),
        )
        journal.append(RECORD)
        journal.append(failed)
        journal.sync()
        journal.close()
        records, dropped = IngestJournal(tmp_path / "j.wal").replay()
        assert records == [RECORD, failed]
        assert dropped == 0

    def test_missing_journal_replays_empty(self, tmp_path):
        assert IngestJournal(tmp_path / "none.wal").replay() == ([], 0)

    def test_torn_tail_dropped_silently(self, tmp_path):
        journal = IngestJournal(tmp_path / "j.wal")
        journal.append(RECORD)
        journal.append(RECORD)
        journal.close()
        raw = (tmp_path / "j.wal").read_bytes()
        (tmp_path / "j.wal").write_bytes(raw[: len(raw) - 7])  # shear the tail
        records, dropped = IngestJournal(tmp_path / "j.wal").replay()
        assert records == [RECORD]
        assert dropped == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = IngestJournal(tmp_path / "j.wal")
        journal.append(RECORD)
        journal.append(RECORD)
        journal.close()
        raw = bytearray((tmp_path / "j.wal").read_bytes())
        raw[12] ^= 0xFF  # damage the FIRST record; the second stays sound
        (tmp_path / "j.wal").write_bytes(bytes(raw))
        with pytest.raises(JournalError):
            IngestJournal(tmp_path / "j.wal").replay()

    def test_clear_removes_file(self, tmp_path):
        journal = IngestJournal(tmp_path / "j.wal")
        journal.append(RECORD)
        journal.clear()
        assert not (tmp_path / "j.wal").exists()
        journal.clear()  # idempotent on a missing file

    def test_entry_conversion(self):
        """A journal payload is its manifest entry's fields plus map and stamp."""
        payload = json.loads(RECORD.to_json())
        assert (payload.pop("map"), payload.pop("stamp")) == (
            RECORD.map_value,
            RECORD.stamp,
        )
        assert payload == asdict(RECORD.entry)
        assert ManifestEntry.coerce(payload) == RECORD.entry

    @staticmethod
    def frame(payload: bytes) -> bytes:
        return b"%08x %s\n" % (zlib.crc32(payload), payload)

    def test_payload_shape_errors_are_typed(self, tmp_path):
        """A sound frame carrying a malformed payload is a damaged frame."""
        path = tmp_path / "j.wal"
        good = self.frame(RECORD.to_json().encode("utf-8"))
        for payload in (b'["not", "a", "dict"]', b'{"map": "x"}', b'"text"'):
            path.write_bytes(good + self.frame(payload))
            assert IngestJournal(path).replay() == ([RECORD], 1)  # a torn tail
            path.write_bytes(self.frame(payload) + good)
            with pytest.raises(JournalError):
                IngestJournal(path).replay()


class TestConfig:
    @pytest.mark.parametrize(
        "field", ["chunk_size", "workers", "checkpoint_every", "fsync_every"]
    )
    def test_positive_ints_enforced(self, field):
        with pytest.raises(IngestError):
            IngestConfig(**{field: 0})

    def test_max_files_validated(self):
        with pytest.raises(IngestError):
            IngestConfig(max_files=0)
        assert IngestConfig(max_files=5).max_files == 5


class TestDaemonRuns:
    def test_matches_serial_processor_byte_for_byte(self, tmp_path, apac_svg):
        serial = build_corpus(DatasetStore(tmp_path / "serial"), apac_svg)
        daemon_store = build_corpus(DatasetStore(tmp_path / "daemon"), apac_svg)
        process_map_parallel(serial, MAP, workers=1)
        stats = IngestDaemon(daemon_store, IngestConfig(workers=2)).run([MAP])
        assert stats.processed == 6 and stats.failed == 0
        assert yaml_tree(daemon_store) == yaml_tree(serial)
        assert verify_shards(daemon_store, MAP) is not None

    def test_second_run_skips_everything(self, tmp_path, apac_svg):
        store = build_corpus(DatasetStore(tmp_path), apac_svg)
        IngestDaemon(store).run([MAP])
        again = IngestDaemon(store).run([MAP])
        assert again.processed == 0
        assert again.skipped == 6

    def test_sharded_store_leaves_fresh_shards(self, tmp_path, apac_svg):
        store = ShardedDatasetStore(tmp_path)
        store.mark()
        build_corpus(store, apac_svg)
        IngestDaemon(store, IngestConfig(checkpoint_every=2)).run([MAP])
        entries = verify_shards(store, MAP)
        assert entries is not None
        assert sum(entry.rows for _, entry in entries) == 6
        assert not (tmp_path / MAP.value / "index.bin").exists()  # no 2.x index

    def test_failures_recorded_not_retried(self, tmp_path, apac_svg):
        store = build_corpus(DatasetStore(tmp_path), apac_svg, corrupt_at=2)
        first = IngestDaemon(store).run([MAP])
        assert first.processed == 5 and first.failed == 1
        again = IngestDaemon(store).run([MAP])
        assert again.ingested == 0 and again.skipped == 6

    def test_max_files_paces_the_run(self, tmp_path, apac_svg):
        store = build_corpus(DatasetStore(tmp_path), apac_svg)
        first = IngestDaemon(store, IngestConfig(max_files=2)).run([MAP])
        assert first.ingested == 2
        rest = IngestDaemon(store).run([MAP])
        assert rest.processed == 4 and rest.skipped == 2

    def test_dead_workers_surface_as_error_not_a_hang(
        self, tmp_path, apac_svg, monkeypatch
    ):
        # A read that dies under the parse kernel must raise the typed
        # error promptly, not wedge the run (pool workers dying are in
        # test_dataset_engine.py's TestPoolingDependsOnInputSize).
        store = build_corpus(DatasetStore(tmp_path), apac_svg, files=12)

        def broken_read(self, ref):
            raise OSError("simulated dead disk")

        # Patched on the class, so forked pool workers inherit it.
        monkeypatch.setattr(DatasetStore, "read_ref", broken_read)
        daemon = IngestDaemon(store, IngestConfig(workers=2))
        started = time.monotonic()
        with pytest.raises(IngestError, match="simulated dead disk"):
            daemon.run([MAP])
        assert time.monotonic() - started < 30

    def test_unsyncable_twin_fails_before_its_journal_records_sync(
        self, tmp_path, apac_svg, monkeypatch
    ):
        store = build_corpus(DatasetStore(tmp_path), apac_svg)
        victim = store.path_for(MAP, T0 + timedelta(hours=28), "yaml")
        real_open = os.open
        events: list[str] = []

        def failing_open(path, flags, *args, **kwargs):
            if Path(path) == victim:
                events.append("twin failed")
                raise OSError(errno.EIO, "simulated I/O error", str(path))
            return real_open(path, flags, *args, **kwargs)

        real_sync = IngestJournal.sync

        def recording_sync(journal):
            events.append("journal synced")
            real_sync(journal)

        monkeypatch.setattr(ingest.os, "open", failing_open)
        monkeypatch.setattr(IngestJournal, "sync", recording_sync)
        with pytest.raises(IngestError, match="simulated I/O error"):
            IngestDaemon(store, IngestConfig(workers=1)).run([MAP])
        assert "twin failed" in events
        assert "journal synced" not in events[events.index("twin failed") :]

        # The failed run's unsynced records are dropped with it, not
        # flushed when its journal is collected: the next run replays
        # none of them and parses every file again.
        monkeypatch.undo()
        gc.collect()
        again = IngestDaemon(store, IngestConfig(workers=1)).run([MAP])
        assert (again.replayed, again.processed) == (0, 6)

    def test_map_without_twins_gets_no_shard_manifest(self, tmp_path):
        store = DatasetStore(tmp_path)
        for index in range(2):
            store.write(MAP, T0 + timedelta(hours=index), "svg", "<svg broken")
        stats = IngestDaemon(store).run([MAP])
        assert stats.failed == 2
        assert not store.shards_manifest_path(MAP).exists()

    def test_no_pending_run_compacts_without_listing_every_twin(
        self, tmp_path, apac_svg, monkeypatch
    ):
        store = build_corpus(DatasetStore(tmp_path), apac_svg)
        IngestDaemon(store, replace(IngestConfig(), update_index=False)).run([MAP])
        assert verify_shards(store, MAP) is None
        list_refs = DatasetStore.iter_refs

        def no_twin_listing(self, map_name, kind):
            if kind == "yaml":
                raise AssertionError("listed every twin of the map")
            return list_refs(self, map_name, kind)

        monkeypatch.setattr(DatasetStore, "iter_refs", no_twin_listing)
        stats = IngestDaemon(store).run([MAP])
        assert stats.ingested == 0 and stats.skipped == 6
        assert verify_shards(store, MAP) is not None

    def test_status_file_published(self, tmp_path, apac_svg):
        store = build_corpus(DatasetStore(tmp_path), apac_svg, files=2)
        IngestDaemon(store).run([MAP])
        status = read_ingest_status(tmp_path)
        assert status is not None
        assert status["state"] == "done"
        assert status["processed"] == 2
        assert status["pid"] == os.getpid()
        assert status_path(store).exists()


class TestResume:
    def test_resume_continues_after_clean_stop(self, tmp_path, apac_svg):
        store = build_corpus(DatasetStore(tmp_path), apac_svg)
        IngestDaemon(store, IngestConfig(max_files=2)).run([MAP])
        # A later run is the resume: it picks up where the paced one stopped.
        stats = IngestDaemon(store).run()
        assert stats.processed == 4 and stats.skipped == 2


KILL_SCRIPT = """
import sys
import time
from pathlib import Path
from repro.constants import MapName
from repro.dataset.ingest import IngestConfig, IngestDaemon
from repro.dataset.store import open_store

parsed = IngestDaemon._parsed

def parsed_then_wait(self, map_name, batches):
    # Once the writer has applied batches of at least 3 files, announce it
    # (argv[3]) and wait to be killed: the kill lands mid-run however fast
    # the host parses, in-process or pooled.
    written = 0
    for results in parsed(self, map_name, batches):
        yield results
        written += len(results)
        if written >= 3:
            Path(sys.argv[3]).touch()
            time.sleep(3600)

IngestDaemon._parsed = parsed_then_wait
store = open_store(sys.argv[1])
config = IngestConfig(
    workers=int(sys.argv[2]), chunk_size=2, fsync_every=1, checkpoint_every=3
)
IngestDaemon(store, config).run([MapName.ASIA_PACIFIC])
"""


def _children(pid: int) -> list[int]:
    """The processes ``pid``'s main thread forked (its pool workers)."""
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(child) for child in path.read_text().split()]


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie nobody has reaped yet counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestKillAndResume:
    def sigkill_and_resume(
        self, tmp_path, apac_svg, monkeypatch, layout: str, workers: int, files: int
    ) -> None:
        reference = build_corpus(
            DatasetStore(tmp_path / "reference"), apac_svg, files=files
        )
        IngestDaemon(reference).run([MAP])

        victim_root = tmp_path / "victim"
        victim = DatasetStore(victim_root)
        if layout == "sharded":
            victim.mark()
        build_corpus(victim, apac_svg, files=files)

        env = dict(os.environ, PYTHONPATH=str(SRC))
        mid_run = tmp_path / "mid-run"
        # Its own process group, so the cleanup below can reach any pool
        # worker a failed run leaves behind.
        process = subprocess.Popen(
            [sys.executable, "-c", KILL_SCRIPT, str(victim_root), str(workers), str(mid_run)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if mid_run.exists():
                    break
                if process.poll() is not None:
                    pytest.fail("daemon finished before it could be killed")
                time.sleep(0.05)
            else:
                pytest.fail("daemon made no progress before the deadline")
            workers_alive = _children(process.pid)
            assert len(workers_alive) == (workers if workers > 1 else 0)
            # The daemon alone dies; its pool workers must notice and exit.
            os.kill(process.pid, signal.SIGKILL)
            assert process.wait(timeout=30) == -signal.SIGKILL
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and any(map(_alive, workers_alive)):
                time.sleep(0.1)
            survivors = [pid for pid in workers_alive if _alive(pid)]
            assert survivors == [], "pool workers outlived their SIGKILL'd daemon"
        finally:
            try:  # whatever a failed run left in the group
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait(timeout=30)

        partial = len(yaml_tree(victim))
        assert 0 < partial < files  # genuinely mid-run

        # The durable set, read from disk before resuming: what the last
        # checkpoint folded into the manifest plus every sound journal
        # record written after it.
        durable = set(Manifest.load(victim.manifest_path(MAP)).entries)
        records, _ = IngestJournal(victim.journal_path(MAP)).replay()
        durable.update(record.stamp for record in records)
        stamps = {format_timestamp(ref.timestamp) for ref in victim.iter_refs(MAP, "svg")}
        assert len(stamps) == files and durable < stamps

        parsed = []

        def recording_parse(data, map_name, when, **kwargs):
            parsed.append(format_timestamp(when))
            return process_svg_bytes(data, map_name, when, **kwargs)

        monkeypatch.setattr(ingest, "process_svg_bytes", recording_parse)
        # In-process, so every parse is recorded here.
        stats = IngestDaemon(victim, IngestConfig(workers=1)).run()
        # Resume re-parses exactly the files the disk did not prove durable.
        assert sorted(parsed) == sorted(stamps - durable)
        assert stats.ingested == files - len(durable)
        assert stats.replayed == len(records)
        assert stats.skipped == len(durable)  # replayed records included
        assert yaml_tree(victim) == yaml_tree(reference)
        entries = verify_shards(victim, MAP)
        assert entries is not None
        assert sum(entry.rows for _, entry in entries) == files
        assert not victim.journal_path(MAP).exists()

    # ``flat`` is an unmarked directory, as 2.x left flat datasets.
    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    def test_sigkill_mid_run_resumes_byte_identical(
        self, tmp_path, apac_svg, layout, monkeypatch
    ):
        self.sigkill_and_resume(tmp_path, apac_svg, monkeypatch, layout, 1, files=10)

    def test_sigkill_mid_pool_run_resumes_byte_identical(
        self, tmp_path, apac_svg, monkeypatch
    ):
        # Two-file batches over two workers: batches land in order, a
        # few at a time, while later ones are still being parsed.
        self.sigkill_and_resume(tmp_path, apac_svg, monkeypatch, "sharded", 2, files=24)

    def test_journal_replay_promotes_to_manifest(self, tmp_path, apac_svg):
        """A journal left behind by a crash is folded in before any work."""
        store = build_corpus(DatasetStore(tmp_path), apac_svg, files=2)
        IngestDaemon(store).run([MAP])
        # Fabricate a crash remnant: move one manifest entry back into a
        # journal, as if the checkpoint never happened.
        manifest_path = store.manifest_path(MAP)
        document = json.loads(manifest_path.read_text(encoding="utf-8"))
        stamp, raw = sorted(document["entries"].items())[0]
        del document["entries"][stamp]
        manifest_path.write_text(json.dumps(document), encoding="utf-8")
        journal = IngestJournal(store.journal_path(MAP))
        journal.append(JournalRecord(MAP.value, stamp, ManifestEntry.coerce(raw)))
        journal.close()
        stats = IngestDaemon(store).run()
        assert stats.replayed == 1
        assert stats.ingested == 0  # replay made re-parsing unnecessary
        assert stats.skipped == 2
        assert not store.journal_path(MAP).exists()


class TestOnePoolPerRun:
    """A pooled run parses and compacts its shards in one pool."""

    #: Two-file batches over two workers, a checkpoint every three files.
    CONFIG = IngestConfig(workers=2, chunk_size=2, checkpoint_every=3)

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(workers_module.os, "cpu_count", lambda: 2)

    def test_checkpoints_reuse_the_parse_pool(self, tmp_path, apac_svg, monkeypatch):
        opened = []
        process_pool = workers_module.process_pool

        def counting(width):
            opened.append(width)
            return process_pool(width)

        monkeypatch.setattr(workers_module, "process_pool", counting)
        store = build_corpus(DatasetStore(tmp_path), apac_svg, files=24)
        stats = IngestDaemon(store, self.CONFIG).run([MAP])
        assert stats.processed == 24 and stats.checkpoints == 9
        assert opened == [2]
        assert verify_shards(store, MAP) is not None

    @pytest.mark.parametrize(
        "failure, message",
        [("exit", "BrokenProcessPool"), ("raise", "reader exploded")],
    )
    def test_worker_failure_while_compacting_is_a_typed_error(
        self, tmp_path, apac_svg, monkeypatch, failure, message
    ):
        reference = build_corpus(DatasetStore(tmp_path / "reference"), apac_svg, files=24)
        IngestDaemon(reference).run([MAP])
        store = build_corpus(DatasetStore(tmp_path / "victim"), apac_svg, files=24)
        # Twins parsed in a run index from the parse and are never read
        # back; twins written without indexing are, by the pool.
        IngestDaemon(store, replace(self.CONFIG, update_index=False)).run([MAP])
        parent = os.getpid()
        read = deserialize.read_twin

        def failing(path):
            # Only the forked workers fail; the daemon's own reads succeed.
            if os.getpid() != parent:
                if failure == "exit":
                    os._exit(3)
                raise RuntimeError("reader exploded")
            return read(path)

        with monkeypatch.context() as patch:
            patch.setattr(deserialize, "read_twin", failing)
            with pytest.raises(IngestError, match=f"indexing asia-pacific.*{message}"):
                IngestDaemon(store, self.CONFIG).run([MAP])
        assert verify_shards(store, MAP) is None

        IngestDaemon(store, self.CONFIG).run([MAP])
        assert yaml_tree(store) == yaml_tree(reference)
        assert verify_shards(store, MAP) is not None


class TestIndexFromTheParse:
    """The daemon indexes each twin it parsed by decoding it, as a rebuild does."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(workers_module.os, "cpu_count", lambda: 2)

    @pytest.fixture(scope="class")
    def documents(self, simulator) -> list[str]:
        """Asia-pacific maps 40 days apart: their router sets differ."""
        from repro.layout.renderer import MapRenderer

        renderer = MapRenderer()
        return [
            renderer.render(simulator.snapshot(MAP, T0 - timedelta(days=40 * k)))
            for k in range(4)
        ]

    @staticmethod
    def shard_indexes(store) -> dict[str, bytes]:
        return {
            key: store.shard_index_path(MAP, key).read_bytes()
            for key in store.shard_keys(MAP, "yaml")
        }

    @pytest.mark.parametrize(
        "config",
        [
            IngestConfig(workers=1, checkpoint_every=5),
            IngestConfig(workers=2, chunk_size=2, checkpoint_every=3),
        ],
        ids=["in-process", "pooled"],
    )
    def test_index_equals_a_rebuild_from_the_yaml_tree(self, tmp_path, documents, config):
        from repro.cli.main import main as cli_main
        from repro.telemetry import MetricsRegistry, use_registry

        store = DatasetStore(tmp_path)
        for index in range(12):
            # Five files a day, so a two-file batch straddles a midnight.
            when = T0 + timedelta(hours=5 * index)
            store.write(MAP, when, "svg", documents[index % len(documents)])
        registry = MetricsRegistry()
        with use_registry(registry):
            assert IngestDaemon(store, config).run([MAP]).processed == 12
        rows = registry.get("repro_index_rows_total")
        assert rows.value(map=MAP.value, outcome="parsed") == 12
        fast_path = registry.get("repro_yaml_fast_path_total")
        assert fast_path.value(outcome="hit") == 12
        assert fast_path.value(outcome="fallback") == 0
        from_the_parse = self.shard_indexes(store)
        assert len(from_the_parse) == 3

        assert cli_main(["index", "build", str(tmp_path), "--rebuild"]) == 0
        assert self.shard_indexes(store) == from_the_parse


class TestReadGeneration:
    """A run moves a map's read generation only when one of its shards changes."""

    OTHER = MapName.WORLD
    CONFIG = IngestConfig(workers=1)

    @pytest.fixture()
    def store(self, tmp_path, apac_svg):
        store = DatasetStore(tmp_path)
        for map_name in (MAP, self.OTHER):
            for index in range(3):
                store.write(map_name, T0 + timedelta(hours=14 * index), "svg", apac_svg)
        IngestDaemon(store, self.CONFIG).run([MAP, self.OTHER])
        return store

    def tokens(self, store) -> dict:
        return {
            map_name: read_generation(store, map_name) for map_name in (MAP, self.OTHER)
        }

    def test_a_run_with_nothing_pending_keeps_every_token(self, store):
        before = self.tokens(store)
        assert None not in before.values()
        stats = IngestDaemon(store, self.CONFIG).run([MAP, self.OTHER])
        assert stats.ingested == 0
        assert self.tokens(store) == before

    def test_an_ingesting_run_moves_only_its_maps_token_once(
        self, store, apac_svg, monkeypatch
    ):
        """Each compaction's token is recorded; only the one that built moves it."""
        tokens = {map_name: [token] for map_name, token in self.tokens(store).items()}
        compact = shards_module.compact_map_shards

        def observed(store, map_name, **options):
            stats = compact(store, map_name, **options)
            tokens[map_name].append(read_generation(store, map_name))
            return stats

        monkeypatch.setattr(shards_module, "compact_map_shards", observed)
        store.write(MAP, T0 + timedelta(hours=42), "svg", apac_svg)
        assert IngestDaemon(store, self.CONFIG).run([MAP, self.OTHER]).processed == 1
        moves = {
            map_name: sum(old != new for old, new in zip(seen, seen[1:]))
            for map_name, seen in tokens.items()
        }
        assert moves == {MAP: 1, self.OTHER: 0}
        assert len(tokens[MAP]) == 3  # the checkpoint's pass and the closing one
