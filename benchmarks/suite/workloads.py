"""The four workloads: inputs from the seed, set-up, the measured phase, the oracle.

Each workload starts only the part of the system under test it exercises,
over one day-sharded store, the way the archive is deployed:

``ingest-backfill``
    The ingest daemon child (``sut_ingest.py``) alone: rounds of catch-up
    batches over all four maps.  No server runs.
``ingest-live``
    The daemon and the read API child (``sut_server.py``): a tick of one
    SVG per map on a fixed schedule over an archive, with a dashboard
    read mix polling the API beside it.
``read-hot``
    The read API alone over a read archive (the daemon child builds the
    archive in set-up, then exits): ten dashboard URLs, the
    response-cache hit path.
``read-scan``
    The same, with every request distinct: the miss path through scan,
    analysis and payload building.

``--seed`` chooses the simulator instants the document pools are rendered
from and drives every random choice of the load generator; the children
only ever see the generated files and requests.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import shutil
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

from harness import BenchError, Child, Http, Pump, RssSampler, Timer, percentile
from oracle import maps_mismatches, probe_mismatches, shard_mismatches, yaml_twin_mismatches

from repro.constants import REFERENCE_DATE, SNAPSHOT_INTERVAL, MapName
from repro.dataset.processor import process_svg_bytes
from repro.dataset.store import ShardedDatasetStore
from repro.layout.renderer import MapRenderer
from repro.simulation.network import BackboneSimulator
from repro.yamlio.deserialize import snapshot_from_yaml

#: The archive's first snapshot; every file name is a stamp from here on.
T_BASE = REFERENCE_DATE
STEP = SNAPSHOT_INTERVAL
#: Pool documents are rendered from instants in the month before the
#: reference date, so every seed sees networks of the same size.
INSTANT_WINDOW = 30 * 288

WORLD, ASIA, NA = MapName.WORLD, MapName.ASIA_PACIFIC, MapName.NORTH_AMERICA

#: Fixed open-loop request rates, req/s.  ingest-live polls at the
#: dashboard rate the workload specifies.  The read rates give the
#: open-loop phase (the last 8 s of a 10 s run) at least 1,200 requests,
#: ten beyond p99, while staying well under the closed-loop rate a 2-CPU
#: host reaches: on one connection a slow request delays the ones due
#: after it, and near saturation those knock-on delays, not the system,
#: would set the tail.
RATES = {
    "ingest-live": 50.0,
    "read-hot": 400.0,
    "read-scan": 155.0,
}

#: p99 generator lateness above this marks a run invalid.
MAX_LATENESS_MS = 5.0
#: ingest-live writes one SVG per map this often, seconds.
LIVE_TICK_S = 0.5
#: A file not visible through the API this long after its tick is an error.
VISIBLE_WITHIN_S = 10.0
#: Snapshot rows a read-scan window spans.
SCAN_WINDOW_ROWS = (12, 36)


@dataclass(frozen=True)
class Sizes:
    """How much each workload generates and how often it repeats set-up."""

    setups: int
    pool: int
    read_pool: int
    backfill_files: int
    live_archive: tuple[tuple[MapName, int], ...]
    read_days: int
    read_per_day: int
    world_archive: int


FULL = Sizes(
    setups=3,
    pool=4,
    read_pool=16,
    backfill_files=2,
    live_archive=((WORLD, 48), (ASIA, 48), (NA, 4)),
    read_days=4,
    read_per_day=48,
    world_archive=12,
)
SMOKE = Sizes(
    setups=1,
    pool=1,
    read_pool=2,
    backfill_files=1,
    live_archive=((WORLD, 4), (ASIA, 4), (NA, 2)),
    read_days=2,
    read_per_day=4,
    world_archive=2,
)


def stamp(index: int, day: int = 0) -> datetime:
    return T_BASE + timedelta(days=day) + index * STEP


def epoch(when: datetime) -> int:
    return int(when.timestamp())


def per_second(count: float, seconds: float) -> float:
    """``count / seconds``, 0 when nothing was timed (a traced run's other half)."""
    return count / seconds if seconds > 0 else 0.0


@dataclass(frozen=True)
class Doc:
    """One pool document: SVG bytes and its YAML twin at :data:`T_BASE`."""

    svg: bytes
    template: str

    def yaml_at(self, when: datetime) -> str:
        """The YAML twin this document has when stamped ``when``."""
        return self.template.replace(T_BASE.isoformat(), when.isoformat())

    def link_pairs(self) -> list[tuple[str, str]]:
        return [(link.a.node, link.b.node) for link in snapshot_from_yaml(self.template).links]


def single_links(pool: list[Doc]) -> list[tuple[str, str]]:
    """Links present exactly once in every pool document, sorted.

    A series over such a link has one point per snapshot whatever the
    seed picks; a parallel or intermittent link would make the body, and
    the request's cost, depend on the seed.
    """
    common = None
    for doc in pool:
        pairs = doc.link_pairs()
        once = {pair for pair in pairs if pairs.count(pair) == 1}
        common = once if common is None else common & once
    return sorted(common or ())


def render_pool(map_name: MapName, size: int, rng: random.Random) -> list[Doc]:
    """``size`` parseable documents of one map from seeded instants.

    A fresh simulator per pool, as the ingest bench does: shared churn
    state occasionally renders a document the paper's pipeline rejects,
    and the benchmark wants workloads on which no operation fails.
    """
    simulator = BackboneSimulator()
    renderer = MapRenderer()
    docs: list[Doc] = []
    for offset in rng.sample(range(INSTANT_WINDOW), size + 16):
        svg = renderer.render(simulator.snapshot(map_name, T_BASE - offset * STEP)).encode()
        outcome = process_svg_bytes(svg, map_name, T_BASE)
        if outcome.yaml_text is not None and outcome.yaml_text.count(T_BASE.isoformat()) == 1:
            docs.append(Doc(svg, outcome.yaml_text))
            if len(docs) == size:
                return docs
    raise BenchError(f"could not render {size} parseable {map_name.value} documents")


def write_file(store: ShardedDatasetStore, map_name: MapName, when: datetime, kind: str, data: bytes) -> None:
    """Land one file the way a collector does: write aside, then rename."""
    path = store.path_for(map_name, when, kind)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".part")
    scratch.write_bytes(data)
    scratch.replace(path)


@dataclass
class Request:
    phase: str
    due: int
    sent: int
    done: int
    traced: bool


@dataclass
class Sut:
    """The running system under test: its store, children and connection.

    ``ingest`` is ``None`` once the daemon child has exited; ``server`` and
    ``http`` are ``None`` in a workload that starts no read API.
    """

    store: ShardedDatasetStore
    ingest: Child | None
    server: Child | None
    http: Http | None = None
    replies: list[dict] = field(default_factory=list)
    sent_runs: int = 0

    def children(self) -> list[Child]:
        return [child for child in (self.ingest, self.server) if child is not None]

    def idle(self) -> bool:
        """Every ``run`` command sent so far has been answered."""
        return sum(len(reply.get("ids", ())) for reply in self.replies) >= self.sent_runs

    def runs(self) -> list[dict]:
        return [reply for reply in self.replies if reply["verb"] == "run" and reply["ok"]]


class Visibility:
    """Times each written file until the read API first shows it.

    Files are expected in groups (a live tick); each sample keeps its
    group so traced ticks can be told apart.
    """

    def __init__(self) -> None:
        self.pending: dict[MapName, list[tuple[int, int, str]]] = {}
        self.samples: dict[str, list[float]] = {}

    def expect(self, map_name: MapName, when: datetime, since_ns: int, group: str) -> None:
        self.pending.setdefault(map_name, []).append((epoch(when), since_ns, group))
        self.samples.setdefault(group, [])

    def observe(self, map_name: MapName, latest: int, at_ns: int) -> None:
        waiting = self.pending.get(map_name)
        if not waiting:
            return
        keep = []
        for item in waiting:
            if item[0] <= latest:
                self.samples[item[2]].append((at_ns - item[1]) / 1e9)
            else:
                keep.append(item)
        self.pending[map_name] = keep

    def observe_maps(self, body: bytes, at_ns: int) -> None:
        for entry in json.loads(body)["maps"]:
            if "last" in entry:
                latest = epoch(datetime.fromisoformat(entry["last"]))
                self.observe(MapName(entry["name"]), latest, at_ns)

    def waiting(self) -> int:
        return sum(len(items) for items in self.pending.values())


#: The one ``timestamp`` key of a snapshot body (sorted, compact JSON);
#: decoding whole north-america snapshots 25 times a second would load
#: the generator's CPU, which the children share.
_SNAPSHOT_TIME = re.compile(rb'"timestamp":"([^"]+)"')


@dataclass
class Samples:
    """What one workload measured, for ``run.py`` to reduce.

    ``timings`` holds the workload's throughput and latency metrics by
    name (see ``TIMING_METRICS``), taken from untraced operations;
    ``traced`` and ``plain`` hold the cost of the same operation with and
    without tracing, for the overhead estimate.
    """

    timings: dict[str, float]
    traced: list[float]
    plain: list[float]


#: The throughput and latency each workload reports, named after what
#: the workload's user waits for.  A workload reports 0 for the others.
TIMING_METRICS = {
    "ingest-backfill": ("ingest_fps",),
    "ingest-live": ("freshness_p50_s", "freshness_p90_s", "read_p50_ms", "read_p99_ms"),
    "read-hot": ("read_rps", "read_p50_ms", "read_p99_ms"),
    "read-scan": ("read_rps", "read_p50_ms", "read_p99_ms"),
}


class Bench:
    """One run of one workload: its inputs, counters and samples."""

    def __init__(self, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path) -> None:
        self.seconds = seconds
        self.trace = trace
        self.sizes = SMOKE if smoke else FULL
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.pump = Pump()
        self.rss = RssSampler()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.requests: list[Request] = []
        self.client_ns: dict[str, int] = {}
        self.setup_seconds: list[float] = []
        self.suts: list[Sut] = []
        self.detail: dict = {}
        self.expected_files: list[tuple[MapName, datetime, str]] = []
        self.lateness: list[float] = []
        self._request_ids = itertools.count()
        self._last_done = 0

    # -- accounting ---------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, problems: list[str], attempts: int = 1) -> None:
        self.attempted += max(attempts, len(problems))
        for problem in problems:
            self.fail(problem)

    def traced_op(self, number: int) -> bool:
        """A traced run traces every other operation (request, round, tick)."""
        return self.trace and number % 2 == 0

    # -- the system under test ---------------------------------------------

    def start_sut(self, root: Path, maps: list[MapName], builds: list[str], traced: bool,
                  serve: bool = True) -> Sut:
        """Start the daemon child (and with ``serve`` the server child) over
        ``root``, run the build commands, wait until ready."""
        ingest_args = [str(root), ",".join(m.value for m in maps)]
        if traced:
            ingest_args += ["--trace", str(self.workdir / "spans-ingest.jsonl")]
        ingest = Child("ingest", "sut_ingest.py", ingest_args, self.workdir)
        server = None
        if serve:
            server_args = [str(root)]
            if traced:
                server_args += ["--trace", str(self.workdir / "spans-server.jsonl")]
            server = Child("server", "sut_server.py", server_args, self.workdir)
        sut = Sut(ShardedDatasetStore(root), ingest, server)
        self.suts.append(sut)
        ready: dict[str, str] = {}

        def on_ingest(line: str) -> None:
            word, _, payload = line.partition(" ")
            if word == "ready":
                ready["ingest"] = line
                return
            reply = dict(json.loads(payload), ok=word == "done")
            sut.replies.append(reply)
            if not reply["ok"]:
                self.fail(f"the ingest child failed a {reply['verb']} command")

        self.pump.watch(ingest, on_ingest)
        if server is not None:
            self.pump.watch(server, lambda line: ready.setdefault("server", line))
        deadline = perf_counter() + 120
        if not self.pump.run_until(deadline, lambda: len(ready) == len(sut.children())):
            raise BenchError("children did not become ready")
        for command in builds:
            before = len(sut.replies)
            ingest.send(command)
            if not self.pump.run_until(deadline, lambda: len(sut.replies) > before):
                raise BenchError(f"set-up command {command!r} did not finish")
            if not sut.replies[-1]["ok"]:
                raise BenchError(f"set-up command {command!r} failed")
        if server is not None:
            sut.http = Http(int(ready["server"].split()[1]))
            while sut.http.get("/v1/healthz")[0] != 200:
                if perf_counter() > deadline:
                    raise BenchError("server never answered /v1/healthz")
                self.pump.run_until(perf_counter() + 0.05)
        return sut

    def stop_child(self, sut: Sut, child: Child) -> None:
        self.pump.unwatch(child)
        child.stop()
        if child is sut.ingest:
            sut.ingest = None
        if child is sut.server:
            sut.server = None

    def stop_sut(self, sut: Sut) -> None:
        if sut.http is not None:
            sut.http.close()
        for child in sut.children():
            self.stop_child(sut, child)
        if sut in self.suts:
            self.suts.remove(sut)

    def stop_all(self) -> None:
        for sut in list(self.suts):
            self.stop_sut(sut)

    def set_up(self, build: Callable[[Path, bool], Sut]) -> Sut:
        """Run the set-up ``sizes.setups`` times; keep (and trace) the last."""
        sut = None
        for attempt in range(self.sizes.setups):
            last = attempt == self.sizes.setups - 1
            root = self.workdir / f"store-{attempt}"
            started = perf_counter()
            sut = build(root, self.trace and last)
            self.setup_seconds.append(perf_counter() - started)
            if not last:
                self.stop_sut(sut)
                shutil.rmtree(root, ignore_errors=True)
        assert sut is not None
        return sut

    def new_store(self, root: Path) -> ShardedDatasetStore:
        store = ShardedDatasetStore(root)
        store.mark()
        self.expected_files.clear()
        return store

    def write_svgs(self, store: ShardedDatasetStore, pool: list[Doc], map_name: MapName,
                   indexes: range) -> list[datetime]:
        """Write pool documents at the given stamp indexes; remember their twins."""
        stamps = []
        for index in indexes:
            doc = pool[index % len(pool)]
            when = stamp(index)
            write_file(store, map_name, when, "svg", doc.svg)
            self.expected_files.append((map_name, when, doc.yaml_at(when)))
            stamps.append(when)
        return stamps

    def send_run(self, sut: Sut, run_id: str, traced: bool) -> None:
        assert sut.ingest is not None
        sut.sent_runs += 1
        sut.ingest.send(f"run {run_id}{' traced' if traced else ''}")

    # -- requests -----------------------------------------------------------

    def request(self, sut: Sut, path: str, phase: str, due: float | None = None) -> tuple[int, bytes, int]:
        """One GET, recorded; ``due`` (perf_counter seconds) marks an open-loop request.

        A traced run traces every other request and every oracle request,
        so each layer the oracle reaches shows up in the trace.  Oracle
        requests are recorded but not counted: the oracle counts its own
        checks.  Generator lateness is how late a request left beyond
        both its due time and the previous response, which the single
        connection has to wait for anyway.
        """
        assert sut.http is not None
        number = next(self._request_ids)
        traced = self.traced_op(number) or (self.trace and phase == "oracle")
        trace_id = f"q{number}" if traced else None
        status, body, sent, done = sut.http.get(path, trace_id)
        if phase != "oracle":
            self.attempted += 1
            if status not in (200, 304):
                self.fail(f"{path} answered {status or 'a transport error'}")
        if trace_id is not None:
            self.client_ns[trace_id] = done - sent
        due_ns = sent if due is None else int(due * 1e9)
        self.requests.append(Request(phase, due_ns, sent, done, trace_id is not None))
        if due is not None:
            self.lateness.append(max(0, sent - max(due_ns, self._last_done)) / 1e6)
        self._last_done = done
        return status, body, done

    def get(self, sut: Sut) -> Callable[[str], tuple[int, bytes]]:
        """The oracle's view of the connection."""
        def fetch(path: str) -> tuple[int, bytes]:
            status, body, _ = self.request(sut, path, "oracle")
            return status, body
        return fetch

    def open_loop(self, sut: Sut, rate: float, pick: Callable[[], tuple[str, str]],
                  on_response: Callable[[str, str, bytes, int], None] | None = None) -> Timer:
        """Start an open loop at ``rate`` req/s; returns its timer."""
        def fire(due: float) -> None:
            kind, path = pick()
            status, body, done = self.request(sut, path, "open", due)
            if on_response is not None and status == 200:
                on_response(kind, path, body, done)
        return self.pump.every(1.0 / rate, fire)

    def sample_rss(self, sut: Sut) -> Timer:
        """Sample the running children's RSS at 10 Hz until the timer is cancelled."""
        self.rss.children = sut.children()
        self.rss.sample()
        return self.pump.every(0.1, self.rss.sample, catch_up=False)

    def open_latencies(self) -> list[float]:
        """Untraced open-loop request latencies, ms from when each was due."""
        return [(r.done - r.due) / 1e6 for r in self.requests if r.phase == "open" and not r.traced]

    # -- the oracle ---------------------------------------------------------

    def final_checks(self, sut: Sut, probe_map: MapName | None,
                     rows: dict[MapName, list[datetime]]) -> None:
        """Every file's YAML twin and the shard indexes; with a server,
        ``/v1/maps`` and the probe set on ``probe_map``."""
        for reply in sut.runs():
            for _ in range(reply["failed"]):
                self.fail("an SVG failed to ingest")
        self.check(yaml_twin_mismatches(sut.store, self.expected_files), len(self.expected_files))
        self.check(shard_mismatches(sut.store, {m: len(stamps) for m, stamps in rows.items()}), len(rows))
        if sut.http is None or probe_map is None:
            return
        status, body = self.get(sut)("/v1/maps")
        expected = {m: (len(stamps), stamps[-1]) for m, stamps in rows.items()}
        self.check(maps_mismatches(body, expected) if status == 200 else ["/v1/maps failed"], len(rows))
        probes, problems = probe_mismatches(self.get(sut), sut.store, probe_map, rows[probe_map])
        self.check(problems, probes)
        status, body = self.get(sut)("/metrics")
        self.detail["hotswaps"] = sum(
            float(line.rsplit(" ", 1)[1])
            for line in body.decode("utf-8", "replace").splitlines()
            if line.startswith("repro_server_hotswaps_total")
        )

    # -- helpers for the measured phase --------------------------------------

    def wait_idle(self, sut: Sut, timeout: float = 120.0) -> None:
        if not self.pump.run_until(perf_counter() + timeout, sut.idle):
            raise BenchError("the ingest child did not finish its runs")

    def wait_visible(self, visibility: Visibility, timeout: float = VISIBLE_WITHIN_S) -> None:
        self.pump.run_until(perf_counter() + timeout, lambda: visibility.waiting() == 0)
        for map_name, items in visibility.pending.items():
            for _ in items:
                self.fail(f"a {map_name.value} file never became visible")
            self.attempted += len(items)
            items.clear()


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


def ingest_backfill(bench: Bench) -> Samples:
    """Catch-up rounds over all four maps, one daemon run per round."""
    sizes = bench.sizes
    maps = list(MapName)
    pools = {m: render_pool(m, sizes.pool, bench.rng) for m in maps}

    def build(root: Path, traced: bool) -> Sut:
        bench.new_store(root)
        return bench.start_sut(root, maps, [], traced, serve=False)

    sut = bench.set_up(build)
    rows: dict[MapName, list[datetime]] = {m: [] for m in maps}
    rounds: list[tuple[int, float, bool]] = []

    sampler = bench.sample_rss(sut)
    started = perf_counter()
    for number in itertools.count():
        if perf_counter() - started >= bench.seconds:
            break
        traced = bench.traced_op(number)
        first = number * sizes.backfill_files
        batch = range(first, first + sizes.backfill_files)
        for map_name in maps:
            rows[map_name] += bench.write_svgs(sut.store, pools[map_name], map_name, batch)
        bench.attempted += len(maps) * len(batch)
        before = len(sut.replies)
        bench.send_run(sut, str(number), traced)
        bench.wait_idle(sut)
        reply = sut.replies[before]
        if reply["ok"] and reply["ingested"]:
            rounds.append((reply["ingested"], reply["run_s"], traced))
    sampler.cancelled = True

    bench.final_checks(sut, None, rows)
    bench.detail.update(rounds=len(rounds), files=sum(len(stamps) for stamps in rows.values()))
    plain = [(files, seconds) for files, seconds, traced in rounds if not traced]
    return Samples(
        timings={
            "ingest_fps": per_second(sum(f for f, _ in plain), sum(s for _, s in plain)),
        },
        traced=[seconds / files for files, seconds, traced in rounds if traced],
        plain=[seconds / files for files, seconds in plain],
    )


#: One cycle of the live dashboard: half of it polls the snapshot of the
#: map the daemon ingests last; ``dash`` rotates through the analyses.
LIVE_CYCLE = (
    "snap:north-america", "snap:world", "snap:north-america", "maps",
    "snap:north-america", "snap:asia-pacific", "snap:north-america", "dash",
)


def ingest_live(bench: Bench) -> Samples:
    """Ticks of one SVG per map over an archive, with a dashboard polling beside."""
    sizes = bench.sizes
    archive = dict(sizes.live_archive)
    maps = list(archive)
    pools = {m: render_pool(m, sizes.pool, bench.rng) for m in maps}
    rows: dict[MapName, list[datetime]] = {}

    def build(root: Path, traced: bool) -> Sut:
        store = bench.new_store(root)
        for map_name in maps:
            rows[map_name] = bench.write_svgs(store, pools[map_name], map_name, range(archive[map_name]))
        command = "process " + ",".join(m.value for m in maps)
        return bench.start_sut(root, maps, [command], traced)

    sut = bench.set_up(build)
    visibility = Visibility()
    pair = pools[NA][0].link_pairs()[0]
    dashboard = itertools.cycle(
        [
            f"/v1/maps/{NA.value}/series?link={pair[0]}:{pair[1]}",
            f"/v1/maps/{WORLD.value}/evolution",
            f"/v1/maps/{ASIA.value}/imbalance",
        ]
    )
    cycle = itertools.cycle(LIVE_CYCLE)

    def pick() -> tuple[str, str]:
        slot = next(cycle)
        if slot == "maps":
            return "maps", "/v1/maps"
        if slot == "dash":
            return "dash", next(dashboard)
        return "snapshot", f"/v1/maps/{slot.split(':')[1]}/snapshot"

    def on_response(kind: str, path: str, body: bytes, done: int) -> None:
        if kind == "maps":
            visibility.observe_maps(body, done)
        elif kind == "snapshot":
            found = _SNAPSHOT_TIME.search(body)
            if found:
                when = datetime.fromisoformat(found.group(1).decode())
                visibility.observe(MapName(path.split("/")[3]), epoch(when), done)

    ticks = itertools.count()
    traced_ticks: set[str] = set()

    def tick(_due: float) -> None:
        name = f"t{next(ticks)}"
        traced = bench.traced_op(int(name[1:]))
        if traced:
            traced_ticks.add(name)
        for map_name in maps:
            index = len(rows[map_name])
            rows[map_name] += bench.write_svgs(sut.store, pools[map_name], map_name, range(index, index + 1))
            visibility.expect(map_name, rows[map_name][-1], perf_counter_ns(), name)
        bench.attempted += len(maps)
        bench.send_run(sut, name, traced)

    reader = bench.open_loop(sut, RATES["ingest-live"], pick, on_response)
    sampler = bench.sample_rss(sut)
    ticker = bench.pump.every(LIVE_TICK_S, tick)
    bench.pump.run_until(perf_counter() + bench.seconds)
    ticker.cancelled = True
    bench.wait_idle(sut)
    bench.wait_visible(visibility)
    reader.cancelled = sampler.cancelled = True

    bench.final_checks(sut, NA, rows)
    runs = [reply for reply in sut.runs() if reply["ingested"]]
    plain_runs = [reply for reply in runs if not traced_ticks & set(reply["ids"])]
    fresh = [
        seconds for name, samples in visibility.samples.items() if name not in traced_ticks
        for seconds in samples
    ]
    reads = bench.open_latencies()
    bench.detail.update(
        ticks=next(ticks), daemon_runs=len(runs), freshness_samples=len(fresh), read_samples=len(reads),
    )
    return Samples(
        timings={
            "freshness_p50_s": percentile(fresh, 0.50),
            "freshness_p90_s": percentile(fresh, 0.90),
            "read_p50_ms": percentile(reads, 0.50),
            "read_p99_ms": percentile(reads, 0.99),
        },
        traced=[r["run_s"] / r["ingested"] for r in runs if r not in plain_runs],
        plain=[r["run_s"] / r["ingested"] for r in plain_runs],
    )


def _read_archive(bench: Bench) -> tuple[Sut, dict[MapName, list[datetime]], list[Doc]]:
    """Set up the read archive: asia-pacific as YAML day-shards and a small
    world map, both compacted by the daemon child, which then exits."""
    sizes = bench.sizes
    asia_pool = render_pool(ASIA, sizes.read_pool, bench.rng)
    world_pool = render_pool(WORLD, sizes.pool, bench.rng)
    rows: dict[MapName, list[datetime]] = {}

    def build(root: Path, traced: bool) -> Sut:
        store = bench.new_store(root)
        rows[ASIA], rows[WORLD] = [], []
        for day in range(sizes.read_days):
            for slot in range(sizes.read_per_day):
                when = stamp(slot, day)
                doc = asia_pool[(day * sizes.read_per_day + slot) % len(asia_pool)]
                write_file(store, ASIA, when, "yaml", doc.yaml_at(when).encode())
                rows[ASIA].append(when)
        for slot in range(sizes.world_archive):
            when = stamp(slot)
            write_file(store, WORLD, when, "yaml", world_pool[slot % len(world_pool)].yaml_at(when).encode())
            rows[WORLD].append(when)
        return bench.start_sut(root, [WORLD, ASIA], ["compact world,asia-pacific"], traced)

    sut = bench.set_up(build)
    assert sut.ingest is not None
    bench.stop_child(sut, sut.ingest)
    return sut, rows, asia_pool


def _read_phases(bench: Bench, sut: Sut, rows: dict[MapName, list[datetime]],
                 pick: Callable[[], tuple[str, str]], rate: float) -> Samples:
    """Closed loop for a fifth of the run, then the fixed-rate open loop."""
    sampler = bench.sample_rss(sut)
    started = perf_counter()
    serviced = started
    while perf_counter() < started + bench.seconds / 5:
        if perf_counter() - serviced > 0.01:  # the RSS sampler, not per request
            bench.pump.service()
            serviced = perf_counter()
        bench.request(sut, pick()[1], "closed")
    reader = bench.open_loop(sut, rate, pick)
    bench.pump.run_until(started + bench.seconds)
    reader.cancelled = sampler.cancelled = True
    bench.final_checks(sut, ASIA, rows)

    closed = [r for r in bench.requests if r.phase == "closed"]
    measured = [r for r in bench.requests if r.phase in ("closed", "open")]
    latencies = bench.open_latencies()
    bench.detail.update(closed_requests=len(closed), read_samples=len(latencies))
    return Samples(
        timings={
            "read_rps": per_second(len(closed), (closed[-1].done - closed[0].sent) / 1e9),
            "read_p50_ms": percentile(latencies, 0.50),
            "read_p99_ms": percentile(latencies, 0.99),
        },
        traced=[(r.done - r.sent) / 1e6 for r in measured if r.traced],
        plain=[(r.done - r.sent) / 1e6 for r in measured if not r.traced],
    )


def read_hot(bench: Bench) -> Samples:
    """Ten dashboard URLs, all cache hits after the warm-up."""
    sut, rows, pool = _read_archive(bench)
    stamps = rows[ASIA]
    rng = bench.rng
    links = rng.sample(single_links(pool), 2)
    slug = ASIA.value
    window = f"start={epoch(stamps[len(stamps) // 4])}&end={epoch(stamps[len(stamps) // 2])}"
    urls = [
        ("maps", "/v1/maps", 10),
        ("snapshot", f"/v1/maps/{slug}/snapshot", 25),
        ("snapshot", f"/v1/maps/{slug}/snapshot?at={epoch(rng.choice(stamps))}", 10),
        ("snapshot", f"/v1/maps/{slug}/snapshot?at={epoch(rng.choice(stamps))}", 5),
        ("series", f"/v1/maps/{slug}/series?link={links[0][0]}:{links[0][1]}", 10),
        ("series", f"/v1/maps/{slug}/series?link={links[1][0]}:{links[1][1]}&{window}", 10),
        ("evolution", f"/v1/maps/{slug}/evolution", 10),
        ("evolution", f"/v1/maps/{slug}/evolution?{window}", 5),
        ("imbalance", f"/v1/maps/{slug}/imbalance", 10),
        ("imbalance", f"/v1/maps/{slug}/imbalance?{window}", 5),
    ]
    for kind, path, _ in urls:
        bench.request(sut, path, "warm")
    population = [(kind, path) for kind, path, _ in urls]
    weights = [weight for _, _, weight in urls]

    def pick() -> tuple[str, str]:
        return rng.choices(population, weights)[0]

    return _read_phases(bench, sut, rows, pick, RATES["read-hot"])


def read_scan(bench: Bench) -> Samples:
    """Every request distinct: seeded instants, windows, links and thresholds."""
    sut, rows, pool = _read_archive(bench)
    stamps = rows[ASIA]
    rng = bench.rng
    links = single_links(pool)
    slug = ASIA.value
    seen: set[str] = set()

    # Windows of 12 to 36 snapshot rows (one to three hours of archive),
    # anchored on rows so none is empty: costs vary within a kind, but
    # not by orders of magnitude.
    span = max(1, min(SCAN_WINDOW_ROWS[1], len(stamps) - 1))

    def window() -> str:
        rows = rng.randint(min(SCAN_WINDOW_ROWS[0], span), span)
        lo = rng.randrange(len(stamps) - rows)
        start = epoch(stamps[lo]) - rng.randrange(300)
        end = epoch(stamps[lo + rows]) + 1 + rng.randrange(300)
        return f"start={start}&end={end}"

    # Every block of 16 requests holds the 10:3:2:1 mix exactly, shuffled.
    kinds: list[str] = []

    def make() -> tuple[str, str]:
        if not kinds:
            kinds.extend(["snapshot"] * 10 + ["series"] * 3 + ["evolution"] * 2 + ["imbalance"])
            rng.shuffle(kinds)
        kind = kinds.pop()
        if kind == "snapshot":
            at = epoch(stamps[0]) + rng.randrange(epoch(stamps[-1]) - epoch(stamps[0]) + 3600)
            return kind, f"/v1/maps/{slug}/snapshot?at={at}"
        if kind == "series":
            a, b = rng.choice(links)
            return kind, f"/v1/maps/{slug}/series?link={a}:{b}&{window()}"
        if kind == "evolution":
            return kind, f"/v1/maps/{slug}/evolution?{window()}"
        return kind, f"/v1/maps/{slug}/imbalance?{window()}&min_load={rng.uniform(0.5, 20):.3f}"

    def pick() -> tuple[str, str]:
        while True:
            kind, path = make()
            if path not in seen:
                seen.add(path)
                return kind, path

    warmed: set[str] = set()
    while len(warmed) < 4:  # one engine open and first scan per endpoint
        kind, path = pick()
        if kind not in warmed:
            warmed.add(kind)
            bench.request(sut, path, "warm")
    return _read_phases(bench, sut, rows, pick, RATES["read-scan"])


WORKLOADS: dict[str, Callable[[Bench], Samples]] = {
    "ingest-backfill": ingest_backfill,
    "ingest-live": ingest_live,
    "read-hot": read_hot,
    "read-scan": read_scan,
}
