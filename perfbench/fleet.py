"""The closed-loop fleet workloads: ``fleet_local`` and ``fleet_durable``.

A fleet is a set of open sessions.  Each *wave* closes a share of them and
reopens fresh ones (new secrets), then sends one downgrade per session
and waits for all of them; the next wave starts when the last answer is
in.  Every step is appended to a schedule, so the outputs can be checked
against a reference afterwards: ``fleet_local`` replays the schedule on a
twin gateway whose session manager runs the scalar reference loop,
``fleet_durable`` replays its write-ahead journal.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Any

from common import (
    OUT,
    ZONES,
    HostSpeed,
    build_server,
    fresh_secret,
    note,
    peak_rss_mb,
    register_zones,
    spec,
    timing,
    twin,
    work_dir,
)
from tracing import Recorder, layer_metrics, server_counters

from repro.service.serialize import downgrade_result_to_json

#: Downgrades sent alone after each wave of the window (``light_p50_ms``),
#: so the light-load samples spread over the whole window like the waves.
SOLO_PER_WAVE = 10
#: Restarts timed after the window; ``restart_s`` is their median.
RESTARTS = 5


@dataclass(frozen=True)
class Shape:
    name: str
    sessions: int
    #: Zone query indices the sessions draw from.
    zones: tuple[int, ...]
    #: Share of sessions closed and reopened with a fresh secret per wave.
    churn: float
    durable: bool
    #: Warm-up waves: every query served, more than 1024 traces and 4096
    #: idempotency keys, and the decision mix settled (fresh sessions
    #: are admitted, then exhaust their budget over the next few waves;
    #: the authorized share levels off after about six waves).  Set-up is
    #: timed once per run: the warm-up is a large share of a run.
    warm_waves: int
    #: Share of reopened sessions that come back as the same user, so the
    #: ledger's budget carries across reconnects.
    reconnect: float = 0.0
    #: Tail percentile reported for the wave latencies.
    tail_q: float = 99.0


LOCAL = Shape("fleet_local", 2000, ZONES, 0.05, False, warm_waves=6)
# 600 sessions, not 2000: journal replay re-executes one entry at a time
# (~1.3 ms each), and a run must fit the benchmark's time budget.  Seven
# warm-up waves put 4200 keyed downgrades past the 4096-key map; with
# 600 answers per wave the per-wave tail is p90.  No decay epochs and no
# wave served after recovery: with serving shards, both make the journal
# replay diverge (see perfbench/README.md).
DURABLE = Shape(
    "fleet_durable",
    600,
    tuple(range(12)),
    0.20,
    True,
    warm_waves=7,
    reconnect=0.5,
    tail_q=90.0,
)


class Fleet:
    """The seeded fleet: who is connected, with which secret, as which user.

    Every step is written to the schedule file at *log_path*, one JSON
    list per line: ["open", sid, uid, secret] | ["close", sid] |
    ["wave", [[sid, query], ...]] | ["restart"] (a fresh
    gateway with every session re-opened).  Steps other than waves also
    wait in :attr:`pending` until the gateway applies them.  Keeping the
    schedule on disk keeps the benchmark's own memory flat, so ``rss_mb``
    is the gateway's.
    """

    def __init__(self, shape: Shape, seed: int, sessions: int, log_path):
        self.shape = shape
        self.rng = random.Random(seed)
        self.names = [f"zone{i}" for i in shape.zones]
        self.slots: list[tuple[str, str]] = []
        self._sid = 0
        self._uid = 0
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.pending: list[list] = []
        self.secrets: dict[str, list[int]] = {}
        for _ in range(sessions):
            self.slots.append(self._new(None))

    def log(self, record: list) -> None:
        self._log.write(json.dumps(record) + "\n")
        if record[0] != "wave":
            self.pending.append(record)

    def close(self) -> None:
        self._log.close()

    def _new(self, uid: str | None) -> tuple[str, str]:
        sid = f"s{self._sid}"
        self._sid += 1
        if uid is None:
            uid = f"u{self._uid}"
            self._uid += 1
        self.secrets[sid] = list(fresh_secret(self.rng))
        self.log(["open", sid, uid, self.secrets[sid]])
        return sid, uid

    def churn(self) -> None:
        count = round(len(self.slots) * self.shape.churn)
        for slot in self.rng.sample(range(len(self.slots)), count):
            sid, uid = self.slots[slot]
            self.log(["close", sid])
            keep = self.rng.random() < self.shape.reconnect
            self.slots[slot] = self._new(uid if keep else None)

    def wave(self) -> list[list[str]]:
        requests = [[sid, self.rng.choice(self.names)] for sid, _ in self.slots]
        self.log(["wave", requests])
        return requests

    def solo(self) -> list[list[str]]:
        sid, _ = self.rng.choice(self.slots)
        requests = [[sid, self.rng.choice(self.names)]]
        self.log(["wave", requests])
        return requests


def apply_ops(server, records: list[list]) -> None:
    """Apply the non-wave schedule records (opens and closes)."""
    the_spec = spec()
    for record in records:
        if record[0] == "open":
            _, sid, uid, secret = record
            server.open_session(sid, (the_spec, tuple(secret)), user_id=uid)
        elif record[0] == "close":
            server.close_session(record[1])


async def serve_wave(server, requests):
    """One closed-loop wave: all requests at once, each timed to its answer."""
    start = time.perf_counter()

    async def one(sid: str, query: str):
        result = await server.downgrade(sid, query)
        return result, time.perf_counter()

    outcomes = await asyncio.gather(*(one(s, q) for s, q in requests), return_exceptions=True)
    elapsed = time.perf_counter() - start
    results, latencies = [], []
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            results.append(None)
        else:
            results.append(outcome[0])
            latencies.append((outcome[1] - start) * 1000.0)
    return results, latencies, elapsed


class Run:
    """One set-up gateway plus the fleet driving it.

    Answers go to a results file as they arrive (``null`` for a request
    that raised), for the output check after the run; requests that
    raised are also counted in :attr:`unanswered`.
    """

    def __init__(self, shape: Shape, seed: int, sessions: int, tag: str):
        self.shape = shape
        self.dir = work_dir(f"{shape.name}-{tag}")
        self.fleet = Fleet(shape, seed, sessions, self.dir / "schedule.jsonl")
        self.server = None
        self.results_path = self.dir / "results.jsonl"
        self._results = open(self.results_path, "w")
        self.attempted = 0
        self.unanswered = 0
        self.authorized = 0

    @property
    def store_path(self):
        return self.dir / "store.db" if self.shape.durable else None

    def new_server(self, store_path=None):
        """The gateway under test, configured as the workload describes."""
        return build_server(
            store_path or self.store_path,
            serving_shards=2 if self.shape.durable else 0,
            max_pending_compiles=len(self.shape.zones),
        )

    async def boot(self) -> None:
        self.server = self.new_server()
        await register_zones(self.server, self.shape.zones)
        self._flush_ops()
        await self.server.start()

    def _flush_ops(self) -> None:
        """Apply the schedule steps logged since the last call."""
        apply_ops(self.server, self.fleet.pending)
        self.fleet.pending.clear()

    async def wave(self, requests=None):
        """Serve one wave; returns (answered, latencies in ms, seconds)."""
        if requests is None:
            self.fleet.churn()
            self._flush_ops()
            requests = self.fleet.wave()
        results, latencies, elapsed = await serve_wave(self.server, requests)
        for result in results:
            encoded = None if result is None else downgrade_result_to_json(result)
            self._results.write(json.dumps(encoded) + "\n")
            self.authorized += bool(encoded and encoded["authorized"])
        self.attempted += len(results)
        self.unanswered += len(results) - len(latencies)
        return len(latencies), latencies, elapsed

    async def solo(self):
        return await self.wave(self.fleet.solo())

    async def close(self) -> None:
        await self.server.stop()
        self.server.shutdown()
        if self.server.store is not None:
            self.server.store.close()

    def finish(self) -> None:
        """Close the schedule and results files."""
        self.fleet.close()
        self._results.close()


async def setup(shape: Shape, seed: int, sessions: int, tag: str) -> tuple[Run, float]:
    """The warmed-up run and its set-up time in reference seconds."""
    host = HostSpeed()
    start = time.perf_counter()
    run = Run(shape, seed, sessions, tag)
    await run.boot()
    for _ in range(shape.warm_waves):
        await run.wave()
        host.probe()
    return run, (time.perf_counter() - start - host.spent) * host.scale()


async def timed_window(run: Run, seconds: float, host: HostSpeed):
    """Waves until *seconds* have passed, each followed by solo downgrades.

    Returns the per-wave rates and latencies and the solo latencies as
    measured; *host* is probed after each wave and each solo stretch.
    """
    rates, latencies, solo = [], [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        n, lat, elapsed = await run.wave()
        host.probe()
        rates.append(n / elapsed)
        latencies.append(lat)
        for _ in range(SOLO_PER_WAVE):
            _, lat, _ = await run.solo()
            solo.extend(lat)
        host.probe()
    return rates, latencies, solo


async def interleaved_window(run: Run, seconds: float, recorder: Recorder):
    """Waves for *seconds*, traced and untraced in turn.

    Alternating wave by wave keeps the host's drift out of the
    comparison.  Returns the wave rates by whether the wave was traced,
    and the seconds spent in traced waves.
    """
    rates: dict[bool, list[float]] = {False: [], True: []}
    traced_seconds = 0.0
    end = time.perf_counter() + seconds
    traced = False
    while time.perf_counter() < end or not rates[True]:
        if traced:
            recorder.install()
        start = time.perf_counter()
        try:
            n, _, elapsed = await run.wave()
        finally:
            if traced:
                recorder.uninstall()
                traced_seconds += time.perf_counter() - start
        rates[traced].append(n / elapsed)
        traced = not traced
    return rates, traced_seconds


async def restart(run: Run, snapshot) -> float:
    """Reference seconds for a fresh gateway to take over a run's state.

    ``fleet_durable`` boots on a copy of *snapshot*, the store as set-up
    left it, and recovers from its journal: the journal then has the same
    length on every run, however many waves the window got through.  The
    recovered gateway serves no wave, because one with serving shards
    answers differently from the journal replay (see perfbench/README.md).
    ``fleet_local`` has no durable state: its fresh gateway re-registers
    the queries from a warm artifact cache, re-opens the live fleet with
    fresh knowledge and serves it one wave.
    """
    shape = run.shape
    times = []
    host = HostSpeed()
    if shape.durable:
        await run.server.stop()
        for n in range(RESTARTS):
            copy = run.dir / f"restart{n}.db"
            shutil.copyfile(snapshot, copy)
            gc.collect()
            start = time.perf_counter()
            server = run.new_server(copy)
            await server.recover_from_journal()
            times.append(time.perf_counter() - start)
            host.probe()
            server.shutdown()
            server.store.close()
        return statistics.median(times) * host.scale()
    artifacts = artifacts_of(run.server)
    for _ in range(RESTARTS):
        await run.close()
        run.fleet.log(["restart"])
        for sid, uid in run.fleet.slots:
            run.fleet.log(["open", sid, uid, run.fleet.secrets[sid]])
        gc.collect()
        start = time.perf_counter()
        run.server = run.new_server()
        await register_zones(run.server, shape.zones, artifacts)
        run._flush_ops()
        await run.server.start()
        await run.wave(run.fleet.wave())
        times.append(time.perf_counter() - start)
        host.probe()
    return statistics.median(times) * host.scale()


def artifacts_of(server) -> dict[str, Any]:
    """The gateway's compiled artifacts by cache key."""
    cache = server.cache
    return {key: cache.get(key) for key in list(cache.keys())}


# -- output checks ------------------------------------------------------------------
async def twin_mismatches(run: Run, artifacts: dict) -> int:
    """Replay the schedule on gateways whose sessions use the scalar loop.

    Returns how many answers differ from the ones recorded in the run; a
    request that raised (recorded as ``null``) is counted in
    :attr:`Run.unanswered` instead.
    """

    async def fresh():
        reference = twin()
        await register_zones(reference, run.shape.zones, artifacts)
        return reference

    reference = await fresh()
    mismatches = 0
    with open(run.fleet.log_path) as log, open(run.results_path) as recorded:
        for line in log:
            record = json.loads(line)
            if record[0] == "wave":
                out, _, _ = await serve_wave(reference, record[1])
                for result in out:
                    live = json.loads(recorded.readline() or "null")
                    mismatches += live is not None and live != downgrade_result_to_json(result)
            elif record[0] == "restart":
                reference.shutdown()
                reference = await fresh()
            else:
                apply_ops(reference, [record])
        mismatches += sum(1 for _ in recorded)
    reference.shutdown()
    return mismatches


async def replay_check(run: Run, trees: dict[str, str]) -> tuple[int, str]:
    """Replay the journal; count divergences and retained trace trees that differ."""
    from repro.server.journal import RequestJournal
    from repro.server.replay import ReplaySession
    from repro.server.store import SQLiteStore

    with SQLiteStore(run.store_path) as store:
        session = ReplaySession(RequestJournal(store))
        report = await session.run()
    bad_trees = sum(1 for tid, tree in trees.items() if session.tracer.canonical(tid) != tree)
    failed = len(report.divergences) + bad_trees
    if not report.conforms:
        failed = max(failed, 1)
    return failed, (
        f"replay: {report.replayed} entries, {len(report.divergences)} divergences, "
        f"{bad_trees}/{len(trees)} retained trace trees differ"
    )


def canonical_trees(server) -> dict[str, str]:
    tracer = server.hub.tracer
    return {tid: tracer.canonical(tid) for tid in tracer.trace_ids()}


async def run_fleet(shape: Shape, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Set up, run the timed window, check; returns the result."""
    sessions = max(8, int(shape.sessions * scale))
    run, setup_s = await setup(shape, seed, sessions, str(seed))
    note(f"{shape.name}: {sessions} sessions, set-up {setup_s:.2f} reference s")

    trees: dict[str, str] = {}
    before = (run.attempted, run.authorized)
    if trace:
        recorder = Recorder()
        rates, traced_seconds = await interleaved_window(run, seconds, recorder)
        window = (run.attempted - before[0], run.authorized - before[1])
        extra = server_counters(run.server)
        extra["trace.overhead_pct"] = (
            statistics.median(rates[False]) / statistics.median(rates[True]) - 1.0
        ) * 100.0
        metrics = layer_metrics(recorder.finished(), traced_seconds, extra)
        recorder.dump(OUT / f"{shape.name}-seed{seed}.jsonl")
        if shape.durable:
            trees = canonical_trees(run.server)
    else:
        snapshot = run.dir / "setup.db"
        if shape.durable:
            run.server.store.backup(snapshot)
        host = HostSpeed()
        rates, latencies, solo_latencies = await timed_window(run, seconds, host)
        window = (run.attempted - before[0], run.authorized - before[1])
        rss = peak_rss_mb()
        if shape.durable:
            trees = canonical_trees(run.server)
        restart_s = await restart(run, snapshot)
        # Latency within a wave, summarised per wave and then across
        # waves by the median, like the wave throughput.
        per_wave = [timing(lat, shape.tail_q) for lat in latencies]
        scale = host.scale()
        metrics = {
            "setup_s": setup_s,
            "rss_mb": rss,
            "ops_per_s": statistics.median(rates) / scale,
            "op_p50_ms": statistics.median(w["p50"] for w in per_wave) * scale,
            "op_tail_ms": statistics.median(w["tail"] for w in per_wave) * scale,
            "light_p50_ms": statistics.median(solo_latencies) * scale,
            "restart_s": restart_s,
        }
        note(
            f"{shape.name}: {len(rates)} waves of {per_wave[0]['n']} downgrades, each "
            f"summarised by p50 and p{per_wave[0]['tail_q']}; {len(solo_latencies)} solo; "
            f"{host.describe()}; as measured: {statistics.median(rates):.0f} downgrades/s"
        )
    note(f"{shape.name}: {window[1]}/{window[0]} authorized in the window")

    artifacts = artifacts_of(run.server)
    await run.close()
    run.finish()
    check_start = time.perf_counter()
    if shape.durable:
        failed, message = await replay_check(run, trees)
    else:
        failed = await twin_mismatches(run, artifacts)
        message = f"twin (scalar reference): {failed} of {run.attempted} decisions differ"
    note(
        f"{shape.name}: {message}; {run.unanswered} requests raised "
        f"(check {time.perf_counter() - check_start:.1f} s)"
    )
    attempted, failed = run.attempted, failed + run.unanswered
    if trace and not shape.durable:
        import edge

        served = await edge.edge_phase(seed, scale)
        attempted += served["attempted"]
        failed += served["failed"]
        metrics.update(served["metrics"])
    return {"attempted": attempted, "failed": failed, "metrics": metrics}
