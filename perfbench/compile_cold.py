"""The ``compile_cold`` workload: cold compiles through process shards.

Two client tasks keep two ``register_query`` calls in flight against a
gateway with two compile shards and a file-backed store, one client per
shard: each draws its seeded query stream from the variants that route
to its own shard, so a compile never queues behind the other client's.
Every query is new, so every call is a cache miss that runs synthesis
and verification.  The window alternates closed-loop slices with one
cycle of sequential compiles, so both kinds of sample spread over the
whole window.
After the window fresh gateways boot on a store holding a fixed number
of the window's artifacts and re-register those queries from it
(``restart_s``); a last one re-registers every query from the full
store, each of which must come back with the same artifact.  The
serving layers stay idle.
"""

from __future__ import annotations

import asyncio
import gc
import random
import statistics
import time
from pathlib import Path
from typing import Any

from common import OUT, PROBE_REF_MS, HostSpeed, build_server, note, peak_rss_mb, spec, timing, work_dir
from tracing import Recorder, layer_metrics, server_counters

SETUPS = 7
SHARDS = 2
#: Closed-loop seconds between two cycles of sequential compiles
#: (``light_p50_ms``) in the window.
SLICE = 1.0
#: Untraced/traced slice pairs of the window in a traced run.
TRACE_PAIRS = 2
#: Warm restarts timed after the window; ``restart_s`` is their median.
RESTARTS = 11
#: Queries a timed restart re-registers, per position in :data:`CYCLE`: a
#: fixed number in a fixed family mix, so that ``restart_s`` does not move
#: with how many compiles the window got through, or in which order (a
#: gateway decodes its whole store when it boots, and a zone artifact
#: costs many times a B1 one).
RESTART_PER_POSITION = 20


def _b_specs():
    from repro.benchsuite.mardziel import benchmark

    return {bid: benchmark(bid).secret for bid in ("B1", "B2", "B3", "B4", "B5")}


def _b_query(bid: str, rng: random.Random) -> str:
    """A seeded variant of one of the paper's B1-B5 queries.

    Positions and a few widths move (days, centres, listed values);
    radii and the shape of each query stay fixed, so every variant of a
    family costs about the same to compile and the seed changes which
    queries run, not how much work.  Each family has well over a
    thousand variants.
    """
    if bid == "B1":
        day = rng.randint(0, 355)
        return f"bday >= {day} and bday < {day + rng.randint(5, 9)}"
    if bid == "B2":
        x, y = rng.randint(120, 380), rng.randint(120, 380)
        return f"abs(x - {x}) + abs(y - {y}) <= 100 and capacity >= 50"
    if bid == "B3":
        year = rng.randint(1900, 2005)
        return (
            f"gender == {rng.randint(0, 1)} and status == {rng.randint(1, 4)} "
            f"and byear >= {year} and byear <= {year + rng.randint(2, 4)}"
        )
    if bid == "B4":
        return (
            f"byear >= {rng.randint(1975, 1995)} and school >= 4 and abs(lat - "
            f"{rng.randint(20000, 80000)}) + abs(lon - {rng.randint(20000, 80000)}) <= 12000"
        )
    base = rng.randint(0, 25)
    countries = sorted(base + 25 * k + d for k in range(8) for d in range(3))
    members = ", ".join(str(c) for c in countries)
    return (
        f"language == {rng.randint(0, 49)} and education >= 8 "
        f"and country in {{{members}}} and age > 21"
    )


def _zone_query(rng: random.Random) -> str:
    """A zone query of radius 38 centred away from the space's faces."""
    return (
        f"abs(x - {rng.randint(20, 43)}) + abs(y - {rng.randint(20, 43)}) "
        f"+ abs(z - {rng.randint(8, 23)}) + w <= 38"
    )


#: One cycle of the query mix.  By cost: B1 < B3 < B5 < B2 < B4 < zone,
#: so the median falls among the B2 variants and p90 among the zones,
#: away from any boundary between families.
CYCLE = ("zone", "B1", "B2", "B3", "B2", "B4", "B5")


class Queries:
    """Endless seeded streams of distinct compile requests.

    One stream per shard feeds that shard's closed-loop client, and a
    ``"solo"`` stream feeds the sequential compiles.  Each stream walks
    :data:`CYCLE` with its own generator; a variant that the pool would
    route to another shard than the one asked for is redrawn, so every
    stream keeps the same family mix.
    """

    def __init__(self, seed: int, pool):
        streams = (*range(pool.shards), "solo")
        self.rngs = {stream: random.Random(f"{seed}/{stream}") for stream in streams}
        self.positions = dict.fromkeys(streams, 0)
        self.pool = pool
        self.specs = _b_specs()
        self.the_spec = spec()
        self.seen: set[tuple[str, str]] = set()
        self.made = 0

    def next(self, stream, shard: int):
        """The next query of *stream* (a shard number or ``"solo"``), routed to *shard*."""
        from repro.service.api import CompileRequest

        rng = self.rngs[stream]
        family = CYCLE[self.positions[stream] % len(CYCLE)]
        self.positions[stream] += 1
        for _ in range(10_000):
            text = _zone_query(rng) if family == "zone" else _b_query(family, rng)
            if (family, text) not in self.seen and self.pool.shard_for(text) == shard:
                break
        else:
            raise RuntimeError(f"no new {family} variant for shard {shard}")
        self.seen.add((family, text))
        self.made += 1
        secret = self.the_spec if family == "zone" else self.specs[family]
        name = f"q{self.made}-{family}"
        return CompileRequest(name, text, secret)


def new_server(store_path):
    """A gateway with compile shards and a file-backed store, no journal."""
    return build_server(store_path, journal=False, shards=SHARDS)


def close(server) -> None:
    server.shutdown()
    server.store.close()


async def closed_loop(server, queries: Queries, seconds: float, done: list) -> list[float]:
    """One client per shard registering new queries until *seconds* pass."""
    end = time.perf_counter() + seconds
    latencies: list[float] = []

    async def client(shard: int) -> None:
        while time.perf_counter() < end:
            request = queries.next(shard, shard)
            start = time.perf_counter()
            receipt = await server.register_query(request)
            latencies.append((time.perf_counter() - start) * 1000.0)
            done.append((request, receipt))

    await asyncio.gather(*(client(shard) for shard in range(SHARDS)))
    return latencies


async def timed_window(server, queries: Queries, seconds: float, done: list, host: HostSpeed):
    """Closed-loop slices, each followed by one cycle of sequential compiles.

    Returns the closed-loop latencies, the seconds the closed loop ran,
    and each sequential cycle's mean latency.  *host* is probed after each
    slice and each cycle, and each slice's and cycle's times are scaled by
    the probes on either side of it: the host's speed changes from one
    second to the next by more than its median over the run can follow.
    A cycle holds one query of
    each family position, so its mean hardly moves with which variants
    the seed drew; the median of single sequential compiles fell among
    one family's variants, whose cost varies twofold with position.
    """
    latencies: list[float] = []
    cycles: list[float] = []
    loop_seconds = 0.0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        stretch = await closed_loop(server, queries, min(SLICE, end - start), done)
        wall = time.perf_counter() - start
        host.probe()
        scale = PROBE_REF_MS * 2.0 / (host.probes[-2] + host.probes[-1])
        latencies += [ms * scale for ms in stretch]
        loop_seconds += wall * scale
        cycle = []
        for n in range(len(CYCLE)):
            request = queries.next("solo", n % SHARDS)
            start = time.perf_counter()
            done.append((request, await server.register_query(request)))
            cycle.append((time.perf_counter() - start) * 1000.0)
        host.probe()
        scale = PROBE_REF_MS * 2.0 / (host.probes[-2] + host.probes[-1])
        cycles.append(statistics.mean(cycle) * scale)
    return latencies, loop_seconds, cycles


def restart_requests(done: list) -> list:
    """The window's first queries of each family, as many as :data:`CYCLE` holds."""
    quota = {family: RESTART_PER_POSITION * CYCLE.count(family) for family in CYCLE}
    picked = []
    for request, _ in done:
        family = request.name.rsplit("-", 1)[1]
        if quota[family]:
            quota[family] -= 1
            picked.append(request)
    return picked


def restart_store(path, server, requests) -> Path:
    """A new store holding just the artifacts of *requests*, copied from *path*."""
    from repro.server.store import SQLiteStore

    subset = path.with_name("restart.db")
    with SQLiteStore(path) as full, SQLiteStore(subset) as store:
        for request in requests:
            key = _key(server, request)
            store.put(key, full.get(key))
    return subset


async def setup(seed: int, tag: str):
    """A gateway with both compile shards started, each warmed by one cycle.

    Returns the query streams too: the timed window continues them, so no
    query of the warm-up comes back as a cache hit.
    """
    path = work_dir(f"compile_cold-{tag}") / "store.db"
    server = new_server(path)
    queries = Queries(seed, server.pool)

    async def warm_shard(shard: int) -> None:
        for _ in CYCLE:
            await server.register_query(queries.next(shard, shard))

    await asyncio.gather(*(warm_shard(shard) for shard in range(SHARDS)))
    return server, path, queries


def _key(server, request) -> str:
    from repro.lang.parser import parse_bool

    return server.cache.key_for(parse_bool(request.query), request.secret, server.default_options)


def _artifact(server, request) -> Any:
    from repro.service.serialize import compiled_query_to_json

    return compiled_query_to_json(server.cache.get(_key(server, request)))


async def run_compile(seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    server = None
    host = HostSpeed()
    for i in range(SETUPS):
        if server is not None:
            close(server)
        start = time.perf_counter()
        server, path, queries = await setup(seed, f"{seed}-{i}")
        setups.append(time.perf_counter() - start)
        host.probe()
    setup_s = statistics.median(setups) * host.scale()
    note(f"compile_cold: set-ups {', '.join(f'{s:.2f}' for s in setups)} s as measured")

    done: list = []
    recorder = Recorder()
    if trace:
        # Untraced and traced slices in turn, so the host's drift stays
        # out of the overhead comparison: [compiles, seconds] of each kind.
        totals = {False: [0, 0.0], True: [0, 0.0]}
        for traced in (False, True) * TRACE_PAIRS:
            if traced:
                recorder.install()
            before, start = len(done), time.perf_counter()
            await closed_loop(server, queries, seconds / (2 * TRACE_PAIRS), done)
            totals[traced][0] += len(done) - before
            totals[traced][1] += time.perf_counter() - start
            recorder.uninstall()
        plain_rate = totals[False][0] / totals[False][1]
        traced_seconds = totals[True][1]
        traced_rate = totals[True][0] / traced_seconds
    else:
        host = HostSpeed()
        latencies, elapsed, cycles = await timed_window(server, queries, seconds, done, host)
        rss = peak_rss_mb()
    cold_hits, cold_misses = server.cache.stats.hits, server.cache.stats.misses
    counters = server_counters(server)
    cold = {request.name: _artifact(server, request) for request, _ in done}
    close(server)

    # Fresh gateways on a store of a fixed share of the window's artifacts.
    subset_requests = restart_requests(done)
    subset = restart_store(path, server, subset_requests)
    restarts = []
    failed = 0
    restart_host = HostSpeed()
    for _ in range(RESTARTS):
        # Each restart starts from the same collector state, so a full
        # collection falls inside all of them or none.
        gc.collect()
        start = time.perf_counter()
        warm_server = new_server(subset)
        receipts = [await warm_server.register_query(request) for request in subset_requests]
        restarts.append(time.perf_counter() - start)
        restart_host.probe()
        failed += sum(not (r.cache_hit and r.verified) for r in receipts)
        close(warm_server)
    restart_s = statistics.median(restart_host.each(restarts))

    # A fresh gateway on the full store: every query from the warm store.
    warm_server = new_server(path)
    warm = [(request, await warm_server.register_query(request)) for request, _ in done]
    for (request, receipt), (_, again) in zip(done, warm):
        problems = [
            label
            for label, ok in (
                ("unverified", receipt.verified),
                ("cold compile was a cache hit", not receipt.cache_hit),
                ("warm re-register missed the store", again.cache_hit),
                ("warm artifact unverified", again.verified),
                ("warm artifact differs", _artifact(warm_server, request) == cold[request.name]),
            )
            if not ok
        ]
        if problems:
            failed += 1
            note(f"compile_cold: {request.name} {request.query!r}: {', '.join(problems)}")
    hits = cold_hits + warm_server.cache.stats.hits
    misses = cold_misses + warm_server.cache.stats.misses
    close(warm_server)
    note(
        f"compile_cold: {len(done)} cold compiles, {len(warm)} warm re-registers, "
        f"{failed} unverified or different when warm"
    )

    if trace:
        counters.update(
            {
                "cache.hits": float(hits),
                "cache.misses": float(misses),
                "trace.overhead_pct": (plain_rate / traced_rate - 1.0) * 100.0,
            }
        )
        metrics = layer_metrics(recorder.finished(), traced_seconds, counters)
        recorder.dump(OUT / f"compile_cold-seed{seed}.jsonl")
    else:
        window = timing(latencies, 90.0)
        metrics = {
            "setup_s": setup_s,
            "rss_mb": rss,
            "ops_per_s": len(latencies) / elapsed,
            "op_p50_ms": window["p50"],
            "op_tail_ms": window["tail"],
            "light_p50_ms": statistics.median(cycles),
            "restart_s": restart_s,
        }
        note(
            f"compile_cold: p{window['tail_q']} over {window['n']} compiles in the window, "
            f"{len(cycles)} sequential cycles; restarts re-register {len(subset_requests)}; "
            f"{host.describe()}"
        )
    return {
        "attempted": 2 * len(done) + RESTARTS * len(subset_requests),
        "failed": failed,
        "metrics": metrics,
    }
