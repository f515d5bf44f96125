"""Shared pieces of the benchmark: the secret, the queries, statistics, output.

Every workload draws its inputs from a ``random.Random(seed)``; the
program under test only ever sees the generated secrets and queries.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for stores and journals; removed when a run ends.
WORK = HERE / ".work"
#: Traced runs write their spans here, one file per workload and seed.
OUT = HERE / "out"


def use_tree() -> None:
    """Import ``repro`` from the checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# -- the workload's secret and queries ------------------------------------------
#: The 4-D ship-style secret of benchmarks/test_server_throughput.py.
SPEC_FIELDS = {"x": (0, 63), "y": (0, 63), "z": (0, 31), "w": (0, 31)}


def zone_text(i: int) -> str:
    """The i-th zone query of benchmarks/test_server_throughput.py."""
    return (
        f"abs(x - {12 + 4 * i}) + abs(y - {16 + 3 * i}) "
        f"+ abs(z - {6 + (i % 5)}) + w <= {38 + 2 * i}"
    )


def spec():
    from repro.lang.secrets import SecretSpec

    return SecretSpec.declare("Ship", **SPEC_FIELDS)


def options():
    from repro.core.plugin import CompileOptions

    return CompileOptions(domain="powerset", k=6, modes=("under", "over"))


#: Serving policy on session knowledge, and the ledger's floor.  Under
#: the k=6 under-approximations most pairs of zone queries have one empty
#: cross-posterior, so a session is admitted for its first query and
#: refused (by the floor) for most later ones; the fleet's churn keeps a
#: steady stream of fresh sessions, so both outcomes stay common.
POLICY_THRESHOLD = 100
FLOOR_THRESHOLD = 1000


def policies():
    from repro.monad.policy import size_above

    return size_above(POLICY_THRESHOLD), size_above(FLOOR_THRESHOLD)


def fresh_secret(rng: random.Random) -> tuple[int, int, int, int]:
    return tuple(rng.randint(lo, hi) for lo, hi in SPEC_FIELDS.values())


#: The zone queries ``fleet_local`` and its edge phase serve.  Zones 0/3 and
#: 7/9 pair up (every cross-posterior of such a pair is non-empty), so a
#: session can be admitted for one query of each side; all other pairs
#: exhaust the budget after one answer.
ZONES = (0, 3, 7, 9)


# -- gateways -----------------------------------------------------------------------
def build_server(store_path=None, *, journal: bool = True, **config):
    """A gateway under the benchmark's policy and floor.

    With *store_path* it keeps its state in a file-backed ``SQLiteStore``
    and, unless *journal* is false, journals every request there.
    *config* goes to ``ServerConfig``.
    """
    from repro.server.gateway import DeclassificationServer, ServerConfig

    policy, floor = policies()
    durable = {}
    if store_path is not None:
        from repro.server.journal import RequestJournal
        from repro.server.store import SQLiteStore

        durable["store"] = store = SQLiteStore(store_path)
        if journal:
            durable["journal"] = RequestJournal(store)
    return DeclassificationServer(
        policy,
        budget_floor=floor,
        options=options(),
        config=ServerConfig(**config),
        **durable,
    )


def twin():
    """The reference gateway output checks replay on: scalar session loop, no shards."""
    server = build_server(inline_compiles=True, observe=False)
    server.manager.vectorized = False
    return server


async def register_zones(server, zones, artifacts: dict | None = None) -> None:
    """Register ``zone<i>`` for each i, from *artifacts* (cache key -> artifact) if given."""
    from repro.service.api import CompileRequest

    for key, compiled in (artifacts or {}).items():
        server.cache.put(key, compiled)
    the_spec = spec()
    await asyncio.gather(
        *(
            server.register_query(CompileRequest(f"zone{i}", zone_text(i), the_spec))
            for i in zones
        )
    )


# -- statistics -----------------------------------------------------------------
#: Tail percentiles tried, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile of n samples."""
    # The tolerance keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *values* (q in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - _rank(n, q)


def tail_level(n: int, cap: float = 99.9) -> float | None:
    """Highest ladder percentile <= *cap* with >= MIN_BEYOND samples beyond."""
    for q in TAIL_LADDER:
        if q <= cap and beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def timing(values_ms: Sequence[float], cap: float) -> dict[str, Any]:
    """Median plus the tail percentile the sample supports (up to *cap*)."""
    level = tail_level(len(values_ms), cap)
    return {
        "n": len(values_ms),
        "p50": statistics.median(values_ms),
        "tail_q": level,
        "tail": percentile(values_ms, level) if level is not None else max(values_ms),
    }


# -- host speed -----------------------------------------------------------------
#: Milliseconds :func:`probe_ms` takes on the reference host: a 2-CPU
#: x86-64 virtual machine at 2.1 GHz (CPython 3.11) while no other tenant
#: loads it.  Only the scale of the reported times depends on it.
PROBE_REF_MS = 1.2


def probe_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes now, on every CPU.

    On a shared host the CPU's speed wanders by up to 70% over stretches
    of seconds; the program slows with it, and so does this loop.  The
    loop runs three times pinned to each CPU this process may use (the
    program's shard processes run on all of them); the result is the
    mean over the CPUs of each one's median.
    """
    cpus = sorted(os.sched_getaffinity(0))
    medians = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(3):
                start = time.perf_counter()
                total = 0
                for i in range(20_000):
                    total += i * i % 7
                times.append(time.perf_counter() - start)
            medians.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(medians) * 1000.0


class HostSpeed:
    """Probes of the host's speed taken through one stretch of a run.

    A workload probes between the operations it times (never inside
    one) and scales what it measured by :meth:`scale`: the reference
    probe time over the median probe of the stretch.  So a slow host reads
    as the reference host, while the program getting slower still reads
    as slower, because the probe loop does not change.  The median keeps
    one disturbed probe from moving the scale.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        #: Wall seconds spent probing, to be left out of timed stretches.
        self.spent = 0.0
        self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        self.probes.append(probe_ms())
        self.spent += time.perf_counter() - start

    def scale(self) -> float:
        """Reference seconds per wall second: multiply times by it, divide rates."""
        return PROBE_REF_MS / statistics.median(self.probes)

    def each(self, times: list[float]) -> list[float]:
        """*times* scaled one by one, each by the probes on either side of it.

        For stretches timed back to back with a probe after each (and the
        first probe before the first): short stretches that a change of
        the host's speed between them would otherwise mix up.
        """
        assert len(self.probes) == len(times) + 1
        pairs = zip(self.probes, self.probes[1:])
        return [t * PROBE_REF_MS * 2.0 / (a + b) for t, (a, b) in zip(times, pairs)]

    def describe(self) -> str:
        return (
            f"host probe median {statistics.median(self.probes):.2f} ms over "
            f"{len(self.probes)} probes (reference {PROBE_REF_MS} ms)"
        )


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def work_dir(name: str) -> Path:
    """A fresh scratch directory under perfbench/.work."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def note(message: str) -> None:
    """A human-readable progress/result line (never the last line)."""
    print(message, flush=True)

