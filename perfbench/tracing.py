"""In-memory spans around the public calls of each ``repro`` layer.

The program is not changed: :class:`Recorder` swaps wrappers onto the
classes of the layers it observes, records one :class:`Span` per call
(name, start, end, parent, request id), and puts the originals back on
:meth:`Recorder.uninstall`.  Parents follow ``contextvars``, so a span
opened inside an asyncio task or a ``to_thread`` call nests under the
span that was current when that task or thread was started.

:func:`layer_metrics` turns the spans into the per-layer metrics named in
BENCHMARK.json; :func:`self_times` gives each span's duration minus the
part of it covered by its children.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import json
import statistics
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Callable, Iterable

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    """One timed call.  ``end`` is None until the call (or future) finishes."""

    __slots__ = ("name", "start", "end", "parent", "rid", "info")

    def __init__(self, name, start, parent=None, rid=None):
        self.name = name
        self.start = start
        self.end: float | None = None
        self.parent: Span | None = parent
        self.rid = rid
        self.info: dict[str, Any] = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


#: (module path, class, attribute, span name, kind).  ``kind`` is "sync",
#: "async", "future" (span ends when the returned Future is done) or
#: "static" (a staticmethod, recorded like "sync").
_GATEWAY = ("repro.server.gateway", "DeclassificationServer")
_LEDGER = ("repro.server.ledger", "PrivacyBudgetLedger")
TARGETS = [
    (*_GATEWAY, "downgrade", "gateway.downgrade", "async"),
    (*_GATEWAY, "flush", "gateway.flush", "async"),
    (
        "repro.service.session",
        "SessionManager",
        "downgrade_batch",
        "session.downgrade_batch",
        "sync",
    ),
    (*_LEDGER, "preauthorize_batch", "ledger.preauthorize_batch", "sync"),
    (*_LEDGER, "commit", "ledger.commit", "sync"),
    (*_LEDGER, "apply_payload", "ledger.apply_payload", "sync"),
    ("repro.server.journal", "RequestJournal", "begin", "journal.begin", "sync"),
    ("repro.server.journal", "RequestJournal", "begin_many", "journal.begin_many", "sync"),
    ("repro.server.journal", "RequestJournal", "ack", "journal.ack", "sync"),
    ("repro.server.journal", "RequestJournal", "ack_many", "journal.ack_many", "sync"),
    *[
        ("repro.server.store", "SQLiteStore", attr, f"store.{attr}", "sync")
        for attr in (
            "journal_append",
            "journal_append_many",
            "journal_ack",
            "journal_ack_many",
            "journal_ack_with_bounds",
            "journal_lookup",
            "journal_entries",
            "journal_next_seq",
            "put_ledger_bound",
        )
    ],
    ("repro.server.workers", "ServingShardPool", "submit", "workers.submit", "future"),
    ("repro.server.workers", "ServingShardPool", "decode", "workers.decode", "static"),
    ("repro.server.workers", "ShardedCompilePool", "submit", "compile.submit", "future"),
    ("repro.server.workers", "ShardedCompilePool", "decode", "compile.decode", "static"),
    ("repro.obs.trace", "Tracer", "record", "obs.record", "sync"),
    ("repro.obs.hub", "MetricsHub", "absorb", "obs.absorb", "sync"),
]


def _request_id(name: str, args: tuple, kwargs: dict) -> Any:
    if name == "gateway.downgrade":
        return kwargs.get("idempotency_key") or args[1]
    return None


def _annotate(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    """Per-call counts recorded where the work happens."""
    name = span.name
    if name == "gateway.flush":
        span.info["n"] = result
    elif name == "session.downgrade_batch":
        span.info["n"] = len(result)
    elif name == "ledger.preauthorize_batch":
        span.info["n"] = len(result)
        span.info["refused"] = sum(1 for d in result.values() if not d.allowed)
    elif name == "journal.begin_many":
        span.info["n"] = len(args[1])
    elif name == "journal.begin":
        span.info["n"] = 1
    elif name == "workers.decode":
        span.info["bytes"] = len(args[0])
    elif name == "compile.decode":
        reports = list(result[0].reports.values())
        span.info.update(
            synth_ms=sum(r.synth_time for r in reports) * 1000.0,
            verify_ms=sum(r.verify_time for r in reports) * 1000.0,
            nodes=sum(r.solver_nodes for r in reports),
            splits=sum(r.solver_splits for r in reports),
        )


class Recorder:
    """Installs the wrappers and keeps every finished span in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._saved: list[tuple[type, str, Any]] = []

    def _open(self, name: str, args: tuple, kwargs: dict) -> tuple[Span, Any]:
        span = Span(name, time.perf_counter(), _CURRENT.get(), _request_id(name, args, kwargs))
        self.spans.append(span)
        return span, _CURRENT.set(span)

    def _wrap(self, fn: Callable, name: str, kind: str) -> Callable:
        recorder = self

        if kind == "async":

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                span, token = recorder._open(name, args, kwargs)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    _CURRENT.reset(token)
                _annotate(span, args, kwargs, result)
                return result

        elif kind == "future":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span, token = recorder._open(name, args, kwargs)
                try:
                    future: Future = fn(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)

                def done(_f: Future) -> None:
                    span.end = time.perf_counter()

                future.add_done_callback(done)
                return future

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span, token = recorder._open(name, args, kwargs)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    _CURRENT.reset(token)
                _annotate(span, args, kwargs, result)
                return result

        return wrapper

    def install(self) -> None:
        import importlib

        for module, cls_name, attr, name, kind in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            if kind == "static":
                setattr(cls, attr, staticmethod(self._wrap(original.__func__, name, "sync")))
            else:
                setattr(cls, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]

    def dump(self, path: Path) -> None:
        """Write every finished span as one JSON object per line."""
        spans = self.finished()
        index = {id(s): i for i, s in enumerate(spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(spans):
                fh.write(
                    json.dumps(
                        {
                            "i": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": index.get(id(s.parent)) if s.parent else None,
                            "rid": s.rid if isinstance(s.rid, (str, int)) else None,
                            "info": s.info,
                        }
                    )
                    + "\n"
                )


def load(path: Path) -> list[Span]:
    """Read spans written by :meth:`Recorder.dump`."""
    spans: list[Span] = []
    parents: list[int | None] = []
    with open(path) as fh:
        for line in fh:
            data = json.loads(line)
            span = Span(data["name"], data["start"], None, data["rid"])
            span.end = data["end"]
            span.info = data["info"]
            spans.append(span)
            parents.append(data["parent"])
    for span, parent in zip(spans, parents):
        span.parent = spans[parent] if parent is not None else None
    return spans


# -- analysis -------------------------------------------------------------------
def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[Span, float]:
    """Each span's duration minus the part its children cover (seconds)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {
        s: (s.end - s.start) - covered(s.start, s.end, children.get(id(s), ()))
        for s in spans
    }


#: Spans that measure waiting (a request's whole life, a shard round
#: trip) rather than work; they are left out of the self-time table.
WAITING = {"gateway.downgrade", "workers.submit", "compile.submit"}


def self_time_table(spans: list[Span], seconds: float) -> dict[str, float]:
    """Self time per module, in ms per second of traced window."""
    table: dict[str, float] = {}
    for span, own in self_times(spans).items():
        if span.name in WAITING:
            continue
        module = span.name.split(".", 1)[0]
        table[module] = table.get(module, 0.0) + own * 1000.0
    return {module: ms / seconds for module, ms in sorted(table.items())}


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _top_ms(spans: list[Span], prefix: str) -> float:
    """Total ms of spans under *prefix* not nested in another such span."""
    return sum(
        s.ms
        for s in spans
        if s.name.startswith(prefix)
        and not (s.parent is not None and s.parent.name.startswith(prefix))
    )


def gateway_phases(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per-request queue wait and resolve time (ms) from downgrade/flush spans.

    A downgrade is served by the first flush that starts after it was
    enqueued (the ticker's flushes run one at a time); queue wait is the
    gap to that flush's start, resolve the gap from its end to the
    downgrade's return.
    """
    flushes = sorted((s for s in spans if s.name == "gateway.flush"), key=lambda s: s.start)
    starts = [s.start for s in flushes]
    waits, resolves = [], []
    for d in spans:
        if d.name != "gateway.downgrade":
            continue
        i = bisect.bisect_left(starts, d.start)
        if i == len(flushes) or flushes[i].end > d.end:
            continue
        waits.append((flushes[i].start - d.start) * 1000.0)
        resolves.append((d.end - flushes[i].end) * 1000.0)
    return waits, resolves


#: Per-layer metrics, in BENCHMARK.json's order.  Busy times summed over
#: the window (unit ms/s) are per second of traced window, so they read
#: as utilisation and do not depend on the window length.
LAYER_METRICS = (
    "edge.self_ms_p50",
    "gateway.queue_wait_ms_p50",
    "gateway.flush_ms_p50",
    "gateway.batch_size_mean",
    "gateway.flushes",
    "gateway.resolve_ms_p50",
    "session.busy_ms",
    "session.sessions_per_call",
    "ledger.admit_ms",
    "ledger.commit_ms",
    "ledger.refused_ratio",
    "ledger.fold_ms",
    "journal.append_ms",
    "journal.ack_ms",
    "journal.entries_per_append",
    "journal.entries",
    "store.busy_ms",
    "store.busy_retries",
    "workers.roundtrip_ms_p50",
    "workers.decode_ms",
    "workers.reply_bytes_mean",
    "supervise.retries",
    "supervise.trips",
    "obs.record_us_mean",
    "obs.record_us_last_over_first",
    "obs.absorb_ms",
    "compile.roundtrip_ms_p50",
    "compile.decode_ms",
    "solver.synth_ms",
    "solver.verify_ms",
    "solver.nodes",
    "solver.splits",
    "cache.hits",
    "cache.misses",
    "loadgen.late_ms_p99",
    "trace.overhead_pct",
    *(
        f"{module}.self_ms_per_s"
        for module in (
            "gateway", "session", "ledger", "journal", "store", "workers", "obs", "compile"
        )
    ),
)


def layer_metrics(spans: list[Span], seconds: float, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric; a layer the workload bypasses reads 0.

    *extra* carries what spans cannot show (counters read from the
    server, the load generator's lateness, the overhead comparison) and
    overrides the span-derived values of the same name.
    """
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def get(name: str) -> list[Span]:
        return named.get(name, [])

    def rate(ms: float) -> float:
        return ms / seconds

    busy_flushes = [s for s in get("gateway.flush") if s.info.get("n")]
    waits, resolves = gateway_phases(spans)
    batches = get("session.downgrade_batch")
    admits = get("ledger.preauthorize_batch")
    appends = get("journal.begin") + get("journal.begin_many")
    records = sorted(get("obs.record"), key=lambda s: s.start)
    fifth = max(1, len(records) // 5)
    first, last = records[:fifth], records[-fifth:]
    first_us = _mean([s.ms * 1000.0 for s in first])
    decodes = get("compile.decode")
    metrics = {name: 0.0 for name in LAYER_METRICS}
    metrics.update(
        {
            "gateway.queue_wait_ms_p50": _p50(waits),
            "gateway.flush_ms_p50": _p50([s.ms for s in busy_flushes]),
            "gateway.batch_size_mean": _mean([s.info["n"] for s in busy_flushes]),
            "gateway.flushes": float(len(busy_flushes)),
            "gateway.resolve_ms_p50": _p50(resolves),
            "session.busy_ms": rate(sum(s.ms for s in batches)),
            "session.sessions_per_call": _mean([s.info["n"] for s in batches]),
            "ledger.admit_ms": rate(sum(s.ms for s in admits)),
            "ledger.commit_ms": rate(sum(s.ms for s in get("ledger.commit"))),
            "ledger.refused_ratio": (
                sum(s.info["refused"] for s in admits) / max(1, sum(s.info["n"] for s in admits))
            ),
            "ledger.fold_ms": rate(sum(s.ms for s in get("ledger.apply_payload"))),
            "journal.append_ms": rate(_top_ms(appends, "journal.")),
            "journal.ack_ms": rate(
                _top_ms(get("journal.ack") + get("journal.ack_many"), "journal.")
            ),
            "journal.entries_per_append": (
                sum(s.info["n"] for s in appends) / len(appends) if appends else 0.0
            ),
            "store.busy_ms": rate(_top_ms(spans, "store.")),
            "workers.roundtrip_ms_p50": _p50([s.ms for s in get("workers.submit")]),
            "workers.decode_ms": rate(sum(s.ms for s in get("workers.decode"))),
            "workers.reply_bytes_mean": _mean([s.info["bytes"] for s in get("workers.decode")]),
            "obs.record_us_mean": _mean([s.ms * 1000.0 for s in records]),
            "obs.record_us_last_over_first": (
                _mean([s.ms * 1000.0 for s in last]) / first_us if first_us else 0.0
            ),
            "obs.absorb_ms": rate(sum(s.ms for s in get("obs.absorb"))),
            "compile.roundtrip_ms_p50": _p50([s.ms for s in get("compile.submit")]),
            "compile.decode_ms": rate(sum(s.ms for s in decodes)),
            # Per compiled artifact (both modes, both polarities).
            "solver.synth_ms": _mean([s.info["synth_ms"] for s in decodes]),
            "solver.verify_ms": _mean([s.info["verify_ms"] for s in decodes]),
            "solver.nodes": _mean([s.info["nodes"] for s in decodes]),
            "solver.splits": _mean([s.info["splits"] for s in decodes]),
        }
    )
    for module, value in self_time_table(spans, seconds).items():
        key = f"{module}.self_ms_per_s"
        if key in metrics:
            metrics[key] = value
    metrics.update(extra)
    return metrics


def server_counters(server) -> dict[str, float]:
    """Counters the per-layer table reads from a live gateway."""
    stats = server.supervisor.stats
    family = server.hub.registry.snapshot().get("anosy_store_busy_retries_total")
    return {
        "supervise.retries": float(stats.retries),
        "supervise.trips": float(stats.breaker_opens),
        "store.busy_retries": float(sum(family["series"].values())) if family else 0.0,
        "journal.entries": float(len(server.journal)) if server.journal is not None else 0.0,
    }
