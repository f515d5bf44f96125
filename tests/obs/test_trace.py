"""The replay-stable tracer: derived ids, canonical trees, digests."""

import asyncio
import hashlib
import json
import time
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.trace as trace_module
from repro.core.plugin import CompileOptions
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    span_id_for,
    trace_id_for,
)
from repro.server import faults
from repro.server.faults import FaultPlan, FaultSpec
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.journal import RequestJournal
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest


def test_ids_are_deterministic_digests():
    assert trace_id_for("key", 7) == trace_id_for("key", 7)
    assert trace_id_for("key", 7) != trace_id_for("key", 8)
    assert trace_id_for("key", 7) != trace_id_for("other", 7)
    assert len(trace_id_for("key", 7)) == 32
    tid = trace_id_for("key", 7)
    assert span_id_for(tid, None, "downgrade", 0) == span_id_for(
        tid, None, "downgrade", 0
    )
    assert span_id_for(tid, None, "downgrade", 0) != span_id_for(
        tid, None, "downgrade", 1
    )
    assert len(span_id_for(tid, None, "downgrade", 0)) == 16


def test_repeated_names_get_per_parent_indices():
    tracer = Tracer()
    tid = trace_id_for("k", 1)
    first = tracer.record(tid, "retry")
    second = tracer.record(tid, "retry")
    assert first.span_id != second.span_id
    assert second.span_id == span_id_for(tid, None, "retry", 1)


def test_canonical_tree_excludes_transport_and_elapsed():
    tracer = Tracer()
    tid = trace_id_for("k", 1)
    root = tracer.record(tid, "downgrade", session="s1", elapsed=1.25)
    tracer.record(tid, "serve", parent_id=root.span_id, authorized=True)
    tracer.record(
        tid, "shard_roundtrip", parent_id=root.span_id, transport=True
    )
    tree = tracer.tree(tid)
    assert tree == {
        "name": "downgrade",
        "attrs": {"session": "s1"},
        "children": [
            {"name": "serve", "attrs": {"authorized": True}, "children": []}
        ],
    }
    # Transport spans still exist on the raw timeline.
    assert [s.name for s in tracer.spans(tid)] == [
        "downgrade",
        "serve",
        "shard_roundtrip",
    ]
    assert "elapsed" not in json.dumps(tree)


def test_child_order_is_canonical_not_arrival_order():
    def build(order: list[tuple[str, dict]]) -> Tracer:
        tracer = Tracer()
        tid = trace_id_for("k", 1)
        root = tracer.record(tid, "downgrade")
        for name, attrs in order:
            tracer.record(tid, name, parent_id=root.span_id, **attrs)
        return tracer

    forward = build([("admission", {"allowed": True}), ("serve", {})])
    reverse = build([("serve", {}), ("admission", {"allowed": True})])
    tid = trace_id_for("k", 1)
    assert forward.tree(tid) == reverse.tree(tid)
    assert forward.digest() == reverse.digest()


def test_absorb_round_trips_piggybacked_spans():
    source = Tracer()
    tid = trace_id_for("k", 1)
    root = source.record(tid, "downgrade", session="s1")
    source.record(tid, "serve", parent_id=root.span_id, authorized=False)

    target = Tracer()
    target.absorb(span.to_json() for span in source.spans(tid))
    assert target.tree(tid) == source.tree(tid)
    assert target.digest() == source.digest()
    decoded = Span.from_json(root.to_json())
    assert decoded == root


def test_capacity_evicts_oldest_trace():
    tracer = Tracer(capacity=2)
    ids = [trace_id_for("k", seq) for seq in range(3)]
    for tid in ids:
        tracer.record(tid, "downgrade")
    assert tracer.trace_ids() == ids[1:]
    assert tracer.tree(ids[0]) is None
    assert set(tracer.trees()) == set(ids[1:])


def test_digest_covers_trace_id_set_and_tree_bytes():
    one, two = Tracer(), Tracer()
    for tracer in (one, two):
        tracer.record(trace_id_for("k", 1), "downgrade", session="s1")
    assert one.digest() == two.digest()
    two.record(trace_id_for("k", 2), "downgrade", session="s2")
    assert one.digest() != two.digest()


def test_null_tracer_is_falsy_with_stable_digest():
    assert not NULL_TRACER and Tracer()
    assert NULL_TRACER.record(trace_id_for("k", 1), "x") is None
    assert NULL_TRACER.trace_ids() == [] and NULL_TRACER.trees() == {}
    assert NULL_TRACER.digest() == NullTracer().digest()
    # An empty real tracer digests to the same seed value: "no traces"
    # is one well-defined state, observed or not.
    assert Tracer().digest() == NULL_TRACER.digest()


def test_recording_an_evicted_trace_restarts_its_indices():
    tracer = Tracer(capacity=2)
    first = trace_id_for("k", 0)
    tracer.record(first, "retry")
    tracer.record(first, "retry")
    for seq in (1, 2):
        tracer.record(trace_id_for("k", seq), "downgrade")
    assert first not in tracer.trace_ids()
    again = tracer.record(first, "retry")
    assert again.span_id == span_id_for(first, None, "retry", 0)
    assert [span.span_id for span in tracer.spans(first)] == [again.span_id]


def test_record_cost_stays_flat_past_capacity():
    """Once full, every new trace evicts one; that must cost O(1), not
    O(retained spans).  Records 20x capacity traces and compares the
    last ``capacity`` records against the first ``capacity``."""
    capacity = Tracer().capacity

    def timed(tracer: Tracer, seqs: range) -> float:
        start = time.perf_counter()
        for seq in seqs:
            tid = trace_id_for("k", seq)
            root = tracer.record(tid, "downgrade")
            tracer.record(tid, "serve", parent_id=root.span_id)
        return time.perf_counter() - start

    def run() -> tuple[float, float]:
        tracer = Tracer(capacity=capacity)
        first = timed(tracer, range(capacity))
        timed(tracer, range(capacity, 19 * capacity))
        last = timed(tracer, range(19 * capacity, 20 * capacity))
        assert len(tracer.trace_ids()) == capacity
        return first, last

    samples = [run() for _ in range(3)]
    slowest_last = max(last for _, last in samples)
    slowest_first = max(first for first, _ in samples)
    assert slowest_last <= 3 * slowest_first, samples


class _CountingHashlib:
    """Stands in for ``hashlib`` inside the tracer module, counting digests."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def sha256(self, *args):
        self.calls += 1
        return self.real.sha256(*args)


def test_record_computes_no_digest_until_a_read(monkeypatch):
    tids = [trace_id_for("k", seq) for seq in range(3)]
    derived = []
    real_span_id_for = trace_module.span_id_for

    def counting_span_id_for(*args):
        derived.append(args)
        return real_span_id_for(*args)

    hashing = _CountingHashlib(hashlib)
    monkeypatch.setattr(trace_module, "span_id_for", counting_span_id_for)
    monkeypatch.setattr(trace_module, "hashlib", hashing)

    tracer = Tracer(capacity=2)
    for tid in tids:  # the third trace evicts the first
        root = tracer.record(tid, "downgrade", session="s1")
        admission = tracer.record(tid, "admission", parent_id=root, allowed=True)
        tracer.record(tid, "serve", parent_id=root, authorized=True, kind="ok")
        tracer.record(tid, "note", parent_id=admission)
        tracer.record(tid, "shard_roundtrip", parent_id=root, transport=True)
    assert derived == [] and hashing.calls == 0

    tracer.tree(tids[-1])
    assert derived and hashing.calls == len(derived)


def _reference_ids(ops, capacity):
    """Eagerly derived ids of a record sequence, modelling eviction."""
    retained: dict[str, list[tuple[str, int | None]]] = {}
    counters: dict[str, dict] = {}
    for tid, parent_pick, name in ops:
        if tid not in retained:
            if len(retained) >= capacity:
                oldest = next(iter(retained))
                del retained[oldest], counters[oldest]
            retained[tid], counters[tid] = [], {}
        spans = retained[tid]
        parent = None if parent_pick % (len(spans) + 1) == 0 else (
            spans[parent_pick % (len(spans) + 1) - 1][0]
        )
        index = counters[tid].get((parent, name), 0)
        counters[tid][(parent, name)] = index + 1
        spans.append((span_id_for(tid, parent, name, index), parent))
    return retained


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from([trace_id_for("k", seq) for seq in range(4)]),
            st.integers(0, 7),
            st.sampled_from(["downgrade", "admission", "serve"]),
        ),
        max_size=30,
    ),
    capacity=st.integers(1, 3),
)
def test_lazy_ids_equal_eager_derivation(ops, capacity):
    """Every id read equals ``span_id_for(trace, parent, name, index)``:
    past eviction, after an evicted trace is recorded again, and across
    an ``absorb(to_json())`` round trip."""
    tracer = Tracer(capacity=capacity)
    objects: dict[str, list[Span]] = {}
    for tid, parent_pick, name in ops:
        if tid not in tracer.trace_ids():
            objects[tid] = []
        spans = objects[tid]
        pick = parent_pick % (len(spans) + 1)
        parent = None if pick == 0 else spans[pick - 1]
        spans.append(tracer.record(tid, name, parent_id=parent, n=len(spans)))
    expected = _reference_ids(ops, capacity)
    assert tracer.trace_ids() == list(expected)
    for tid, want in expected.items():
        got = tracer.spans(tid)
        assert [(s.span_id, s.parent_id) for s in got] == want
        for span in got:
            assert Span.from_json(span.to_json()) == span
    copy = Tracer(capacity=capacity)
    for tid in tracer.trace_ids():
        copy.absorb(span.to_json() for span in tracer.spans(tid))
    assert copy.trees() == tracer.trees()
    assert copy.digest() == tracer.digest()
    for tid, want in expected.items():
        assert [(s.span_id, s.parent_id) for s in copy.spans(tid)] == want


def test_retried_journal_entry_hangs_children_under_its_first_root():
    """A journaled request whose flush died after execution and is
    retried under the same key re-begins the same journal row, so its
    trace gets a second root; every decision span still names the first
    root, with the ids the eager derivation gives."""
    spec = SecretSpec.declare("RetryLoc", x=(0, 199), y=(0, 199))

    async def scenario():
        store = SQLiteStore(":memory:")
        server = DeclassificationServer(
            size_above(100),
            options=CompileOptions(domain="interval", modes=("under", "over")),
            store=store,
            journal=RequestJournal(store),
            budget_floor=size_above(4000),
            config=ServerConfig(inline_compiles=True),
        )
        await server.register_query(CompileRequest("west", "x <= 99", spec))
        server.open_session("s1", (spec, (30, 40)), user_id="alice")
        faults.install_fault_plan(
            FaultPlan([FaultSpec(site="journal", kind="crash_after_execute_before_ack")]),
            simulate=True,
        )
        try:
            with pytest.raises(BrokenProcessPool):
                await server.downgrade("s1", "west", idempotency_key="k")
        finally:
            faults.clear_fault_plan()
        await server.downgrade("s1", "west", idempotency_key="k")
        tracer = server.hub.tracer
        (tid,) = tracer.trace_ids()
        spans = tracer.spans(tid)
        server.shutdown()
        store.close()
        return tid, spans, tracer.tree(tid)

    tid, spans, tree = asyncio.run(scenario())
    first = span_id_for(tid, None, "downgrade", 0)
    assert [(s.name, s.parent_id) for s in spans] == [
        ("downgrade", None),
        ("admission", first),
        ("serve", first),
        ("downgrade", None),
        ("admission", first),  # the retry is refused: the budget is spent
    ]
    assert [s.span_id for s in spans] == [
        first,
        span_id_for(tid, first, "admission", 0),
        span_id_for(tid, first, "serve", 0),
        span_id_for(tid, None, "downgrade", 1),
        span_id_for(tid, first, "admission", 1),
    ]
    assert [root["name"] for root in tree["children"]] == ["downgrade", "downgrade"]
