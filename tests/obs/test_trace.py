"""The replay-stable tracer: derived ids, canonical trees, digests."""

import json
import time

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    span_id_for,
    trace_id_for,
)


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
