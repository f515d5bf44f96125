"""Telemetry recorded per batch: shard span columns and result counts.

A serving shard derives no span ids.  A ``downgrade_batch`` op names
which of its sessions are traced (positions in ``session_ids``); the
reply carries their decision attributes as per-span-name columns; the
gateway records them as children of its own root spans.  The trees that
come out must equal the gateway-local path's for the same schedule.
Result kinds are counted once per kind per batch, on both paths.
"""

import asyncio
import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plugin import CompileOptions, compile_query
from repro.lang.canonical import spec_to_json
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server import faults
from repro.server.faults import FaultPlan, FaultSpec
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server import workers
from repro.server.workers import result_kind, serve_payload, span_rows
from repro.service.api import CompileRequest
from repro.service.serialize import compiled_query_to_json, policy_to_json

SPEC = SecretSpec.declare("ColumnLoc", x=(0, 199), y=(0, 199))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))
QUERIES = (("west", "x <= 99"), ("south", "y <= 99"), ("inner", "x <= 49"))
#: Three sessions, two of them one user's (rounds), plus unknown names.
OPENS = (("s0", "alice"), ("s1", "bob"), ("s2", "alice"))
SESSION_NAMES = ("s0", "s1", "s2", "ghost-session")
QUERY_NAMES = tuple(name for name, _ in QUERIES) + ("ghost",)


def traced_run(batches, *, serving_shards, fault_plan=None, results=None):
    """Serve ``batches`` (each one flush); returns (trees, digest).

    ``results``, when given, collects every result and, last, the
    registry snapshot.
    """

    async def scenario():
        server = DeclassificationServer(
            size_above(100),
            options=OPTIONS,
            budget_floor=size_above(4000),
            fault_plan=fault_plan,
            config=ServerConfig(
                inline_compiles=True,
                serving_shards=serving_shards,
                inline_serving=True,
            ),
        )
        for name, text in QUERIES:
            await server.register_query(CompileRequest(name, text, SPEC))
        for session_id, user in OPENS:
            server.open_session(session_id, (SPEC, (30, 40)), user_id=user)
        for batch in batches:
            answers = await asyncio.gather(
                *(server.downgrade(sid, query) for sid, query in batch)
            )
            if results is not None:
                results.extend(answers)
        if results is not None:
            results.append(server.hub.registry.snapshot())
        tracer = server.hub.tracer
        trees, digest = tracer.trees(), tracer.digest()
        server.shutdown()
        return trees, digest

    return asyncio.run(scenario())


@settings(max_examples=15, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(st.sampled_from(SESSION_NAMES), st.sampled_from(QUERY_NAMES)),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_shard_served_trees_equal_gateway_local_trees(batches):
    local = traced_run(batches, serving_shards=0)
    sharded = traced_run(batches, serving_shards=2)
    assert local[0]  # non-vacuous: every downgrade left a tree
    assert sharded == local


def _shard_ops():
    compiled = compile_query("west", "x <= 99", SPEC, OPTIONS)
    ops = [
        {
            "op": "configure",
            "policy": policy_to_json(size_above(100)),
            "mode": "under",
            "check_both": True,
            "floor": policy_to_json(size_above(4000)),
            "observe": True,
        },
        {"op": "attach_query", "name": "west", "artifact": compiled_query_to_json(compiled)},
    ]
    for session_id, user, point in (
        ("a", "alice", (30, 40)),
        ("b", "bob", (150, 40)),
        ("c", "carol", (20, 20)),
    ):
        ops.append(
            {
                "op": "open_session",
                "session_id": session_id,
                "user_id": user,
                "spec": spec_to_json(SPEC),
                "value": list(point),
            }
        )
    return ops


def test_columnar_reply_shape_is_pinned():
    """The reply's ``obs.spans``: one column set per ``downgrade_batch``
    op; ``at`` indexes the op's ``session_ids``; one list per attribute."""
    ops = _shard_ops()
    ops.append(
        {
            "op": "downgrade_batch",
            "query_name": "west",
            "session_ids": ["a", "ghost", "b", "a", "c"],
            "traced": [1, 2, 3],
        }
    )
    ops.append(
        {"op": "downgrade_batch", "query_name": "west", "session_ids": ["c"]}
    )
    payload = json.dumps({"shard": "test-columns/0", "ops": ops})
    body = json.loads(serve_payload(payload))
    # "a" is traced through its last position (3); "c" is not traced.
    assert body["obs"]["spans"] == [
        {
            "serve": {
                "at": [1, 3, 2],
                "authorized": [False, True, True],
                "kind": ["unknown_session", "ok", "ok"],
            },
            "admission": {"at": [3, 2], "allowed": [True, True]},
        },
        {},
    ]
    assert sorted(span_rows(body["obs"]["spans"][0])) == [
        (1, "serve", {"authorized": False, "kind": "unknown_session"}),
        (2, "admission", {"allowed": True}),
        (2, "serve", {"authorized": True, "kind": "ok"}),
        (3, "admission", {"allowed": True}),
        (3, "serve", {"authorized": True, "kind": "ok"}),
    ]
    assert [r["session_id"] for r in body["results"]] == ["a", "ghost", "b", "c", "c"]
    workers._SERVING_STATE.pop("test-columns/0")


def test_requests_name_traced_positions_not_ids(monkeypatch):
    payloads = []

    def capture(payload):
        payloads.append(json.loads(payload))
        return serve_payload(payload)

    monkeypatch.setattr(workers, "serve_payload", capture)
    traced_run([[("s0", "west"), ("s1", "west"), ("s0", "south")]], serving_shards=1)
    (batch_ops,) = [
        [op for op in data["ops"] if op["op"] == "downgrade_batch"] for data in payloads
    ]
    assert {op["query_name"]: op["traced"] for op in batch_ops} == {
        "west": [0, 1],
        "south": [0],
    }
    assert all(set(op) == {"op", "query_name", "session_ids", "traced"} for op in batch_ops)


def test_duplicate_delivery_records_no_second_span_set():
    """An at-least-once re-run re-executes the batch but ships nothing:
    the trees equal a clean run's."""
    batches = [[("s0", "west"), ("s1", "south")], [("s2", "inner")]]
    clean = traced_run(batches, serving_shards=1)
    plan = FaultPlan(
        [FaultSpec(site="serve", kind="duplicate_delivery", times=3)], seed=1
    )
    try:
        duplicated = traced_run(batches, serving_shards=1, fault_plan=plan)
        fired = faults.active_fault_plan().fired()
    finally:
        faults.clear_fault_plan()
    assert ("serve", "duplicate_delivery") in fired
    assert duplicated == clean


def test_result_kinds_are_counted_exactly_on_both_paths():
    batches = [
        [("s0", "west"), ("s1", "west"), ("ghost-session", "west"), ("s0", "ghost")],
        [("s0", "west"), ("s2", "inner"), ("s1", "south"), ("s1", "south")],
    ]
    for serving_shards in (0, 2):
        results: list = []
        traced_run(batches, serving_shards=serving_shards, results=results)
        snapshot = results.pop()
        # One count per distinct (session, query) of a batch: a session
        # asked twice in one flush is served, and counted, once.
        first, second = results[:4], results[4:]
        distinct = [
            r
            for batch in (first, second)
            for r in {(r.session_id, r.query_name): r for r in batch}.values()
        ]
        kinds = Counter(map(result_kind, distinct))
        assert len(kinds) >= 3  # ok, refusals and unknown names all counted
        series = snapshot["anosy_gateway_downgrades_total"]["series"]
        assert series == {f'{{kind="{k}"}}': float(n) for k, n in kinds.items()}
