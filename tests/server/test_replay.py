"""Replay conformance, crash recovery, and exactly-once effects.

The kill-and-restart drill from ISSUE 9, as tests: a journaled gateway
dies in either crash window (after journal append / after execution but
before ack), a fresh process recovers from the same store, duplicate
retries get the recorded responses, budgets are never double-charged,
and :class:`ReplaySession` re-derives the whole recorded history —
decisions, refusals, audit digests — bit-for-bit.

``CHAOS_SEED`` parameterizes the seeded fault schedules, same as the
chaos suite: CI runs pinned and randomized.
"""

import asyncio
import os
import pathlib
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plugin import CompileOptions
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server import faults
from repro.server.faults import CRASH_EXIT_CODE, FaultPlan, FaultSpec
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.journal import (
    IdempotencyKeyReused,
    MemoryJournalBackend,
    RequestJournal,
)
from repro.server.ledger import DecayPolicy
from repro.server.replay import ReplaySession, replay_journal
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "20220622"))

SPEC = SecretSpec.declare("ReplayLoc", x=(0, 199), y=(0, 199))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))
#: Secret (30, 40): west/south/inner answer True with posterior sizes
#: 20000 / 10000 / 5000 against the 40000-point prior.
QUERIES = (("west", "x <= 99"), ("south", "y <= 99"), ("inner", "x <= 49"))
SECRET = (30, 40)
CRASH_KINDS = (
    "crash_after_journal_before_execute",
    "crash_after_execute_before_ack",
)


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.clear_fault_plan()
    yield
    faults.clear_fault_plan()


def make_server(backend, **kwargs) -> DeclassificationServer:
    kwargs.setdefault("options", OPTIONS)
    kwargs.setdefault("budget_floor", size_above(4000))
    kwargs.setdefault("config", ServerConfig(inline_compiles=True))
    return DeclassificationServer(
        size_above(100), journal=RequestJournal(backend), **kwargs
    )


async def boot(server, queries=QUERIES):
    for name, text in queries:
        await server.register_query(CompileRequest(name, text, SPEC))


def bounds_of(store: SQLiteStore) -> list:
    return sorted(store.ledger_bounds())


# ---------------------------------------------------------------------------
# Conformance: record a history, replay it bit-identically
# ---------------------------------------------------------------------------


def test_recorded_history_replays_bit_identically():
    async def scenario():
        backend = MemoryJournalBackend()
        server = make_server(backend, budget_decay=DecayPolicy(radius=1))
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        for name in ("west", "south", "inner"):
            assert (await server.downgrade("s1", name)).authorized
        # Exhausted: the floor refuses, and so does re-asking an
        # answered query (both-branch check, ANOSY §3).
        refused = await server.downgrade("s1", "west")
        assert not refused.authorized
        server.advance_epoch()
        server.close_session("s1")
        server.shutdown()

        journal = RequestJournal(backend)
        report = await ReplaySession(journal).run()
        assert report.conforms
        assert report.entries == len(journal)
        assert report.replayed == report.matched == report.entries
        assert report.pending_applied == 0 and report.restarts == 0
        assert report.recorded_digest == journal.audit_digest()
        # The refusal sequence is part of the record: same request,
        # same order, same reason.
        assert [(r.session_id, r.query_name) for r in report.refusals] == [
            ("s1", "west")
        ]
        assert "budget exhausted" in report.refusals[0].reason

    asyncio.run(scenario())


def test_replay_reproduces_trace_trees_bit_identically():
    """The twin re-derives every trace tree byte-for-byte (ISSUE 10).

    Trace ids come from (idempotency key, journal seq) and span ids
    from (trace, parent, name, index), so a replayed journal must
    rebuild the exact same canonical trees — including the refused
    request's admission verdict.
    """

    async def scenario():
        backend = MemoryJournalBackend()
        server = make_server(backend, budget_decay=DecayPolicy(radius=1))
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        for name in ("west", "south", "inner"):
            assert (await server.downgrade("s1", name)).authorized
        assert not (await server.downgrade("s1", "west")).authorized
        assert not (await server.downgrade("s1", "ghost")).authorized
        source_trees = server.hub.tracer.trees()
        source_digest = server.hub.tracer.digest()
        server.shutdown()

        session = ReplaySession(
            RequestJournal(backend), trace_digest=source_digest
        )
        report = await session.run()
        assert report.conforms
        assert report.recorded_trace_digest == source_digest
        assert report.replayed_trace_digest == source_digest
        assert session.tracer.trees() == source_trees

        # Non-vacuous: one tree per downgrade, rooted at the gateway's
        # span with the shard-side decision spans as children.
        assert len(source_trees) == 5
        roots = {tree["name"] for tree in source_trees.values()}
        assert roots == {"downgrade"}
        child_names = sorted(
            child["name"]
            for tree in source_trees.values()
            for child in tree["children"]
        )
        assert "serve" in child_names and "admission" in child_names
        refused = [
            tree
            for tree in source_trees.values()
            if any(
                child["name"] == "admission"
                and child["attrs"]["allowed"] is False
                for child in tree["children"]
            )
        ]
        assert len(refused) == 1  # the exhausted re-ask of "west"

    asyncio.run(scenario())


def test_tampered_outcome_digest_is_pinpointed():
    async def scenario():
        backend = MemoryJournalBackend()
        server = make_server(backend)
        await boot(server, QUERIES[:1])
        server.open_session("s1", (SPEC, SECRET))
        await server.downgrade("s1", "west", idempotency_key="victim")
        server.shutdown()

        row = backend._rows["victim"]
        row[5] = "0" * 64  # falsify the recorded outcome digest
        report = await ReplaySession(RequestJournal(backend)).run()
        assert not report.conforms
        assert len(report.divergences) == 1
        divergence = report.divergences[0]
        assert divergence.key == "victim" and divergence.kind == "downgrade"
        assert divergence.recorded == "0" * 64
        assert report.recorded_digest != report.replayed_digest

    asyncio.run(scenario())


def test_replay_requires_a_configure_entry_first():
    journal = RequestJournal(MemoryJournalBackend())
    journal.begin("k", "downgrade", {"session_id": "s", "query_name": "q"})
    with pytest.raises(ValueError, match="configure"):
        ReplaySession(journal)
    assert replay_journal([]).conforms  # empty history is vacuously fine


def test_restart_with_changed_config_is_a_generation_boundary(tmp_path):
    async def scenario():
        store = SQLiteStore(tmp_path / "restart.db")
        server = make_server(store, store=store)
        await boot(server, QUERIES[:2])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        assert (await server.downgrade("s1", "west")).authorized
        server.shutdown()

        # Reboot with a *different* floor: a new configure entry, hence
        # a restart boundary replay must reproduce.  The session is
        # re-opened by the operator (its liveness died with the
        # process) but the ledger — and alice's charge — persists.
        relaxed = make_server(
            store, store=store, budget_floor=size_above(100)
        )
        await relaxed.recover_from_journal()
        assert (await relaxed.downgrade("s1", "south")).authorized
        # A query compiled only in the second generation: replay must
        # register it inside generation 2, not at boot.
        await relaxed.register_query(CompileRequest("inner", "x <= 49", SPEC))
        assert (await relaxed.downgrade("s1", "inner")).authorized
        relaxed.shutdown()

        report = await ReplaySession(RequestJournal(store)).run()
        assert report.conforms
        assert report.restarts == 1
        store.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Crash windows (simulated death, in-process)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", CRASH_KINDS)
def test_crash_window_recovers_and_never_double_charges(tmp_path, kind):
    """Die in either journal crash window; recovery converges exactly.

    The uninterrupted control run establishes the expected ledger
    bounds; the crashed-and-recovered run must land byte-identical,
    a duplicate retry must answer from the journal, and the recorded
    history must replay bit-for-bit.
    """

    async def control():
        store = SQLiteStore(tmp_path / "control.db")
        server = make_server(store, store=store)
        await boot(server, QUERIES[:2])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        await server.downgrade("s1", "west", idempotency_key="d1")
        result = await server.downgrade("s1", "south", idempotency_key="d2")
        server.shutdown()
        expected = bounds_of(store)
        store.close()
        return expected, result

    async def crashed():
        store = SQLiteStore(tmp_path / "crash.db")
        server = make_server(store, store=store)
        await boot(server, QUERIES[:2])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        await server.downgrade("s1", "west", idempotency_key="d1")
        faults.install_fault_plan(
            FaultPlan([FaultSpec(site="journal", kind=kind)], seed=CHAOS_SEED),
            simulate=True,
        )
        with pytest.raises(BrokenProcessPool):
            await server.downgrade("s1", "south", idempotency_key="d2")
        faults.clear_fault_plan()
        # The process is "dead": no shutdown, no flush, buffered
        # ledger-mirror writes lost with it.  Boot a successor on the
        # same store.
        reborn = make_server(store, store=store)
        recovery = await reborn.recover_from_journal()
        assert recovery.queries == 2 and recovery.sessions == 1
        assert recovery.reapplied == 1  # the unacked "d2"
        # A client retry of the in-doubt request answers from the
        # journal — no re-execution, no double charge.
        retried = await reborn.downgrade("s1", "south", idempotency_key="d2")
        assert retried.authorized and retried.response is True
        assert reborn.stats.journal_duplicates >= 1
        assert reborn.ledger.remaining("alice", SPEC) == 10_000
        reborn.shutdown()
        actual = bounds_of(store)
        report = await ReplaySession(RequestJournal(store)).run()
        store.close()
        return actual, retried, report

    expected, control_result = asyncio.run(control())
    actual, retried, report = asyncio.run(crashed())
    assert actual == expected
    assert retried.knowledge_size == control_result.knowledge_size
    assert report.conforms


# ---------------------------------------------------------------------------
# Real process death (actual SIGKILL via os._exit in a child process)
# ---------------------------------------------------------------------------

_CHILD = """
import asyncio, sys
from repro.core.plugin import CompileOptions
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server import faults
from repro.server.faults import FaultPlan, FaultSpec
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.journal import RequestJournal
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest

path, kind, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
SPEC = SecretSpec.declare("ReplayLoc", x=(0, 199), y=(0, 199))

async def main():
    store = SQLiteStore(path)
    server = DeclassificationServer(
        size_above(100),
        options=CompileOptions(domain="interval", modes=("under", "over")),
        budget_floor=size_above(4000),
        config=ServerConfig(inline_compiles=True),
        store=store,
        journal=RequestJournal(store),
    )
    for name, text in (("west", "x <= 99"), ("south", "y <= 99")):
        await server.register_query(CompileRequest(name, text, SPEC))
    server.open_session("s1", (SPEC, (30, 40)), user_id="alice")
    await server.downgrade("s1", "west", idempotency_key="d1")
    faults.install_fault_plan(
        FaultPlan([FaultSpec(site="journal", kind=kind)], seed=seed)
    )
    await server.downgrade("s1", "south", idempotency_key="d2")  # dies here

asyncio.run(main())
"""


@pytest.mark.parametrize("kind", CRASH_KINDS)
def test_sigkill_drill_child_process_dies_parent_recovers(tmp_path, kind):
    """Process-mode faults: the child genuinely dies mid-request.

    Unlike the simulated windows above, nothing in the child gets to
    run after the fault — ``os._exit``, no finalizers, no flush.  The
    parent plays the operator: reopen the store, boot, recover, retry.
    """
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    db = tmp_path / "drill.db"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(db), kind, str(CHAOS_SEED)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

    async def recover():
        store = SQLiteStore(db)
        journal = RequestJournal(store)
        assert len(journal.pending()) == 1  # the in-doubt "d2"
        server = make_server(store, store=store)
        recovery = await server.recover_from_journal()
        assert recovery.reapplied == 1
        retried = await server.downgrade("s1", "south", idempotency_key="d2")
        assert retried.authorized and retried.response is True
        assert server.ledger.remaining("alice", SPEC) == 10_000
        assert journal.pending() == []
        server.shutdown()
        report = await ReplaySession(RequestJournal(store)).run()
        assert report.conforms
        store.close()

    asyncio.run(recover())


# ---------------------------------------------------------------------------
# Exactly-once effects under arbitrary duplicate delivery (property)
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    deliveries=st.lists(
        st.sampled_from(["west", "south"]), min_size=2, max_size=8
    ).filter(lambda d: set(d) == {"west", "south"})
)
def test_duplicate_deliveries_never_double_charge(deliveries):
    """Any duplicated/reordered delivery schedule charges like one pass.

    Each query name is delivered under one idempotency key however many
    times the schedule says; the final ledger position and journal
    length must equal the control run that delivered each key once.
    """

    async def run(schedule):
        server = make_server(MemoryJournalBackend())
        await boot(server, QUERIES[:2])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        responses = {}
        for name in schedule:
            result = await server.downgrade(
                "s1", name, idempotency_key=f"d/{name}"
            )
            if name in responses:
                assert result.knowledge_size == responses[name].knowledge_size
                assert result.authorized == responses[name].authorized
            responses[name] = result
        remaining = server.ledger.remaining("alice", SPEC)
        entries = len(server.journal)
        server.shutdown()
        return remaining, entries

    remaining, entries = asyncio.run(run(deliveries))
    control_remaining, control_entries = asyncio.run(run(["west", "south"]))
    assert remaining == control_remaining == 10_000
    assert entries == control_entries


# ---------------------------------------------------------------------------
# Server-issued keys: fresh by construction
# ---------------------------------------------------------------------------


class CountingBackend(MemoryJournalBackend):
    """A memory journal that counts its key lookups."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups = 0

    def journal_lookup(self, key):
        self.lookups += 1
        return super().journal_lookup(key)


def test_caller_supplied_auto_key_is_never_issued_to_another_request():
    """A caller who claims a future server-issued key must not receive,
    nor hand out, another session's recorded result."""

    async def scenario():
        server = make_server(MemoryJournalBackend())
        await boot(server)
        server.open_session("alice", (SPEC, SECRET))
        server.open_session("bob", (SPEC, (150, 160)))
        claimed = f"auto/downgrade/{server.journal._auto + 1}"
        mine = await server.downgrade("alice", "west", idempotency_key=claimed)
        assert mine.session_id == "alice"
        for name in ("west", "south", "inner"):
            result = await server.downgrade("bob", name)
            assert (result.session_id, result.query_name) == ("bob", name)
        # Recovery resubmits recorded auto keys: still accepted, and a
        # duplicate of the claimed key gets alice's recorded result.
        again = await server.downgrade("alice", "west", idempotency_key=claimed)
        assert again == mine
        # The other direction: a key issued to bob (they count up) does
        # not answer another request with bob's result, recorded or in
        # flight.
        issued = [e.key for e in server.journal.entries() if e.kind == "downgrade"]
        with pytest.raises(IdempotencyKeyReused):
            await server.downgrade("alice", "south", idempotency_key=issued[-1])
        inflight = asyncio.ensure_future(
            server.downgrade("bob", "west", idempotency_key="bob/retry")
        )
        await asyncio.sleep(0)
        assert "bob/retry" in server._inflight_keys
        with pytest.raises(IdempotencyKeyReused):
            await server.downgrade("alice", "west", idempotency_key="bob/retry")
        assert (await inflight).session_id == "bob"
        server.shutdown()

    asyncio.run(scenario())


def test_auto_keyed_downgrades_skip_the_recorded_response_lookup():
    async def scenario():
        backend = CountingBackend()
        server = make_server(backend)
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        before = backend.lookups
        assert (await server.downgrade("s1", "west")).authorized
        assert backend.lookups == before
        await server.downgrade("s1", "south", idempotency_key="client/1")
        assert backend.lookups == before + 1
        server.shutdown()

    asyncio.run(scenario())


def test_reused_keys_are_refused_at_every_journaled_entry_point():
    """A key journaled for one request (done, pending, or queued for the
    next flush) never answers, nor is acknowledged onto, another one."""

    async def scenario():
        server = make_server(MemoryJournalBackend())
        await boot(server)
        server.open_session("alice", (SPEC, SECRET), idempotency_key="open/alice")
        server.open_session("bob", (SPEC, (150, 160)))
        server.open_session("carol", (SPEC, (5, 6)))
        # A done close key does not silently no-op alice's close ...
        server.close_session("carol", idempotency_key="close/1")
        with pytest.raises(IdempotencyKeyReused):
            server.close_session("alice", idempotency_key="close/1")
        assert server._session_handle("alice") is not None
        # ... nor a done open key hand out a session never opened.
        with pytest.raises(IdempotencyKeyReused):
            server.open_session("mallory", (SPEC, (1, 2)), idempotency_key="open/alice")
        assert server._session_handle("mallory") is None
        # A pending row no process has in flight (recovery skips the
        # entries it cannot re-apply): alice's result must not be
        # acknowledged onto bob's journaled request.
        request = {"session_id": "bob", "query_name": "west"}
        left = server.journal.begin("left/1", "downgrade", request)
        with pytest.raises(IdempotencyKeyReused):
            await server.downgrade("alice", "west", idempotency_key="left/1")
        assert server.journal.entry("left/1") == left
        result = await server.downgrade("bob", "west", idempotency_key="left/1")
        assert result.session_id == "bob"
        acked = server.journal.entry("left/1")
        assert (acked.seq, acked.status) == (left.seq, "done")
        # A queued downgrade's row is appended only at flush; the
        # synchronous entry points refuse its key meanwhile.
        queued = asyncio.ensure_future(
            server.downgrade("bob", "south", idempotency_key="queued/1")
        )
        await asyncio.sleep(0)
        with pytest.raises(IdempotencyKeyReused):
            server.close_session("bob", idempotency_key="queued/1")
        assert (await queued).session_id == "bob"
        assert server._session_handle("bob") is not None
        server.shutdown()

    asyncio.run(scenario())
