"""PrivacyBudgetLedger property tests.

The two acceptance invariants, driven by Hypothesis over random secrets,
random threshold-query workloads, and random floors:

1. a **refused** charge never changes any of the user's bounds;
2. after any **accepted** sequence, the sound bound still satisfies the
   floor (and a rogue ``commit`` that would cross it raises *without*
   mutating).

Queries are built directly as :class:`~repro.core.qinfo.QInfo` values
with exact ind.-set pairs (no synthesis), so hundreds of ledger
histories run in milliseconds.
"""

import dataclasses
import gc
import json
import sys
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.core.qinfo import QInfo, intersect_knowledge
from repro.domains.box import IntervalDomain
from repro.domains.powerset import PowersetDomain
from repro.lang.parser import parse_bool
from repro.lang.secrets import SecretSpec
from repro.monad.anosy import top_knowledge_for
from repro.monad.policy import size_above
from repro.monad.protected import ProtectedSecret
from repro.obs.metrics import MetricsRegistry
from repro.server.ledger import (
    ChargeRecord,
    DecayPolicy,
    LedgerDecision,
    LedgerFormatError,
    LedgerInvariantError,
    PrivacyBudgetLedger,
)
from repro.lang.canonical import spec_to_json
from repro.server.store import SQLiteStore
from repro.service.serialize import canonical_json, domain_from_json, domain_to_json
from repro.solver.boxes import Box

SPEC = SecretSpec.declare("Grid", x=(0, 15), y=(0, 15))


def threshold_qinfo(axis: str, threshold: int) -> QInfo:
    """An exact compiled artifact for ``axis <= threshold``."""
    if axis == "x":
        true_box = Box(((0, threshold), (0, 15)))
        false_box = Box(((threshold + 1, 15), (0, 15)))
    else:
        true_box = Box(((0, 15), (0, threshold)))
        false_box = Box(((0, 15), (threshold + 1, 15)))
    pair = (IntervalDomain(SPEC, true_box), IntervalDomain(SPEC, false_box))
    return QInfo(
        name=f"{axis}<={threshold}",
        query=parse_bool(f"{axis} <= {threshold}"),
        secret=SPEC,
        under_indset=pair,
        over_indset=pair,
    )


def snapshot(ledger: PrivacyBudgetLedger, user: str):
    account = ledger.account(user)
    return (
        dict(account.sound),
        dict(account.complete),
        list(account.charges),
    )


queries = st.lists(
    st.tuples(st.sampled_from(["x", "y"]), st.integers(min_value=0, max_value=14)),
    min_size=1,
    max_size=8,
)
secrets = st.tuples(
    st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15)
)
floors = st.integers(min_value=0, max_value=200)


@settings(max_examples=150, deadline=None)
@given(workload=queries, secret=secrets, floor=floors)
def test_refusal_never_updates_and_acceptance_never_crosses(
    workload, secret, floor
):
    ledger = PrivacyBudgetLedger(size_above(floor))
    protected = ProtectedSecret.seal(SPEC, secret)
    for axis, threshold in workload:
        qinfo = threshold_qinfo(axis, threshold)
        before = snapshot(ledger, "u")
        refusals_before = ledger.account("u").refusals
        decision = ledger.evaluate("u", qinfo, protected)
        account = ledger.account("u")
        if not decision.authorized:
            # Invariant 1: a refusal is bound-invisible.
            assert snapshot(ledger, "u") == before
            assert account.refusals == refusals_before + 1
            assert decision.response is None
        else:
            # Invariant 2: the sound bound still clears the floor, and the
            # charge trail reflects exactly this fold.
            bound = account.sound[SPEC.name]
            assert bound.size() > floor
            assert account.charges[-1].posterior_size == bound.size()
            assert account.charges[-1].response == decision.response
            # The bound is sound: it always contains the true secret.
            assert bound.contains(secret)
    # Monotone shrinkage: each accepted charge never grew the bound.
    sizes = [charge.posterior_size for charge in ledger.account("u").charges]
    priors = [charge.prior_size for charge in ledger.account("u").charges]
    assert all(post <= prior for post, prior in zip(sizes, priors))


@settings(max_examples=100, deadline=None)
@given(workload=queries, secret=secrets, floor=floors)
def test_preauthorize_never_mutates(workload, secret, floor):
    ledger = PrivacyBudgetLedger(size_above(floor))
    for axis, threshold in workload:
        qinfo = threshold_qinfo(axis, threshold)
        before = snapshot(ledger, "u")
        decision = ledger.preauthorize("u", qinfo)
        assert snapshot(ledger, "u") == before
        assert decision.remaining == ledger.remaining("u", SPEC)


@settings(max_examples=100, deadline=None)
@given(
    workload=queries,
    secret=secrets,
    floor=st.integers(min_value=8, max_value=200),
)
def test_rogue_commit_cannot_cross_the_floor(workload, secret, floor):
    """Even a caller that skips preauthorize cannot push a bound below
    the floor: the offending commit raises and mutates nothing."""
    ledger = PrivacyBudgetLedger(size_above(floor))
    protected = ProtectedSecret.seal(SPEC, secret)
    for axis, threshold in workload:
        qinfo = threshold_qinfo(axis, threshold)
        response = qinfo.run(protected.unprotect_tcb())
        before = snapshot(ledger, "u")
        try:
            ledger.commit("u", qinfo, response)
        except LedgerInvariantError:
            assert snapshot(ledger, "u") == before
        else:
            assert ledger.account("u").sound[SPEC.name].size() > floor


def test_accounts_are_per_user_and_per_spec():
    ledger = PrivacyBudgetLedger(size_above(4))
    qinfo = threshold_qinfo("x", 7)
    ledger.commit("alice", qinfo, True)
    assert ledger.remaining("alice", SPEC) == 8 * 16
    assert ledger.remaining("bob", SPEC) == SPEC.space_size()
    other = SecretSpec.declare("Other", z=(0, 9))
    assert ledger.remaining("alice", other) == other.space_size()
    assert ledger.users() == ["alice", "bob"]


def test_budget_survives_reconnect_scenario():
    """The cross-session scenario sessions cannot express: two sessions,
    one user, one budget."""
    ledger = PrivacyBudgetLedger(size_above(60))
    protected = ProtectedSecret.seal(SPEC, (3, 12))
    # Session 1 asks x<=7 (accepted: both posteriors are 128 > 60).
    assert ledger.evaluate("u", threshold_qinfo("x", 7), protected).authorized
    # Reconnect.  A fresh session's knowledge would reset to ⊤; the
    # ledger's does not: y<=7 still fits (64 > 60)...
    assert ledger.evaluate("u", threshold_qinfo("y", 7), protected).authorized
    # ...but a third halving would land at 32 <= 60 on both sides: refused,
    # even though a session-scoped tracker would have allowed it from ⊤.
    decision = ledger.evaluate("u", threshold_qinfo("x", 3), protected)
    assert not decision.authorized
    assert ledger.remaining("u", SPEC) == 64


def test_charge_records_are_frozen():
    record = PrivacyBudgetLedger(size_above(0))
    record.commit("u", threshold_qinfo("x", 7), True)
    charge = record.account("u").charges[-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        charge.response = False


# ---------------------------------------------------------------------------
# Durability: bounds survive a ledger restart through a LedgerBackend
# ---------------------------------------------------------------------------

ALL_POINTS = [(x, y) for x in range(16) for y in range(16)]


@settings(max_examples=60, deadline=None)
@given(workload=queries, secret=secrets, floor=floors)
def test_bounds_survive_a_backend_restart(workload, secret, floor):
    """A ledger reloaded from its backend is decision-identical: same
    remaining budget, same bounds, same preauthorize verdicts."""
    with SQLiteStore(":memory:") as store:
        ledger = PrivacyBudgetLedger(size_above(floor), store=store)
        protected = ProtectedSecret.seal(SPEC, secret)
        for axis, threshold in workload:
            ledger.evaluate("u", threshold_qinfo(axis, threshold), protected)
        reborn = PrivacyBudgetLedger(size_above(floor), store=store)
        assert reborn.remaining("u", SPEC) == ledger.remaining("u", SPEC)
        for axis, threshold in workload:
            qinfo = threshold_qinfo(axis, threshold)
            assert (
                reborn.preauthorize("u", qinfo).allowed
                == ledger.preauthorize("u", qinfo).allowed
            )
        old = ledger.account("u").sound.get(SPEC.name)
        new = reborn.account("u").sound.get(SPEC.name)
        if old is None:
            assert new is None
        else:
            assert all(
                old.contains(p) == new.contains(p) for p in ALL_POINTS
            )


def test_apply_payload_rejects_foreign_format_versions():
    ledger = PrivacyBudgetLedger(size_above(0))
    ledger.commit("u", threshold_qinfo("x", 7), True)
    payload = ledger.export_bound("u", SPEC)
    bad = dict(payload, version=999)
    with pytest.raises(LedgerFormatError, match="999"):
        ledger.apply_payload("u", SPEC.name, bad)
    with SQLiteStore(":memory:") as store:
        store.put_ledger_bound("u", SPEC.name, bad)
        with pytest.raises(LedgerFormatError):
            PrivacyBudgetLedger(size_above(0), store=store)


# ---------------------------------------------------------------------------
# Decay: epoch dilation never tightens a bound
# ---------------------------------------------------------------------------

boxes = st.builds(
    lambda x0, xw, y0, yw: Box(
        ((x0, min(15, x0 + xw)), (y0, min(15, y0 + yw)))
    ),
    st.integers(0, 15),
    st.integers(0, 15),
    st.integers(0, 15),
    st.integers(0, 15),
)


@settings(max_examples=100, deadline=None)
@given(
    workload=queries,
    secret=secrets,
    floor=floors,
    radius=st.integers(min_value=0, max_value=4),
    epochs=st.integers(min_value=1, max_value=3),
)
def test_decay_is_never_tighter(workload, secret, floor, radius, epochs):
    """The soundness property of epoch decay: every point a bound
    contained before ``advance_epoch`` it still contains after — decayed
    bounds remain sound over-approximations of retained knowledge."""
    ledger = PrivacyBudgetLedger(
        size_above(floor), decay=DecayPolicy(radius=radius)
    )
    protected = ProtectedSecret.seal(SPEC, secret)
    for axis, threshold in workload:
        ledger.evaluate("u", threshold_qinfo(axis, threshold), protected)
    account = ledger.account("u")
    before = {
        key: [p for p in ALL_POINTS if bound.contains(p)]
        for key, bound in {
            ("sound", name): b for name, b in account.sound.items()
        }.items()
    }
    before.update(
        {
            ("complete", name): [
                p for p in ALL_POINTS if bound.contains(p)
            ]
            for name, bound in account.complete.items()
        }
    )
    assert ledger.advance_epoch(epochs) == epochs
    for (kind, name), points in before.items():
        bounds = account.sound if kind == "sound" else account.complete
        after = bounds[name]
        assert all(after.contains(p) for p in points)
        assert after.size() >= len(points)
        # The true secret never leaves a sound bound.
        if kind == "sound":
            assert after.contains(secret)


@settings(max_examples=80, deadline=None)
@given(
    include=st.lists(boxes, min_size=1, max_size=3),
    exclude=st.lists(boxes, min_size=0, max_size=3),
    radius=st.integers(min_value=0, max_value=4),
)
def test_dilate_powerset_is_never_tighter(include, exclude, radius):
    """Dilation on the powerset domain (grown includes, shrunk/dropped
    excludes) also only ever grows the represented set."""
    bound = PowersetDomain(SPEC, tuple(include), tuple(exclude))
    dilated = DecayPolicy(radius=radius).dilate(bound)
    for point in ALL_POINTS:
        if bound.contains(point):
            assert dilated.contains(point)


def test_decay_restores_refused_budget():
    """A user parked at the floor regains budget as epochs pass: the
    operational purpose of decay."""
    ledger = PrivacyBudgetLedger(size_above(100), decay=DecayPolicy(radius=2))
    protected = ProtectedSecret.seal(SPEC, (3, 3))
    assert ledger.evaluate("u", threshold_qinfo("x", 7), protected).authorized
    # x<=7 again: the false posterior is now empty, so check-both refuses.
    refused = threshold_qinfo("x", 6)
    assert not ledger.evaluate("u", refused, protected).authorized
    # Three epochs of radius-2 dilation re-widen the bound far enough
    # that both posteriors of the same query clear the floor again.
    ledger.advance_epoch(3)
    assert ledger.remaining("u", SPEC) > 128
    assert ledger.evaluate("u", refused, protected).authorized


def test_advance_epoch_requires_a_decay_policy():
    ledger = PrivacyBudgetLedger(size_above(0))
    with pytest.raises(ValueError, match="DecayPolicy"):
        ledger.advance_epoch()
    with pytest.raises(ValueError, match="radius"):
        DecayPolicy(radius=-1)


def test_decayed_bounds_persist_through_the_backend():
    with SQLiteStore(":memory:") as store:
        ledger = PrivacyBudgetLedger(
            size_above(0), store=store, decay=DecayPolicy(radius=1)
        )
        ledger.commit("u", threshold_qinfo("x", 7), True)
        assert ledger.remaining("u", SPEC) == 128
        ledger.advance_epoch()
        assert ledger.remaining("u", SPEC) == 144  # 9 x 16, clamped
        reborn = PrivacyBudgetLedger(
            size_above(0), store=store, decay=DecayPolicy(radius=1)
        )
        assert reborn.remaining("u", SPEC) == 144
        assert reborn.epoch == 1


@settings(max_examples=60, deadline=None)
@given(
    workload=queries,
    user_secrets=st.lists(secrets, min_size=1, max_size=6),
    floor=floors,
)
def test_preauthorize_batch_matches_scalar(workload, user_secrets, floor):
    """Batch admission is per-user identical to scalar ``preauthorize`` —
    decisions, reasons, ``remaining``, and refusal tallies."""
    scalar = PrivacyBudgetLedger(size_above(floor))
    batch = PrivacyBudgetLedger(size_above(floor))
    users = [f"u{i}" for i in range(len(user_secrets))]
    # Diversify the sound bounds first so the batch sees mixed priors.
    for uid, secret in zip(users, user_secrets):
        protected = ProtectedSecret.seal(SPEC, secret)
        for axis, threshold in workload[:2]:
            qinfo = threshold_qinfo(axis, threshold)
            for ledger in (scalar, batch):
                ledger.evaluate(uid, qinfo, protected)
    for axis, threshold in workload:
        qinfo = threshold_qinfo(axis, threshold)
        expected = {uid: scalar.preauthorize(uid, qinfo) for uid in users}
        actual = batch.preauthorize_batch(users, qinfo)
        assert actual == expected
        for uid in users:
            assert scalar.account(uid).refusals == batch.account(uid).refusals


@settings(max_examples=60, deadline=None)
@given(
    workload=queries,
    user_secrets=st.lists(secrets, min_size=1, max_size=6),
    fleets=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=10), max_size=8),
    floor=floors,
)
def test_preauthorize_batch_telemetry_matches_scalar(
    workload, user_secrets, fleets, floor
):
    """Over random fleets (repeats included), batch admission records
    exactly what a loop of scalar ``preauthorize`` records: identical
    decisions and identical ``decision`` and ``declassified`` snapshots,
    though it records once per batch."""
    scalar = PrivacyBudgetLedger(size_above(floor))
    batch = PrivacyBudgetLedger(size_above(floor))
    scalar.metrics, batch.metrics = MetricsRegistry(), MetricsRegistry()
    users = [f"u{i}" for i in range(len(user_secrets))]
    for uid, secret in zip(users, user_secrets):
        protected = ProtectedSecret.seal(SPEC, secret)
        for axis, threshold in workload[:2]:
            qinfo = threshold_qinfo(axis, threshold)
            for ledger in (scalar, batch):
                ledger.evaluate(uid, qinfo, protected)
    channels = ("decision", "declassified")
    for step, fleet in enumerate(fleets):
        axis, threshold = workload[step % len(workload)]
        qinfo = threshold_qinfo(axis, threshold)
        ids = [users[i % len(users)] for i in fleet]
        expected = {uid: scalar.preauthorize(uid, qinfo) for uid in dict.fromkeys(ids)}
        assert batch.preauthorize_batch(ids, qinfo) == expected
        assert batch.metrics.snapshot(channels) == scalar.metrics.snapshot(channels)
        assert batch.metrics.exposition(channels) == scalar.metrics.exposition(
            channels
        )


def test_preauthorize_batch_collapses_duplicate_ids():
    ledger = PrivacyBudgetLedger(size_above(10**9))  # refuses everything
    qinfo = threshold_qinfo("x", 7)
    decisions = ledger.preauthorize_batch(["u", "u", "u"], qinfo)
    assert list(decisions) == ["u"]
    assert not decisions["u"].allowed
    assert ledger.account("u").refusals == 1


# ---------------------------------------------------------------------------
# Differential: the interned, memoized ledger against a memo-free fold
# ---------------------------------------------------------------------------


def powerset_threshold_qinfo(axis: str, threshold: int) -> QInfo:
    """``axis <= threshold`` over the powerset domain, with a distinct
    under pair (the centre carved out of each side) and the exact over
    pair, so the two modes fold to different bounds and verdicts."""
    exact = threshold_qinfo(axis, threshold).over_indset
    under = tuple(
        PowersetDomain(SPEC, (side.box,), (Box(((4, 11), (4, 11))),))
        for side in exact
    )
    over = tuple(PowersetDomain.from_interval(side) for side in exact)
    return QInfo(
        name=f"{axis}<={threshold}/powerset",
        query=parse_bool(f"{axis} <= {threshold}"),
        secret=SPEC,
        under_indset=under,
        over_indset=over,
    )


#: A fixed pool, so the ledger sees the same ``QInfo`` objects again; the
#: last entry is an equal but distinct copy of the first.
QUERY_POOL = [
    threshold_qinfo("x", 7),
    threshold_qinfo("y", 9),
    powerset_threshold_qinfo("x", 7),
    powerset_threshold_qinfo("y", 8),
    threshold_qinfo("x", 7),
]
USERS = ["u0", "u1", "u2", "u3"]


def refusal_reason(floor, qinfo: QInfo) -> str:
    return (
        f"budget exhausted: {floor.name} would fail on a posterior of "
        f"{qinfo.name!r}"
    )


class ReferenceLedger:
    """The uncached fold: every answer recomputed from ``qinfo.approx``
    and :func:`intersect_knowledge`, no interning, no memo."""

    def __init__(self, floor, decay: DecayPolicy):
        self.floor = floor
        self.decay = decay
        self.sound: dict[str, object] = {}
        self.complete: dict[str, object] = {}
        self.charges: dict[str, list[ChargeRecord]] = {u: [] for u in USERS}
        self.refusals: dict[str, int] = {u: 0 for u in USERS}
        self.epoch = 0

    def prior(self, user: str, qinfo: QInfo):
        bound = self.sound.get(user)
        return top_knowledge_for(qinfo) if bound is None else bound

    def preauthorize(self, user: str, qinfo: QInfo, mode: str) -> LedgerDecision:
        prior = self.prior(user, qinfo)
        true_post, false_post = qinfo.approx(prior, mode=mode)
        if self.floor(true_post) and self.floor(false_post):
            return LedgerDecision(True, "ok", prior.size())
        self.refusals[user] += 1
        return LedgerDecision(False, refusal_reason(self.floor, qinfo), prior.size())

    def commit(self, user: str, qinfo: QInfo, response: bool, mode: str):
        prior = self.prior(user, qinfo)
        true_post, false_post = qinfo.approx(prior, mode=mode)
        posterior = true_post if response else false_post
        if not self.floor(posterior):
            raise LedgerInvariantError(qinfo.name)
        self.sound[user] = posterior
        over_prior = self.complete.get(user)
        if over_prior is None:
            over_prior = top_knowledge_for(qinfo)
        over_true, over_false = qinfo.approx(over_prior, mode="over")
        self.complete[user] = over_true if response else over_false
        self.charges[user].append(
            ChargeRecord(
                qinfo.name, SPEC.name, response, prior.size(), posterior.size()
            )
        )
        return posterior

    def apply_payload(self, user: str, payload: dict, monotone: bool) -> None:
        for bounds, key in ((self.sound, "sound"), (self.complete, "complete")):
            encoded = payload[key]
            if encoded is None:
                if not monotone:
                    bounds.pop(user, None)
                continue
            incoming = domain_from_json(encoded, SPEC)
            if monotone and user in bounds:
                incoming = intersect_knowledge(bounds[user], incoming)
            bounds[user] = incoming
        self.epoch = max(self.epoch, payload["epoch"])

    def export(self, user: str) -> dict:
        sound, complete = self.sound.get(user), self.complete.get(user)
        return {
            "version": 1,
            "spec": spec_to_json(SPEC),
            "sound": None if sound is None else domain_to_json(sound),
            "complete": None if complete is None else domain_to_json(complete),
            "epoch": self.epoch,
        }

    def advance_epoch(self, epochs: int) -> None:
        self.epoch += epochs
        for bounds in (self.sound, self.complete):
            for user, bound in list(bounds.items()):
                for _ in range(epochs):
                    bound = self.decay.dilate(bound)
                bounds[user] = bound


queries_ix = st.integers(min_value=0, max_value=len(QUERY_POOL) - 1)
users_ix = st.sampled_from(USERS)
modes = st.sampled_from(["under", "over"])
ledger_ops = st.one_of(
    st.tuples(st.just("preauthorize"), users_ix, queries_ix, modes),
    st.tuples(
        st.just("batch"),
        st.lists(users_ix, min_size=1, max_size=6),
        queries_ix,
        modes,
    ),
    st.tuples(st.just("commit"), users_ix, queries_ix, st.booleans(), modes),
    st.tuples(st.just("apply"), users_ix, users_ix, st.booleans()),
    st.tuples(st.just("epoch"), st.integers(min_value=0, max_value=2)),
    # Shard-delta traffic: snapshot a user's payload now, deliver any
    # snapshot later (monotone), so deltas arrive stale, reordered and
    # duplicated, as exported or as decoded off the wire.
    st.tuples(st.just("export"), users_ix),
    st.tuples(
        st.just("deliver"),
        users_ix,
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    ),
)


def assert_interned(ledger: PrivacyBudgetLedger) -> None:
    """Equal bounds held by any accounts are one object."""
    bounds = [
        bound
        for user in ledger.users()
        for held in (ledger.account(user).sound, ledger.account(user).complete)
        for bound in held.values()
    ]
    for i, first in enumerate(bounds):
        for second in bounds[i + 1 :]:
            assert (first == second) == (first is second)


@settings(max_examples=150, deadline=None)
# A mirror re-fed its own bound still meets it: a powerset meet with
# itself doubles its exclude boxes, so ``existing is incoming`` must not
# short-cut to ``existing``.
@example(
    ops=[
        ("commit", "u0", 2, True, "under"),
        ("export", "u0"),
        ("deliver", "u0", 0, False),
    ],
    floor=0,
    radius=0,
    capacity=2048,
)
@given(
    ops=st.lists(ledger_ops, min_size=1, max_size=40),
    floor=st.integers(min_value=0, max_value=120),
    radius=st.integers(min_value=0, max_value=2),
    capacity=st.sampled_from([1, 3, 8, 2048]),
)
def test_memoized_ledger_matches_memo_free_fold(ops, floor, radius, capacity):
    policy, decay = size_above(floor), DecayPolicy(radius=radius)
    ledger = PrivacyBudgetLedger(policy, decay=decay)
    ledger._memo_capacity = capacity
    reference = ReferenceLedger(policy, decay)
    sent: list[dict] = []
    for op in ops:
        kind = op[0]
        if kind == "preauthorize":
            _, user, q, mode = op
            qinfo = QUERY_POOL[q]
            assert ledger.preauthorize(user, qinfo, mode=mode) == (
                reference.preauthorize(user, qinfo, mode)
            )
        elif kind == "batch":
            _, users, q, mode = op
            qinfo = QUERY_POOL[q]
            expected = {
                user: reference.preauthorize(user, qinfo, mode)
                for user in dict.fromkeys(users)
            }
            assert ledger.preauthorize_batch(users, qinfo, mode=mode) == expected
        elif kind == "commit":
            _, user, q, response, mode = op
            qinfo = QUERY_POOL[q]
            try:
                expected = reference.commit(user, qinfo, response, mode)
            except LedgerInvariantError:
                with pytest.raises(LedgerInvariantError):
                    ledger.commit(user, qinfo, response, mode=mode)
            else:
                assert ledger.commit(user, qinfo, response, mode=mode) == expected
        elif kind == "apply":
            _, user, source, monotone = op
            payload = ledger.export_bound(source, SPEC)
            ledger.apply_payload(user, SPEC.name, payload, monotone=monotone)
            reference.apply_payload(user, payload, monotone)
        elif kind == "export":
            sent.append(ledger.export_bound(op[1], SPEC))
        elif kind == "deliver":
            _, user, at, wire = op
            if not sent:
                continue
            payload = sent[at % len(sent)]
            if wire:
                payload = json.loads(json.dumps(payload))
            ledger.apply_payload(user, SPEC.name, payload, monotone=True)
            reference.apply_payload(user, payload, True)
        else:
            ledger.advance_epoch(op[1])
            reference.advance_epoch(op[1])
        for user in USERS:
            account = ledger.account(user)
            assert account.sound.get(SPEC.name) == reference.sound.get(user)
            assert account.complete.get(SPEC.name) == reference.complete.get(user)
            assert account.charges == reference.charges[user]
            assert account.refusals == reference.refusals[user]
            assert canonical_json(ledger.export_bound(user, SPEC)) == (
                canonical_json(reference.export(user))
            )
        assert_interned(ledger)
        assert len(ledger._memo) <= capacity


def test_fleet_sharing_a_bound_holds_one_object_and_a_bounded_memo():
    """Churn through many users and queries: accounts that reach equal
    bounds share one object, and the memo never outgrows its capacity."""
    ledger = PrivacyBudgetLedger(size_above(0), decay=DecayPolicy(radius=1))
    ledger._memo_capacity = 16
    qinfos = [threshold_qinfo(axis, t) for axis in "xy" for t in range(3, 12)]
    for n in range(400):
        user = f"user{n}"
        for qinfo in qinfos[n % 5 : n % 5 + 3]:
            ledger.commit(user, qinfo, n % 2 == 0)
        assert len(ledger._memo) <= 16
        if n % 100 == 99:
            ledger.advance_epoch()
    assert_interned(ledger)
    distinct = {id(ledger.account(u).sound[SPEC.name]) for u in ledger.users()}
    assert len(distinct) < 20


def test_concurrent_callers_share_one_memo_without_lost_updates():
    """Admission and commit from more threads than cores, with a short
    switch interval, leave every account exactly where a sequential run
    leaves it: the memo and intern table are shared state under the
    ledger's lock."""
    qinfos = [threshold_qinfo(axis, t) for axis in "xy" for t in (5, 9, 12)]

    def drive(ledger: PrivacyBudgetLedger, users: list[str]) -> None:
        for round_ in range(6):
            for user in users:
                qinfo = qinfos[(round_ + len(user)) % len(qinfos)]
                if ledger.preauthorize(user, qinfo).allowed:
                    ledger.commit(user, qinfo, round_ % 2 == 0)
            ledger.preauthorize_batch(users, qinfos[round_])

    groups = [[f"t{i}-u{j}" for j in range(12)] for i in range(8)]
    sequential = PrivacyBudgetLedger(size_above(20))
    for users in groups:
        drive(sequential, users)

    shared = PrivacyBudgetLedger(size_above(20))
    shared._memo_capacity = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=drive, args=(shared, users)) for users in groups
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for users in groups:
        for user in users:
            expected, actual = sequential.account(user), shared.account(user)
            assert actual.sound == expected.sound
            assert actual.charges == expected.charges
            assert actual.refusals == expected.refusals
    assert_interned(shared)
    assert len(shared._memo) <= 8


def test_top_prior_is_held_outside_the_fifo_memo():
    """⊤ keeps its identity however many entries the FIFO memo evicts,
    and is dropped with its query."""
    ledger = PrivacyBudgetLedger(size_above(0))
    ledger._memo_capacity = 4
    qinfo = QUERY_POOL[0]
    top = ledger._top(qinfo)
    for n, other in enumerate(QUERY_POOL[1:4] * 4):
        ledger.preauthorize(f"u{n}", other)
        ledger.commit(f"u{n}", other, n % 2 == 0)
    assert len(ledger._memo) <= 4
    assert ledger._top(qinfo) is top
    short_lived = threshold_qinfo("y", 3)
    ledger._top(short_lived)
    held = len(ledger._tops)
    del short_lived
    gc.collect()
    assert len(ledger._tops) == held - 1


def test_export_bound_reuses_one_encoding_per_bound():
    """Every payload of one live bound shares one encoding, whose JSON
    text is :func:`domain_to_json`'s."""
    ledger = PrivacyBudgetLedger(size_above(0))
    for user in ("a", "b"):
        ledger.commit(user, QUERY_POOL[2], True)
    first, second = (ledger.export_bound(u, SPEC) for u in ("a", "b"))
    assert first["sound"] is second["sound"]
    assert first["complete"] is second["complete"]
    bound = ledger.sound_bound("a", SPEC)
    assert canonical_json(first["sound"]) == canonical_json(domain_to_json(bound))
