"""The privacy-budget ledger: cross-query knowledge accounting per user.

A single downgrade is easy to police; *composition* is where
declassification leaks.  A user who asks ``x <= 200``, then ``y <= 200``,
then ``x <= 100`` passes a per-query policy every time while the
intersection of the answers corners the secret.  Sessions already track
knowledge, but sessions are ephemeral — close one, open another, and the
implicit budget resets.  The ledger makes the cumulative bound explicit
serving-layer state, keyed by a durable user identity.

Per user and secret type the ledger folds every *answered* query into two
lattice bounds, exactly the pair the paper synthesizes:

* the **sound** bound — intersections of under-approximated ind. sets, a
  subset of the true attacker knowledge.  The policy floor is enforced
  here: a monotone floor accepted on a subset holds for the true
  knowledge (the same soundness argument as section 3);
* the **complete** bound — intersections of over-approximated ind. sets,
  a superset of the true knowledge, tracked for reporting when queries
  were compiled with the ``over`` mode.

Two invariants, property-tested in ``tests/server/test_ledger.py``:

1. a refused charge never changes any bound (refusal is observable, so a
   refusal that leaked would be a side channel);
2. after any accepted sequence the sound bound still satisfies the floor
   — :meth:`~PrivacyBudgetLedger.commit` re-checks and raises *before*
   mutating, so not even a caller that skips
   :meth:`~PrivacyBudgetLedger.preauthorize` can cross it.

Admission follows the paper's section 3 discipline via
:func:`~repro.monad.anosy.pair_verdict`: *both* potential posteriors must
clear the floor before the query runs, keeping the accept/refuse decision
independent of the secret.  :meth:`~PrivacyBudgetLedger.evaluate` runs the
whole Figure 2 ``downgrade`` against the ledger bound by delegating to
:func:`~repro.monad.anosy.evaluate_downgrade` with the floor as policy.

Two serving-scale concerns live here as well:

* **Durability** — budgets are contracts attached to principals, not
  per-process state.  With a ``store`` attached (any
  :class:`LedgerBackend`, e.g. :class:`~repro.server.store.SQLiteStore`),
  every bound mutation is written through as a format-versioned JSON
  payload and the full account table is reloaded on attach, so a process
  restart cannot launder a budget (bounds survive exactly like compiled
  artifacts do).
* **Decay** — a strict intersection fold means long-lived users
  monotonically approach the floor and eventually saturate.  A
  :class:`DecayPolicy` dilates every bound by a configured radius per
  epoch (:meth:`~PrivacyBudgetLedger.advance_epoch`); dilation only ever
  *grows* a bound, so the decayed bound remains a sound
  over-approximation of any knowledge the attacker retains — the
  property test in ``tests/server/test_ledger.py`` checks exactly that
  ("decay is never tighter").

Per-request cost tracks *distinct bounds*, not accounts: every stored
bound is interned (equal bounds are one object), and admission decisions,
commit transitions, payload decodes and mirror meets come from a
FIFO-bounded memo keyed by the identity (or, for encoded bounds, the
digest) of its inputs, which each entry pins.  Each interned bound also
carries its one encoding.  A hit changes only timing (DESIGN.md §9;
differential-tested in ``tests/server/test_ledger.py``).
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Iterator, Protocol

from repro.core.qinfo import QInfo, intersect_knowledge
from repro.domains.base import AbstractDomain
from repro.domains.box import IntervalDomain
from repro.domains.powerset import PowersetDomain
from repro.lang.canonical import spec_from_json, spec_to_json
from repro.lang.secrets import SecretSpec
from repro.monad.anosy import (
    DowngradeDecision,
    DowngradeInvariantError,
    batch_pair_verdict,
    evaluate_downgrade,
    pair_verdict,
    top_knowledge_for,
)
from repro.monad.policy import QuantitativePolicy
from repro.monad.protected import Unprotectable
from repro.obs.metrics import NULL_REGISTRY
from repro.service.serialize import canonical_json, domain_from_json, domain_to_json
from repro.solver.boxes import Box

__all__ = [
    "LEDGER_FORMAT_VERSION",
    "LedgerBackend",
    "LedgerFormatError",
    "LedgerInvariantError",
    "LedgerDecision",
    "ChargeRecord",
    "BudgetAccount",
    "DecayPolicy",
    "PrivacyBudgetLedger",
]

#: Bumped whenever the persisted bound payload changes incompatibly.
LEDGER_FORMAT_VERSION = 1

#: Entries the ledger's transition memo holds before evicting the oldest.
#: A tick touches (distinct bounds) x (queries) x (admission + both
#: responses); each entry pins its prior, so the cap also bounds how many
#: bounds no account holds any more stay alive.
_MEMO_CAPACITY = 2048


def _encoded(bound: AbstractDomain) -> dict[str, Any]:
    """:func:`~repro.service.serialize.domain_to_json` of an interned
    bound, built once per bound.

    It is cached on the bound itself (as a powerset caches its disjoint
    pieces), so it lives exactly as long as the bound.  Payloads share
    it: treat the bound encodings of
    :meth:`PrivacyBudgetLedger.export_bound` as read-only.
    """
    encoded = bound.__dict__.get("_ledger_json")
    if encoded is None:
        encoded = domain_to_json(bound)
        object.__setattr__(bound, "_ledger_json", encoded)
    return encoded


def _bound_key(bound: AbstractDomain) -> tuple:
    """The intern-table key of a bound: its type and dataclass fields.

    Equal keys exactly when the bounds are equal, and the key does not
    reference the bound itself, so the weak table can drop it.
    """
    return (type(bound), *(getattr(bound, f.name) for f in fields(bound)))


class LedgerFormatError(RuntimeError):
    """A persisted ledger payload was written by an incompatible codec."""


class LedgerInvariantError(RuntimeError):
    """A commit would have pushed a sound bound across the policy floor."""


class LedgerBackend(Protocol):
    """Durable storage for per-user knowledge bounds.

    Payloads are the JSON dictionaries built by
    :meth:`PrivacyBudgetLedger.export_bound`; the backend stores them
    opaquely, keyed by ``(user_id, spec_name)``.
    :class:`~repro.server.store.SQLiteStore` implements this next to its
    artifact table, so one file holds everything a restart must not lose.
    """

    def put_ledger_bound(
        self, user_id: str, spec_name: str, payload: dict[str, Any]
    ) -> None:
        """Durably store one user's bound payload (last write wins)."""
        ...  # pragma: no cover - protocol

    def ledger_bounds(self) -> Iterator[tuple[str, str, dict[str, Any]]]:
        """Iterate all ``(user_id, spec_name, payload)`` rows."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class LedgerDecision:
    """The outcome of a ledger admission check."""

    allowed: bool
    reason: str
    #: Size of the sound bound the decision was made against (the user's
    #: remaining budget *before* this query).
    remaining: int


@dataclass(frozen=True)
class ChargeRecord:
    """One committed charge against a user's budget."""

    query_name: str
    spec_name: str
    response: bool
    prior_size: int
    posterior_size: int


@dataclass
class BudgetAccount:
    """One user's cumulative knowledge bounds, keyed by secret type.

    Bounds are the durable contract (persisted through the attached
    :class:`LedgerBackend`); ``charges`` and ``refusals`` are per-process
    observability and reset on restart.
    """

    user_id: str
    #: Sound (under-approximated) bounds; absent key = still the full space.
    sound: dict[str, AbstractDomain] = field(default_factory=dict)
    #: Complete (over-approximated) bounds, tracked when available.
    complete: dict[str, AbstractDomain] = field(default_factory=dict)
    charges: list[ChargeRecord] = field(default_factory=list)
    refusals: int = 0


@dataclass(frozen=True)
class DecayPolicy:
    """Budget decay: dilate knowledge bounds by a radius per epoch.

    A strict intersection fold never forgets, so long-lived users drift
    monotonically toward the floor.  Decay models attacker knowledge
    going stale (secrets drift, answers age): each epoch every tracked
    bound is *dilated* — interval boxes and powerset include-boxes widen
    by ``radius`` cells per axis (clamped to the secret space), powerset
    exclude-boxes shrink by the same radius (dropped when they collapse).
    Every step only ever grows the represented set, so a decayed bound
    is still a sound over-approximation of whatever the attacker
    actually retains — decay can only make the ledger *more*
    conservative about what it refuses, never less.
    """

    #: Cells of dilation per axis, per epoch (0 = decay disabled).
    radius: int = 1

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def dilate(self, bound: AbstractDomain) -> AbstractDomain:
        """One epoch's dilation of a bound (always ⊇ the input)."""
        if self.radius == 0:
            return bound
        space = Box(bound.spec.bounds())
        if isinstance(bound, IntervalDomain):
            if bound.box is None:
                return bound
            return IntervalDomain(bound.spec, self._grow(bound.box, space))
        if isinstance(bound, PowersetDomain):
            include = tuple(self._grow(box, space) for box in bound.include)
            exclude = tuple(
                shrunk
                for box in bound.exclude
                if (shrunk := self._shrink(box)) is not None
            )
            return PowersetDomain(bound.spec, include, exclude)
        raise TypeError(f"cannot dilate domain type {type(bound)}")

    def _grow(self, box: Box, space: Box) -> Box:
        return Box(
            tuple(
                (max(slo, lo - self.radius), min(shi, hi + self.radius))
                for (lo, hi), (slo, shi) in zip(box.bounds, space.bounds)
            )
        )

    def _shrink(self, box: Box) -> Box | None:
        bounds = tuple(
            (lo + self.radius, hi - self.radius) for lo, hi in box.bounds
        )
        if any(lo > hi for lo, hi in bounds):
            return None
        return Box(bounds)

    def to_json(self) -> dict[str, Any]:
        """Encode for the shard-process configure op."""
        return {"radius": self.radius}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "DecayPolicy":
        """Decode a policy encoded by :meth:`to_json`."""
        return cls(radius=int(data["radius"]))


class PrivacyBudgetLedger:
    """Per-user cumulative knowledge bounds under a policy floor.

    ``floor`` is a monotone :class:`~repro.monad.policy.QuantitativePolicy`
    (e.g. ``size_above(10_000)``): the minimum uncertainty every user's
    sound bound must retain, across all queries they will ever ask.

    ``store`` (optional) makes the ledger durable: every bound mutation
    is written through to the backend and all persisted bounds are
    reloaded on construction, format-version-guarded — a restarted
    server refuses exactly what the killed one refused.  ``decay``
    (optional) enables :meth:`advance_epoch`.
    """

    def __init__(
        self,
        floor: QuantitativePolicy,
        *,
        store: LedgerBackend | None = None,
        decay: DecayPolicy | None = None,
    ):
        self.floor = floor
        self.store = store
        self.decay = decay
        #: Settable metrics registry (``repro.obs``); the gateway swaps in
        #: its hub's registry.  Refusal counts are decision-channel (the
        #: pair-checked verdict is secret-independent); remaining-cell
        #: sizes are declassified-channel (derived from committed bounds).
        self.metrics: Any = NULL_REGISTRY
        self.epoch = 0
        self._accounts: dict[str, BudgetAccount] = {}
        self._lock = threading.RLock()
        #: ``None`` = write-through durable mirror (every commit puts its
        #: bound immediately).  A journaled gateway switches to buffered
        #: mode (:meth:`buffer_writes`) so it can land each tick's bound
        #: puts in the *same* transaction as the journal acknowledgement.
        self._buffered: list[tuple[str, str, dict[str, Any]]] | None = None
        #: Canonical bound objects (see the module doc), weakly held.
        self._interned: weakref.WeakValueDictionary[tuple, AbstractDomain] = (
            weakref.WeakValueDictionary()
        )
        #: Identity-keyed transitions: key -> (pinned inputs, value).
        self._memo: OrderedDict[tuple, tuple[tuple, Any]] = OrderedDict()
        self._memo_capacity = _MEMO_CAPACITY
        #: The ⊤ prior per query, outside the FIFO: every fresh account
        #: needs it, so it must not be evicted.  id(qinfo) -> (weak
        #: reference to the qinfo, interned ⊤); the entry goes with the
        #: query.
        self._tops: dict[int, tuple[weakref.ref, AbstractDomain]] = {}
        #: Decoded specs by canonical encoding, one per secret type the
        #: payloads (from the store and the shards) name.
        self._specs: dict[str, SecretSpec] = {}
        if store is not None:
            for user_id, spec_name, payload in list(store.ledger_bounds()):
                self.apply_payload(user_id, spec_name, payload, persist=False)

    # -- accounts ------------------------------------------------------------
    def account(self, user_id: str) -> BudgetAccount:
        """The user's account, created on first touch."""
        with self._lock:
            account = self._accounts.get(user_id)
            if account is None:
                account = BudgetAccount(user_id=user_id)
                self._accounts[user_id] = account
            return account

    def users(self) -> list[str]:
        """Users with an account, sorted."""
        with self._lock:
            return sorted(self._accounts)

    def sound_bound(self, user_id: str, spec: SecretSpec) -> AbstractDomain | None:
        """The user's sound bound for a secret type (``None`` = full space)."""
        with self._lock:
            return self.account(user_id).sound.get(spec.name)

    def remaining(self, user_id: str, spec: SecretSpec) -> int:
        """Size of the user's sound bound (full space if untouched)."""
        with self._lock:
            bound = self.account(user_id).sound.get(spec.name)
            return spec.space_size() if bound is None else bound.size()

    # -- admission -----------------------------------------------------------
    def _count_refusal(self, refused: int = 1) -> None:
        if self.metrics:
            self.metrics.counter(
                "anosy_ledger_refusals_total",
                "Ledger admission refusals by kind.",
                labels=("kind",),
            ).labels(kind="budget").inc(refused)

    def _observe_remaining(self, remaining: int, count: int = 1) -> None:
        if self.metrics:
            self.metrics.histogram(
                "anosy_ledger_remaining_cells",
                "Sound-bound size (cells) at admission time.",
                channel="declassified",
            ).observe(float(remaining), count)

    def preauthorize(
        self, user_id: str, qinfo: QInfo, *, mode: str = "under"
    ) -> LedgerDecision:
        """Would answering this query keep the user above the floor?

        Checks the floor on *both* potential posteriors of the user's
        current sound bound (secret-independent, per section 3).  Never
        mutates a bound; a refusal is tallied on the account.
        """
        with self._lock:
            account = self.account(user_id)
            prior = self._sound_prior(account, qinfo)
            key, pins = (id(prior), id(qinfo), mode), (prior, qinfo, self.floor)
            decision = self._recall(key, pins)
            if decision is None:
                allowed = pair_verdict(self.floor, qinfo.approx(prior, mode=mode))
                decision = self._remember(
                    key, pins, self._decision(allowed, prior, qinfo)
                )
            self._tally(account, decision)
            return decision

    def preauthorize_batch(
        self, user_ids: Iterable[str], qinfo: QInfo, *, mode: str = "under"
    ) -> dict[str, LedgerDecision]:
        """Batch admission: one floor check per *distinct* sound bound.

        Per-user decisions are identical to calling :meth:`preauthorize`
        for each user — same reasons, same ``remaining``, one refusal
        tallied per refused user, the same metric snapshot (recorded
        once per batch, not per user) — but whole fleets sharing a bound
        (the common case: fresh users all sit at the full space) cost one
        memo lookup, and only bounds the memo misses pay a posterior
        intersection and one vectorized bound-size check.  Bounds are
        interned, so users are grouped by bound identity, not by hashing
        the domain.  Duplicate ids collapse to one decision; serving
        rounds are already unique per user
        (:func:`repro.server.workers.rounds_by_user`).
        """
        with self._lock:
            accounts = [self.account(uid) for uid in dict.fromkeys(user_ids)]
            priors = [self._sound_prior(account, qinfo) for account in accounts]
            by_prior: dict[int, LedgerDecision] = {}
            misses: list[AbstractDomain] = []
            for prior in {id(prior): prior for prior in priors}.values():
                decision = self._recall(
                    (id(prior), id(qinfo), mode), (prior, qinfo, self.floor)
                )
                if decision is None:
                    misses.append(prior)
                else:
                    by_prior[id(prior)] = decision
            if misses:
                pairs = qinfo.approx_batch(misses, mode=mode)
                verdicts = batch_pair_verdict(self.floor, pairs)
                for prior, allowed in zip(misses, verdicts):
                    by_prior[id(prior)] = self._remember(
                        (id(prior), id(qinfo), mode),
                        (prior, qinfo, self.floor),
                        self._decision(allowed, prior, qinfo),
                    )
            decisions: dict[str, LedgerDecision] = {}
            refused = 0
            for account, prior in zip(accounts, priors):
                decision = decisions[account.user_id] = by_prior[id(prior)]
                if not decision.allowed:
                    account.refusals += 1
                    refused += 1
            # Telemetry once per batch: one observation per distinct
            # remaining size (with its count), one refusal increment.
            if self.metrics:
                sizes = Counter(d.remaining for d in decisions.values())
                for size, count in sizes.items():
                    self._observe_remaining(size, count)
                if refused:
                    self._count_refusal(refused)
            return decisions

    # -- charging ------------------------------------------------------------
    def commit(
        self, user_id: str, qinfo: QInfo, response: bool, *, mode: str = "under"
    ) -> AbstractDomain:
        """Fold one answered query into the user's bounds.

        Only call this for queries that were actually answered.  The floor
        is re-checked on the new sound bound *before* any mutation — a
        commit that would cross it raises :class:`LedgerInvariantError`
        and changes nothing, so invariant 2 holds even against callers
        that skipped :meth:`preauthorize`.
        """
        with self._lock:
            account = self.account(user_id)
            prior = self._sound_prior(account, qinfo)
            posterior, clears, charge = self._transition(
                prior, qinfo, mode, response
            )
            if not clears:
                raise LedgerInvariantError(
                    f"committing {qinfo.name!r} for {user_id!r} would cross "
                    f"the floor {self.floor.name}"
                )
            spec_name = qinfo.secret.name
            account.sound[spec_name] = posterior
            if qinfo.over_indset is not None:
                over_prior = account.complete.get(spec_name)
                if over_prior is None:
                    over_prior = self._top(qinfo)
                account.complete[spec_name] = self._transition(
                    over_prior, qinfo, "over", response
                )[0]
            account.charges.append(charge)
            self._persist(user_id, qinfo.secret)
            return posterior

    def evaluate(
        self,
        user_id: str,
        qinfo: QInfo,
        protected: Unprotectable,
        *,
        mode: str = "under",
        check_both: bool = True,
    ) -> DowngradeDecision:
        """Figure 2's ``downgrade`` run directly against the ledger bound.

        Reuses :func:`~repro.monad.anosy.evaluate_downgrade` with the
        floor as the policy and the user's sound bound as the prior, then
        folds the posterior on authorization.  This is the standalone
        entry point; the gateway uses the split
        :meth:`preauthorize`/:meth:`commit` form because the query itself
        runs inside :class:`~repro.service.session.SessionManager`.
        """
        with self._lock:
            account = self.account(user_id)
            prior = self._sound_prior(account, qinfo)
            decision, posterior = evaluate_downgrade(
                qinfo,
                self.floor,
                protected,
                prior,
                mode=mode,
                check_both=check_both,
            )
            if not decision.authorized:
                account.refusals += 1
                return decision
            if posterior is None or decision.response is None:
                raise DowngradeInvariantError(
                    f"authorized ledger downgrade of {qinfo.name!r} carries "
                    "no response or posterior"
                )
            self.commit(user_id, qinfo, decision.response, mode=mode)
            return decision

    # -- durability ----------------------------------------------------------
    def export_bound(self, user_id: str, spec: SecretSpec) -> dict[str, Any]:
        """The persistable payload of one user's bounds for one spec.

        The same shape the backend stores and the shard tier ships as
        ledger deltas: format version, the spec itself (so decoding
        needs no external registry), both bounds, and the epoch.
        """
        with self._lock:
            account = self.account(user_id)
            sound = account.sound.get(spec.name)
            complete = account.complete.get(spec.name)
            return {
                "version": LEDGER_FORMAT_VERSION,
                "spec": spec_to_json(spec),
                "sound": None if sound is None else _encoded(sound),
                "complete": None if complete is None else _encoded(complete),
                "epoch": self.epoch,
            }

    def apply_payload(
        self,
        user_id: str,
        spec_name: str,
        payload: dict[str, Any],
        *,
        persist: bool = True,
        monotone: bool = False,
    ) -> None:
        """Overwrite one user's bounds from an :meth:`export_bound` payload.

        Used on attach (reloading the backend) and by the gateway to fold
        authoritative shard-side deltas into its durable mirror.  By
        default the payload wins unconditionally — callers own the
        ordering.  With ``monotone=True`` (the gateway's delta-fold
        mode) an incoming bound is *intersected* with any existing one
        and an absent incoming bound keeps the existing one: replayed,
        reordered, or stale deltas — retries, duplicate deliveries, a
        rehydrated shard echoing its snapshot — can tighten the mirror
        but can never loosen it.  (Loosening is the job of epoch decay,
        which acts on the mirror directly, never through payloads.)
        """
        version = payload.get("version")
        if version != LEDGER_FORMAT_VERSION:
            raise LedgerFormatError(
                f"ledger payload for {user_id!r}/{spec_name!r} has format "
                f"version {version!r}, this codec speaks {LEDGER_FORMAT_VERSION}"
            )
        with self._lock:
            spec = self._spec(payload["spec"])
            account = self.account(user_id)
            for bounds, key in ((account.sound, "sound"), (account.complete, "complete")):
                encoded = payload.get(key)
                if encoded is None:
                    if not monotone:
                        bounds.pop(spec_name, None)
                    continue
                incoming = self._decode(encoded, spec)
                existing = bounds.get(spec_name)
                if monotone and existing is not None:
                    incoming = self._meet(existing, incoming)
                bounds[spec_name] = incoming
            self.epoch = max(self.epoch, int(payload.get("epoch", 0)))
            if persist:
                self._persist(user_id, spec)

    # -- decay ---------------------------------------------------------------
    def advance_epoch(self, epochs: int = 1) -> int:
        """Dilate every tracked bound ``epochs`` times; returns the epoch.

        Requires a :class:`DecayPolicy`.  Dilation only grows bounds
        (soundness is preserved — see :class:`DecayPolicy`), so a user
        parked at the floor regains budget as their stale knowledge
        bound relaxes.  New bounds are written through to the store.
        """
        if self.decay is None:
            raise ValueError("advance_epoch requires a DecayPolicy")
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        with self._lock:
            self.epoch += epochs
            for account in self._accounts.values():
                specs: dict[str, SecretSpec] = {}
                for bounds in (account.sound, account.complete):
                    for spec_name, bound in list(bounds.items()):
                        for _ in range(epochs):
                            bound = self.decay.dilate(bound)
                        bounds[spec_name] = bound = self._intern(bound)
                        specs[spec_name] = bound.spec
                for spec in specs.values():
                    self._persist(account.user_id, spec)
            return self.epoch

    # -- durable-mirror buffering --------------------------------------------
    def buffer_writes(self) -> None:
        """Switch the durable mirror to buffered (journal-atomic) mode.

        Commits and decay keep mutating the in-memory bounds immediately,
        but their store puts accumulate in a buffer instead of writing
        through; the owner drains the buffer (:meth:`drain_writes`) and
        persists it in one transaction with the matching journal
        acknowledgement.  That atomicity is what collapses the
        executed-but-unacknowledged crash window: after a crash, either
        both the bound and the ack are durable or neither is, so
        recovery's re-execution always starts from the same prior the
        original execution saw.
        """
        with self._lock:
            if self._buffered is None:
                self._buffered = []

    def drain_writes(self) -> list[tuple[str, str, dict[str, Any]]]:
        """Take every buffered ``(user_id, spec_name, payload)`` put.

        Returns ``[]`` in write-through mode.  The caller owns the
        drained writes and must persist them (a journaled gateway lands
        them inside the ack transaction; shutdown flushes stragglers).
        """
        with self._lock:
            if self._buffered is None:
                return []
            drained, self._buffered = self._buffered, []
            return drained

    # -- internals -----------------------------------------------------------
    def _persist(self, user_id: str, spec: SecretSpec) -> None:
        if self.store is None:
            return
        payload = self.export_bound(user_id, spec)
        with self._lock:
            if self._buffered is not None:
                self._buffered.append((user_id, spec.name, payload))
                return
        self.store.put_ledger_bound(user_id, spec.name, payload)

    def _sound_prior(self, account: BudgetAccount, qinfo: QInfo) -> AbstractDomain:
        bound = account.sound.get(qinfo.secret.name)
        return self._top(qinfo) if bound is None else bound

    def _intern(self, bound: AbstractDomain) -> AbstractDomain:
        """The canonical object equal to ``bound`` (``bound`` if new)."""
        key = _bound_key(bound)
        canonical = self._interned.get(key)
        if canonical is None:
            self._interned[key] = canonical = bound
        return canonical

    def _recall(self, key: tuple, pins: tuple) -> Any:
        """The memoized value for ``key`` if computed from ``pins``."""
        entry = self._memo.get(key)
        if entry is None:
            return None
        pinned, value = entry
        for held, given in zip(pinned, pins):
            if held is not given:
                return None
        return value

    def _remember(self, key: tuple, pins: tuple, value: Any) -> Any:
        """Store ``value`` under ``key``, pinning ``pins``; FIFO-bounded."""
        memo = self._memo
        if key not in memo and len(memo) >= self._memo_capacity:
            memo.popitem(last=False)  # O(1): an OrderedDict, oldest first
        memo[key] = (pins, value)
        return value

    def _top(self, qinfo: QInfo) -> AbstractDomain:
        """The interned ⊤ prior of a query's domain (held while the query is).

        The weak reference's callback drops the entry when the query
        dies, before its ``id`` can be reused.
        """
        held = self._tops.get(id(qinfo))
        if held is None:
            tops, key = self._tops, id(qinfo)
            held = tops[key] = (
                weakref.ref(qinfo, lambda _ref: tops.pop(key, None)),
                self._intern(top_knowledge_for(qinfo)),
            )
        return held[1]

    def _spec(self, data: dict[str, Any]) -> SecretSpec:
        """The one decoded spec per canonical spec encoding."""
        key = canonical_json(data)
        spec = self._specs.get(key)
        if spec is None:
            spec = self._specs[key] = spec_from_json(data)
        return spec

    def _decode(self, encoded: dict[str, Any], spec: SecretSpec) -> AbstractDomain:
        """The interned bound an encoding denotes, decoded once per memo stay.

        Keyed by a digest of the canonical encoding, so the memo holds
        32 bytes per entry rather than the encoding itself.
        """
        digest = hashlib.sha256(canonical_json(encoded).encode("utf-8")).digest()
        key, pins = ("decode", id(spec), digest), (spec,)
        bound = self._recall(key, pins)
        if bound is None:
            bound = self._remember(
                key, pins, self._intern(domain_from_json(encoded, spec))
            )
        return bound

    def _meet(self, existing: AbstractDomain, incoming: AbstractDomain) -> AbstractDomain:
        """The interned ``intersect_knowledge(existing, incoming)``, memoized."""
        key, pins = ("meet", id(existing), id(incoming)), (existing, incoming)
        bound = self._recall(key, pins)
        if bound is None:
            bound = self._remember(
                key, pins, self._intern(intersect_knowledge(existing, incoming))
            )
        return bound

    def _transition(
        self, prior: AbstractDomain, qinfo: QInfo, mode: str, response: bool
    ) -> tuple[AbstractDomain, bool, ChargeRecord]:
        """One answer folded into a bound, memoized.

        Returns the interned posterior, whether it clears the floor, and
        the charge record.
        """
        key = (id(prior), id(qinfo), mode, response)
        pins = (prior, qinfo, self.floor)
        hit = self._recall(key, pins)
        if hit is None:
            true_ind, false_ind = qinfo.indset_pair(mode=mode)
            posterior = self._intern(
                intersect_knowledge(prior, true_ind if response else false_ind)
            )
            charge = ChargeRecord(
                query_name=qinfo.name,
                spec_name=qinfo.secret.name,
                response=response,
                prior_size=prior.size(),
                posterior_size=posterior.size(),
            )
            hit = self._remember(
                key, pins, (posterior, self.floor(posterior), charge)
            )
        return hit

    def _decision(
        self, allowed: bool, prior: AbstractDomain, qinfo: QInfo
    ) -> LedgerDecision:
        reason = "ok" if allowed else (
            f"budget exhausted: {self.floor.name} would fail on a "
            f"posterior of {qinfo.name!r}"
        )
        return LedgerDecision(allowed=allowed, reason=reason, remaining=prior.size())

    def _tally(self, account: BudgetAccount, decision: LedgerDecision) -> None:
        """Per-user telemetry of one admission (memo hit or not)."""
        self._observe_remaining(decision.remaining)
        if not decision.allowed:
            account.refusals += 1
            self._count_refusal()
