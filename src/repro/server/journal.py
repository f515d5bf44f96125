"""The write-ahead request journal: crash consistency for the gateway.

PR 7 made the runtime survive its *shards*; this module makes it survive
its *gateway*.  The durable store already holds everything the runtime
must not lose slowly (artifacts, ledger bounds); the journal holds what
it must not lose *mid-request*: every state-changing request
(configure / compile / open / close / epoch / downgrade) is appended —
with a client-supplied **idempotency key** and a monotone sequence
number — *before* it executes, and acknowledged with a digest of its
outcome after the durable-mirror fold.  Three properties fall out:

* **exactly-once effects over at-least-once delivery** — a duplicate
  idempotency key short-circuits to the recorded response instead of
  re-executing, so a client that retries after a lost response never
  double-charges a budget (this subsumes the ``duplicate_delivery``
  fault at the network edge);
* **crash recovery** — after a gateway death, the unacknowledged
  journal suffix is re-applied through the same idempotent machinery
  (:meth:`DeclassificationServer.recover_from_journal
  <repro.server.gateway.DeclassificationServer.recover_from_journal>`);
  ledger folds are monotone intersections, so a request that executed
  but never acked converges to the same ledger state on re-execution;
* **deterministic replay** — the acknowledged prefix, re-executed in
  sequence order against a fresh gateway, must reproduce every outcome
  digest bit-for-bit (:class:`~repro.server.replay.ReplaySession`).

The storage lives in :class:`~repro.server.store.SQLiteStore`'s
``request_journal`` table (independently format-versioned, like
``ledger_bounds``); :class:`MemoryJournalBackend` provides the same
contract for store-less tests.  :class:`RequestJournal` is the typed
wrapper both the gateway and the replay tool speak.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.obs.metrics import NULL_REGISTRY
from repro.service.serialize import canonical_json, json_digest

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "JournalEntry",
    "JournalBackend",
    "IdempotencyKeyReused",
    "MemoryJournalBackend",
    "RequestJournal",
    "JournalState",
    "chain_digest",
    "live_state",
]

#: Version of the journal row encoding.  Bumped when the payload/outcome
#: codecs change incompatibly; a store written by a different version
#: refuses to open (see ``SQLiteStore._check_version``).
JOURNAL_FORMAT_VERSION = 1

#: Seed of every chained audit digest, so an empty journal has a
#: well-defined digest and chains never collide with raw sha256 output.
_CHAIN_SEED = "anosy-journal-v1"


class IdempotencyKeyReused(ValueError):
    """A key journaled for one request was sent with a different request."""


@dataclass(frozen=True)
class JournalEntry:
    """One journaled request: identity, payload, and (once acked) outcome.

    ``status`` is ``"pending"`` from append until acknowledgement and
    ``"done"`` after; ``outcome_digest`` / ``response`` are ``None``
    exactly while pending.  ``response`` is the full recorded response
    payload returned to duplicate deliveries; ``outcome_digest`` covers
    only the *deterministic* outcome encoding (see DESIGN.md §12 for
    what is pinned and what may differ).
    """

    seq: int
    key: str
    kind: str
    payload: dict[str, Any]
    status: str
    outcome_digest: str | None = None
    response: dict[str, Any] | None = None


#: Raw backend row: (seq, key, kind, payload_json, status, digest, response_json).
_Row = tuple[int, str, str, str, str, str | None, str | None]


@runtime_checkable
class JournalBackend(Protocol):
    """Durable storage contract behind :class:`RequestJournal`.

    :class:`~repro.server.store.SQLiteStore` implements this against the
    ``request_journal`` table; :class:`MemoryJournalBackend` against a
    dict.  All methods are append/read — rows are never mutated except
    by :meth:`journal_ack` (pending → done) and never deleted except by
    :meth:`journal_compact`.
    """

    def journal_append(self, key: str, kind: str, payload_json: str) -> _Row:
        """Insert a pending row under *key*, or return the existing row."""
        ...

    def journal_append_many(
        self, items: list[tuple[str, str, str]]
    ) -> list[_Row]:
        """Batched :meth:`journal_append` (one durable transaction)."""
        ...

    def journal_ack(self, seq: int, digest: str, response_json: str) -> None:
        """Mark row *seq* done, recording its outcome digest and response."""
        ...

    def journal_ack_many(self, items: list[tuple[int, str, str]]) -> None:
        """Batched :meth:`journal_ack` (one durable transaction)."""
        ...

    def journal_lookup(self, key: str) -> _Row | None:
        """The row under *key*, or ``None``."""
        ...

    def journal_entries(self) -> list[_Row]:
        """Every row, in sequence order."""
        ...

    def journal_next_seq(self) -> int:
        """One past the highest sequence number ever issued."""
        ...

    def journal_compact(self, upto_seq: int) -> int:
        """Delete acknowledged rows with ``seq <= upto_seq``; return count."""
        ...


class MemoryJournalBackend:
    """An in-process :class:`JournalBackend` for store-less deployments.

    Same contract, no durability: a journal on this backend still gives
    exactly-once effects and deterministic replay *within* a process
    lifetime, which is what tests and single-shot tools need.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows: dict[str, list[Any]] = {}
        self._next_seq = 1

    def journal_append(self, key: str, kind: str, payload_json: str) -> _Row:
        """Insert a pending row under *key*, or return the existing row."""
        return self.journal_append_many([(key, kind, payload_json)])[0]

    def journal_append_many(
        self, items: list[tuple[str, str, str]]
    ) -> list[_Row]:
        """Batched append; duplicates within the batch resolve to one row."""
        out: list[_Row] = []
        with self._lock:
            for key, kind, payload_json in items:
                row = self._rows.get(key)
                if row is None:
                    row = [self._next_seq, key, kind, payload_json, "pending", None, None]
                    self._next_seq += 1
                    self._rows[key] = row
                out.append(tuple(row))
        return out

    def journal_ack(self, seq: int, digest: str, response_json: str) -> None:
        """Mark row *seq* done (idempotent)."""
        self.journal_ack_many([(seq, digest, response_json)])

    def journal_ack_many(self, items: list[tuple[int, str, str]]) -> None:
        """Batched ack."""
        with self._lock:
            by_seq = {row[0]: row for row in self._rows.values()}
            for seq, digest, response_json in items:
                row = by_seq.get(seq)
                if row is not None:
                    row[4], row[5], row[6] = "done", digest, response_json

    def journal_lookup(self, key: str) -> _Row | None:
        """The row under *key*, or ``None``."""
        with self._lock:
            row = self._rows.get(key)
            return None if row is None else tuple(row)

    def journal_entries(self) -> list[_Row]:
        """Every row, in sequence order."""
        with self._lock:
            return sorted(
                (tuple(row) for row in self._rows.values()), key=lambda r: r[0]
            )

    def journal_next_seq(self) -> int:
        """One past the highest sequence number ever issued."""
        with self._lock:
            return self._next_seq

    def journal_compact(self, upto_seq: int) -> int:
        """Delete acknowledged rows with ``seq <= upto_seq``."""
        with self._lock:
            doomed = [
                key
                for key, row in self._rows.items()
                if row[4] == "done" and row[0] <= upto_seq
            ]
            for key in doomed:
                del self._rows[key]
            return len(doomed)


def _decode_row(row: _Row, payload: dict[str, Any] | None = None) -> JournalEntry:
    """A row as an entry; *payload*, when given, is the row's decoded payload."""
    seq, key, kind, payload_json, status, digest, response_json = row
    return JournalEntry(
        seq=int(seq),
        key=key,
        kind=kind,
        payload=json.loads(payload_json) if payload is None else payload,
        status=status,
        outcome_digest=digest,
        response=None if response_json is None else json.loads(response_json),
    )


class RequestJournal:
    """The gateway's write-ahead log, typed.

    Wraps a :class:`JournalBackend` with the append/ack discipline the
    gateway follows (see DESIGN.md §12): :meth:`begin` *before*
    execution, :meth:`ack` after the durable-mirror fold, duplicate
    keys answered from the recorded entry (:meth:`begin`,
    :meth:`lookup`).  Also the spill sink
    for the bounded in-memory audit trail (:meth:`spill_audit`) and the
    source :class:`~repro.server.replay.ReplaySession` reads.
    """

    def __init__(self, backend: JournalBackend):
        self.backend = backend
        #: Where append/ack latency and volume land; the owning gateway
        #: swaps in its hub's registry (see ``DeclassificationServer``).
        self.metrics: Any = NULL_REGISTRY
        self._lock = threading.Lock()
        # Auto-keys (server-generated, for callers that did not supply
        # one) count up from a boot floor above both the sequence
        # high-water mark and every auto key already journaled, so a
        # restarted process never reissues a dead process's keys (which
        # would silently short-circuit to the dead request's response).
        # :meth:`key_for` keeps the floor above caller-supplied auto
        # keys too, so an issued key is always fresh.
        floor = backend.journal_next_seq()
        for row in backend.journal_entries():
            number = _auto_number(row[1])
            if number is not None:
                floor = max(floor, number + 1)
        self._auto = floor

    # -- write path --------------------------------------------------------
    def auto_key(self, kind: str) -> str:
        """A fresh server-generated idempotency key for one request."""
        with self._lock:
            n = self._auto
            self._auto += 1
        return f"auto/{kind}/{n}"

    def key_for(self, key: str | None, kind: str) -> str:
        """The idempotency key one request journals under.

        No key (or an empty one) gets a fresh :meth:`auto_key`.  A
        caller-supplied key in the ``auto/`` namespace raises the
        auto-key floor past itself, so the server never issues that key
        to another request later (which would hand that request this
        caller's recorded response).  Such keys are accepted, not
        rejected: recovery and replay resubmit recorded auto keys.
        """
        if not key:
            return self.auto_key(kind)
        number = _auto_number(key)
        if number is not None:
            with self._lock:
                self._auto = max(self._auto, number + 1)
        return key

    def begin(self, key: str, kind: str, payload: dict[str, Any]) -> JournalEntry:
        """Journal one request before executing it.

        Returns the (new or pre-existing) entry.  A returned entry with
        ``status == "done"`` means this key already executed to
        acknowledgement: short-circuit to its ``response`` instead of
        executing again.  A key already journaled for a different
        request raises :class:`IdempotencyKeyReused` (see
        :meth:`begin_many`).
        """
        return self.begin_many([(key, kind, payload)])[0]

    def begin_many(
        self, items: list[tuple[str, str, dict[str, Any]]]
    ) -> list[JournalEntry]:
        """Batched :meth:`begin` — one durable transaction per tick.

        Every returned row holds the kind and payload it was handed, and
        gets that payload back as is, not a decoding of the stored text.
        A key whose row holds a different request — done or pending —
        raises :class:`IdempotencyKeyReused` rather than answering with
        (or acknowledging onto) the other request's row; the rest of the
        batch is journaled by then.
        """
        if not items:
            return []
        start = time.perf_counter()
        blobs = [canonical_json(payload) for _key, _kind, payload in items]
        rows = self.backend.journal_append_many(
            [(key, kind, blob) for (key, kind, _payload), blob in zip(items, blobs)]
        )
        metrics = self.metrics
        if metrics:
            metrics.histogram(
                "anosy_journal_append_seconds",
                "Durable write-ahead append latency, per begin transaction.",
                channel="timing",
            ).observe(time.perf_counter() - start)
            metrics.counter(
                "anosy_journal_appends_total",
                "Requests journaled before execution.",
            ).inc(len(rows))
        for row, (key, kind, _payload), blob in zip(rows, items, blobs):
            _check_reuse(row, key, kind, blob)
        return [
            _decode_row(row, payload)
            for row, (_key, _kind, payload) in zip(rows, items)
        ]

    def ack(
        self,
        seq: int,
        outcome: dict[str, Any],
        *,
        response: dict[str, Any] | None = None,
        bounds: list[tuple[str, str, dict[str, Any]]] | None = None,
    ) -> str:
        """Acknowledge one executed request; returns its outcome digest.

        *outcome* is the deterministic encoding the digest covers (and
        replay recomputes); *response* is what duplicate deliveries get
        back, defaulting to the outcome itself.  *bounds* are drained
        ledger-mirror writes to land atomically with the ack (see
        :meth:`ack_many`).
        """
        blob = canonical_json(outcome)
        digest = json_digest(blob)
        if response is not None:
            blob = canonical_json(response)
        self._ack_rows([(seq, digest, blob)], bounds)
        return digest

    def ack_many(
        self,
        items: list[tuple[int, dict[str, Any]]],
        *,
        bounds: list[tuple[str, str, dict[str, Any]]] | None = None,
    ) -> list[str]:
        """Batched :meth:`ack` (outcome doubles as the response).

        When *bounds* — ``(user_id, spec_name, payload)`` ledger-mirror
        writes drained from a buffering ledger — are supplied, they are
        written in the *same* transaction as the acks, which requires a
        backend speaking ``journal_ack_with_bounds`` (the SQLite store
        does).  That atomicity is the exactly-once guarantee.
        """
        if not items and not bounds:
            return []
        rows = []
        for seq, outcome in items:
            blob = canonical_json(outcome)
            rows.append((seq, json_digest(blob), blob))
        self._ack_rows(rows, bounds)
        return [digest for _seq, digest, _blob in rows]

    def _ack_rows(
        self,
        rows: list[tuple[int, str, str]],
        bounds: list[tuple[str, str, dict[str, Any]]] | None,
    ) -> None:
        start = time.perf_counter()
        if bounds:
            atomic = getattr(self.backend, "journal_ack_with_bounds", None)
            if atomic is None:
                raise ValueError(
                    "journal backend cannot ack atomically with ledger bounds"
                )
            atomic(rows, bounds)
        else:
            self.backend.journal_ack_many(rows)
        metrics = self.metrics
        if metrics:
            metrics.histogram(
                "anosy_journal_ack_seconds",
                "Durable acknowledgement latency, per ack transaction "
                "(ledger-mirror bounds included when fused).",
                channel="timing",
            ).observe(time.perf_counter() - start)
            metrics.counter(
                "anosy_journal_acks_total",
                "Executed requests acknowledged in the journal.",
            ).inc(len(rows))

    # -- read path ---------------------------------------------------------
    def entry(self, key: str) -> JournalEntry | None:
        """The entry under *key*, or ``None``."""
        row = self.backend.journal_lookup(key)
        return None if row is None else _decode_row(row)

    def lookup(
        self, key: str, kind: str, payload: dict[str, Any]
    ) -> JournalEntry | None:
        """The entry this request already has under *key*, or ``None``.

        Read-only :meth:`begin`: a key journaled for a different request
        raises :class:`IdempotencyKeyReused` (server-issued keys count
        up, so they are easy to guess).
        """
        row = self.backend.journal_lookup(key)
        if row is None:
            return None
        _check_reuse(row, key, kind, canonical_json(payload))
        return _decode_row(row, payload)

    def recorded_response(self, key: str) -> dict[str, Any] | None:
        """The recorded response for an *acknowledged* key, else ``None``."""
        entry = self.entry(key)
        if entry is None or entry.status != "done":
            return None
        return entry.response

    def entries(self) -> list[JournalEntry]:
        """Every entry, in sequence order."""
        return [_decode_row(row) for row in self.backend.journal_entries()]

    def pending(self) -> list[JournalEntry]:
        """The unacknowledged suffix, in sequence order."""
        return [e for e in self.entries() if e.status == "pending"]

    def __len__(self) -> int:
        """Number of journaled entries (pending and done)."""
        return len(self.backend.journal_entries())

    def audit_digest(self) -> str:
        """The chained digest over every acknowledged outcome, in order.

        This is the journal's one-line fingerprint of the run: replaying
        the journal must reproduce it exactly
        (:attr:`~repro.server.replay.ReplayReport.conforms`).
        """
        return chain_digest(
            e.outcome_digest
            for e in self.entries()
            if e.status == "done" and e.outcome_digest is not None
        )

    # -- maintenance -------------------------------------------------------
    def spill_audit(self, events: Iterable[Any]) -> None:
        """Persist audit events evicted from the in-memory ring.

        The sink for :class:`~repro.service.api.AuditTrail`'s overflow
        hook; events land in the backend's ``audit_spill`` table when it
        has one (the memory backend accepts and drops them).
        """
        sink = getattr(self.backend, "append_audit_spill", None)
        if sink is None:
            return
        sink(
            [
                (event.seq, event.kind, canonical_json(event.data))
                for event in events
            ]
        )

    def compact(self, upto_seq: int | None = None) -> int:
        """Drop acknowledged entries with ``seq <= upto_seq``; return count.

        Pending entries are never dropped (they are the recovery
        suffix).  Compaction narrows the duplicate-detection window: a
        client retrying a key older than the compaction horizon
        re-executes instead of short-circuiting — safe for effects
        (ledger folds are idempotent) but it may observe a fresher
        outcome, so compact behind the longest client retry window (see
        the operations runbook).
        """
        if upto_seq is None:
            entries = self.entries()
            done = [e.seq for e in entries if e.status == "done"]
            if not done:
                return 0
            upto_seq = max(done)
        return self.backend.journal_compact(upto_seq)


def _check_reuse(row: _Row, key: str, kind: str, payload_json: str) -> None:
    """Raise :class:`IdempotencyKeyReused` unless *row* holds this request."""
    if row[2] != kind or row[3] != payload_json:
        raise IdempotencyKeyReused(
            f"idempotency key {key!r} was journaled for a different request"
        )


def _auto_number(key: str) -> int | None:
    """The counter of a key in the ``auto/`` namespace, else ``None``."""
    if not key.startswith("auto/"):
        return None
    tail = key.rsplit("/", 1)[-1]
    return int(tail) if tail.isascii() and tail.isdigit() else None


def chain_digest(digests: Iterable[str]) -> str:
    """Fold a digest sequence into one order-sensitive chained digest."""
    acc = hashlib.sha256(_CHAIN_SEED.encode("utf-8")).hexdigest()
    for digest in digests:
        acc = hashlib.sha256((acc + digest).encode("utf-8")).hexdigest()
    return acc


@dataclass
class JournalState:
    """The live gateway state a journal prefix implies.

    ``compiles`` maps query name → latest compile payload; ``sessions``
    maps session id → its open payload, with closed sessions removed.
    Both recovery (rebuilding ephemeral state after a crash) and replay
    (rebuilding it at a restart boundary) are folds of this function.
    """

    compiles: dict[str, dict[str, Any]] = field(default_factory=dict)
    sessions: dict[str, dict[str, Any]] = field(default_factory=dict)

    def fold(self, entry: JournalEntry) -> None:
        """Fold one entry into the state."""
        if entry.kind == "compile":
            self.compiles[entry.payload["name"]] = entry.payload
        elif entry.kind == "open_session":
            self.sessions[entry.payload["session_id"]] = entry.payload
        elif entry.kind == "close_session":
            self.sessions.pop(entry.payload["session_id"], None)


def live_state(entries: Iterable[JournalEntry]) -> JournalState:
    """Fold a journal prefix into the ephemeral state it implies."""
    state = JournalState()
    for entry in sorted(entries, key=lambda e: e.seq):
        state.fold(entry)
    return state
