"""Replay-stable request tracing for the serving runtime.

A trace reconstructs one downgrade's path through the stack — gateway
admission, shard serve, mirror-ledger fold — as a tree of named spans.
What makes this tracer unusual is the replay contract it inherits from
the journal (:mod:`repro.server.journal`):

* **identities are derived, never drawn.**  A trace id is a digest of
  the request's idempotency key and journal sequence number
  (:func:`trace_id_for`); a span id is a digest of its trace, parent,
  name, and per-parent occurrence index (:func:`span_id_for`).  No wall
  clock, no randomness — so re-executing a journal
  (:class:`~repro.server.replay.ReplaySession`) reproduces the same
  ids.  Span ids are pure, so they are derived lazily: recording keeps
  the inputs and digests them on first read (trees, digests, dumps),
  which keeps hashing off the serving path.
* **the canonical tree excludes transport.**  Spans carry a
  ``transport`` flag: gateway↔shard submission and the per-tick mirror
  fold are real timeline events worth showing an operator, but a
  replayed journal is served inline (no shards), so transport spans
  cannot be part of the bit-identity contract.  :meth:`Tracer.tree`
  returns only decision spans — name, attributes, children — and
  :meth:`Tracer.digest` chains their canonical JSON, which is the value
  replay compares.  Durations (``elapsed``) are wall-clock and likewise
  excluded from the canonical form.
* **attributes are decision-channel.**  Span attributes may carry only
  secret-independent facts (session id, query name, the pair-checked
  admission/authorization verdicts and refusal ``kind``) — never
  responses or knowledge sizes.  The secret-independence net in
  tests/obs/test_secret_independence.py holds trace trees to the same
  bit-identity standard as ``decision``-channel metrics.

Serving shards record no spans themselves: a ``downgrade_batch`` op
names which of its sessions are traced, the reply carries the decision
attributes of those sessions as per-span-name columns, and the gateway
records them as children of its own root spans (DESIGN.md §13).
:meth:`Span.to_json` / :meth:`Tracer.absorb` carry finished spans with
explicit ids between tracers (the replay generation fold).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Iterable, Mapping

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "span_id_for",
    "trace_id_for",
]

_TRACE_SEED = "anosy-trace-v1"


def trace_id_for(key: str, seq: int) -> str:
    """The deterministic trace id of one journaled request.

    ``key`` is the request's idempotency key (client-provided or the
    journal's ``auto/...`` key); ``seq`` its journal sequence number.
    Unjournaled servers pass a local monotone counter as ``seq`` with a
    synthetic key — still deterministic within a run, though only
    journaled histories carry the cross-restart replay guarantee.
    """
    raw = f"{_TRACE_SEED}|{key}|{seq}".encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:32]


def span_id_for(trace_id: str, parent_id: str | None, name: str, index: int) -> str:
    """The deterministic id of the ``index``-th ``name`` span under a parent."""
    raw = f"{_TRACE_SEED}|{trace_id}|{parent_id or ''}|{name}|{index}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


class Span:
    """One finished span.  Identity fields are deterministic; ``elapsed``
    is wall-clock and excluded from the canonical tree.

    The id is derived on first read: a span recorded by :class:`Tracer`
    keeps ``(trace_id, parent, name, index)`` and digests them with
    :func:`span_id_for` only when ``span_id`` (or a child's
    ``parent_id``) is read.  ``parent`` is the parent :class:`Span`
    itself or, for spans decoded from elsewhere, its id string.
    """

    __slots__ = (
        "trace_id", "name", "attrs", "transport", "elapsed", "index",
        "_parent", "_span_id",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str | None = None,
        parent_id: "Span | str | None" = None,
        name: str = "",
        attrs: Mapping[str, Any] | None = None,
        transport: bool = False,
        elapsed: float = 0.0,
        index: int = 0,
    ):
        self.trace_id = trace_id
        self.name = name
        self.attrs = {} if attrs is None else attrs
        self.transport = transport
        self.elapsed = elapsed
        #: Occurrence index among same-named siblings (0 when decoded).
        self.index = index
        self._parent = parent_id
        self._span_id = span_id

    @property
    def span_id(self) -> str:
        """This span's id, digested on first read."""
        if self._span_id is None:
            self._span_id = span_id_for(
                self.trace_id, self.parent_id, self.name, self.index
            )
        return self._span_id

    @property
    def parent_id(self) -> str | None:
        """The parent's id (``None`` for a root)."""
        parent = self._parent
        return parent.span_id if isinstance(parent, Span) else parent

    def _fields(self) -> tuple:
        return (
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.name,
            dict(self.attrs),
            self.transport,
            self.elapsed,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self) -> int:
        # Equal spans share trace and name; hashing on them keeps a span
        # usable as a dict key (the tracer's per-parent counters) without
        # digesting its id.
        return hash((self.trace_id, self.name))

    def __repr__(self) -> str:
        return (
            f"Span(trace_id={self.trace_id!r}, span_id={self.span_id!r}, "
            f"parent_id={self.parent_id!r}, name={self.name!r}, "
            f"attrs={dict(self.attrs)!r}, transport={self.transport!r}, "
            f"elapsed={self.elapsed!r})"
        )

    def to_json(self) -> dict[str, Any]:
        """Encode with explicit ids (the replay generation fold)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "transport": self.transport,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Span":
        """Decode a span encoded by :meth:`to_json`."""
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            attrs=dict(data.get("attrs", {})),
            transport=bool(data.get("transport", False)),
            elapsed=float(data.get("elapsed", 0.0)),
        )


class Tracer:
    """Collects finished spans per trace; bounded, thread-safe.

    ``capacity`` bounds the number of *traces* retained (oldest evicted
    first) so a long-lived gateway cannot grow without bound; the replay
    and secret-independence suites size it to cover their whole runs.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._lock = threading.Lock()
        #: Ordered oldest first; ``popitem(last=False)`` evicts in O(1),
        #: where ``next(iter(dict))`` would scan past deleted slots.
        self._spans: OrderedDict[str, list[Span]] = OrderedDict()
        #: Per-trace span-index counters, keyed ``(parent, name)``, so
        #: evicting a trace drops its counters in O(1).
        self._indices: dict[str, dict[tuple[Any, str], int]] = {}

    def __bool__(self) -> bool:
        return True

    # -- recording ---------------------------------------------------------
    def record(
        self,
        trace_id: str,
        name: str,
        *,
        parent_id: Span | str | None = None,
        transport: bool = False,
        elapsed: float = 0.0,
        **attrs: Any,
    ) -> Span:
        """Finish one span now and return it.

        A child names its parent by the parent's :class:`Span` (its id is
        then derived only when read); an id string works too, but name
        one parent one way, since the per-parent occurrence index is
        counted per form.  Recording computes no digest.
        """
        with self._lock:
            counters = self._indices.get(trace_id)
            if counters is None:
                counters = self._indices[trace_id] = {}
            index_key = (parent_id, name)
            index = counters.get(index_key, 0)
            counters[index_key] = index + 1
            span = Span(
                trace_id, None, parent_id, name, attrs, transport, elapsed, index
            )
            self._store(span)
            return span

    def absorb(self, spans: Iterable[Mapping[str, Any]]) -> None:
        """Fold piggybacked shard spans (already carrying their ids)."""
        with self._lock:
            for data in spans:
                self._store(Span.from_json(data))

    def _store(self, span: Span) -> None:
        bucket = self._spans.get(span.trace_id)
        if bucket is None:
            if len(self._spans) >= self.capacity:
                oldest, _ = self._spans.popitem(last=False)
                self._indices.pop(oldest, None)
            bucket = self._spans[span.trace_id] = []
        bucket.append(span)

    # -- reading -----------------------------------------------------------
    def trace_ids(self) -> list[str]:
        """Retained trace ids, oldest first."""
        with self._lock:
            return list(self._spans)

    def spans(self, trace_id: str) -> list[Span]:
        """All spans of one trace, in arrival order (transport included)."""
        with self._lock:
            return list(self._spans.get(trace_id, ()))

    def tree(self, trace_id: str) -> dict[str, Any] | None:
        """The canonical decision tree of one trace (see module doc).

        ``{"name", "attrs", "children"}`` with children sorted by
        ``(name, span_id)`` — a pure function of the decision spans, so
        byte-identical across a run and its replay.  Returns ``None``
        for unknown traces; multiple roots collapse under a synthetic
        ``"trace"`` node (should not happen in practice).
        """
        with self._lock:
            spans = list(self._spans.get(trace_id, ()))
        decision = [span for span in spans if not span.transport]
        if not decision:
            return None
        by_parent: dict[str | None, list[Span]] = {}
        ids = {span.span_id for span in decision}
        for span in decision:
            parent = span.parent_id if span.parent_id in ids else None
            by_parent.setdefault(parent, []).append(span)

        def build(span: Span) -> dict[str, Any]:
            children = sorted(
                by_parent.get(span.span_id, ()),
                key=lambda child: (child.name, child.span_id),
            )
            return {
                "name": span.name,
                "attrs": {k: span.attrs[k] for k in sorted(span.attrs)},
                "children": [build(child) for child in children],
            }

        roots = sorted(
            by_parent.get(None, ()), key=lambda span: (span.name, span.span_id)
        )
        if len(roots) == 1:
            return build(roots[0])
        return {
            "name": "trace",
            "attrs": {},
            "children": [build(root) for root in roots],
        }

    def trees(self) -> dict[str, dict[str, Any]]:
        """Canonical trees of every retained trace, keyed by trace id."""
        return {
            trace_id: tree
            for trace_id in self.trace_ids()
            if (tree := self.tree(trace_id)) is not None
        }

    def canonical(self, trace_id: str) -> str | None:
        """The canonical JSON bytes of one trace tree."""
        tree = self.tree(trace_id)
        if tree is None:
            return None
        return json.dumps(tree, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """One digest over every retained trace tree, in trace-id order.

        The unit the replay conformance check compares: equal digests
        mean byte-identical canonical trees for byte-identical trace-id
        sets.
        """
        hasher = hashlib.sha256(_TRACE_SEED.encode("utf-8"))
        for trace_id in sorted(self.trace_ids()):
            canonical = self.canonical(trace_id)
            if canonical is None:
                continue
            hasher.update(trace_id.encode("utf-8"))
            hasher.update(b"|")
            hasher.update(canonical.encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()


class NullTracer:
    """The no-op tracer (falsy, like the null registry)."""

    def __bool__(self) -> bool:
        return False

    def record(self, trace_id: str, name: str, **kwargs: Any) -> None:
        """Drop the span."""
        return None

    def absorb(self, spans: Iterable[Mapping[str, Any]]) -> None:
        """Drop the spans."""

    def trace_ids(self) -> list[str]:
        """Always empty."""
        return []

    def spans(self, trace_id: str) -> list:
        """Always empty."""
        return []

    def tree(self, trace_id: str) -> None:
        """Always ``None``."""
        return None

    def trees(self) -> dict:
        """Always empty."""
        return {}

    def canonical(self, trace_id: str) -> None:
        """Always ``None``."""
        return None

    def digest(self) -> str:
        """The empty-tracer digest (equal across all null tracers)."""
        return hashlib.sha256(_TRACE_SEED.encode("utf-8")).hexdigest()


#: The shared no-op tracer.
NULL_TRACER = NullTracer()
