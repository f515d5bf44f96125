"""The gateway's fold point for all telemetry: one registry, one tracer.

A :class:`~repro.server.gateway.DeclassificationServer` owns exactly one
:class:`MetricsHub`.  Gateway-side layers (journal, store, ledger,
supervisor, session manager, edge) record straight into
``hub.registry`` / ``hub.tracer``; serving-shard processes record into
their own process-local registry and piggyback a drained
:meth:`report <repro.obs.metrics.MetricsRegistry.drain>` on every batch
response, which the gateway folds with :meth:`MetricsHub.absorb`
(their decision spans come home as columns the gateway records under
its own root spans).

The hub also keeps a bounded idempotency-key → trace-id map so the HTTP
edge's access log can stamp each request line with the trace the
gateway assigned it (the edge never computes trace ids itself — journal
sequence numbers live behind the gateway).

``MetricsHub(enabled=False)`` swaps in the null registry and tracer:
instrumented code paths still run, recordings vanish, and
``hub.enabled`` lets hot paths skip building piggyback fragments — the
uninstrumented baseline the ``serving_observed`` benchmark gate
compares against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Mapping

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["MetricsHub"]


class MetricsHub:
    """One registry + one tracer + the shard-report fold point."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        key_capacity: int = 4096,
    ):
        self.enabled = enabled
        if enabled:
            self.registry: Any = registry or MetricsRegistry()
            self.tracer: Any = tracer or Tracer()
        else:
            self.registry = NULL_REGISTRY
            self.tracer = NULL_TRACER
        self._key_capacity = key_capacity
        self._key_lock = threading.Lock()
        self._key_traces: OrderedDict[str, str] = OrderedDict()

    # -- shard piggyback ---------------------------------------------------
    def absorb(self, obs: Mapping[str, Any] | None) -> None:
        """Fold one batch response's ``obs`` metric deltas.

        The fragment's span columns name the gateway's own root spans,
        so the gateway records those itself.
        """
        if not obs or not self.enabled:
            return
        metrics = obs.get("metrics")
        if metrics:
            self.registry.absorb(metrics)

    # -- idempotency-key → trace-id map ------------------------------------
    def bind_key(self, key: str | None, trace_id: str) -> None:
        """Remember which trace a client idempotency key resolved to."""
        if key is None or not self.enabled:
            return
        with self._key_lock:
            if key not in self._key_traces and (
                len(self._key_traces) >= self._key_capacity
            ):
                self._key_traces.popitem(last=False)  # O(1), oldest first
            self._key_traces[key] = trace_id

    def trace_for_key(self, key: str | None) -> str | None:
        """The trace id bound to an idempotency key, if still retained."""
        if key is None:
            return None
        with self._key_lock:
            return self._key_traces.get(key)
