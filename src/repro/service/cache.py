"""The synthesis cache: compile once, serve many.

ANOSY's runtime claim is that posterior computation is free *because all
the expensive work happened at compile time*.  That claim is only useful
if the compile-time work itself is not repeated: a service registering the
same query for its Nth tenant should pay a dictionary lookup, not another
optimizer run.  :class:`SynthesisCache` provides exactly that seam.

Keys are content hashes over the *canonicalized* query AST (so
alpha-equivalent reorderings like ``a and b`` vs ``b and a`` share one
entry), the secret declaration, and every synthesis-relevant option.
Values are complete :class:`~repro.core.plugin.CompiledQuery` artifacts,
including proof certificates, and the whole cache round-trips through JSON
for warm starts (:meth:`save`/:meth:`load`).

The cache is deliberately *not* ambient: :func:`~repro.core.plugin.compile_query`
takes it as an explicit argument, so callers who want cold-compile numbers
(the Figure 5 measurements) simply pass none.

Persistence is pluggable: a :class:`CacheBackend` (e.g. the SQLite
:class:`~repro.server.store.SQLiteStore`) can be attached, making every
``put`` write through and warm-starting the in-memory table on attach —
the seam the sharded server runtime uses to survive restarts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Protocol

from repro.core.plugin import CompiledQuery, CompileOptions
from repro.lang.ast import BoolExpr
from repro.lang.canonical import canonicalize, expr_to_json, spec_to_json
from repro.lang.secrets import SecretSpec
from repro.service.serialize import compiled_query_from_json, compiled_query_to_json

__all__ = ["CacheBackend", "CacheStats", "SynthesisCache", "cache_key"]

#: Bumped whenever the artifact encoding changes incompatibly.
CACHE_FORMAT_VERSION = 2


def cache_key(
    query: BoolExpr, secret: SecretSpec, options: CompileOptions
) -> str:
    """The content hash identifying one synthesis problem.

    Everything that can change the synthesized artifact participates:
    the canonical query, the secret bounds, the abstract domain and its
    ``k``, the approximation modes (as a set — order is presentational),
    whether verification ran, and the optimizer knobs.
    """
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "query": expr_to_json(canonicalize(query)),
        "secret": spec_to_json(secret),
        "options": {
            "domain": options.domain,
            "k": options.k,
            "modes": sorted(options.modes),
            "verify": options.verify,
            "synth": {
                "time_budget": options.synth.time_budget,
                "seed_pops": options.synth.seed_pops,
                "growth": options.synth.growth,
                # The solver engine cannot change *verified* artifacts, but
                # witness-dependent tie-breaks (e.g. which maximal box a
                # degenerate region grows from) may differ between engines
                # and thresholds, so both participate in the key.
                "use_kernels": options.synth.use_kernels,
                "vector_threshold": options.synth.vector_threshold,
                # Fused probes are decision-identical per round, but
                # incremental seeding changes which (equally valid)
                # maximal boxes later iterations find, so both ride the
                # key alongside the engine knobs.
                "fused_probes": options.synth.fused_probes,
                "incremental_seed": options.synth.incremental_seed,
                "legacy_splits": options.synth.legacy_splits,
            },
        },
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CacheBackend(Protocol):
    """Durable key → JSON-payload storage behind a :class:`SynthesisCache`.

    Payloads are :func:`~repro.service.serialize.compiled_query_to_json`
    encodings; keys are :func:`cache_key` content hashes.  The protocol is
    deliberately dumb — encoding/decoding stays in the cache, so a backend
    never needs to import the artifact model.
    """

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for a key, or ``None``."""
        ...  # pragma: no cover - protocol

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Durably store a payload under its key (last write wins)."""
        ...  # pragma: no cover - protocol

    def keys(self) -> Iterator[str]:
        """Iterate over the stored keys."""
        ...  # pragma: no cover - protocol

    def items(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """Iterate over ``(key, payload)`` pairs in one bulk read.

        Warm starts decode every entry; one scan beats a ``get`` round
        trip per key.
        """
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`SynthesisCache`."""

    hits: int
    misses: int

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0


@dataclass
class SynthesisCache:
    """A content-addressed store of compiled query artifacts.

    With a ``backend`` attached, entries are write-through persisted and
    the in-memory table is warm-started from the backend on construction
    (decoding is eager, so a restarted process serves its first request
    from memory, not from disk).
    """

    _entries: dict[str, CompiledQuery] = field(default_factory=dict)
    _hits: int = 0
    _misses: int = 0
    backend: CacheBackend | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.backend is not None:
            self.preload()

    # -- lookup ------------------------------------------------------------
    def key_for(
        self, query: BoolExpr, secret: SecretSpec, options: CompileOptions
    ) -> str:
        """Compute the cache key for a synthesis problem."""
        return cache_key(query, secret, options)

    def get(self, key: str) -> CompiledQuery | None:
        """Look up an artifact, counting the hit or miss.

        A key absent from memory but present in the backend (written by a
        concurrent process since the preload) counts as a hit and is
        promoted into memory.
        """
        entry = self._entries.get(key)
        if entry is None and self.backend is not None:
            payload = self.backend.get(key)
            if payload is not None:
                entry = compiled_query_from_json(payload)
                self._entries[key] = entry
        if entry is None:
            self._misses += 1
        else:
            self._hits += 1
        return entry

    def put(self, key: str, compiled: CompiledQuery) -> None:
        """Store an artifact under its key (last write wins)."""
        self._entries[key] = compiled
        if self.backend is not None:
            self.backend.put(key, compiled_query_to_json(compiled))

    def preload(self) -> int:
        """Decode every backend entry into memory; returns the count."""
        assert self.backend is not None, "preload() requires a backend"
        count = 0
        for key, payload in list(self.backend.items()):
            if key in self._entries or payload is None:
                continue
            self._entries[key] = compiled_query_from_json(payload)
            count += 1
        return count

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Uncounted presence test, consulting the backend too.

        A key another process persisted since the preload is promoted
        into memory here, so callers probing before a compile (the
        gateway's miss path) never re-synthesize what the fleet already
        paid for.
        """
        if key in self._entries:
            return True
        if self.backend is not None:
            payload = self.backend.get(key)
            if payload is not None:
                self._entries[key] = compiled_query_from_json(payload)
                return True
        return False

    def count_miss(self) -> None:
        """Count a miss that an uncounted :meth:`__contains__` probe found."""
        self._misses += 1

    def keys(self) -> Iterator[str]:
        """The stored keys."""
        return iter(self._entries)

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss counters."""
        return CacheStats(hits=self._hits, misses=self._misses)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0

    # -- persistence -------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """Encode the full cache (entries only; counters are per-process)."""
        return {
            "version": CACHE_FORMAT_VERSION,
            "entries": {
                key: compiled_query_to_json(compiled)
                for key, compiled in self._entries.items()
            },
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SynthesisCache":
        """Decode a cache encoded by :meth:`to_json`."""
        version = data.get("version")
        if version != CACHE_FORMAT_VERSION:
            raise ValueError(
                f"cache format version {version!r} != {CACHE_FORMAT_VERSION}"
            )
        cache = cls()
        for key, entry in data["entries"].items():
            cache._entries[key] = compiled_query_from_json(entry)
        return cache

    def save(self, path: str | Path) -> None:
        """Persist the cache to a JSON file (atomic enough for warm starts)."""
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "SynthesisCache":
        """Warm-start a cache from a JSON file written by :meth:`save`."""
        return cls.from_json(json.loads(Path(path).read_text()))
