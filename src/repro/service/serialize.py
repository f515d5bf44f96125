"""JSON codecs for compiled declassification artifacts.

The synthesis cache persists :class:`~repro.core.plugin.CompiledQuery`
values across processes (a "warm start"), so everything the compile step
produces — synthesized domains, proof certificates, timing metadata — needs
an exact JSON round trip.  Query ASTs and secret declarations reuse the
codecs of :mod:`repro.lang.canonical`; this module adds the geometric and
proof-carrying layers on top.

Serialized certificates record proofs that were *checked in some earlier
process*; loading one does not re-run the checker.  A warm-started artifact
is exactly as trustworthy as the file it came from, which is why
:meth:`~repro.service.cache.SynthesisCache.load` is explicit rather than
ambient.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # imported lazily at runtime to avoid import cycles
    from repro.monad.policy import QuantitativePolicy
    from repro.service.api import DowngradeResult

from repro.core.plugin import CompiledQuery, CompileOptions, ModeReport
from repro.core.qinfo import DomainPair, QInfo
from repro.core.synth import SynthOptions
from repro.domains.base import AbstractDomain
from repro.domains.box import IntervalDomain
from repro.domains.powerset import PowersetDomain
from repro.lang.canonical import (
    expr_from_json,
    expr_to_json,
    spec_from_json,
    spec_to_json,
)
from repro.lang.secrets import SecretSpec
from repro.lang.validate import validate_query
from repro.refine.checker import Certificate, CheckOutcome
from repro.solver.boxes import Box

__all__ = [
    "canonical_json",
    "payload_digest",
    "json_digest",
    "box_to_json",
    "box_from_json",
    "domain_to_json",
    "domain_from_json",
    "options_to_json",
    "options_from_json",
    "policy_to_json",
    "policy_from_json",
    "downgrade_result_to_json",
    "downgrade_result_from_json",
    "compiled_query_to_json",
    "compiled_query_from_json",
]


# ---------------------------------------------------------------------------
# Canonical encodings and digests
# ---------------------------------------------------------------------------


def canonical_json(payload: Any) -> str:
    """One canonical JSON encoding of a payload (sorted keys, no spaces).

    Everything that must be byte-stable across processes and across time
    — journal entries, outcome digests, replay conformance — goes
    through this one encoder, so "the same payload" always means "the
    same bytes".  Inputs must already be JSON-safe (the codecs in this
    module produce exactly that).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """The sha256 hex digest of a payload's canonical JSON encoding.

    This is the unit the request journal records per executed request
    and the unit :class:`~repro.server.replay.ReplaySession` compares:
    two outcomes are "bit-identical" iff their digests match.
    """
    return json_digest(canonical_json(payload))


def json_digest(text: str) -> str:
    """:func:`payload_digest` of a payload whose :func:`canonical_json`
    encoding is ``text`` (for callers that also keep the encoding)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Compile options
# ---------------------------------------------------------------------------


def options_to_json(options: CompileOptions) -> dict[str, Any]:
    """Encode compile options (exact round trip).

    Every field of :class:`~repro.core.plugin.CompileOptions` and its
    nested :class:`~repro.core.synth.SynthOptions` is written out — the
    sharded worker pool ships compile jobs across process boundaries as
    JSON, so a field silently dropped here would make remote compiles
    diverge from local ones (and from the cache key, which hashes the
    same knobs).
    """
    synth = options.synth
    return {
        "domain": options.domain,
        "k": options.k,
        "modes": list(options.modes),
        "verify": options.verify,
        "synth": {
            "time_budget": synth.time_budget,
            "seed_pops": synth.seed_pops,
            "growth": synth.growth,
            "use_kernels": synth.use_kernels,
            "vector_threshold": synth.vector_threshold,
            "fused_probes": synth.fused_probes,
            "incremental_seed": synth.incremental_seed,
            "legacy_splits": synth.legacy_splits,
        },
    }


def options_from_json(data: dict[str, Any]) -> CompileOptions:
    """Decode compile options encoded by :func:`options_to_json`."""
    synth = data["synth"]
    time_budget = synth["time_budget"]
    vector_threshold = synth["vector_threshold"]
    return CompileOptions(
        domain=data["domain"],
        k=int(data["k"]),
        modes=tuple(data["modes"]),
        verify=bool(data["verify"]),
        synth=SynthOptions(
            time_budget=None if time_budget is None else float(time_budget),
            seed_pops=int(synth["seed_pops"]),
            growth=synth["growth"],
            use_kernels=bool(synth["use_kernels"]),
            vector_threshold=(
                None if vector_threshold is None else int(vector_threshold)
            ),
            fused_probes=bool(synth["fused_probes"]),
            incremental_seed=bool(synth["incremental_seed"]),
            legacy_splits=bool(synth["legacy_splits"]),
        ),
    )


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def policy_to_json(policy: "QuantitativePolicy") -> dict[str, Any]:
    """Encode a combinator-built policy for a process boundary.

    Only policies carrying a structural ``encoding`` (everything built
    from :func:`~repro.monad.policy.size_above`,
    :func:`~repro.monad.policy.size_at_least`,
    :func:`~repro.monad.policy.all_of`,
    :func:`~repro.monad.policy.any_of`) can cross processes — a policy
    wrapping an opaque lambda raises ``ValueError`` here rather than
    silently enforcing something different on the far side.
    """
    if policy.encoding is None:
        raise ValueError(
            f"policy {policy.name!r} has no structural encoding and cannot "
            "cross a process boundary; build it from the repro.monad.policy "
            "combinators"
        )
    return policy.encoding


def policy_from_json(data: dict[str, Any]) -> "QuantitativePolicy":
    """Decode a policy encoded by :func:`policy_to_json`."""
    from repro.monad.policy import all_of, any_of, size_above, size_at_least

    kind = data["kind"]
    if kind == "size_above":
        return size_above(int(data["threshold"]))
    if kind == "size_at_least":
        return size_at_least(int(data["threshold"]))
    if kind == "all_of":
        return all_of(*(policy_from_json(part) for part in data["parts"]))
    if kind == "any_of":
        return any_of(*(policy_from_json(part) for part in data["parts"]))
    raise ValueError(f"unknown policy kind {kind!r}")


# ---------------------------------------------------------------------------
# Downgrade results (the serving-job codec, next to the compile codec)
# ---------------------------------------------------------------------------


def downgrade_result_to_json(result: "DowngradeResult") -> dict[str, Any]:
    """Encode one serving outcome for the shard→gateway boundary.

    The sharded serving tier executes downgrade batches inside worker
    processes (:func:`repro.server.workers.serve_payload`); results come
    back through this codec, exactly like compile artifacts come back
    through :func:`compiled_query_to_json`.
    """
    return {
        "session_id": result.session_id,
        "query_name": result.query_name,
        "authorized": result.authorized,
        "response": result.response,
        "reason": result.reason,
        "knowledge_size": result.knowledge_size,
    }


def downgrade_result_from_json(data: dict[str, Any]) -> "DowngradeResult":
    """Decode a result encoded by :func:`downgrade_result_to_json`."""
    from repro.service.api import DowngradeResult

    response = data["response"]
    knowledge_size = data["knowledge_size"]
    return DowngradeResult(
        session_id=data["session_id"],
        query_name=data["query_name"],
        authorized=bool(data["authorized"]),
        response=None if response is None else bool(response),
        reason=data["reason"],
        knowledge_size=None if knowledge_size is None else int(knowledge_size),
    )


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def box_to_json(box: Box) -> tuple[tuple[int, int], ...]:
    """Encode a box as its ``(lo, hi)`` pairs (JSON arrays when dumped).

    The box's own bounds tuple, shared rather than copied: encodings
    are read-only.
    """
    return box.bounds


def box_from_json(data: list[list[int]]) -> Box:
    """Decode a box encoded by :func:`box_to_json`."""
    return Box(tuple((int(lo), int(hi)) for lo, hi in data))


def domain_to_json(domain: AbstractDomain) -> dict[str, Any]:
    """Encode an interval or powerset domain (the spec is stored once,
    at the artifact level, not per domain)."""
    if isinstance(domain, IntervalDomain):
        return {
            "kind": "interval",
            "box": None if domain.box is None else box_to_json(domain.box),
        }
    if isinstance(domain, PowersetDomain):
        return {
            "kind": "powerset",
            "include": [box_to_json(box) for box in domain.include],
            "exclude": [box_to_json(box) for box in domain.exclude],
        }
    raise TypeError(f"unsupported domain type {type(domain)}")


def domain_from_json(data: dict[str, Any], spec: SecretSpec) -> AbstractDomain:
    """Decode a domain encoded by :func:`domain_to_json`."""
    kind = data["kind"]
    if kind == "interval":
        box = data["box"]
        return IntervalDomain(spec, None if box is None else box_from_json(box))
    if kind == "powerset":
        return PowersetDomain(
            spec,
            tuple(box_from_json(box) for box in data["include"]),
            tuple(box_from_json(box) for box in data["exclude"]),
        )
    raise ValueError(f"unknown domain kind {kind!r}")


def _pair_to_json(pair: DomainPair | None) -> list[dict[str, Any]] | None:
    if pair is None:
        return None
    return [domain_to_json(pair[0]), domain_to_json(pair[1])]


def _pair_from_json(
    data: list[dict[str, Any]] | None, spec: SecretSpec
) -> DomainPair | None:
    if data is None:
        return None
    return (domain_from_json(data[0], spec), domain_from_json(data[1], spec))


# ---------------------------------------------------------------------------
# Proof certificates and reports
# ---------------------------------------------------------------------------


def _certificate_to_json(cert: Certificate) -> dict[str, Any]:
    return {
        "obligation": cert.obligation,
        "formula": cert.formula,
        "holds": cert.holds,
        "search_nodes": cert.search_nodes,
        "elapsed": cert.elapsed,
        "vector_boxes": cert.vector_boxes,
        "probe_fronts": cert.probe_fronts,
        "front_boxes": cert.front_boxes,
    }


def _certificate_from_json(data: dict[str, Any]) -> Certificate:
    return Certificate(
        obligation=data["obligation"],
        formula=data["formula"],
        holds=bool(data["holds"]),
        search_nodes=int(data["search_nodes"]),
        elapsed=float(data["elapsed"]),
        vector_boxes=int(data.get("vector_boxes", 0)),
        probe_fronts=int(data.get("probe_fronts", 0)),
        front_boxes=int(data.get("front_boxes", 0)),
    )


def _outcome_to_json(outcome: CheckOutcome | None) -> list[dict[str, Any]] | None:
    if outcome is None:
        return None
    return [_certificate_to_json(cert) for cert in outcome.certificates]


def _outcome_from_json(data: list[dict[str, Any]] | None) -> CheckOutcome | None:
    if data is None:
        return None
    return CheckOutcome(tuple(_certificate_from_json(cert) for cert in data))


def _report_to_json(report: ModeReport) -> dict[str, Any]:
    return {
        "mode": report.mode,
        "synth_time": report.synth_time,
        "verify_time": report.verify_time,
        "timed_out": report.timed_out,
        "true_outcome": _outcome_to_json(report.true_outcome),
        "false_outcome": _outcome_to_json(report.false_outcome),
        "solver_nodes": report.solver_nodes,
        "solver_splits": report.solver_splits,
        "vector_boxes": report.vector_boxes,
        "fused_rounds": report.fused_rounds,
        "probe_fronts": report.probe_fronts,
        "front_boxes": report.front_boxes,
    }


def _report_from_json(data: dict[str, Any]) -> ModeReport:
    return ModeReport(
        mode=data["mode"],
        synth_time=float(data["synth_time"]),
        verify_time=float(data["verify_time"]),
        timed_out=bool(data["timed_out"]),
        true_outcome=_outcome_from_json(data["true_outcome"]),
        false_outcome=_outcome_from_json(data["false_outcome"]),
        solver_nodes=int(data.get("solver_nodes", 0)),
        solver_splits=int(data.get("solver_splits", 0)),
        vector_boxes=int(data.get("vector_boxes", 0)),
        fused_rounds=int(data.get("fused_rounds", 0)),
        probe_fronts=int(data.get("probe_fronts", 0)),
        front_boxes=int(data.get("front_boxes", 0)),
    )


# ---------------------------------------------------------------------------
# Compiled queries
# ---------------------------------------------------------------------------


def compiled_query_to_json(compiled: CompiledQuery) -> dict[str, Any]:
    """Encode a compiled query artifact for persistence."""
    qinfo = compiled.qinfo
    return {
        "name": qinfo.name,
        "query": expr_to_json(qinfo.query),
        "secret": spec_to_json(qinfo.secret),
        "under_indset": _pair_to_json(qinfo.under_indset),
        "over_indset": _pair_to_json(qinfo.over_indset),
        "reports": {mode: _report_to_json(r) for mode, r in compiled.reports.items()},
    }


def compiled_query_from_json(data: dict[str, Any]) -> CompiledQuery:
    """Decode an artifact encoded by :func:`compiled_query_to_json`.

    The validation report is recomputed (validation is cheap and purely
    syntactic); domains, certificates, and timings are restored verbatim.
    """
    secret = spec_from_json(data["secret"])
    query = expr_from_json(data["query"])
    qinfo = QInfo(
        name=data["name"],
        query=query,
        secret=secret,
        under_indset=_pair_from_json(data["under_indset"], secret),
        over_indset=_pair_from_json(data["over_indset"], secret),
    )
    return CompiledQuery(
        qinfo=qinfo,
        validation=validate_query(query, secret),
        reports={mode: _report_from_json(r) for mode, r in data["reports"].items()},
    )
