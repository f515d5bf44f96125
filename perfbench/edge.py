"""The HTTP edge phase of ``fleet_local``'s traced run.

The server process (``edge_server.py``) is journaled on SQLite, serves
on the gateway's own worker threads, and keeps observation on.  A client
process (``edge_client.py``) drives it over two connections in a seeded
Poisson open loop: a short untimed warm-up, then a traced phase at
:data:`RATE` requests/s, about a sixth of the edge's closed-loop
capacity on a 2-CPU machine.  Each tick batches one or two requests, so
the edge, the thread hop, tick wait and per-request journaling dominate.
The phase gives two per-layer numbers: ``edge.self_ms_p50`` (client
latency minus the gateway's ``downgrade``) and ``loadgen.late_ms_p99``
(how late the generator sent).

Open-loop latency over HTTP is not an end-to-end metric: on a shared
2-CPU host its run-to-run spread was several times the benchmark's
bound (see perfbench/README.md).

Outputs are checked on a twin gateway that replays every session's
requests in order with the scalar reference loop.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import common
import edge_server
from common import HERE, note, work_dir

RATE = 30.0
WARM_SECONDS = 1.0
#: Length of the traced phase.
SECONDS = 4.0
SESSIONS = 100
#: Seconds to wait for a child process before giving up on it.
CHILD_TIMEOUT = 120.0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(common.ROOT / "src")
    return env


class ServerProcess:
    """One ``edge_server.py`` child, driven through its stdin/stdout."""

    def __init__(self, store: Path, seed: int, warm_sessions: int):
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "edge_server.py"),
                str(store),
                str(seed),
                str(warm_sessions),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=_env(),
        )
        line = self.proc.stdout.readline().split()
        if line[:1] != ["READY"]:
            self.kill()
            raise RuntimeError(f"edge server did not start ({line!r})")
        self.port = int(line[1])

    def command(self, text: str) -> str:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def stop(self, spans: Path) -> dict:
        report = json.loads(self.command(f"stop {spans}"))
        self.proc.stdin.close()
        self.proc.wait(CHILD_TIMEOUT)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(CHILD_TIMEOUT)


def client(port: int, seed: int, seconds: float, phase: str, out_dir: Path) -> dict:
    """Run one client process to completion; returns what it sent and got."""
    out = out_dir / f"{phase}.json"
    subprocess.run(
        [
            sys.executable,
            str(HERE / "edge_client.py"),
            str(port),
            str(seed),
            str(RATE),
            str(seconds),
            str(SESSIONS),
            phase,
            str(out),
        ],
        check=True,
        env=_env(),
        timeout=CHILD_TIMEOUT,
    )
    with open(out) as fh:
        return json.load(fh)


def downgrades(log: dict) -> list[dict]:
    return [item for item in log["timed"] if item["op"] == "downgrade"]


def _ok(item: dict) -> bool:
    return 200 <= item["status"] < 300


async def twin_mismatches(logs: list[dict]) -> int:
    """Replay every session's requests on a scalar-reference twin; count differences."""
    from repro.service.serialize import downgrade_result_to_json

    twin = common.twin()
    await common.register_zones(twin, common.ZONES)
    the_spec = common.spec()
    failed = 0
    for log in logs:
        for item in log["opens"] + log["timed"]:
            if not _ok(item):
                failed += 1
            elif item["op"] == "open":
                twin.open_session(
                    item["session_id"],
                    (the_spec, tuple(item["value"])),
                    user_id=item["user_id"],
                )
            elif item["op"] == "close":
                twin.close_session(item["session_id"])
            else:
                result = await twin.downgrade(item["session_id"], item["query_name"])
                failed += downgrade_result_to_json(result) != item["body"]
    twin.shutdown()
    return failed


async def edge_phase(seed: int, scale: float = 1.0) -> dict:
    """Serve the traced open-loop phase; returns attempted, failed and the two layer metrics."""
    import tracing

    workdir = work_dir(f"edge-{seed}")
    warm_sessions = max(8, int(edge_server.WARM_SESSIONS * scale))
    server = ServerProcess(workdir / "store.db", seed, warm_sessions)
    try:
        logs = [client(server.port, seed, WARM_SECONDS, "warm", workdir)]
        server.command("trace")
        traced = client(server.port, seed, SECONDS, "traced", workdir)
        logs.append(traced)
        report = server.stop(common.OUT / f"edge-seed{seed}.jsonl")
    finally:
        server.kill()
    attempted = sum(len(log["opens"]) + len(log["timed"]) for log in logs)
    failed = await twin_mismatches(logs)
    note(f"edge: twin (scalar reference): {failed} of {attempted} requests differ or failed")

    spans = tracing.load(Path(report["spans"]))
    served = {s.rid: s.ms for s in spans if s.name == "gateway.downgrade"}
    own = [d["service_ms"] - served[d["key"]] for d in downgrades(traced) if d["key"] in served]
    late = [d["late_ms"] for d in traced["timed"] if "late_ms" in d]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "edge.self_ms_p50": statistics.median(own) if own else 0.0,
            "loadgen.late_ms_p99": common.percentile(late, 99.0) if late else 0.0,
        },
    }
