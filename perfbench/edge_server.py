"""The edge phase's server process: a journaled gateway behind HttpEdge.

    python3 perfbench/edge_server.py STORE SEED [WARM_SESSIONS]

Compiles the zone queries and warms the gateway in-process past its
bounded structures (1024 traces, 4096 idempotency keys), every query
served at least once.  It then serves HTTP on an ephemeral port, prints
``READY <port>``, and reads commands from stdin: ``trace`` installs the
span wrappers; ``stop SPANS`` shuts down, writes the spans recorded to
the file SPANS and prints one JSON line naming it.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import common

WARM_SESSIONS = 1000
WARM_WAVES = 5


async def warm_up(server, seed: int, sessions: int) -> None:
    """Compile, then closed-loop waves of in-process downgrades."""
    import random

    the_spec = common.spec()
    await common.register_zones(server, common.ZONES)
    rng = random.Random(seed)
    ids = [f"warm{n}" for n in range(sessions)]
    for sid in ids:
        server.open_session(sid, (the_spec, common.fresh_secret(rng)))
    await server.start()
    for _ in range(WARM_WAVES):
        await asyncio.gather(
            *(server.downgrade(sid, f"zone{rng.choice(common.ZONES)}") for sid in ids)
        )
    await server.stop()


def main() -> int:
    store_path, seed = sys.argv[1], int(sys.argv[2])
    sessions = int(sys.argv[3]) if len(sys.argv) > 3 else WARM_SESSIONS
    common.use_tree()
    from repro.server.edge import HttpEdge

    from tracing import Recorder

    server = common.build_server(store_path)
    asyncio.run(warm_up(server, seed, sessions))
    edge = HttpEdge(server)
    edge.start()
    print(f"READY {edge.address[1]}", flush=True)
    recorder = Recorder()
    for line in sys.stdin:
        command = line.split()
        if command == ["trace"]:
            recorder.install()
            print("OK", flush=True)
        elif command[:1] == ["stop"]:
            edge.stop()
            recorder.uninstall()
            recorder.dump(Path(command[1]))
            server.shutdown()
            server.store.close()
            print(json.dumps({"spans": command[1]}), flush=True)
            return 0
    edge.stop()
    server.shutdown()
    return 1


if __name__ == "__main__":
    sys.exit(main())
