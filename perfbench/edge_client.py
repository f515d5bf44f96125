"""The ``edge`` workload's load generator: a seeded Poisson open loop over HTTP.

    python3 perfbench/edge_client.py PORT SEED RATE SECONDS SESSIONS PHASE OUT

Opens SESSIONS sessions (untimed), then sends requests at Poisson
arrival times of rate RATE for SECONDS: 90% downgrades, 10% a session
closed and reopened with a fresh secret as a new user.  Each session
belongs to one of two client threads, each with its own connection, so
a session's requests stay in order.  A request is timed from when it
was due; the generator's lateness is how long after its due time an
idle thread sent it.  Everything sent and received goes to OUT as JSON.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
import time

import common

CONNECTIONS = 2


def schedule(seed: int, rate: float, seconds: float, sessions: int, phase: str):
    """The seeded request stream: opens first, then timed operations."""
    rng = random.Random(f"{phase}/{seed}")
    counter = [0]

    def opened(slot: int) -> dict:
        counter[0] += 1
        return {
            "op": "open",
            "slot": slot,
            "session_id": f"{phase}-s{counter[0]}",
            "user_id": f"{phase}-u{counter[0]}",
            "value": list(common.fresh_secret(rng)),
        }

    live = [opened(slot) for slot in range(sessions)]
    opens = list(live)
    timed: list[dict] = []
    due = 0.0
    while True:
        due += rng.expovariate(rate)
        if due >= seconds:
            break
        slot = rng.randrange(sessions)
        if rng.random() < 0.9:
            timed.append(
                {
                    "op": "downgrade",
                    "slot": slot,
                    "due": due,
                    "session_id": live[slot]["session_id"],
                    "query_name": f"zone{rng.choice(common.ZONES)}",
                }
            )
        else:
            sid = live[slot]["session_id"]
            timed.append({"op": "close", "slot": slot, "due": due, "session_id": sid})
            live[slot] = opened(slot)
            timed.append(dict(live[slot], due=due))
    for n, item in enumerate(opens + timed):
        item["key"] = f"{phase}-{n}"
    return opens, timed


def send(conn: http.client.HTTPConnection, item: dict, spec_json: dict) -> tuple[int, dict]:
    headers = {"Idempotency-Key": item["key"], "Content-Type": "application/json"}
    if item["op"] == "downgrade":
        method, path = "POST", "/v1/downgrades"
        body = {"session_id": item["session_id"], "query_name": item["query_name"]}
    elif item["op"] == "open":
        method, path = "POST", "/v1/sessions"
        body = {
            "session_id": item["session_id"],
            "user_id": item["user_id"],
            "secret": {"spec": spec_json, "value": item["value"]},
        }
    else:
        method, path, body = "DELETE", f"/v1/sessions/{item['session_id']}", None
    payload = None if body is None else json.dumps(body).encode()
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"null")


def main() -> int:
    port, seed, rate, seconds, sessions, phase, out = sys.argv[1:8]
    common.use_tree()
    from repro.lang.canonical import spec_to_json

    spec_json = spec_to_json(common.spec())
    rate, seconds = float(rate), float(seconds)
    opens, timed = schedule(int(seed), rate, seconds, int(sessions), phase)
    conns = [
        http.client.HTTPConnection("127.0.0.1", int(port), timeout=60)
        for _ in range(CONNECTIONS)
    ]
    for item in opens:
        item["status"], item["body"] = send(conns[0], item, spec_json)

    lanes = [
        [item for item in timed if item["slot"] % CONNECTIONS == lane]
        for lane in range(CONNECTIONS)
    ]
    origin = time.perf_counter() + 0.05

    def drive(lane: int) -> None:
        idle_since = origin
        for item in lanes[lane]:
            due = origin + item["due"]
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            start = time.perf_counter()
            if idle_since <= due:
                item["late_ms"] = (start - due) * 1000.0
            item["status"], item["body"] = send(conns[lane], item, spec_json)
            idle_since = time.perf_counter()
            item["from_due_ms"] = (idle_since - due) * 1000.0
            item["service_ms"] = (idle_since - start) * 1000.0

    threads = [threading.Thread(target=drive, args=(lane,)) for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for conn in conns:
        conn.close()
    sent = [item for item in timed if "status" in item]
    with open(out, "w") as fh:
        json.dump({"opens": opens, "timed": sent, "elapsed": time.perf_counter() - origin}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
