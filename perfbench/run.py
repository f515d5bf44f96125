"""The repository's benchmark: one workload per call, one JSON line out.

    python3 perfbench/run.py --workload fleet_local --seed 1 --seconds 6 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, by the names and units BENCHMARK.json lists (see also
perfbench/README.md).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Scratch stores live under ``perfbench/.work`` and are removed at exit;
traced runs keep their spans under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys

import common

WORKLOADS = ("fleet_local", "fleet_durable", "compile_cold")


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload; returns ``{"attempted", "failed", "metrics"}``."""
    if name.startswith("fleet_"):
        import fleet

        shape = {s.name: s for s in (fleet.LOCAL, fleet.DURABLE)}[name]
        return asyncio.run(fleet.run_fleet(shape, seed, seconds, trace, scale))
    import compile_cold

    return asyncio.run(compile_cold.run_compile(seed, seconds, trace))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink the fleet (quick self-tests only)"
    )
    args = parser.parse_args(argv)
    common.use_tree()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = outcome["metrics"]
    for name in units:
        common.note(f"  {name:32s} {metrics[name]:14.4f} {units[name]}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
