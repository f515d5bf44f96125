"""Benchmark S2 — the native solver: compiled kernels vs the pre-kernel path.

Measures the cold (uncached) solver work the service pays on every cache
miss, against a faithful in-process reproduction of the pre-kernel
baseline: tree-walking interpreter engine, single-variable-only split
heuristic (``legacy_splits``), no vectorized finishing in the decision
procedures, and none of the fused-probe / region-oracle / incremental
seeding optimizer reworks — exactly the algorithmic configuration the
repository shipped before the kernel layer.

Two outputs:

* loud assertions — cold powerset compilation of the Manhattan-ball
  query (the ``test_service_throughput.py`` cold path) must stay at least
  ``MIN_COMPILE_SPEEDUP`` faster than the baseline path, and the kernel
  engine must synthesize domains identical to the interpreter engine;
* ``BENCH_solver.json`` — machine-readable timings (ops/sec), search
  statistics (nodes, splits, vectorized boxes), and speedups, seeding
  the performance trajectory; written under ``BENCH_OUT_DIR`` when set,
  else under pytest's temporary directory (see ``conftest.py``).
"""

import json
import statistics
import time

from repro.core.plugin import CompileOptions, compile_query
from repro.core.synth import SynthOptions
from repro.lang.parser import parse_bool
from repro.lang.secrets import SecretSpec
from repro.solver.boxes import Box
from repro.solver.decide import (
    SolverStats,
    count_models,
    decide_exists,
    decide_forall,
    find_true_box,
    make_engine,
)

#: The paper's running example / B4-style Manhattan ball (section 2).
SPEC = SecretSpec.declare("UserLoc", x=(0, 399), y=(0, 399))
NEARBY_SRC = "abs(x - 200) + abs(y - 200) <= 100"
NEARBY = parse_bool(NEARBY_SRC)
SPACE = Box.make((0, 399), (0, 399))
NAMES = ("x", "y")

#: The paper's B1 birthday query over (bday, byear).
BIRTHDAY_SPEC = SecretSpec.declare("Birthday", bday=(0, 364), byear=(1956, 1992))
BIRTHDAY = parse_bool("bday >= 250 and bday < 257")

#: The enforced floor for the cold-compile speedup.  The fused-probe /
#: region-oracle path lands at ~5.5x on the reference machine (target
#: 5x, met); the gate sits at 4x to fail loudly on regressions without
#: flaking on machine noise.
MIN_COMPILE_SPEEDUP = 4.0

KERNEL_SYNTH = SynthOptions()
#: Faithful pre-kernel configuration (see module docstring): interpreter
#: engine, legacy splits, no vectorized finishing, and none of the fused
#: probe-front / incremental-seeding optimizer reworks.
BASELINE_SYNTH = SynthOptions(
    use_kernels=False,
    vector_threshold=0,
    legacy_splits=True,
    fused_probes=False,
    incremental_seed=False,
)

_results: dict = {"benchmarks": {}}


def _paired(kernel_fn, baseline_fn, rounds):
    """Alternate the two paths so machine noise hits both equally."""
    kernel_times, baseline_times = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        kernel_fn()
        kernel_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        baseline_fn()
        baseline_times.append(time.perf_counter() - start)
    return statistics.median(kernel_times), statistics.median(baseline_times)


def _record(name, kernel_s, baseline_s, **extra):
    entry = {
        "kernel_ms": round(kernel_s * 1e3, 4),
        "baseline_ms": round(baseline_s * 1e3, 4),
        "kernel_ops_per_sec": round(1.0 / kernel_s, 2),
        "baseline_ops_per_sec": round(1.0 / baseline_s, 2),
        "speedup": round(baseline_s / kernel_s, 2),
        **extra,
    }
    _results["benchmarks"][name] = entry
    return entry


def test_cold_powerset_compile_speedup():
    """The service-throughput cold path: powerset k=3 under + verification."""
    kernel_options = CompileOptions(
        domain="powerset", k=3, modes=("under",), synth=KERNEL_SYNTH
    )
    baseline_options = CompileOptions(
        domain="powerset", k=3, modes=("under",), synth=BASELINE_SYNTH
    )
    # Warm imports / allocator before timing.
    compile_query("warm-k", NEARBY, SPEC, kernel_options)
    compile_query("warm-b", NEARBY, SPEC, baseline_options)

    tick = iter(range(10**6))
    kernel_s, baseline_s = _paired(
        lambda: compile_query(f"k{next(tick)}", NEARBY, SPEC, kernel_options),
        lambda: compile_query(f"b{next(tick)}", NEARBY, SPEC, baseline_options),
        rounds=9,
    )
    compiled = compile_query("stats", NEARBY, SPEC, kernel_options)
    report = compiled.reports["under"]
    entry = _record(
        "cold_powerset_compile",
        kernel_s,
        baseline_s,
        nodes=report.solver_nodes,
        splits=report.solver_splits,
        vector_boxes=report.vector_boxes,
        fused_rounds=report.fused_rounds,
        probe_fronts=report.probe_fronts,
        front_boxes=report.front_boxes,
        query=NEARBY_SRC,
        secret="UserLoc 400x400",
        k=3,
        target_speedup=5.0,
    )
    print(
        f"\ncold compile: kernel {entry['kernel_ms']:.2f} ms vs baseline "
        f"{entry['baseline_ms']:.2f} ms — {entry['speedup']:.1f}x"
    )
    assert entry["speedup"] >= MIN_COMPILE_SPEEDUP, (
        f"cold-compile speedup regressed to {entry['speedup']:.1f}x "
        f"(floor {MIN_COMPILE_SPEEDUP}x, target 5x)"
    )


def test_cold_interval_compile():
    kernel_options = CompileOptions(domain="interval", synth=KERNEL_SYNTH)
    baseline_options = CompileOptions(domain="interval", synth=BASELINE_SYNTH)
    compile_query("warm-ik", NEARBY, SPEC, kernel_options)
    compile_query("warm-ib", NEARBY, SPEC, baseline_options)
    tick = iter(range(10**6))
    kernel_s, baseline_s = _paired(
        lambda: compile_query(f"ik{next(tick)}", NEARBY, SPEC, kernel_options),
        lambda: compile_query(f"ib{next(tick)}", NEARBY, SPEC, baseline_options),
        rounds=9,
    )
    entry = _record("cold_interval_compile", kernel_s, baseline_s, query=NEARBY_SRC)
    assert entry["speedup"] >= 1.0


def _bench_procedure(name, fn_kernel, fn_baseline, stats):
    kernel_s, baseline_s = _paired(fn_kernel, fn_baseline, rounds=15)
    _record(
        name,
        kernel_s,
        baseline_s,
        nodes=stats.nodes,
        splits=stats.splits,
        vector_boxes=stats.vector_boxes,
    )


def test_decision_procedures():
    """The four procedures on the paper's benchmark queries.

    Every timed call builds a fresh engine on both sides: this is the cold
    cost including lowering (a warm engine's specialization memo would
    reduce repeat calls to dictionary lookups and overstate the win).
    """
    crossing = Box.make((150, 251), (150, 251))

    def legacy(names=NAMES):
        return make_engine(names, False, legacy_splits=True)

    stats = SolverStats()
    decide_forall(NEARBY, crossing, NAMES, stats)
    _bench_procedure(
        "decide_forall_crossing",
        lambda: decide_forall(NEARBY, crossing, NAMES),
        lambda: decide_forall(
            NEARBY, crossing, NAMES, engine=legacy(), vector_threshold=0
        ),
        stats,
    )

    stats = SolverStats()
    decide_exists(NEARBY, SPACE, NAMES, stats)
    _bench_procedure(
        "decide_exists_space",
        lambda: decide_exists(NEARBY, SPACE, NAMES),
        lambda: decide_exists(
            NEARBY, SPACE, NAMES, engine=legacy(), vector_threshold=0
        ),
        stats,
    )

    stats = SolverStats()
    find_true_box(NEARBY, SPACE, NAMES, stats=stats)
    _bench_procedure(
        "find_true_box_space",
        lambda: find_true_box(NEARBY, SPACE, NAMES),
        lambda: find_true_box(
            NEARBY, SPACE, NAMES, engine=legacy(), vector_threshold=0
        ),
        stats,
    )

    stats = SolverStats()
    count_models(NEARBY, SPACE, NAMES, stats)
    _bench_procedure(
        "count_models_space",
        lambda: count_models(NEARBY, SPACE, NAMES),
        # Pre-kernel counting already had grid finishing; keep it for the
        # baseline so the comparison isolates the kernel layer.
        lambda: count_models(NEARBY, SPACE, NAMES, engine=legacy()),
        stats,
    )

    names = BIRTHDAY_SPEC.field_names
    space = Box(BIRTHDAY_SPEC.bounds())
    stats = SolverStats()
    count_models(BIRTHDAY, space, names, stats)
    _bench_procedure(
        "count_models_birthday",
        lambda: count_models(BIRTHDAY, space, names),
        lambda: count_models(BIRTHDAY, space, names, engine=legacy(names)),
        stats,
    )
    # Regression gate for the small-formula fast path: one-shot counts of
    # tiny formulas must no longer lose to the pre-kernel baseline (this
    # entry sat at 0.8x before the interpreter fast path).  The floor is
    # loose — both sides are interpreter walks now, so the honest value
    # is ~1.0x — because sub-100µs timings are noisy.
    entry = _results["benchmarks"]["count_models_birthday"]
    assert entry["speedup"] >= 0.8, (
        f"count_models_birthday regressed to {entry['speedup']:.2f}x"
    )


def test_write_bench_json(bench_out):
    """Persist the collected measurements (runs last by file order)."""
    assert _results["benchmarks"], "benchmarks did not run"
    payload = {
        "suite": "solver",
        "unit": "milliseconds (median of paired runs)",
        "baseline": (
            "in-process pre-kernel configuration: interpreter engine, "
            "legacy split heuristic, no vectorized decide finishing, "
            "no fused probe fronts, no incremental seeding"
        ),
        **_results,
    }
    bench_path = bench_out / "BENCH_solver.json"
    bench_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {bench_path}")
    speedup = _results["benchmarks"]["cold_powerset_compile"]["speedup"]
    assert speedup >= MIN_COMPILE_SPEEDUP
