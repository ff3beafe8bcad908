"""App-heavy NAS benchmark — the ``BENCH_nas.json`` trajectory.

The unified fabric's claim is that pulse batching pays off on
request/reply-dominated traffic, not just DGC beats.  This benchmark
drives the FT kernel skeleton — the all-to-all transpose, the most
communication-heavy NAS pattern (paper Sec. 5.2) — on the same seed
under both delivery cores:

* **aggregated** (``batched_beats=True``, the exact columnar core) —
  pooled pulse records, site-pair DGC runs (one aggregate entry and one
  batch-sink unwrap per run) and the steady-state receive diet;
* **per-event** (``batched_beats=False``) — the reference: one envelope
  and one kernel event per message.

and asserts (a) bit-identical simulation outcomes across the two cores
(delivery mechanics change heap traffic and allocations, never
behaviour) and (b) a wall-clock speedup of at least ``MIN_SPEEDUP`` of
the exact core over the per-event reference.  Every gate is evaluated
inside the ``measurements`` fixture and ``BENCH_nas.json`` (repo root,
see PERFORMANCE.md) is written only when all of them pass; the artifact
records each gate's value and threshold in ``meta.gates``.

App traffic dominates by construction: at the full scale the transpose
moves ~400 MB of application payload against ~45 MB of DGC beats, so the
speedup measured here is the fabric's, not the beat wheel's.

Scale is controlled with ``REPRO_NAS_SCALE``:

* ``full`` (default) — 128 workers on 64 nodes, gate at 1.3x;
* ``smoke`` — 24 workers on 12 nodes for CI smoke jobs (sub-second
  runs), gate at 1.05x.
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

from repro.core.config import DgcConfig
from repro.net.topology import uniform_topology
from repro.perf import PerfMeasurement, PerfReport, Stopwatch
from repro.runtime.ids import reset_id_counter
from repro.workloads.nas import kernel_spec, run_nas_kernel

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_nas.json"
PR_LABEL = "PR4"

SCALE = os.environ.get("REPRO_NAS_SCALE", "full")
if SCALE == "smoke":
    AO_COUNT = 24
    NODE_COUNT = 12
    ITERATIONS = 10
    MIN_SPEEDUP = 1.05
else:
    AO_COUNT = 128
    NODE_COUNT = 64
    ITERATIONS = 20
    MIN_SPEEDUP = 1.3

SEED = 7
PAYLOAD_BYTES = 1_200
#: The paper's NAS configuration (Sec. 5.2): TTB=30s, TTA=61s.
NAS_CONFIG = DgcConfig(ttb=30.0, tta=61.0)


def _run_once(batched: bool):
    """One fixed-seed app-heavy run under controlled allocation."""
    reset_id_counter()
    spec = kernel_spec(
        "FT",
        ao_count=AO_COUNT,
        iterations=ITERATIONS,
        payload_bytes=PAYLOAD_BYTES,
    )
    gc.collect()
    gc.disable()
    try:
        with Stopwatch() as watch:
            result = run_nas_kernel(
                spec,
                dgc=NAS_CONFIG,
                topology=uniform_topology(NODE_COUNT),
                seed=SEED,
                batched_beats=batched,
            )
    finally:
        gc.enable()
    return watch.elapsed, result


def _signature(result):
    """Everything that must be bit-identical across the two cores."""
    return (
        result.app_time_s,
        result.dgc_time_s,
        result.collected_acyclic,
        result.collected_cyclic,
        result.dead_letters,
        round(result.bandwidth_mb, 9),
        round(result.app_bandwidth_mb, 9),
        round(result.dgc_bandwidth_mb, 9),
        result.sim_time_s,
    )


#: Best-of-N timing for the exact core (the per-event run stays
#: single-shot).
ROUNDS = 3


def _gates(runs):
    """Every gate of this benchmark as ``name -> {value, threshold,
    passed}``, evaluated before anything is written."""
    exact = runs["aggregated"][1]
    per_event = runs["per_event"][1]
    speedup = runs["per_event"][0] / runs["aggregated"][0]
    event_ratio = per_event.events_fired / exact.events_fired
    identical = _signature(exact) == _signature(per_event)
    app_heavy = all(
        result.collected_acyclic + result.collected_cyclic == AO_COUNT
        and result.dead_letters == 0
        and result.app_bandwidth_mb > 3 * result.dgc_bandwidth_mb
        for _wall, result in runs.values()
    )
    return {
        "outcomes_identical": {
            "value": identical, "threshold": True, "passed": identical,
        },
        "app_heavy_and_collected": {
            "value": app_heavy, "threshold": True, "passed": app_heavy,
        },
        "speedup_vs_per_event": {
            "value": round(speedup, 3), "threshold": MIN_SPEEDUP,
            "passed": speedup >= MIN_SPEEDUP,
        },
        "kernel_event_reduction": {
            "value": round(event_ratio, 3), "threshold": 4.0,
            "passed": event_ratio > 4.0,
        },
    }


@pytest.fixture(scope="module")
def measurements():
    runs = {"aggregated": _run_once(batched=True)}
    for _ in range(ROUNDS - 1):
        run = _run_once(batched=True)
        if run[0] < runs["aggregated"][0]:
            runs["aggregated"] = run
    runs["per_event"] = _run_once(batched=False)
    gates = _gates(runs)

    report = PerfReport(
        meta={
            "scale": SCALE,
            "seed": SEED,
            "kernel": "FT",
            "ao_count": AO_COUNT,
            "node_count": NODE_COUNT,
            "iterations": ITERATIONS,
            "payload_bytes": PAYLOAD_BYTES,
            "ttb": NAS_CONFIG.ttb,
            "tta": NAS_CONFIG.tta,
            "rounds": ROUNDS,
            "gates": gates,
        },
        pr_label=PR_LABEL,
    )
    for key, bench_name in (
        ("aggregated", "nas_ft_aggregated"),
        ("per_event", "nas_ft_per_event"),
    ):
        wall, result = runs[key]
        report.add(
            PerfMeasurement(
                name=bench_name,
                wall_time_s=wall,
                events_fired=result.events_fired,
                peak_pending_events=result.peak_pending_events,
                sim_time_s=result.sim_time_s,
                extra={
                    "app_time_s": result.app_time_s,
                    "dgc_time_s": result.dgc_time_s,
                    "app_bandwidth_mb": round(result.app_bandwidth_mb, 6),
                    "dgc_bandwidth_mb": round(result.dgc_bandwidth_mb, 6),
                },
            )
        )
    report.benchmarks["nas_ft_aggregated"].extra["speedup_vs_per_event"] = (
        gates["speedup_vs_per_event"]["value"]
    )
    written = all(gate["passed"] for gate in gates.values())
    if written:
        report.write(BENCH_PATH)
    return {**runs, "gates": gates, "written": written}


def test_outcomes_are_bit_identical_across_cores(measurements):
    exact = _signature(measurements["aggregated"][1])
    per_event = _signature(measurements["per_event"][1])
    assert exact == per_event


def test_run_is_app_heavy_and_collects_everything(measurements):
    for key in ("aggregated", "per_event"):
        __, result = measurements[key]
        assert result.collected_acyclic + result.collected_cyclic == AO_COUNT
        assert result.dead_letters == 0
        # The point of the benchmark: application traffic dominates.
        assert result.app_bandwidth_mb > 3 * result.dgc_bandwidth_mb


def test_batched_wall_clock_speedup(measurements):
    speedup = measurements["per_event"][0] / measurements["aggregated"][0]
    assert speedup >= MIN_SPEEDUP, (
        f"the exact columnar core is only {speedup:.2f}x faster than "
        f"per-envelope delivery (required: {MIN_SPEEDUP}x at "
        f"scale={SCALE!r})"
    )


def test_batched_run_does_materially_fewer_kernel_events(measurements):
    """The structural claim behind the speedup: O(distinct delivery
    instants) events instead of O(messages)."""
    __, exact = measurements["aggregated"]
    __, per_event = measurements["per_event"]
    assert exact.events_fired < per_event.events_fired / 4


def test_bench_artifact_written(measurements):
    import json

    failed = [
        name for name, gate in measurements["gates"].items()
        if not gate["passed"]
    ]
    assert measurements["written"], f"artifact withheld: gates {failed} failed"
    payload = json.loads(BENCH_PATH.read_text())
    assert payload["schema"] == 1
    benchmarks = payload["benchmarks"]
    assert set(benchmarks) == {"nas_ft_aggregated", "nas_ft_per_event"}
    assert benchmarks["nas_ft_aggregated"]["speedup_vs_per_event"] > 0
    for entry in benchmarks.values():
        assert entry["wall_time_s"] > 0
        assert entry["events_per_second"] > 0
    meta = payload["meta"]
    assert meta["ao_count"] == AO_COUNT
    assert all(gate["passed"] for gate in meta["gates"].values())
    # Provenance: every artifact names the code state that produced it.
    assert meta["pr_label"] == PR_LABEL
    assert meta["git_sha"]
