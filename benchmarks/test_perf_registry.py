"""Naming-service benchmark — the ``BENCH_registry.json`` trajectory.

Two axes, selectable with ``REPRO_REGISTRY_AXES`` (``resolve`` |
``bindheavy`` | ``all``, the default):

**resolve** (the PR-5-shaped axis).  The naming service's claim is that
placement and lease caching turn far-site resolution from a cross-grid
round trip into local work.  This axis drives the lookup-heavy naming
workload (bind/resolve/unbind churn across sites,
:mod:`repro.workloads.naming`) on the same seed under three registry
modes:

* **static_home** — placement ``home``, no leases: every far-site
  resolve is a ``registry.lookup``/``registry.reply`` round trip to one
  static node — the PR-3-shaped baseline;
* **cached** — placement ``home`` with lease-cached bindings (explicit
  invalidation on unbind, renewals batched on the beat wheel);
* **replicated** — a primary pushing full replicas; resolves never
  cross the wire at all.

and asserts (a) every mode resolves the same lookups and collects every
service, (b) resolve *throughput* (completed resolves per wall second)
of the cached and replicated modes beats the static-home baseline by at
least ``MIN_SPEEDUP``, and (c) the structural wins behind it: fewer
registry bytes on the wire and lower mean simulated resolve latency.

**bindheavy** (the PR-8 axis).  The beat-quantized coherence channel's
claim is that update fan-out, not lookup traffic, is the replicated
registry's wire bottleneck at bind-heavy scale.  This axis binds
``BH_NAME_COUNT`` names (aliased over the services), draws Zipf-skewed
lookups and churns names in bursts, under ``placement="replicated"``
with ``coherence="eager"`` vs ``coherence="beat"``, and asserts the
beat channel wins at least ``MIN_BINDHEAVY_SPEEDUP`` on *combined*
resolve+bind throughput ((resolves + binds + unbinds applied) per wall
second) while putting strictly fewer registry bytes on the wire.  Both
arms apply the same binds and issue the same resolves — only the
coherence wire story differs.

Results land in ``BENCH_registry.json`` at the repo root (see
PERFORMANCE.md).  Every gate of the measured axes is evaluated inside
the ``measurements`` fixture and the artifact is written only when all
of them pass; it records each gate's value and threshold in
``meta.gates``.  Scale is controlled with ``REPRO_REGISTRY_SCALE``:

* ``full`` (default) — resolve: 128 clients on 64 nodes, 115k resolves,
  gate 1.3x (measured 1.8-2.0x cached, 2.2-2.5x replicated
  best-of-rounds on this machine); bindheavy: 100k names / 64 services
  / 8 nodes, gate 1.25x (measured ~1.7x);
* ``smoke`` — 32 clients on 16 nodes (resolve) and 4k names
  (bindheavy) for CI smoke jobs (sub-second runs), gates relaxed to
  1.05x / 1.15x.
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

from repro.core.config import DgcConfig, RegistryConfig
from repro.net.topology import uniform_topology
from repro.perf import PerfMeasurement, PerfReport, Stopwatch
from repro.runtime.ids import reset_id_counter
from repro.workloads.naming import run_naming

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_registry.json"
PR_LABEL = "PR8"

SCALE = os.environ.get("REPRO_REGISTRY_SCALE", "full")
AXES = os.environ.get("REPRO_REGISTRY_AXES", "all")
if AXES not in ("resolve", "bindheavy", "all"):
    raise RuntimeError(
        f"REPRO_REGISTRY_AXES must be resolve|bindheavy|all, got {AXES!r}"
    )
if SCALE == "smoke":
    CLIENT_COUNT = 32
    SERVICE_COUNT = 12
    NODE_COUNT = 16
    DURATION = 240.0
    MIN_SPEEDUP = 1.05
    BH_NAME_COUNT = 4_000
    BH_SERVICE_COUNT = 16
    BH_CLIENT_COUNT = 8
    BH_CHURN_BURST = 16
    MIN_BINDHEAVY_SPEEDUP = 1.15
else:
    CLIENT_COUNT = 128
    SERVICE_COUNT = 32
    NODE_COUNT = 64
    DURATION = 600.0
    MIN_SPEEDUP = 1.3
    BH_NAME_COUNT = 100_000
    BH_SERVICE_COUNT = 64
    BH_CLIENT_COUNT = 16
    BH_CHURN_BURST = 64
    MIN_BINDHEAVY_SPEEDUP = 1.25

SEED = 7
LOOKUP_PERIOD = 4.0
LOOKUP_BURST = 6
CHURN_PERIOD = 20.0
#: The paper's NAS beat with a margin over the 64-node MaxComm.
DGC = DgcConfig(ttb=30.0, tta=90.0)

#: Bind-heavy axis knobs (8 nodes keep the replica fan-out per update
#: at 7 — the contrast is eager per-update fan-out vs one batch per
#: (destination, beat), not node count).
BH_NODE_COUNT = 8
BH_DURATION = 120.0
BH_LOOKUP_PERIOD = 2.0
BH_LOOKUP_BURST = 4
BH_CHURN_PERIOD = 5.0
BH_ZIPF_S = 1.1
BH_LEASE_BEAT_S = 2.0
BH_DGC = DgcConfig(ttb=10.0, tta=30.0)

MODES = {
    "static_home": RegistryConfig(),
    "cached": RegistryConfig(lease_ttb=8),
    "replicated": RegistryConfig(placement="replicated"),
}

BINDHEAVY_MODES = {
    "bindheavy_eager": RegistryConfig(
        placement="replicated", coherence="eager",
        lease_beat_s=BH_LEASE_BEAT_S,
    ),
    "bindheavy_beat": RegistryConfig(
        placement="replicated", coherence="beat",
        lease_beat_s=BH_LEASE_BEAT_S,
    ),
}

RESOLVE_AXIS = AXES in ("resolve", "all")
BINDHEAVY_AXIS = AXES in ("bindheavy", "all")

#: Best-of-N timing: the modes differ by fractions of a second of wall
#: time at smoke scale, so each is timed over a few rounds.
ROUNDS = 3


def _run_once(registry: RegistryConfig):
    reset_id_counter()
    gc.collect()
    gc.disable()
    try:
        with Stopwatch() as watch:
            result = run_naming(
                dgc=DGC,
                registry=registry,
                client_count=CLIENT_COUNT,
                service_count=SERVICE_COUNT,
                duration=DURATION,
                lookup_period=LOOKUP_PERIOD,
                lookup_burst=LOOKUP_BURST,
                churn_period=CHURN_PERIOD,
                topology=uniform_topology(NODE_COUNT),
                seed=SEED,
            )
    finally:
        gc.enable()
    return watch.elapsed, result


def _run_bindheavy_once(registry: RegistryConfig):
    reset_id_counter()
    gc.collect()
    gc.disable()
    try:
        with Stopwatch() as watch:
            result = run_naming(
                dgc=BH_DGC,
                registry=registry,
                client_count=BH_CLIENT_COUNT,
                service_count=BH_SERVICE_COUNT,
                name_count=BH_NAME_COUNT,
                zipf_s=BH_ZIPF_S,
                churn_burst=BH_CHURN_BURST,
                duration=BH_DURATION,
                lookup_period=BH_LOOKUP_PERIOD,
                lookup_burst=BH_LOOKUP_BURST,
                churn_period=BH_CHURN_PERIOD,
                topology=uniform_topology(BH_NODE_COUNT),
                seed=SEED,
            )
    finally:
        gc.enable()
    return watch.elapsed, result


def _combined_ops(result) -> int:
    """The bind-heavy axis' throughput numerator: resolution *and*
    update work, since the coherence channel's point is cheap updates."""
    return (
        result.resolves_completed
        + result.binds_applied
        + result.unbinds_applied
    )


def _requires(axis_enabled: bool, axis: str) -> None:
    if not axis_enabled:
        pytest.skip(f"axis {axis!r} not measured under "
                    f"REPRO_REGISTRY_AXES={AXES!r}")


def _gate(value, threshold, passed):
    return {"value": value, "threshold": threshold, "passed": bool(passed)}


def _resolve_gates(runs, speedups):
    __, static = runs["static_home"]
    __, cached = runs["cached"]
    __, replicated = runs["replicated"]
    complete = all(
        result.all_collected
        and result.dead_letters == 0
        and result.resolves_completed == result.resolves_issued > 0
        and result.collected_acyclic + result.collected_cyclic
        == SERVICE_COUNT
        for __, result in (runs[key] for key in MODES)
    ) and len({runs[key][1].resolves_issued for key in MODES}) == 1
    machinery = (
        static.cache_hits == 0 and static.replica_hits == 0
        and cached.cache_hits > cached.remote_lookups
        and cached.renew_messages_sent > 0
        and cached.invalidations_sent > 0
        and replicated.remote_lookups == 0
        and replicated.replica_hits > 0
    )
    fewer_bytes = all(
        result.registry_bandwidth_mb < static.registry_bandwidth_mb
        for result in (cached, replicated)
    )
    lower_latency = all(
        result.mean_resolve_latency_s < static.mean_resolve_latency_s
        for result in (cached, replicated)
    )
    gates = {
        "resolve_modes_complete": _gate(complete, True, complete),
        "resolve_modes_exercised": _gate(machinery, True, machinery),
        "registry_bytes_below_static_home": _gate(
            fewer_bytes, True, fewer_bytes
        ),
        "resolve_latency_below_static_home": _gate(
            lower_latency, True, lower_latency
        ),
    }
    for mode in ("cached", "replicated"):
        gates[f"{mode}_resolve_speedup"] = _gate(
            round(speedups[mode], 3), MIN_SPEEDUP,
            speedups[mode] >= MIN_SPEEDUP,
        )
    return gates


def _bindheavy_gates(runs, speedups):
    __, eager = runs["bindheavy_eager"]
    __, beat = runs["bindheavy_beat"]
    same_work = (
        all(
            result.all_collected
            and result.dead_letters == 0
            and result.name_count == BH_NAME_COUNT
            and result.resolves_completed == result.resolves_issued > 0
            for result in (eager, beat)
        )
        and _combined_ops(eager) == _combined_ops(beat)
        and eager.resolves_issued == beat.resolves_issued
        and eager.binds_applied == beat.binds_applied >= BH_NAME_COUNT
        and eager.coherence_staged == 0
        and beat.coherence_staged > 0
        and beat.coherence_coalesced > 0
        and beat.coherence_messages_sent > 0
    )
    eager_fanout = (
        eager.binds_applied + eager.unbinds_applied
    ) * (BH_NODE_COUNT - 1)
    fewer_bytes = (
        beat.registry_bandwidth_mb < eager.registry_bandwidth_mb
        and beat.coherence_messages_sent < eager_fanout / 10
    )
    speedup = speedups["bindheavy_beat"]
    return {
        "bindheavy_same_work": _gate(same_work, True, same_work),
        "bindheavy_fewer_registry_bytes": _gate(
            fewer_bytes, True, fewer_bytes
        ),
        "bindheavy_combined_speedup": _gate(
            round(speedup, 3), MIN_BINDHEAVY_SPEEDUP,
            speedup >= MIN_BINDHEAVY_SPEEDUP,
        ),
    }


@pytest.fixture(scope="module")
def measurements():
    runs = {}
    if RESOLVE_AXIS:
        for name, registry in MODES.items():
            runs[name] = _run_once(registry)
    if BINDHEAVY_AXIS:
        for name, registry in BINDHEAVY_MODES.items():
            runs[name] = _run_bindheavy_once(registry)
    for _ in range(ROUNDS - 1):
        if RESOLVE_AXIS:
            for name, registry in MODES.items():
                wall, __ = _run_once(registry)
                if wall < runs[name][0]:
                    runs[name] = (wall, runs[name][1])
        if BINDHEAVY_AXIS:
            for name, registry in BINDHEAVY_MODES.items():
                wall, __ = _run_bindheavy_once(registry)
                if wall < runs[name][0]:
                    runs[name] = (wall, runs[name][1])

    speedups = {}
    if RESOLVE_AXIS:

        def throughput(key):
            wall, result = runs[key]
            return result.resolves_completed / wall

        base = throughput("static_home")
        for name in ("cached", "replicated"):
            speedups[name] = throughput(name) / base
    if BINDHEAVY_AXIS:
        eager_wall, eager = runs["bindheavy_eager"]
        beat_wall, beat = runs["bindheavy_beat"]
        speedups["bindheavy_beat"] = (
            (_combined_ops(beat) / beat_wall)
            / (_combined_ops(eager) / eager_wall)
        )
    gates = {}
    if RESOLVE_AXIS:
        gates.update(_resolve_gates(runs, speedups))
    if BINDHEAVY_AXIS:
        gates.update(_bindheavy_gates(runs, speedups))

    report = PerfReport(
        meta={
            "scale": SCALE,
            "axes": AXES,
            "seed": SEED,
            "client_count": CLIENT_COUNT,
            "service_count": SERVICE_COUNT,
            "node_count": NODE_COUNT,
            "duration_s": DURATION,
            "lookup_period_s": LOOKUP_PERIOD,
            "lookup_burst": LOOKUP_BURST,
            "churn_period_s": CHURN_PERIOD,
            "lease_ttb": MODES["cached"].lease_ttb,
            "ttb": DGC.ttb,
            "tta": DGC.tta,
            "bindheavy": {
                "name_count": BH_NAME_COUNT,
                "service_count": BH_SERVICE_COUNT,
                "client_count": BH_CLIENT_COUNT,
                "node_count": BH_NODE_COUNT,
                "duration_s": BH_DURATION,
                "zipf_s": BH_ZIPF_S,
                "churn_burst": BH_CHURN_BURST,
                "churn_period_s": BH_CHURN_PERIOD,
                "lease_beat_s": BH_LEASE_BEAT_S,
                "ttb": BH_DGC.ttb,
                "tta": BH_DGC.tta,
            },
            "gates": gates,
        },
        pr_label=PR_LABEL,
    )
    for name, (wall, result) in runs.items():
        extra = {
            "resolves_completed": result.resolves_completed,
            "resolve_throughput_per_s": round(
                result.resolves_completed / wall, 1
            ),
            "mean_resolve_latency_us": round(
                result.mean_resolve_latency_s * 1e6, 3
            ),
            "registry_mb": round(result.registry_bandwidth_mb, 6),
            "total_mb": round(result.total_bandwidth_mb, 6),
            "cache_hits": result.cache_hits,
            "replica_hits": result.replica_hits,
            "local_misses": result.local_misses,
            "remote_lookups": result.remote_lookups,
            "invalidations_sent": result.invalidations_sent,
            "renew_messages_sent": result.renew_messages_sent,
        }
        if name in speedups:
            extra["resolve_speedup_vs_static_home"] = round(
                speedups[name], 3
            )
        if name.startswith("bindheavy_"):
            extra.pop("resolve_speedup_vs_static_home", None)
            extra.update(
                {
                    "binds_applied": result.binds_applied,
                    "unbinds_applied": result.unbinds_applied,
                    "combined_ops": _combined_ops(result),
                    "combined_throughput_per_s": round(
                        _combined_ops(result) / wall, 1
                    ),
                    "coherence_staged": result.coherence_staged,
                    "coherence_coalesced": result.coherence_coalesced,
                    "coherence_messages_sent": (
                        result.coherence_messages_sent
                    ),
                    "pushes_sent": result.pushes_sent,
                }
            )
            if name == "bindheavy_beat":
                extra["combined_speedup_vs_eager"] = round(
                    speedups["bindheavy_beat"], 3
                )
        report.add(
            PerfMeasurement(
                name=f"naming_{name}" if not name.startswith("bindheavy_")
                else name,
                wall_time_s=wall,
                events_fired=result.events_fired,
                peak_pending_events=result.peak_pending_events,
                sim_time_s=result.sim_time_s,
                extra=extra,
            )
        )
    written = all(gate["passed"] for gate in gates.values())
    if written:
        report.write(BENCH_PATH)
    return {**runs, "speedups": speedups, "gates": gates, "written": written}


# ----------------------------------------------------------------------
# Resolve axis
# ----------------------------------------------------------------------


def test_every_mode_resolves_everything_and_collects(measurements):
    _requires(RESOLVE_AXIS, "resolve")
    for key in MODES:
        __, result = measurements[key]
        assert result.all_collected
        assert result.dead_letters == 0
        assert result.resolves_completed == result.resolves_issued > 0
        assert result.collected_acyclic + result.collected_cyclic == (
            SERVICE_COUNT
        )
    # The same client schedules issued the same resolves in every mode
    # (static_home/cached/replicated differ only in where resolution is
    # served — bind acks travel identical paths).
    issued = {measurements[k][1].resolves_issued for k in MODES}
    assert len(issued) == 1


def test_modes_actually_exercise_their_machinery(measurements):
    _requires(RESOLVE_AXIS, "resolve")
    __, static = measurements["static_home"]
    __, cached = measurements["cached"]
    __, replicated = measurements["replicated"]
    assert static.cache_hits == 0 and static.replica_hits == 0
    assert cached.cache_hits > cached.remote_lookups
    assert cached.renew_messages_sent > 0
    assert cached.invalidations_sent > 0
    assert replicated.remote_lookups == 0
    assert replicated.replica_hits > 0


def test_cached_and_replicated_resolve_throughput_beats_static_home(
    measurements,
):
    _requires(RESOLVE_AXIS, "resolve")
    for mode in ("cached", "replicated"):
        speedup = measurements["speedups"][mode]
        assert speedup >= MIN_SPEEDUP, (
            f"{mode} resolve throughput is only {speedup:.2f}x the "
            f"static-home baseline (required: {MIN_SPEEDUP}x at "
            f"scale={SCALE!r})"
        )


def test_registry_bytes_on_wire_beat_static_home(measurements):
    _requires(RESOLVE_AXIS, "resolve")
    __, static = measurements["static_home"]
    for mode in ("cached", "replicated"):
        __, result = measurements[mode]
        assert result.registry_bandwidth_mb < static.registry_bandwidth_mb


def test_resolve_latency_beats_static_home(measurements):
    _requires(RESOLVE_AXIS, "resolve")
    __, static = measurements["static_home"]
    for mode in ("cached", "replicated"):
        __, result = measurements[mode]
        assert (
            result.mean_resolve_latency_s < static.mean_resolve_latency_s
        )


# ----------------------------------------------------------------------
# Bind-heavy axis: beat coherence vs eager fan-out
# ----------------------------------------------------------------------


def test_bindheavy_arms_do_the_same_work(measurements):
    _requires(BINDHEAVY_AXIS, "bindheavy")
    __, eager = measurements["bindheavy_eager"]
    __, beat = measurements["bindheavy_beat"]
    for result in (eager, beat):
        assert result.all_collected
        assert result.dead_letters == 0
        assert result.name_count == BH_NAME_COUNT
        assert result.resolves_completed == result.resolves_issued > 0
    # Same binds, same resolves: client/binder timelines are rng-driven
    # and identical; only the coherence wire story differs.  (Hit/miss
    # splits may differ inside the one-beat staleness window.)
    assert _combined_ops(eager) == _combined_ops(beat)
    assert eager.resolves_issued == beat.resolves_issued
    assert eager.binds_applied == beat.binds_applied >= BH_NAME_COUNT
    assert eager.coherence_staged == 0
    assert beat.coherence_staged > 0
    assert beat.coherence_coalesced > 0
    assert beat.coherence_messages_sent > 0


def test_bindheavy_beat_combined_throughput_beats_eager(measurements):
    _requires(BINDHEAVY_AXIS, "bindheavy")
    speedup = measurements["speedups"]["bindheavy_beat"]
    assert speedup >= MIN_BINDHEAVY_SPEEDUP, (
        f"beat coherence combined throughput is only {speedup:.2f}x the "
        f"eager baseline (required: {MIN_BINDHEAVY_SPEEDUP}x at "
        f"scale={SCALE!r})"
    )


def test_bindheavy_beat_puts_fewer_registry_bytes_on_wire(measurements):
    _requires(BINDHEAVY_AXIS, "bindheavy")
    __, eager = measurements["bindheavy_eager"]
    __, beat = measurements["bindheavy_beat"]
    assert beat.registry_bandwidth_mb < eager.registry_bandwidth_mb
    # And structurally: the per-update fan-out collapsed into per-beat
    # batches, far fewer messages than eager's one-per-(update, node).
    eager_fanout = (
        eager.binds_applied + eager.unbinds_applied
    ) * (BH_NODE_COUNT - 1)
    assert beat.coherence_messages_sent < eager_fanout / 10


def test_bench_artifact_written(measurements):
    import json

    failed = [
        name for name, gate in measurements["gates"].items()
        if not gate["passed"]
    ]
    assert measurements["written"], f"artifact withheld: gates {failed} failed"
    payload = json.loads(BENCH_PATH.read_text())
    assert payload["schema"] == 1
    assert payload["meta"]["axes"] == AXES
    assert all(gate["passed"] for gate in payload["meta"]["gates"].values())
    benchmarks = payload["benchmarks"]
    if RESOLVE_AXIS:
        for mode in ("cached", "replicated"):
            entry = benchmarks[f"naming_{mode}"]
            assert entry["resolve_speedup_vs_static_home"] > 0
            assert entry["resolve_throughput_per_s"] > 0
    if BINDHEAVY_AXIS:
        beat = benchmarks["bindheavy_beat"]
        assert beat["combined_speedup_vs_eager"] > 0
        assert beat["combined_throughput_per_s"] > 0
        assert benchmarks["bindheavy_eager"]["combined_ops"] == (
            beat["combined_ops"]
        )
    for entry in benchmarks.values():
        assert entry["wall_time_s"] > 0
        assert entry["events_per_second"] > 0
