"""One measurement process: runs a workload's worlds once and prints a
JSON report as its last line of standard output.

Invoked by :mod:`perfbench.run` as
``python3 perfbench/child.py <mode> <workload> <seed> <world index>``;
each call is a fresh interpreter, so the set-up time and the peak RSS
belong to this run alone.  Modes:

``verify``
    every world of the input, ground-truth oracle on
    (``safety_checks=True``) and latency hooks installed;
    ``torture-2shard`` is verified through ``replay_single_process`` on
    the same input.  The world index is ignored.
``measure``
    the indexed world, with nothing installed but a one-call set-up
    marker.
``trace``
    ``measure`` plus a span at every layer entry point.
``setup``
    the indexed world, stopped at its kernel's first event.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import probes, spec  # noqa: E402  (no repro import)
from perfbench.spans import SpanRecorder, merge  # noqa: E402


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _torture_topology(world):
    from repro.net.topology import metro_wan_topology

    return metro_wan_topology(
        world["nodes"], site_count=world["sites"],
        intra_rtt_s=world["intra_rtt_s"], metro_rtt_s=world["metro_rtt_s"],
        wan_rtt_s=world["wan_rtt_s"],
    )


def _torture_params(world):
    return {
        "slave_count": world["slave_count"],
        "active_duration": world["active_duration"],
    }


def _dgc(world):
    from repro.core.config import DgcConfig

    return DgcConfig(ttb=world["ttb"], tta=world["tta"])


def _reset_ids() -> None:
    """Each world starts from the id streams a fresh process has, so its
    outcome depends on its own input only (activity ids key RNG streams)."""
    from repro.runtime.future import reset_future_ids
    from repro.runtime.ids import reset_id_counter
    from repro.runtime.request import reset_request_ids

    reset_id_counter()
    reset_request_ids()
    reset_future_ids()


def _world_record(world, ops: int, attempted: int) -> dict:
    collected = sorted(world.stats.collected_by_id.items())
    return {
        "ops": ops,
        "attempted": attempted,
        "counters": probes.world_counters(world),
        "digest": probes.outcome_digest(collected),
        "last_collected_s": max((at for _, at in collected), default=0.0),
        "collected_by_id": dict(collected),
    }


def run_torture_world(world, verify: bool) -> dict:
    from repro.workloads.torture import run_torture

    result = run_torture(
        dgc=_dgc(world), topology=_torture_topology(world),
        seed=world["seed"], safety_checks=verify, keep_world=True,
        **_torture_params(world),
    )
    garbage = world["slave_count"] + 1
    record = _world_record(result.world, result.world.stats.collected_total,
                           garbage)
    _check(result.all_collected, "torture: survivors remain")
    _check(record["counters"]["collected"] == garbage,
           f"torture: collected {record['counters']['collected']} of {garbage}")
    return record


def run_naming_world(world, verify: bool) -> dict:
    from repro.core.config import RegistryConfig
    from repro.net.topology import uniform_topology
    from repro.workloads.naming import run_naming

    result = run_naming(
        dgc=_dgc(world),
        registry=RegistryConfig(lease_ttb=world["lease_ttb"]),
        client_count=world["client_count"],
        service_count=world["service_count"],
        name_count=world["name_count"],
        zipf_s=world["zipf_s"],
        churn_burst=world["churn_burst"],
        churn_period=world["churn_period"],
        duration=world["duration"],
        lookup_period=world["lookup_period"],
        lookup_burst=world["lookup_burst"],
        topology=uniform_topology(world["nodes"]),
        seed=world["seed"],
        safety_checks=verify,
        keep_world=True,
    )
    writes = result.binds_applied + result.unbinds_applied
    record = _world_record(result.world, result.resolves_completed + writes,
                           result.resolves_issued + writes)
    _check(result.all_collected, "naming: services survive teardown")
    _check(result.resolves_completed == result.resolves_issued,
           f"naming: {result.resolves_issued - result.resolves_completed} "
           f"resolves never completed")
    _check(result.collected_acyclic + result.collected_cyclic
           == world["service_count"], "naming: not every service collected")
    return record


def run_replay_world(world) -> dict:
    """The oracle-checked single-process replay of a sharded world."""
    import repro.shard.worker as worker
    from repro.shard import replay_single_process
    from repro.world import World

    class CheckedWorld(World):
        def __init__(self, *args, **kwargs):
            kwargs["safety_checks"] = True
            super().__init__(*args, **kwargs)

    worker.World = CheckedWorld
    try:
        replayed, _env, _signature = replay_single_process(
            _torture_topology(world), workload="torture",
            params=_torture_params(world), dgc=_dgc(world),
            seed=world["seed"],
        )
    finally:
        worker.World = World
    _check(replayed.safety_checks, "replay ran without the oracle")
    garbage = world["slave_count"] + 1
    record = _world_record(replayed, replayed.stats.collected_total, garbage)
    _check(record["counters"]["collected"] == garbage,
           f"replay: collected {record['counters']['collected']} of {garbage}")
    return record


def run_sharded_world(world) -> dict:
    from repro.shard import ShardedWorld

    result = ShardedWorld(
        _torture_topology(world), spec.SHARDS, workload="torture",
        params=_torture_params(world), dgc=_dgc(world), seed=world["seed"],
    ).run()
    reports = [shard["perfbench"] for shard in result.per_shard]
    # Worker counters add up, except the high-water mark.
    counters: dict = {}
    for report in reports:
        for key, value in report["counters"].items():
            if key == "sim.peak_pending":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    counters.update({
        "shard.rounds": result.rounds,
        "shard.frame_bytes": result.frame_bytes,
        "shard.frame_entries": result.frame_entries,
        "shard.coord_events": result.events_coordination,
        "shard.frame_digest": result.frame_digest,
    })
    collected = sorted(
        pair for report in reports for pair in map(tuple, report["collected"])
    )
    garbage = world["slave_count"] + 1
    _check(result.live_non_root == 0, "sharded: survivors remain")
    _check(result.collected_total == garbage,
           f"sharded: collected {result.collected_total} of {garbage}")
    cpu = [report["cpu_s"] for report in reports]
    return {
        "ops": result.collected_total,
        "attempted": garbage,
        "counters": counters,
        "digest": probes.outcome_digest(collected),
        "last_collected_s": max(at for _, at in collected),
        "collected_by_id": dict(collected),
        "worker_cpu": [max(cpu), min(cpu)],
        "spans": [report["spans"] for report in reports if report["spans"]],
    }


def run_world(workload: str, world: dict, mode: str) -> dict:
    _reset_ids()
    verify = mode == "verify"
    if workload == "torture":
        record = run_torture_world(world, verify)
    elif workload == "naming":
        record = run_naming_world(world, verify)
    elif verify:
        record = run_replay_world(world)
    else:
        record = run_sharded_world(world)
    counters = record["counters"]
    _check(counters["dead_letters"] == 0,
           f"{counters['dead_letters']} dead letters")
    _check(counters["safety_violations"] == 0,
           f"{counters['safety_violations']} safety violations")
    return record


def main(mode: str, workload: str, seed: int, index: int) -> dict:
    worlds = spec.make_inputs(workload, seed)
    if mode != "verify":
        worlds = [worlds[index]]
    recorder = SpanRecorder() if mode == "trace" else None
    marker = probes.FirstEventMarker(stop=mode == "setup")
    hooks = probes.LatencyHooks() if mode == "verify" else None

    import_start = time.perf_counter()
    import repro  # noqa: F401  (set-up time starts here)

    sharded = workload == "torture-2shard"
    if mode != "verify":
        marker.install(sharded)
        if sharded:
            probes.install_worker_report(recorder)
    if hooks is not None:
        hooks.install()
    if recorder is not None:
        probes.install_spans(recorder)

    if mode == "setup":
        try:
            run_world(workload, worlds[0], mode)
        except probes.SetupDone:
            return {"setup_s": marker.at - import_start}
        raise CheckFailed("the workload finished without firing an event")

    if recorder is not None:
        run_span = recorder.wrap("other", "other:bench.world", run_world)
    else:
        run_span = run_world
    records = []
    lags: list = []
    cpu_start = time.process_time()
    children_start = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall_start = time.perf_counter()
    for world in worlds:
        record = run_span(workload, world, mode)
        if hooks is not None:
            lags.extend(hooks.collect_lags(record["collected_by_id"]))
        del record["collected_by_id"]
        records.append(record)
    wall = time.perf_counter() - wall_start
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (
        time.process_time() - cpu_start
        + children.ru_utime - children_start.ru_utime
        + children.ru_stime - children_start.ru_stime
    )
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  children.ru_maxrss)
    report = {
        "worlds": records,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": None if marker.at is None else marker.at - import_start,
    }
    if hooks is not None:
        report["collect_lag_s"] = lags
        report["resolve_s"] = hooks.resolve_s
    worker_spans = [s for r in records for s in r.pop("spans", [])]
    if recorder is not None:
        report["spans"] = merge([recorder.snapshot()] + worker_spans)
    return report


if __name__ == "__main__":
    try:
        out = {"ok": True, **main(sys.argv[1], sys.argv[2], int(sys.argv[3]),
                                  int(sys.argv[4]))}
    except CheckFailed as failure:
        out = {"ok": False, "error": str(failure)}
    except Exception:  # report any crash of the program as a failed run
        out = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(out))
    sys.exit(0 if out["ok"] else 1)
