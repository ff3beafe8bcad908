"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import child, probes, run, spans, spec, stats

ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (10_000, 999),  # 9990th of 10000: exactly 10 beyond
    (9_999, 990),
    (1_000, 990),
    (999, 950),
    (200, 950),
    (199, 900),
    (40, 750),
    (39, None),
    (0, None),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_permille(count) == expected
    if expected is not None:
        assert count - stats.rank(expected, count) >= stats.MIN_BEYOND


def test_percentiles_are_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 500) == 50.0
    assert stats.percentile(values, 950) == 95.0
    assert stats.percentile(values, 990) == 99.0


def test_summary_reports_median_tail_and_count():
    samples = [float(v) for v in range(1000, 0, -1)]
    assert stats.summarize(samples) == (500.0, 990.0, 990, 1000)
    assert stats.summarize([3.0, 1.0, 2.0]) == (2.0, 0.0, None, 3)
    assert stats.summarize([]) == (0.0, 0.0, None, 0)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", fake)
    return fake


def _tree(recorder, clock):
    """root(other) 1s -> [kernel(sim) 1s -> [pulse(net) 2s -> collector(core) 3s]
    x2] + 1s."""
    collector = recorder.wrap("core", "core:collector", lambda: clock.work(3))

    def pulse_body():
        clock.work(2)
        collector()

    pulse = recorder.wrap("net", "net:pulse", pulse_body)

    def kernel_body():
        clock.work(1)
        pulse()

    kernel = recorder.wrap("sim", "sim:kernel", kernel_body)

    def root_body():
        clock.work(1)
        kernel()
        kernel()
        clock.work(1)

    return recorder.wrap("other", "other:root", root_body)


def test_self_time_subtracts_child_spans(clock):
    recorder = spans.SpanRecorder()
    _tree(recorder, clock)()
    snapshot = recorder.snapshot()
    assert spans.layer_self_times(snapshot) == {
        "other": 2.0, "sim": 2.0, "net": 4.0, "core": 6.0,
    }
    root_time = sum(record["callers"].get(spans.ROOT, [0, 0.0])[1]
                    for record in snapshot.values())
    assert root_time == 14.0
    assert sum(spans.layer_self_times(snapshot).values()) == root_time
    assert snapshot["net:pulse"]["calls"] == 2
    assert snapshot["net:pulse"]["callers"] == {"sim:kernel": [2, 10.0]}
    assert snapshot["other:root"]["callers"] == {spans.ROOT: [1, 14.0]}


def test_open_spans_count_as_ending_at_snapshot(clock):
    recorder = spans.SpanRecorder()
    taken = {}

    def inner_body():
        clock.work(2)
        taken["snapshot"] = recorder.snapshot()

    inner = recorder.wrap("net", "net:inner", inner_body)

    def outer_body():
        clock.work(1)
        inner()

    recorder.wrap("sim", "sim:outer", outer_body)()
    snapshot = taken["snapshot"]
    assert snapshot["sim:outer"]["inclusive_s"] == 3.0
    assert snapshot["sim:outer"]["child_s"] == 2.0
    assert spans.layer_self_times(snapshot) == {"sim": 1.0, "net": 2.0}


def test_merge_and_reset(clock):
    recorder = spans.SpanRecorder()
    root = _tree(recorder, clock)
    root()
    first = recorder.snapshot()
    merged = spans.merge([first, first])
    assert spans.layer_self_times(merged)["core"] == 12.0
    recorder.reset()
    root()
    assert recorder.snapshot() == first


# ----------------------------------------------------------------------
# Inputs come from the seed; the program receives only the inputs
# ----------------------------------------------------------------------


def test_seed_determines_inputs():
    for workload in spec.WORKLOADS:
        assert spec.make_inputs(workload, 3) == spec.make_inputs(workload, 3)
        assert spec.make_inputs(workload, 3) != spec.make_inputs(workload, 4)
    assert spec.make_inputs("torture-2shard", 5) == spec.make_inputs("torture", 5)
    seeds = [w["seed"] for s in range(3) for w in spec.make_inputs("torture", s)]
    assert len(set(seeds)) == len(seeds)


class _Captured(Exception):
    pass


def test_program_receives_only_the_generated_input(monkeypatch):
    import repro.workloads.naming as naming
    import repro.workloads.torture as torture

    calls = []

    def capture(**kwargs):
        calls.append(kwargs)
        raise _Captured()

    monkeypatch.setattr(torture, "run_torture", capture)
    monkeypatch.setattr(naming, "run_naming", capture)
    for seed in (1, 2):
        for world in spec.make_inputs("torture", seed)[:1]:
            with pytest.raises(_Captured):
                child.run_torture_world(world, verify=False)
            got = calls[-1]
            assert got["seed"] == world["seed"]
            assert got["slave_count"] == world["slave_count"]
            assert got["active_duration"] == world["active_duration"]
            assert (got["dgc"].ttb, got["dgc"].tta) == (world["ttb"], world["tta"])
            assert len(got["topology"].nodes) == world["nodes"]
        world = spec.make_inputs("naming", seed)[0]
        with pytest.raises(_Captured):
            child.run_naming_world(world, verify=False)
        got = calls[-1]
        for key in ("seed", "client_count", "service_count", "name_count",
                    "zipf_s", "churn_burst", "churn_period", "duration",
                    "lookup_period", "lookup_burst"):
            assert got[key] == world[key]
        assert got["registry"].lease_ttb == world["lease_ttb"]
    assert calls[0]["seed"] != calls[2]["seed"]
    assert calls[1]["seed"] != calls[3]["seed"]


# ----------------------------------------------------------------------
# Checks and metric names
# ----------------------------------------------------------------------


def _fake_runs(workload):
    from repro.net.topology import uniform_topology
    from repro.workloads.naming import run_naming

    result = run_naming(dgc=None, client_count=2, service_count=2,
                        duration=5.0, topology=uniform_topology(2),
                        keep_world=True)
    counters = probes.world_counters(result.world)
    counters.update({
        "shard.rounds": 1, "shard.frame_bytes": 10, "shard.frame_entries": 2,
        "shard.coord_events": 1, "shard.frame_digest": "x",
    })
    world = {"ops": 1, "attempted": 1, "counters": counters, "digest": "d",
             "last_collected_s": 1.0, "worker_cpu": [1.0, 0.5]}
    measured = {"worlds": [world], "wall_s": 1.0, "cpu_s": 1.0,
                "peak_rss_mb": 1.0, "setup_s": 0.1}
    snapshot = {name: {"layer": name.split(":")[0], "calls": 1,
                       "inclusive_s": 1.0, "child_s": 0.0, "callers": {}}
                for name in ("shard:pack_frame", "shard:unpack_frame",
                             probes.BARRIER_WAIT, "sim:SimKernel.run")}
    return {
        "verified": {"worlds": [world], "collect_lag_s": [1.0],
                     "resolve_s": []},
        "setups": [0.1],
        "untraced": [[measured, measured]],
        "traced": [[dict(measured, spans=snapshot)]],
    }


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_metric_names_equal_benchmark_json(workload):
    declared = run.load_declared()
    runs = _fake_runs(workload)
    assert set(run.end_to_end_metrics(runs)) == set(declared["end_to_end"])
    assert set(run.per_layer_metrics(workload, runs)) == set(declared["per_layer"])


def test_benchmark_json_follows_its_format():
    with open(ROOT / "BENCHMARK.json") as handle:
        doc = json.load(handle)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_a_differing_counter_fails_the_invocation():
    world = {"counters": {"sim.events": 5}, "digest": "d",
             "last_collected_s": 1.0}
    run.check_same(world, dict(world), ["sim.events"], "same")
    with pytest.raises(run.BenchError, match="sim.events"):
        run.check_same(world, dict(world, counters={"sim.events": 6}),
                       ["sim.events"], "repeat")
    with pytest.raises(run.BenchError, match="digest"):
        run.check_same(world, dict(world, digest="e"), [], "repeat")


def test_a_silent_span_fails_the_traced_run():
    snapshot = {"core:DgcCollector._tick": {"layer": "core", "calls": 0}}
    with pytest.raises(run.BenchError, match="never fired"):
        run.check_spans("torture", snapshot)
    run.check_spans("torture", {"registry:x": {"layer": "registry", "calls": 0}})


def test_command_prints_every_declared_metric():
    """One real invocation on the cheapest workload, traced."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "naming",
         "--seed", "2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = run.load_declared()["per_layer"]
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert f"{name} {metric['value']!r} {metric['unit']}" in lines
    assert result["metrics"]["registry.resolves"]["value"] > 0
    assert result["metrics"]["shard.rounds"]["value"] == 0
