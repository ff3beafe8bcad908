"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload torture --seed 1 --seconds 20 --trace 0

One invocation:

1. runs a verification pass on the seed's input in its own process: the
   ground-truth oracle checks every collection (``safety_checks=True``),
   and the simulated latency samples are taken there;
2. measures set-up time in a few fresh processes;
3. repeats measured runs of one world each, cycling over the input's
   worlds, each in a fresh process, until ``--seconds`` have passed (at
   least two untraced runs per world; with ``--trace 1`` traced runs
   alternate with untraced ones);
4. checks that every run collected everything, saw no dead letter, and
   produced exactly the verification pass's outcome and counters (for
   ``torture-2shard``, the oracle-checked single-process replay's), and
   that repeated runs agree on every counter;
5. only then prints one ``name value unit`` line per metric and, last,
   one JSON object.

Any failed check exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import spec, stats  # noqa: E402
from perfbench.probes import BARRIER_WAIT, SILENT_SPANS  # noqa: E402
from perfbench.spans import layer_self_times  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Fresh-process set-up probes per invocation, on top of the one sample
#: every untraced measured run gives.
SETUP_PROBES = 5
#: Untraced runs per world: the determinism check needs a repeat.
MIN_UNTRACED_RUNS = 2
#: Whole-invocation budget, below the 180 s every run must end within.
BUDGET_S = 170.0

LAYERS = ("sim", "net", "core", "runtime", "registry", "shard")

#: Counters that do not depend on how the simulation is executed: the
#: sharded runs must match the single-process replay on these.  Kernel
#: events, staged entries and pulses differ by construction (frame
#: injection adds pulse instants).
OUTCOME_KEYS = (
    "wire_bytes", "dgc_bytes", "registry_bytes", "net.messages",
    "core.dgc_messages", "core.dgc_responses", "runtime.requests",
    "runtime.replies", "registry.resolves", "registry.cache_hits",
    "registry.remote_lookups", "registry.invalidations", "registry.binds",
    "created", "collected", "terminated_explicit", "dead_letters",
    "safety_violations",
)


class BenchError(Exception):
    """A check failed; the invocation reports nothing."""


def load_declared() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return {
        "end_to_end": {m["name"]: m for m in declared["end_to_end"]},
        "per_layer": {m["name"]: m for m in declared["per_layer"]},
    }


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S

    def child(self, mode: str, index: int) -> Dict[str, Any]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        # Own session: on a timeout the whole process group goes, shard
        # workers included.
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, self.workload,
             str(self.seed), str(index)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} run exceeded the time budget") from None
        lines = stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise BenchError(
                f"{mode} run exited {proc.returncode} without a report"
            ) from None
        if proc.returncode != 0 or not report.get("ok"):
            raise BenchError(f"{mode} run failed: {report.get('error')}")
        return report


def check_same(want: dict, got: dict, keys, what: str) -> None:
    """World record ``got`` must match ``want`` on ``keys``, its outcome
    digest and its last collection instant."""
    for key in keys:
        if want["counters"][key] != got["counters"][key]:
            raise BenchError(
                f"{what}: {key} = {got['counters'][key]}, "
                f"expected {want['counters'][key]}"
            )
    for key in ("digest", "last_collected_s"):
        if want[key] != got[key]:
            raise BenchError(f"{what}: {key} differs")


def check_spans(workload: str, snapshot: Dict[str, Dict[str, Any]]) -> None:
    silent = SILENT_SPANS[workload]
    exercised = spec.EXERCISED_LAYERS[workload]
    dead = sorted(
        name for name, record in snapshot.items()
        if record["layer"] in exercised and name not in silent
        and record["calls"] == 0
    )
    if dead:
        raise BenchError(f"traced run: spans never fired: {', '.join(dead)}")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def collect(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    """Every process of one invocation.  Measured runs take one world of
    the input each, cycling over the worlds: host speed here drifts
    within seconds, and many short independent runs average that better
    than a few long ones.  ``untraced[i]``/``traced[i]`` hold world
    ``i``'s runs."""
    runner = Runner(workload, seed)
    count = len(spec.make_inputs(workload, seed))
    verified = runner.child("verify", 0)
    setups = [
        runner.child("setup", probe % count)["setup_s"]
        for probe in range(SETUP_PROBES)
    ]
    untraced: List[List[dict]] = [[] for _ in range(count)]
    traced: List[List[dict]] = [[] for _ in range(count)]
    started = time.monotonic()
    step = 0
    while (
        time.monotonic() - started < seconds
        or min(map(len, untraced)) < MIN_UNTRACED_RUNS
        or (trace and min(map(len, traced)) < 1)
    ):
        index = step % count
        step += 1
        if trace and len(traced[index]) < len(untraced[index]):
            traced[index].append(runner.child("trace", index))
        else:
            untraced[index].append(runner.child("measure", index))
    return {"verified": verified, "setups": setups, "untraced": untraced,
            "traced": traced}


def references(runs: Dict[str, Any]) -> List[dict]:
    """Each world's record from its first untraced run (all runs of a
    world agree on every counter once :func:`check` passed)."""
    return [world_runs[0]["worlds"][0] for world_runs in runs["untraced"]]


def check(workload: str, runs: Dict[str, Any]) -> int:
    """Correctness and determinism across the invocation's runs; returns
    the number of operations attempted."""
    sharded = workload == "torture-2shard"
    attempted = failed = 0
    for index, reference in enumerate(references(runs)):
        all_keys = list(reference["counters"])
        check_same(
            runs["verified"]["worlds"][index], reference,
            OUTCOME_KEYS if sharded else all_keys,
            f"world {index}: "
            + ("replay with oracle vs sharded run" if sharded
               else "verification vs measured run"),
        )
        repeats = runs["untraced"][index][1:] + runs["traced"][index]
        for run in repeats:
            check_same(reference, run["worlds"][0], all_keys,
                       f"world {index}: repeated run")
        for run in runs["untraced"][index] + runs["traced"][index]:
            attempted += run["worlds"][0]["attempted"]
            failed += run["worlds"][0]["attempted"] - run["worlds"][0]["ops"]
    for world_runs in runs["traced"]:
        for run in world_runs:
            check_spans(workload, run["spans"])
    if failed:
        raise BenchError(f"{failed} of {attempted} operations failed")
    return attempted


def per_world_median(world_runs: List[List[dict]], pick) -> List[float]:
    return [statistics.median([pick(run) for run in runs]) for runs in world_runs]


def end_to_end_metrics(runs: Dict[str, Any]) -> Dict[str, float]:
    """Per world, the median over its runs; the input's figure sums the
    worlds (a peak takes the largest)."""
    untraced = runs["untraced"]
    worlds = references(runs)
    setups = runs["setups"] + [
        run["setup_s"] for world_runs in untraced for run in world_runs
    ]
    return {
        "ops_per_s": (
            sum(world["ops"] for world in worlds)
            / sum(per_world_median(untraced, lambda run: run["wall_s"]))
        ),
        "cpu_s": sum(per_world_median(untraced, lambda run: run["cpu_s"])),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(
            per_world_median(untraced, lambda run: run["peak_rss_mb"])
        ),
        "wire_mb": sum(w["counters"]["wire_bytes"] for w in worlds) / 1e6,
        "dgc_mb": sum(w["counters"]["dgc_bytes"] for w in worlds) / 1e6,
    }


def per_layer_metrics(workload: str, runs: Dict[str, Any]) -> Dict[str, float]:
    """Counters (summed over the input's worlds), span times (per world
    the median over its traced runs, summed) and the verification pass's
    simulated latencies.  Counters of a layer a workload never reaches
    read 0, as predicted for it."""
    untraced, traced = runs["untraced"], runs["traced"]
    worlds = references(runs)
    sharded = workload == "torture-2shard"

    def counter(key: str) -> float:
        return sum(world["counters"][key] for world in worlds)

    def shard_counter(key: str) -> float:
        return counter(key) if sharded else 0

    def span_sum(pick) -> float:
        return sum(per_world_median(traced, lambda run: pick(run["spans"])))

    def inclusive(*names: str) -> float:
        return span_sum(lambda snapshot: sum(
            snapshot[name]["inclusive_s"] for name in names if name in snapshot
        ))

    def worker_cpu(which: int) -> float:
        if not sharded:
            return 0.0
        return sum(per_world_median(
            untraced, lambda run: run["worlds"][0]["worker_cpu"][which]
        ))

    lag = stats.summarize(runs["verified"]["collect_lag_s"])
    resolve = stats.summarize(runs["verified"]["resolve_s"])
    metrics = {
        "sim.events": counter("sim.events"),
        "sim.beat_buckets": counter("sim.beat_buckets"),
        "sim.peak_pending": max(
            world["counters"]["sim.peak_pending"] for world in worlds
        ),
        "net.messages": counter("net.messages"),
        "net.staged_entries": counter("net.staged_entries"),
        "net.pulses": counter("net.pulses"),
        "net.msgs_per_entry": ratio(counter("net.messages"),
                                    counter("net.staged_entries")),
        "core.dgc_messages": counter("core.dgc_messages"),
        "core.dgc_responses": counter("core.dgc_responses"),
        "core.msgs_per_collect": ratio(counter("core.dgc_messages"),
                                       counter("collected")),
        "runtime.requests": counter("runtime.requests"),
        "runtime.replies": counter("runtime.replies"),
        "registry.resolves": counter("registry.resolves"),
        "registry.cache_hit_ratio": ratio(counter("registry.cache_hits"),
                                          counter("registry.resolves")),
        "registry.remote_lookups": counter("registry.remote_lookups"),
        "registry.invalidations": counter("registry.invalidations"),
        "registry.binds": counter("registry.binds"),
        "registry.mb": counter("registry_bytes") / 1e6,
        "shard.rounds": shard_counter("shard.rounds"),
        "shard.frame_bytes": shard_counter("shard.frame_bytes"),
        "shard.bytes_per_entry": ratio(shard_counter("shard.frame_bytes"),
                                       shard_counter("shard.frame_entries")),
        "shard.coord_events": shard_counter("shard.coord_events"),
        "shard.codec_s": inclusive("shard:pack_frame", "shard:unpack_frame"),
        "shard.worker_cpu_max_s": worker_cpu(0),
        "shard.worker_cpu_min_s": worker_cpu(1),
        "shard.barrier_wait_s": inclusive(BARRIER_WAIT),
        "bench.trace_overhead_ratio": (
            sum(per_world_median(traced, lambda run: run["cpu_s"]))
            / sum(per_world_median(untraced, lambda run: run["cpu_s"]))
        ),
        "last_collected_s": (
            sum(world["last_collected_s"] for world in worlds) / len(worlds)
        ),
        "collect_lag_p50_s": lag[0],
        "collect_lag_tail_s": lag[1],
        "collect_lag_tail_pct": (lag[2] or 0) / 10.0,
        "collect_lag_samples": lag[3],
        "resolve_p50_s": resolve[0],
        "resolve_tail_s": resolve[1],
        "resolve_tail_pct": (resolve[2] or 0) / 10.0,
        "resolve_samples": resolve[3],
    }
    for layer in LAYERS + ("other",):
        metrics[f"{layer}.self_s"] = span_sum(
            lambda snapshot: layer_self_times(snapshot).get(layer, 0.0)
        )
    return metrics


def absent_notes(workload: str, per_layer: Dict[str, float]) -> List[str]:
    """Metrics printed as 0 because the workload has no such samples."""
    notes = []
    for prefix in ("collect_lag", "resolve"):
        if not per_layer[f"{prefix}_samples"]:
            notes.append(f"{prefix}_*: no samples on {workload}")
        elif not per_layer[f"{prefix}_tail_pct"]:
            notes.append(f"{prefix}_tail_*: too few samples for any tail")
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        declared = load_declared()
        # Import from bytecode in every measured process, whether or not
        # the environment lets imports write it: set-up time then measures
        # loading the program, not compiling it on whichever run is first.
        if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
            raise BenchError("the program's sources do not compile")
        runs = collect(args.workload, args.seed, args.seconds, bool(args.trace))
        OUT_DIR.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(OUT_DIR / f"runs-{name}.json", "w") as handle:
            json.dump(runs, handle, indent=1, sort_keys=True)
        attempted = check(args.workload, runs)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    if args.trace:
        section, values = "per_layer", per_layer_metrics(args.workload, runs)
    else:
        section, values = "end_to_end", end_to_end_metrics(runs)
    if set(values) != set(declared[section]):
        print(f"perfbench: metrics {sorted(set(values) ^ set(declared[section]))} "
              f"differ from BENCHMARK.json {section}", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": values[name], "unit": declared[section][name]["unit"]}
        for name in declared[section]
    }
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if args.trace:
        for note in absent_notes(args.workload, values):
            print(f"absent: {note}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
