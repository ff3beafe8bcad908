"""The sharded multi-process world: outcome equivalence, determinism,
and configuration guards.

Each equivalence test runs the same SPMD workload twice — once
partitioned over worker processes (:class:`repro.shard.ShardedWorld`),
once single-process through the identical builder
(:func:`repro.shard.replay_single_process`) — and asserts the outcome
signatures match: same activities created, same explicit terminations,
the exact same set of collected activity ids.  Scales are kept small;
the full-size comparison lives in ``benchmarks/test_perf_live.py``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.config import DgcConfig
from repro.errors import ConfigurationError, SimulationError
from repro.net.topology import Site, Topology
from repro.shard import ShardedWorld, make_plan, replay_single_process


def two_site_topology() -> Topology:
    return Topology(
        [Site("a", 2, intra_rtt_s=0.002), Site("b", 2, intra_rtt_s=0.002)],
        {("a", "b"): 0.1},
    )


def small_dgc() -> DgcConfig:
    return DgcConfig(ttb=1.0, tta=3.0)


TORTURE_PARAMS = dict(slave_count=8, active_duration=6.0, initial_pool=3)


# ----------------------------------------------------------------------
# Outcome equivalence: sharded vs. single-process replay
# ----------------------------------------------------------------------


def test_torture_sharded_matches_replay():
    topo = two_site_topology()
    result = ShardedWorld(
        topo, 2, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    ).run()
    world, _, signature = replay_single_process(
        topo, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    )
    assert result.outcome_signature() == signature
    assert result.created == 2 + TORTURE_PARAMS["slave_count"]
    assert result.live_non_root == 0
    assert result.safety_violations == 0
    assert result.collected_total == world.stats.collected_total
    # Cross-shard traffic actually flowed through the wire frames.
    assert result.frame_count > 0
    assert result.frame_bytes > 0
    assert result.egress_messages > 0
    assert result.injected_entries > 0
    # Every frame's entries were counted; only post-outcome frames may
    # die undelivered, so the packed total bounds the injected total.
    assert result.frame_entries >= result.injected_entries > 0
    # The events split adds up, and coordination work is real but not
    # the whole story.
    assert (
        result.events_workload + result.events_coordination
        == result.events_fired
    )
    assert 0 < result.events_coordination < result.events_fired


def test_metro_wan_sharded_matches_replay():
    """The per-channel lookahead machinery on the topology it exists
    for: metro pairs bridged by a WAN, one shard per site, so the
    matrix holds two genuinely different channel widths."""
    from repro.net.topology import metro_wan_topology

    topo = metro_wan_topology(
        8, site_count=4, intra_rtt_s=0.002, metro_rtt_s=0.1, wan_rtt_s=0.4
    )
    params = dict(slave_count=8, active_duration=6.0, initial_pool=3)
    result = ShardedWorld(
        topo, 4, workload="torture", params=params, dgc=small_dgc(), seed=3,
    ).run()
    _, _, signature = replay_single_process(
        topo, workload="torture", params=params, dgc=small_dgc(), seed=3,
    )
    assert result.outcome_signature() == signature
    assert result.safety_violations == 0
    assert result.frame_count > 0
    # And two identical runs stay byte-identical under per-shard
    # horizons and selective advance.
    again = ShardedWorld(
        topo, 4, workload="torture", params=params, dgc=small_dgc(), seed=3,
    ).run()
    assert again.frame_digest == result.frame_digest
    assert again.rounds == result.rounds


def test_naming_sharded_matches_replay():
    topo = two_site_topology()
    params = dict(
        client_count=6, service_count=3, duration=8.0,
        lookup_period=1.0, lookup_burst=2,
    )
    result = ShardedWorld(
        topo, 2, workload="naming", params=params, dgc=small_dgc(), seed=5,
    ).run()
    _, env, signature = replay_single_process(
        topo, workload="naming", params=params, dgc=small_dgc(), seed=5,
    )
    assert result.outcome_signature() == signature
    # Per-shard workload results sum to the single-process totals: every
    # client resolved somewhere, exactly once.
    merged = {
        key: sum(shard[key] for shard in result.workload_results)
        for key in ("resolves_issued", "resolves_completed", "hits", "misses")
    }
    replay = env.results()
    for key, value in merged.items():
        assert value == replay[key], key
    assert merged["resolves_issued"] == merged["resolves_completed"]


def test_naming_beat_coherence_sharded_matches_replay():
    """The beat-quantized coherence channel composes with the sharded
    world: a naming run with ``coherence="beat"`` (plus the bind-heavy
    knobs — aliased names, Zipf-skewed draws, churn bursts) over two
    shards matches its single-process replay's outcome signature, and
    the coherence counters merge across workers."""
    from repro.core.config import RegistryConfig

    topo = two_site_topology()
    params = dict(
        client_count=6, service_count=3, name_count=9, zipf_s=1.1,
        churn_burst=2, duration=8.0, lookup_period=1.0, lookup_burst=2,
        churn_period=2.0,
    )
    registry = RegistryConfig(
        placement="replicated", coherence="beat", lease_beat_s=1.0
    )
    result = ShardedWorld(
        topo, 2, workload="naming", params=params, dgc=small_dgc(),
        registry=registry, seed=5,
    ).run()
    world, env, signature = replay_single_process(
        topo, workload="naming", params=params, dgc=small_dgc(),
        registry=registry, seed=5,
    )
    assert result.outcome_signature() == signature
    assert result.safety_violations == 0
    merged = {
        key: sum(shard[key] for shard in result.workload_results)
        for key in ("resolves_issued", "resolves_completed", "hits", "misses")
    }
    replay = env.results()
    for key, value in merged.items():
        assert value == replay[key], key
    # The channel actually carried coherence traffic on the shards, and
    # the summed counters match the single-process run's.
    assert result.registry["coherence_staged"] > 0
    assert result.registry["coherence_messages_sent"] > 0
    assert (
        result.registry["coherence_staged"]
        == world.registry.coherence_staged
    )


def test_nas_sharded_matches_replay():
    topo = two_site_topology()
    params = dict(
        kernel="ft", ao_count=4, iterations=3, iter_time_s=0.5,
        payload_bytes=1000,
    )
    result = ShardedWorld(
        topo, 2, workload="nas", params=params, dgc=small_dgc(), seed=7,
    ).run()
    _, _, signature = replay_single_process(
        topo, workload="nas", params=params, dgc=small_dgc(), seed=7,
    )
    assert result.outcome_signature() == signature
    # The phased protocol completed settle -> run -> drain in order.
    assert len(result.phase_times) == 3
    assert result.phase_times == sorted(result.phase_times)


def test_single_shard_degenerates_to_one_worker():
    topo = two_site_topology()
    result = ShardedWorld(
        topo, 1, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    ).run()
    _, _, signature = replay_single_process(
        topo, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    )
    assert result.outcome_signature() == signature
    # One shard, no shard boundary: nothing ever crosses the wire.
    assert result.frame_count == 0
    assert result.frame_bytes == 0


# ----------------------------------------------------------------------
# Determinism: identical runs produce byte-identical frame streams
# ----------------------------------------------------------------------


def run_recorded(seed: int) -> "ShardedRunResult":
    return ShardedWorld(
        two_site_topology(), 2, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=seed, trace=True, record_frames=True,
    ).run()


def test_frame_stream_is_deterministic():
    first = run_recorded(seed=3)
    second = run_recorded(seed=3)
    assert first.frame_digest == second.frame_digest
    assert first.frame_count == second.frame_count
    assert first.frame_bytes == second.frame_bytes
    assert first.rounds == second.rounds
    assert first.outcome_signature() == second.outcome_signature()
    # The recorded logs match frame-for-frame: same route, same bytes.
    assert first.frames == second.frames
    # And the merged trace streams are identical event-for-event.
    assert first.trace == second.trace


#: The seed-3 wire stream: ``(frame_digest, frame_bytes, rounds)``.
#: Send lanes, egress staging and frame injection may change how a row
#: reaches the wire, never the bytes on it; an intentional frame-format
#: change updates these constants and says so in CHANGES.md.
PINNED_SEED3_STREAM = (
    "6d561a06ae5d4fff02437b3946ceaac5708b02f86f6484ce1165db5d1082cc69",
    14082,
    330,
)


def test_frame_stream_is_pinned():
    result = run_recorded(seed=3)
    assert (
        result.frame_digest, result.frame_bytes, result.rounds
    ) == PINNED_SEED3_STREAM


def test_different_seed_changes_frames_not_structure():
    first = run_recorded(seed=3)
    other = run_recorded(seed=4)
    assert first.frame_digest != other.frame_digest
    assert first.created == other.created  # same SPMD build plan


def test_merged_trace_is_time_ordered():
    result = run_recorded(seed=3)
    assert result.trace, "trace=True must produce a merged stream"
    times = [event[0] for event in result.trace]
    assert times == sorted(times)
    assert result.frames, "record_frames=True must keep the raw log"
    for src, dest, buf in result.frames:
        assert src != dest
        assert isinstance(buf, bytes) and buf


# ----------------------------------------------------------------------
# Configuration guards
# ----------------------------------------------------------------------


def test_requires_dgc_config():
    with pytest.raises(ConfigurationError, match="DgcConfig"):
        ShardedWorld(two_site_topology(), 2, workload="torture")


def test_rejects_per_event_core():
    with pytest.raises(ConfigurationError, match="batched"):
        ShardedWorld(
            two_site_topology(), 2, workload="torture",
            dgc=DgcConfig(ttb=1.0, tta=3.0, batched_beats=False),
        )


def test_rejects_unknown_workload():
    with pytest.raises(ConfigurationError, match="unknown shard workload"):
        ShardedWorld(
            two_site_topology(), 2, workload="mystery", dgc=small_dgc(),
        )


def test_shard_count_bounds():
    topo = two_site_topology()  # 4 nodes
    with pytest.raises(ConfigurationError):
        make_plan(topo, 0)
    with pytest.raises(ConfigurationError):
        make_plan(topo, 5)


def test_zero_lookahead_rejected():
    # Two shards split a zero-latency site: no safe advance window.
    topo = Topology([Site("fast", 4, intra_rtt_s=0.0)], {})
    with pytest.raises(ConfigurationError, match="lookahead"):
        make_plan(topo, 2)
    # The same nodes on one shard are fine (lookahead unused).
    plan = make_plan(topo, 1)
    assert plan.shard_count == 1


def test_nas_reply_barrier_rejected():
    with pytest.raises(ConfigurationError, match="reply-barrier"):
        replay_single_process(
            two_site_topology(), workload="nas",
            params=dict(kernel="ft", ao_count=4, reply_barrier=True),
            dgc=small_dgc(),
        )
    # In the multi-process arm the worker fails at build; the
    # coordinator surfaces it instead of hanging.
    with pytest.raises(SimulationError, match="reply-barrier"):
        ShardedWorld(
            two_site_topology(), 2, workload="nas",
            params=dict(kernel="ft", ao_count=4, reply_barrier=True),
            dgc=small_dgc(),
        ).run()


class _KillsWorkerOne(ShardedWorld):
    """Kills worker 1 with SIGKILL right after its third report."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reports = 0
        self.worker_reports = 0
        self.killed_at = None
        self.killed_t = None

    def _recv_report(self, conn):
        report = super()._recv_report(conn)
        self.reports += 1
        if conn is self._conns[1] and self.killed_at is None:
            self.worker_reports += 1
            if self.worker_reports == 3:
                os.kill(self._procs[1].pid, signal.SIGKILL)
                self.killed_at = self.reports
                self.killed_t = time.monotonic()
        return report


def test_dead_worker_fails_fast():
    """A worker killed mid-run surfaces as a SimulationError naming its
    shard and exit code within one round, and the surviving worker is
    ended rather than waited on."""
    world = _KillsWorkerOne(
        two_site_topology(), 2, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    )
    with pytest.raises(
        SimulationError, match=r"shard worker 1 died.*exit code -9"
    ):
        world.run()
    assert world.killed_at is not None
    # Within one round: at most one report per shard after the kill.
    assert world.reports - world.killed_at <= world.plan.shard_count
    assert time.monotonic() - world.killed_t < 5.0
    assert not any(proc.is_alive() for proc in world._procs)


def test_plan_partitions_nodes_contiguously():
    topo = Topology(
        [Site("a", 3, intra_rtt_s=0.001), Site("b", 2, intra_rtt_s=0.001)],
        {("a", "b"): 0.2},
    )
    plan = make_plan(topo, 2)
    assert plan.shard_count == 2
    all_nodes = [name for s in range(2) for name in plan.nodes_of(s)]
    assert all_nodes == list(plan.node_names)
    for shard in range(2):
        for name in plan.nodes_of(shard):
            assert plan.shard_of(name) == shard
    # Lookahead is the minimum cross-shard one-way latency.
    assert plan.lookahead == pytest.approx(0.1)
    with pytest.raises(ConfigurationError):
        plan.shard_of("nowhere-0")
