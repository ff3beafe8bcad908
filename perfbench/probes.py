"""Wrappers and hooks the benchmark installs around the program.

Everything is patched on classes or module globals, before any world is
built, at the name the caller looks up:

* ``SimKernel`` and ``BeatWheel`` use ``__slots__``, so instance patches
  would fail; class attributes work.
* Several objects bind methods once at construction (a collector keeps
  ``network.send_dgc_single``, a node's dispatch table keeps
  ``collector.on_dgc_message``, a beat timer keeps ``collector._tick``),
  so the class must be patched before the world exists.
* ``DgcCollector`` calls the ``process_message`` imported into
  ``repro.core.collector``, and shard workers call the ``pack_frame``
  imported into ``repro.shard.worker``; those module globals are
  patched, not the defining modules' names.

Sharded workers are forked, so they inherit every patch.  Their spans
and counters travel back inside the worker's result dictionary (under
``"perfbench"``), which the worker sends before its entry function
returns.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from typing import Any, Callable, Dict, List, Optional

from perfbench.spans import WAIT, SpanRecorder

#: (layer, module, class or None for a module global, attribute).
SPANS = (
    ("sim", "repro.sim.kernel", "SimKernel", "run"),
    ("sim", "repro.live.kernel", "LiveKernel", "advance"),
    ("net", "repro.net.network", "Network", "send_typed"),
    ("net", "repro.net.network", "Network", "send_dgc_single"),
    ("net", "repro.net.network", "Network", "send_dgc_run"),
    ("net", "repro.net.network", "Network", "_fire_pulse_columnar"),
    ("net", "repro.net.network", "Network", "inject_remote_entries"),
    ("core", "repro.core.collector", "DgcCollector", "on_dgc_message"),
    ("core", "repro.core.collector", "DgcCollector", "on_dgc_response"),
    ("core", "repro.core.collector", "DgcCollector", "_tick"),
    ("core", "repro.core.collector", None, "process_message"),
    ("core", "repro.core.collector", None, "process_response"),
    ("runtime", "repro.runtime.node", "Node", "send_request"),
    ("runtime", "repro.runtime.node", "Node", "send_reply"),
    ("runtime", "repro.runtime.node", "Node", "deserialize_ref"),
    ("runtime", "repro.runtime.activeobject", "Activity", "deliver"),
    ("runtime", "repro.runtime.activeobject", "Activity", "_step"),
    ("runtime", "repro.runtime.future", "Future", "resolve"),
    ("registry", "repro.runtime.registry", "NamingService", "lookup_from"),
    ("registry", "repro.runtime.registry", "NamingService", "serve_lookup"),
    ("registry", "repro.runtime.registry", "NamingService", "bind_from"),
    ("registry", "repro.runtime.registry", "NamingService", "serve_bind"),
    ("registry", "repro.runtime.registry", "NamingService", "apply_invalidate"),
    ("registry", "repro.runtime.registry", "NamingService", "serve_renew"),
    ("shard", "repro.shard.worker", None, "pack_frame"),
    ("shard", "repro.shard.worker", None, "unpack_frame"),
    ("shard", "repro.shard.coordinator", "ShardedWorld", "_drive"),
    (WAIT, "repro.shard.coordinator", "ShardedWorld", "_recv"),
)

#: Span of the worker entry, and of a worker blocked on its pipe waiting
#: for the coordinator's next grant.
WORKER_ENTRY = "shard:worker._serve"
BARRIER_WAIT = "wait:worker.recv"

#: Spans of an exercised layer that may stay silent, per workload, with
#: the reason.  Every other span of an exercised layer must fire.
SILENT_SPANS = {
    "torture": {
        # single-process: no live kernel, no frames to inject
        "sim:LiveKernel.advance", "net:Network.inject_remote_entries",
        # torture calls are one-way: no replies, no futures
        "runtime:Node.send_reply", "runtime:Future.resolve",
    },
    "naming": {
        "sim:LiveKernel.advance", "net:Network.inject_remote_entries",
        # clients only resolve and the binder only binds: no app calls
        "runtime:Node.send_request", "runtime:Node.send_reply",
        "runtime:Activity.deliver",
        # the binder sits on the home node, so binds apply locally
        "registry:NamingService.serve_bind",
    },
    "torture-2shard": {
        # the coordinator process runs no SimKernel; workers advance
        "sim:SimKernel.run",
        "runtime:Node.send_reply", "runtime:Future.resolve",
    },
}


def _patch(module_name: str, owner: Optional[str], attribute: str,
           make: Callable[[Callable], Callable]) -> None:
    module = importlib.import_module(module_name)
    target = getattr(module, owner) if owner else module
    setattr(target, attribute, make(getattr(target, attribute)))


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point in :data:`SPANS`, plus the shard
    worker's entry and its pipe waits."""
    for layer, module_name, owner, attribute in SPANS:
        name = f"{layer}:{owner}.{attribute}" if owner else f"{layer}:{attribute}"
        _patch(module_name, owner, attribute,
               lambda fn, layer=layer, name=name: recorder.wrap(layer, name, fn))

    def serve_factory(serve):
        traced = recorder.wrap("shard", WORKER_ENTRY, serve)

        def entry(conn, spec):
            # A forked worker starts with the parent's records and open
            # spans; it reports its own only.
            recorder.reset()
            return traced(_WaitTimedConnection(conn, recorder), spec)

        return entry

    _patch("repro.shard.worker", None, "_serve", serve_factory)


class _WaitTimedConnection:
    """A worker's pipe whose blocking ``recv`` is recorded as waiting."""

    def __init__(self, conn, recorder: SpanRecorder) -> None:
        self._conn = conn
        self.recv = recorder.wrap(WAIT, BARRIER_WAIT, conn.recv)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._conn, name)


def install_worker_report(recorder: Optional[SpanRecorder]) -> None:
    """Make every shard worker append its counters, collection instants,
    CPU time and (when tracing) spans to the result it sends home."""

    def factory(final_result):
        def report(world, env, spec):
            result = final_result(world, env, spec)
            result["perfbench"] = {
                # A forked child's CPU clock starts at zero.
                "cpu_s": time.process_time(),
                "counters": world_counters(world),
                "collected": sorted(world.stats.collected_by_id.items()),
                "spans": recorder.snapshot() if recorder else None,
            }
            return result

        return report

    _patch("repro.shard.worker", None, "_final_result", factory)


class SetupDone(Exception):
    """Raised by the first-event marker when only set-up is measured."""


class FirstEventMarker:
    """Records the host time at which the world's kernel is about to fire
    its first event: ``SimKernel.run`` entered, or, sharded, every worker
    has built its world and reported in."""

    def __init__(self, stop: bool) -> None:
        self.at: Optional[float] = None
        self.stop = stop
        #: The sharded coordinator's worker processes, once spawned.
        self._workers: list = []

    def _mark(self) -> None:
        if self.at is None:
            self.at = time.perf_counter()
            if self.stop:
                # Forked workers hold copies of each other's pipe ends,
                # so closing the coordinator's ends does not wake them:
                # end them here, and the coordinator's cleanup joins them.
                for process in self._workers:
                    process.terminate()
                raise SetupDone()

    def install(self, sharded: bool) -> None:
        if not sharded:
            def run_factory(run):
                def marked_run(kernel, *args, **kwargs):
                    self._mark()
                    return run(kernel, *args, **kwargs)

                return marked_run

            _patch("repro.sim.kernel", "SimKernel", "run", run_factory)
            return

        def spawn_factory(spawn):
            def recorded_spawn(sharded, mp, conns, procs):
                self._workers = procs
                return spawn(sharded, mp, conns, procs)

            return recorded_spawn

        def report_factory(recv_report):
            calls = [0]

            def marked_recv_report(sharded, conn):
                report = recv_report(sharded, conn)
                calls[0] += 1
                if calls[0] == sharded.plan.shard_count:
                    self._mark()
                return report

            return marked_recv_report

        _patch("repro.shard.coordinator", "ShardedWorld", "_spawn",
               spawn_factory)
        _patch("repro.shard.coordinator", "ShardedWorld", "_recv_report",
               report_factory)


class LatencyHooks:
    """Idle transitions and resolve latencies, in simulated seconds.

    ``World.create_activity`` is wrapped to subscribe to each new
    activity's public ``on_idle``; the start routine's transition runs
    inside ``create_activity`` at the creation instant, so ``created_at``
    stands in for it.  ``NamingService.lookup_from`` is wrapped to attach
    ``Future.on_resolve`` to the future it returns.
    """

    def __init__(self) -> None:
        self.last_idle: Dict[Any, float] = {}
        self.resolve_s: List[float] = []

    def install(self) -> None:
        from repro.runtime.activeobject import Activity

        last_idle = self.last_idle
        resolve_s = self.resolve_s

        def create_factory(create_activity):
            def create(world, *args, **kwargs):
                made = create_activity(world, *args, **kwargs)
                activity = (
                    made if isinstance(made, Activity)
                    else world.find_activity(made.ref.activity_id)
                )
                if activity is not None and not activity.is_root:
                    kernel = world.kernel
                    last_idle[activity.id] = activity.created_at
                    activity.on_idle(
                        lambda a: last_idle.__setitem__(a.id, kernel.now)
                    )
                return made

            return create

        def lookup_factory(lookup_from):
            def lookup(naming, node, sender, name):
                future = lookup_from(naming, node, sender, name)
                kernel = node.kernel
                issued = kernel.now
                future.on_resolve(
                    lambda _: resolve_s.append(kernel.now - issued)
                )
                return future

            return lookup

        _patch("repro.world", "World", "create_activity", create_factory)
        _patch("repro.runtime.registry", "NamingService", "lookup_from",
               lookup_factory)

    def collect_lags(self, collected: Dict[Any, float]) -> List[float]:
        """Per collected activity, collection instant minus last idle
        transition; forgets the world's idle record."""
        lags = [
            at - self.last_idle[activity_id]
            for activity_id, at in collected.items()
            if activity_id in self.last_idle
        ]
        self.last_idle.clear()
        return lags


def world_counters(world) -> Dict[str, Any]:
    """Counters the program already keeps, read after a world ran."""
    from repro.net import kinds

    kernel = world.kernel
    network = world.network
    accountant = world.accountant
    naming = world.registry
    stats = world.stats
    return {
        "sim.events": kernel.fired_count,
        "sim.peak_pending": kernel.peak_pending_count,
        "sim.beat_buckets": kernel.beat_wheel.bucket_event_count,
        "net.messages": sum(accountant.messages_for(k) for k in kinds.ALL_KINDS),
        "net.staged_entries": network.staged_entry_count,
        "net.pulses": network.pulse_event_count,
        "net.aggregated_messages": network.aggregated_message_count,
        "core.dgc_messages": accountant.messages_for(kinds.KIND_DGC_MESSAGE),
        "core.dgc_responses": accountant.messages_for(kinds.KIND_DGC_RESPONSE),
        "runtime.requests": world.requests_sent,
        "runtime.replies": world.replies_sent,
        "registry.resolves": naming.resolves,
        "registry.cache_hits": naming.cache_hits,
        "registry.remote_lookups": naming.remote_lookups,
        "registry.invalidations": naming.invalidations_sent,
        "registry.binds": naming.binds_applied + naming.unbinds_applied,
        "wire_bytes": accountant.total_bytes,
        "dgc_bytes": accountant.dgc_bytes,
        "registry_bytes": accountant.registry_bytes,
        "created": stats.created,
        "collected": stats.collected_total,
        "terminated_explicit": stats.terminated_explicit,
        "dead_letters": stats.dead_letters,
        "safety_violations": stats.safety_violations,
    }


def outcome_digest(collected: List[tuple]) -> str:
    """Digest of the sorted ``(activity id, collection instant)`` pairs."""
    return hashlib.sha256(repr(collected).encode()).hexdigest()
