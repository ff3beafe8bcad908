"""The network fabric: routes traffic between nodes.

Responsibilities:

* keep one :class:`FifoChannel` per ordered node pair (lazily created),
* apply the latency model from the :class:`Topology` plus any fault-plan
  extra delays,
* short-circuit intra-node messages (delivered at the same simulated time,
  bypassing the accountant — paper Sec. 5: intra-JVM messages are passed
  by reference and not accounted),
* feed every cross-node message to the :class:`BandwidthAccountant`,
* in *pulse-batched* mode (the beat wheel's companion), coalesce every
  delivery sharing an exact delivery instant into one kernel event.

The fabric carries two message forms over one staged transport:

* **typed** (:meth:`Network.send_typed`) — the primary, allocation-light
  form: ``(kind, item, payload)`` staged directly into the pulse for its
  delivery instant and dispatched through the destination node's typed
  sink.  Every traffic kind — app requests, future replies, registry
  lookups and DGC protocol messages — rides this path; no per-message
  :class:`Envelope` is allocated.
* **envelope** (:meth:`Network.send`) — the per-event baseline and
  compatibility form: one :class:`Envelope` per transmission, one kernel
  event per delivery when batching is off.  ``send_typed`` falls back to
  it whenever pulse semantics cannot hold (variable per-message latency
  from fault-plan delay rules, destinations without a typed sink, or
  batching disabled), so fixed-seed runs are bit-identical between the
  two delivery modes.

Pulse-batched traffic is staged in the **columnar** core: per-instant
pulse records pooled and recycled across instants through a free list,
so steady-state staging allocates O(instants), not O(messages).  DGC
traffic rides the fused :meth:`send_dgc_single`/:meth:`send_dgc_run`
lanes: messages staged back-to-back on the same channel coalesce into
**one** site-pair aggregate entry carrying flat parallel ``(target_id,
message)`` columns, which the destination unwraps in one batch-sink
call — per-message kind dispatch and route re-probing disappear for the
whole run.  Runs only ever merge when *adjacent in stage order*, so the
global delivery sequence — and with it per-channel FIFO and every
fixed-seed outcome — is preserved by construction: the columnar core is
bit-identical to the per-event baseline.  (A struct-of-arrays record for
*plain* entries was measured slower than the tuple layout — five list
appends beat one tuple only when entries merge — so the columnar form
lives where it pays: the aggregate runs' flat columns and the pooled
records; see PERFORMANCE.md.)
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError, UnknownDestinationError
from repro.net.accounting import BandwidthAccountant
from repro.net.channel import FifoChannel
from repro.net.faults import FaultPlan
from repro.net.kinds import (
    AGGREGATE_KINDS,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
    PAIRED_PAYLOAD_KINDS,
    bind_dispatch_shapes,
)
from repro.net.message import Envelope
from repro.net.topology import Topology
from repro.sim.kernel import SimKernel

#: Internal aggregate markers (see :data:`repro.net.message.AGGREGATE_KINDS`);
#: bound to module globals so the hot paths compare by identity.
_AGG_DGC_MESSAGE = AGGREGATE_KINDS[KIND_DGC_MESSAGE]
_AGG_DGC_RESPONSE = AGGREGATE_KINDS[KIND_DGC_RESPONSE]

# The snapshot above means later paired/aggregate registrations would be
# invisible here; tell the registry so register_kind can reject them.
bind_dispatch_shapes("repro.net.network")

#: Free-list high-water mark: distinct in-flight delivery instants are
#: bounded by distinct channel latencies, so a short list suffices; the
#: cap only guards against pathological churn keeping dead records alive.
_PULSE_POOL_CAP = 64


def _drop_payload(payload: Any) -> None:
    """Shared no-op :attr:`Envelope.deliver` for fallback typed envelopes
    (dispatch happens through node sinks)."""


class _Egress:
    """One destination shard's staged cross-shard rows: the body of the
    next wire frame to that shard, plus the two facts the coordinator
    needs about it, tracked as rows are appended — whether any row is
    application (non-DGC) traffic, and the earliest delivery instant."""

    __slots__ = ("rows", "has_app", "min_delivery")

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self.has_app = False
        self.min_delivery = math.inf


class _IngressChannel:
    """Stand-in channel for cross-shard entries injected into the local
    pulse: the columnar fire loop bumps ``delivered_count`` and branches
    on ``channel is not None``, and injected traffic needs both — but
    the real :class:`FifoChannel` lives wholly on the *sender's* shard
    (it computed the delivery time and did the accounting before the
    entry crossed the wire), so the receive side only needs this
    counter."""

    __slots__ = ("delivered_count",)

    def __init__(self) -> None:
        self.delivered_count = 0


# repro: allow[HOT-slots] one Network per world (no per-event instances), and benchmarks monkeypatch send on the instance, which needs the __dict__
class Network:
    """Connects registered node sinks through FIFO channels.

    Pulse entry layout is
    ``(channel, sink, dest, kind, item, payload)``:

    * envelope entries — ``kind`` is ``None``, ``item`` the envelope;
      local ones carry their resolved sink, cross-node ones re-resolve
      the destination at delivery,
    * typed entries — ``kind`` is a traffic-kind constant; local ones
      carry the resolved typed sink, cross-node ones the destination
      node name in ``dest``,
    * aggregate entries — ``kind`` is an
      :data:`~repro.net.message.AGGREGATE_KINDS` marker and
      ``item``/``payload`` are flat parallel ``(target_id, message)``
      column lists covering an adjacent same-channel run of DGC traffic.
    """

    def __init__(
        self,
        kernel: SimKernel,
        topology: Topology,
        *,
        accountant: Optional[BandwidthAccountant] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self._kernel = kernel
        self._topology = topology
        self.accountant = accountant if accountant is not None else BandwidthAccountant()
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self._sinks: Dict[str, Callable[[Envelope], None]] = {}
        self._channels: Dict[Tuple[str, str], FifoChannel] = {}
        #: Per-node typed dispatchers ``(kind, item, payload) -> None``:
        #: the envelope-free receive path of the unified fabric, one sink
        #: per node for *all* traffic kinds.
        self._typed_sinks: Dict[str, Callable[[str, Any, Any], None]] = {}
        #: DGC endpoint tables of the columnar core, one per kind:
        #: activity id -> bound collector handler.  Single DGC entries
        #: (local or injected) reach the collector with one probe here,
        #: skipping the typed sink's kind dispatch; a miss falls back to
        #: the destination's typed sink.  Nodes fill and prune them
        #: (:meth:`repro.runtime.node.Node.register_collector`), and
        #: their aggregate unwrappers probe them too.
        self.dgc_message_endpoints: Dict[Any, Callable[[Any], None]] = {}
        self.dgc_response_endpoints: Dict[Any, Callable[[Any], None]] = {}
        #: Per-node aggregate unwrappers ``(targets, messages)`` looping
        #: a site-pair run's flat columns locally.
        self._dgc_message_batch_sinks: Dict[str, Callable[[list, list], None]] = {}
        self._dgc_response_batch_sinks: Dict[str, Callable[[list, list], None]] = {}
        #: When true (the beat wheel is active), *all* deliveries are
        #: pulse-batched: every send staged for the same delivery
        #: instant shares one kernel event, so a beat bucket's whole
        #: fan-out — and an NAS iteration's whole exchange wave — costs
        #: O(distinct delivery times) heap traffic instead of
        #: O(messages).  Delivery times (per-channel latency plus the
        #: FIFO clamp), accounting, partition drops and per-channel
        #: counters are computed exactly as on the per-event path, and
        #: entries fire in stage order — which is send order, also
        #: *across* traffic kinds, so per-channel FIFO (paper Sec. 3.2)
        #: is preserved by construction and fixed-seed outcomes are
        #: bit-identical with per-event delivery.
        self.pulse_batching = False
        self._pulses: Dict[float, list] = {}
        #: Free list of recycled pulse records: the
        #: per-instant entry lists are cleared and reused, keeping their
        #: grown capacity, so steady-state staging allocates nothing.
        self._pulse_pool: List[list] = []
        #: One-slot staging memo: consecutive sends
        #: overwhelmingly share a delivery instant (a fan-out's channels
        #: have equal latencies), so the float-keyed dict probe is
        #: skipped when the instant repeats.  Invalidated when the
        #: matching pulse fires.
        self._last_pulse_time = -1.0
        self._last_pulse: list = []
        #: Accounting memo for the fused DGC lane: the two live
        #: per-kind categories, re-fetched whenever ``accountant`` is
        #: replaced (it is a public attribute).
        self._acct_owner: Optional[BandwidthAccountant] = None
        self._acct_msg = None
        self._acct_resp = None
        #: Clock fast path: the simulation kernel maintains ``_now`` as
        #: a plain attribute (its ``now`` property just reads it); the
        #: live kernel computes ``now`` dynamically and keeps the
        #: property path.
        self._fast_clock = hasattr(kernel, "_now")
        #: Kernel events created on behalf of pulses; with
        #: ``sent_count`` sums this is the fabric's batching ratio.
        self.pulse_event_count = 0
        #: Pulse entries actually delivered (counted per pulse at fire
        #: time) — entries, not messages, are what staging and dispatch
        #: pay for.
        self.staged_entry_count = 0
        #: Test hook: when set, ``permuter(delivery_time, entries)`` is
        #: applied to every pulse's entry list before delivery.  The
        #: property suite installs :func:`repro.net.reorder.safe_shuffle`
        #: here to exercise the protocol-safe reordering class on live
        #: schedules; ``None`` (always, outside tests) costs one
        #: attribute read per pulse.
        self.pulse_permuter: Optional[Callable[[float, list], list]] = None
        #: Site-pair aggregation effectiveness: constituent DGC messages
        #: that merged into an already-staged aggregate entry.
        self.aggregated_message_count = 0
        #: Shard-boundary egress (:meth:`configure_shard_egress`): the
        #: owning shard of every topology node on *another* shard, one
        #: staging buffer per destination shard (drained into one wire
        #: frame each per coordinator round), and the ingress stand-in
        #: channel for injected remote entries.
        self._egress_shards: Optional[Dict[str, int]] = None
        self._egress: Dict[int, _Egress] = {}
        self.egress_message_count = 0
        self._ingress = _IngressChannel()
        self.injected_entry_count = 0
        #: Kernel events created *by injection* — pulse instants that
        #: exist only because a cross-shard frame landed there.  The
        #: worker subtracts this from the kernel's fired count to split
        #: coordination work from workload work in its stats (an
        #: injected instant a local pulse later merges into is charged
        #: to coordination; the reverse is charged to workload — the
        #: attribution of shared instants, not the event total, is the
        #: approximation).
        self.ingress_pulse_event_count = 0
        #: Hot-path cache: source -> dest -> ``(sink, channel, dgc_fast)``
        #: (see :meth:`_build_route`).  A ``None`` channel means
        #: intra-node delivery; a ``None`` sink a shard-remote
        #: destination, whose third slot is its shard's :class:`_Egress`
        #: buffer instead of the flag.  Two nested string-keyed dicts
        #: avoid building a key tuple per message.  Nodes only ever
        #: register (there is no unregister), so entries never go stale;
        #: the cache is cleared on registration anyway for hygiene.
        self._routes: Dict[str, Dict[str, tuple]] = {}

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def kernel(self) -> SimKernel:
        return self._kernel

    def register_node(
        self,
        node: str,
        sink: Callable[[Envelope], None],
        typed_sink: Optional[Callable[[str, Any, Any], None]] = None,
        dgc_batch_sinks: Optional[
            Dict[str, Callable[[list, list], None]]
        ] = None,
    ) -> None:
        """Attach a node's receive dispatchers to the fabric.

        ``typed_sink`` is the envelope-free entry point for pulse-batched
        traffic of every kind; nodes that do not provide one fall back to
        the per-envelope path even when batching is enabled.
        ``dgc_batch_sinks`` maps a DGC kind to its aggregate unwrapper —
        without both, site-pair runs for this node are sent message by
        message.  Single DGC entries go through the endpoint tables
        (:attr:`dgc_message_endpoints`), then the typed sink.
        """
        self._sinks[node] = sink
        if typed_sink is not None:
            self._typed_sinks[node] = typed_sink
        if dgc_batch_sinks:
            for kind, batch in dgc_batch_sinks.items():
                if kind == KIND_DGC_MESSAGE:
                    self._dgc_message_batch_sinks[node] = batch
                elif kind == KIND_DGC_RESPONSE:
                    self._dgc_response_batch_sinks[node] = batch
        self._routes.clear()

    def max_comm(self) -> float:
        """Upper bound on one-way communication time (MaxComm, Sec. 3.1)."""
        return self._topology.max_one_way_latency()

    def configure_shard_egress(self, remote_shards: Dict[str, int]) -> None:
        """Mark every node of ``remote_shards`` (node -> owning shard)
        as living on a remote shard: traffic for those destinations is
        *staged at send time* exactly as local traffic (the directed
        :class:`FifoChannel` lives wholly on the sender's shard, so the
        FIFO clamp and the accountant see the send here and only here),
        but instead of entering the local pulse the
        ``(delivery_time, dest, kind, item, payload)`` row lands in the
        destination shard's egress buffer — the literal content of the
        next wire frame to that shard (:mod:`repro.net.wire`).  Requires
        the batched pulse core; the per-event envelope path raises on
        shard-remote destinations (see :meth:`send`)."""
        self._egress_shards = dict(remote_shards)
        self._egress = {
            shard: _Egress() for shard in sorted(set(remote_shards.values()))
        }
        self._routes.clear()

    def drain_egress(self) -> List[Tuple[int, List[tuple], bool, float]]:
        """Detach this round's staged cross-shard rows: one
        ``(dest_shard, rows, has_app, min_delivery)`` tuple per shard
        with traffic, by shard, rows oldest first."""
        drained = []
        for shard, egress in self._egress.items():
            if egress.rows:
                drained.append(
                    (shard, egress.rows, egress.has_app, egress.min_delivery)
                )
                egress.rows = []
                egress.has_app = False
                egress.min_delivery = math.inf
        return drained

    def inject_remote_entries(self, entries) -> None:
        """Stage decoded cross-shard entries into the local pulse.

        Called between kernel advances (single-threaded), with every
        entry's delivery time at or after the granted horizon — the
        coordinator's lookahead guarantee; an earlier delivery would
        mean the conservative-horizon proof was violated, so it raises
        rather than silently reordering.  No accounting happens here:
        the sending shard already charged the traffic (the merged
        accountant is the sum over shards).

        A frame's entries come grouped by delivery instant, so a run of
        entries sharing one is appended straight onto that pulse's list.
        A one-row DGC block is staged as a plain single entry: the fire
        loop hands it to the collector's endpoint, whose response then
        leaves on its direct lane, as for a local single.
        """
        kernel = self._kernel
        now = kernel._now if self._fast_clock else kernel.now
        ingress = self._ingress
        pulses = self._pulses
        pulses_before = self.pulse_event_count
        batch: list = []
        batch_time = None
        for delivery, dest, kind, item, payload in entries:
            if delivery != batch_time:
                if delivery < now:
                    raise NetworkError(
                        f"late cross-shard entry: delivery {delivery} is "
                        f"before local time {now} (lookahead violated)"
                    )
                batch = pulses.get(delivery)
                if batch is None:
                    batch = self._open_pulse(delivery)
                batch_time = delivery
            if (
                kind is _AGG_DGC_MESSAGE or kind is _AGG_DGC_RESPONSE
            ) and len(item) == 1:
                kind = (
                    KIND_DGC_MESSAGE if kind is _AGG_DGC_MESSAGE
                    else KIND_DGC_RESPONSE
                )
                item = item[0]
                payload = payload[0]
            batch.append((ingress, None, dest, kind, item, payload))
        self.injected_entry_count += len(entries)
        self.ingress_pulse_event_count += (
            self.pulse_event_count - pulses_before
        )

    # ------------------------------------------------------------------
    # Send paths
    # ------------------------------------------------------------------

    def send_typed(
        self,
        source: str,
        dest: str,
        kind: str,
        size_bytes: int,
        item: Any,
        payload: Any = None,
    ) -> None:
        """Route one typed message — the unified, allocation-light send
        path every traffic kind goes through.

        In pulse-batched mode the message is staged for its exact
        per-envelope delivery instant (computed by the channel itself:
        constant latency, FIFO clamp, send counter — see
        :meth:`FifoChannel.stage_send`); all traffic sharing that instant
        rides one kernel event and no :class:`Envelope` is allocated.
        Accounting and partition drops match :meth:`send`, so batching
        changes heap traffic and allocations, never simulation outcomes.

        Falls back to the per-envelope path whenever pulse semantics
        cannot hold: batching disabled (the per-event baseline), channels
        with fault-plan delay rules (their latency is per-message), or
        an envelope-only destination.
        """
        if not self.pulse_batching:
            self.send(
                Envelope(source, dest, kind, size_bytes,
                         self._envelope_payload(kind, item, payload),
                         _drop_payload)
            )
            return
        by_dest = self._routes.get(source)
        route = by_dest.get(dest) if by_dest is not None else None
        if route is None:
            route = self._build_route(source, dest)
        fault_plan = self.fault_plan
        if fault_plan._partitioned and fault_plan.is_partitioned(source, dest):
            fault_plan.dropped_count += 1
            return
        channel = route[1]
        if route[0] is None:
            # Shard-remote destination: the sender-side channel reserves
            # the FIFO slot and the accountant charges the send exactly
            # as for a local staging; the entry columns then ride the
            # next wire frame instead of the local pulse.
            delivery_time = channel.stage_send()
            self.accountant.observe_sized(kind, size_bytes, channel.pair)
            egress = route[2]
            egress.rows.append((delivery_time, dest, kind, item, payload))
            if delivery_time < egress.min_delivery:
                egress.min_delivery = delivery_time
            if not kind.startswith("dgc."):
                egress.has_app = True
            self.egress_message_count += 1
            return
        if channel is None:
            # Intra-node: delivered at the current instant, unaccounted.
            typed_sink = self._typed_sinks.get(dest)
            if typed_sink is None:
                self.send(
                    Envelope(source, dest, kind, size_bytes,
                             self._envelope_payload(kind, item, payload),
                             _drop_payload)
                )
                return
            self._stage(
                self._kernel.now,
                (None, typed_sink, dest, kind, item, payload),
            )
            return
        if (
            channel._base_latency is None
            or (
                channel._delay_rules
                and self.fault_plan.may_delay(source, dest, kind)
            )
            or dest not in self._typed_sinks
        ):
            # Variable latency (the pulse cannot share instants
            # meaningfully — only for streams a delay rule could
            # actually match; unmatched kinds keep pulse semantics)
            # or an envelope-only destination: keep the per-envelope
            # path's semantics.
            self.send(
                Envelope(source, dest, kind, size_bytes,
                         self._envelope_payload(kind, item, payload),
                         _drop_payload)
            )
            return
        delivery_time = channel.stage_send()
        self.accountant.observe_sized(kind, size_bytes, channel.pair)
        # Cross-node: resolved again at delivery so a node that
        # vanishes mid-flight drops the entry (mirrors _dispatch).
        self._stage(
            delivery_time,
            (channel, None, dest, kind, item, payload),
        )

    def send_dgc_single(
        self,
        source: str,
        dest: str,
        kind: str,
        size_bytes: int,
        item: Any,
        payload: Any,
    ) -> None:
        """Fused DGC send lane of the columnar core: one frame from the
        node to the staged pulse entry — or, for a shard-remote
        destination, to the egress row.

        Equivalent to :meth:`send_typed` — same route/partition/fallback
        semantics, same accounting, same FIFO reservation — plus the
        site-pair tail merge: when the pulse's most recently staged
        entry is a same-channel DGC entry of the same kind, this message
        joins its flat ``(target_id, message)`` columns instead of
        adding an entry.  Merging only ever extends the *tail*, so the
        global delivery sequence equals per-message stage order exactly.
        Egress rows never merge: the frame codec groups them into
        blocks, so the wire carries exactly what :meth:`send_typed`
        would have staged.
        """
        if not self.pulse_batching:
            self.send_typed(source, dest, kind, size_bytes, item, payload)
            return
        by_dest = self._routes.get(source)
        route = by_dest.get(dest) if by_dest is not None else None
        if route is None:
            route = self._build_route(source, dest)
        fault_plan = self.fault_plan
        if fault_plan._partitioned and fault_plan.is_partitioned(source, dest):
            fault_plan.dropped_count += 1
            return
        channel = route[1]
        # ``route[2]`` is the dgc_fast flag, or a shard-remote route's
        # (always truthy) egress buffer.
        if not route[2] or (
            channel._delay_rules
            and self.fault_plan.may_delay(source, dest, kind)
        ):
            self.send_typed(source, dest, kind, size_bytes, item, payload)
            return
        # Inlined FifoChannel.stage_send_n(1): clamp + counter without a
        # callee frame — this lane runs once per DGC message at scale.
        latency = channel._base_latency
        if latency < 0.0:
            latency = 0.0
        kernel = self._kernel
        now = kernel._now if self._fast_clock else kernel.now
        delivery_time = now + latency
        if delivery_time < channel._last_delivery_time:
            delivery_time = channel._last_delivery_time
        else:
            channel._last_delivery_time = delivery_time
        channel.sent_count += 1
        # Inlined BandwidthAccountant.observe_sized through the memoized
        # per-kind categories and the channel's lent per-pair byte box
        # (bit-identical totals, no callee frame, no dict probes).
        acct = self.accountant
        if acct is not self._acct_owner:
            self._acct_owner = acct
            self._acct_msg = acct.category(KIND_DGC_MESSAGE)
            self._acct_resp = acct.category(KIND_DGC_RESPONSE)
            for stale in self._channels.values():
                stale.acct_box = None
        is_message = kind is KIND_DGC_MESSAGE or kind == KIND_DGC_MESSAGE
        category = self._acct_msg if is_message else self._acct_resp
        category.bytes += size_bytes
        category.messages += 1
        box = channel.acct_box
        if box is None:
            channel.acct_box = box = acct.pair_box(channel.pair)
        box[0] += size_bytes
        if route[0] is None:
            egress = route[2]
            egress.rows.append((delivery_time, dest, kind, item, payload))
            if delivery_time < egress.min_delivery:
                egress.min_delivery = delivery_time
            self.egress_message_count += 1
            return
        if delivery_time == self._last_pulse_time:
            entries = self._last_pulse
        else:
            entries = self._pulses.get(delivery_time)
            self._last_pulse_time = delivery_time
            if entries is None:
                self._last_pulse = entries = self._open_pulse(delivery_time)
                entries.append((channel, None, dest, kind, item, payload))
                return
            self._last_pulse = entries
        last = entries[-1]
        if last[0] is channel:
            last_kind = last[3]
            agg_kind = _AGG_DGC_MESSAGE if is_message else _AGG_DGC_RESPONSE
            if last_kind is agg_kind:
                last[4].append(item)
                last[5].append(payload)
                self.aggregated_message_count += 1
                return
            if last_kind == kind:
                # Promote the adjacent single into an aggregate pair —
                # the batch sinks are guaranteed present: this lane is
                # only reached through the route's ``dgc_fast`` check.
                entries[-1] = (
                    channel, None, dest, agg_kind,
                    [last[4], item], [last[5], payload],
                )
                self.aggregated_message_count += 1
                return
        entries.append((channel, None, dest, kind, item, payload))

    def send_dgc_run(
        self,
        source: str,
        dest: str,
        kind: str,
        size_bytes: int,
        targets: list,
        messages: list,
    ) -> None:
        """Route a run of same-kind DGC messages staged at one instant
        for one destination node — a collector broadcast's per-site
        fan-out, sent with **one** route probe, one FIFO reservation,
        one accounting call and one pulse entry.

        ``targets``/``messages`` are parallel ``(target_id, message)``
        columns in send order; ownership transfers to the fabric.  Every
        constituent is accounted at ``size_bytes`` (DGC messages are of
        fixed size, paper Sec. 4.3) and counted individually, and the
        run occupies consecutive stage positions, so outcomes are
        bit-identical to sending each message through
        :meth:`send_typed` — which is exactly what the fallback does
        whenever batching is off, the channel has
        fault-plan delay rules, or the destination lacks a batch sink.
        """
        count = len(targets)
        if count == 0:
            return
        if count == 1:
            self.send_dgc_single(
                source, dest, kind, size_bytes, targets[0], messages[0]
            )
            return
        if not self.pulse_batching:
            for index in range(count):
                self.send_typed(
                    source, dest, kind, size_bytes,
                    targets[index], messages[index],
                )
            return
        by_dest = self._routes.get(source)
        route = by_dest.get(dest) if by_dest is not None else None
        if route is None:
            route = self._build_route(source, dest)
        fault_plan = self.fault_plan
        if fault_plan._partitioned and fault_plan.is_partitioned(source, dest):
            fault_plan.dropped_count += count
            return
        channel = route[1]
        agg_kind = (
            _AGG_DGC_MESSAGE if kind == KIND_DGC_MESSAGE else _AGG_DGC_RESPONSE
        )
        if route[0] is None:
            # Shard-remote run: one FIFO reservation, one accounting
            # call, one *aggregate* frame entry — the receiving shard's
            # batch sink unwraps the flat columns, so the columnar win
            # survives the process boundary.
            delivery_time = channel.stage_send_n(count)
            self.accountant.observe_run(kind, size_bytes, channel.pair, count)
            egress = route[2]
            egress.rows.append(
                (delivery_time, dest, agg_kind, targets, messages)
            )
            if delivery_time < egress.min_delivery:
                egress.min_delivery = delivery_time
            self.egress_message_count += count
            self.aggregated_message_count += count - 1
            return
        if not route[2] or (
            channel._delay_rules
            and self.fault_plan.may_delay(source, dest, kind)
        ):
            # Intra-node, variable-latency or batch-less destination:
            # per-message semantics, exact same order.
            for index in range(count):
                self.send_typed(
                    source, dest, kind, size_bytes,
                    targets[index], messages[index],
                )
            return
        delivery_time = channel.stage_send_n(count)
        self.accountant.observe_run(kind, size_bytes, channel.pair, count)
        if delivery_time == self._last_pulse_time:
            entries = self._last_pulse
        else:
            entries = self._pulses.get(delivery_time)
            self._last_pulse_time = delivery_time
            if entries is None:
                self._last_pulse = entries = self._open_pulse(delivery_time)
                entries.append(
                    (channel, None, dest, agg_kind, targets, messages)
                )
                self.aggregated_message_count += count - 1
                return
            self._last_pulse = entries
        last = entries[-1]
        if last[0] is channel:
            last_kind = last[3]
            if last_kind is agg_kind:
                last[4].extend(targets)
                last[5].extend(messages)
                self.aggregated_message_count += count
                return
            if last_kind == kind:
                # Promote the adjacent single entry into the aggregate.
                targets.insert(0, last[4])
                messages.insert(0, last[5])
                entries[-1] = (channel, None, dest, agg_kind, targets, messages)
                self.aggregated_message_count += count
                return
        entries.append((channel, None, dest, agg_kind, targets, messages))
        self.aggregated_message_count += count - 1

    @staticmethod
    def _envelope_payload(kind: str, item: Any, payload: Any) -> Any:
        """The legacy :class:`Envelope` payload shape for a typed
        message: a pair for the paired kinds (DGC), the bare item
        otherwise."""
        if kind in PAIRED_PAYLOAD_KINDS:
            return (item, payload)
        return item

    def send(self, envelope: Envelope) -> None:
        """Route a pre-built ``envelope`` to its destination node — the
        per-event baseline and the fallback for traffic that cannot ride
        the pulse.

        The (sink, channel) pair per node pair is cached so the hot path
        pays one dict probe instead of sink lookup + channel lookup per
        envelope.  Cross-node deliveries still go through ``_dispatch``
        (a delivery-time sink lookup) so a destination that vanishes
        mid-flight drops the envelope, as the fault model requires.

        In pulse-batched mode the envelope is staged by delivery instant
        instead of getting its own kernel event; everything else —
        times, accounting, counters, per-channel order — is unchanged.
        """
        source = envelope.source_node
        dest = envelope.dest_node
        by_dest = self._routes.get(source)
        route = by_dest.get(dest) if by_dest is not None else None
        if route is None:
            route = self._build_route(source, dest)
        # Read through fault_plan each time (it is a public attribute and
        # may be replaced); the set's truthiness is the zero-cost guard.
        fault_plan = self.fault_plan
        if fault_plan._partitioned and fault_plan.is_partitioned(source, dest):
            fault_plan.dropped_count += 1
            return
        sink = route[0]
        channel = route[1]
        if sink is None:
            # A shard-remote destination on the per-envelope path: the
            # wire frame carries staged pulse columns, not envelopes, so
            # sharded runs require the batched core end to end (the
            # harness rejects the per-event core and fault-plan delay
            # rules under --shards for exactly this reason).
            raise NetworkError(
                f"envelope for {dest!r} would cross a shard boundary: "
                "cross-shard traffic requires pulse batching "
                "(batched_beats on, no fault-plan delay rules)"
            )
        if channel is None:
            # Intra-node: delivered immediately (same tick), not accounted.
            if self.pulse_batching:
                envelope.sent_at = self._kernel.now
                self._stage(self._kernel.now,
                            (None, sink, dest, None, envelope, None))
                return
            self._kernel.schedule_fire_at(
                self._kernel.now, self._deliver_local, (envelope, sink)
            )
            return
        self.accountant.observe_sized(
            envelope.kind, envelope.size_bytes, channel.pair
        )
        if (
            self.pulse_batching
            and channel._base_latency is not None
            and not (
                channel._delay_rules
                and fault_plan.may_delay(source, dest, envelope.kind)
            )
        ):
            envelope.sent_at = self._kernel.now
            self._stage(channel.stage_send(),
                        (channel, None, dest, None, envelope, None))
            return
        channel.send(envelope, self._dispatch)

    # ------------------------------------------------------------------
    # Pulse staging and firing
    # ------------------------------------------------------------------

    def _stage(self, delivery_time: float, entry: tuple) -> None:
        """Append one delivery to the pulse for ``delivery_time``."""
        batch = self._pulses.get(delivery_time)
        if batch is None:
            batch = self._open_pulse(delivery_time)
        batch.append(entry)

    def _open_pulse(self, delivery_time: float) -> list:
        """Open the pulse for ``delivery_time`` from a recycled record
        and schedule its (single) kernel event."""
        pool = self._pulse_pool
        batch = pool.pop() if pool else []
        self._pulses[delivery_time] = batch
        self._kernel.schedule_fire_at(
            delivery_time, self._fire_pulse_columnar, (delivery_time,)
        )
        self.pulse_event_count += 1
        return batch

    def _fire_pulse_columnar(self, delivery_time: float) -> None:
        """Deliver every entry staged for ``delivery_time``, in stage
        (i.e. send) order, then recycle the pulse record.

        One tight loop with every per-entry lookup bound to a local:
        aggregate entries cost one batch-sink call per *run* (the
        destination loops the flat columns itself), plain DGC entries
        dispatch straight to their collector endpoint (no typed-sink
        kind dispatch), and typed and envelope entries go through their
        sinks (cross-node ones re-resolved at delivery, like
        :meth:`_dispatch`).  Handlers running inside the loop may stage
        new traffic freely — even for this same instant — because the
        record was detached from ``_pulses`` before the loop and only
        recycled after it.
        """
        entries = self._pulses.pop(delivery_time)
        if delivery_time == self._last_pulse_time:
            # Detach the staging memo: a send staged after this fire at
            # the very same instant must open a fresh pulse.
            self._last_pulse_time = -1.0
        self.staged_entry_count += len(entries)
        permuter = self.pulse_permuter
        if permuter is not None:
            entries = permuter(delivery_time, entries)
        typed_get = self._typed_sinks.get
        msg_batch_get = self._dgc_message_batch_sinks.get
        resp_batch_get = self._dgc_response_batch_sinks.get
        msg_endpoint_get = self.dgc_message_endpoints.get
        resp_endpoint_get = self.dgc_response_endpoints.get
        dispatch = self._dispatch
        fault_plan = self.fault_plan
        # Branches ordered by frequency at scale: single DGC entries
        # dominate, then aggregate runs, then app/registry typed
        # traffic, then envelopes.
        for channel, sink, dest, kind, item, payload in entries:
            if kind is KIND_DGC_MESSAGE and channel is not None:
                channel.delivered_count += 1
                handler = msg_endpoint_get(item)
                if handler is not None:
                    handler(payload)
                    continue
            elif kind is KIND_DGC_RESPONSE and channel is not None:
                channel.delivered_count += 1
                handler = resp_endpoint_get(item)
                if handler is not None:
                    handler(payload)
                    continue
            elif kind is _AGG_DGC_MESSAGE:
                channel.delivered_count += len(item)
                handler = msg_batch_get(dest)
                if handler is None:
                    fault_plan.dropped_count += len(item)
                else:
                    handler(item, payload)
                continue
            elif kind is _AGG_DGC_RESPONSE:
                channel.delivered_count += len(item)
                handler = resp_batch_get(dest)
                if handler is None:
                    fault_plan.dropped_count += len(item)
                else:
                    handler(item, payload)
                continue
            elif kind is None:
                if channel is None:
                    sink(item)
                else:
                    channel.delivered_count += 1
                    dispatch(item)
                continue
            elif channel is None:
                # Typed intra-node: ``sink`` is the resolved typed sink.
                sink(kind, item, payload)
                continue
            else:
                channel.delivered_count += 1
            handler = typed_get(dest)
            if handler is None:
                fault_plan.dropped_count += 1
            else:
                handler(kind, item, payload)
        entries.clear()
        pool = self._pulse_pool
        if len(pool) < _PULSE_POOL_CAP:
            pool.append(entries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _build_route(
        self, source: str, dest: str
    ) -> Tuple[Optional[Callable[[Envelope], None]], Optional[FifoChannel], Any]:
        """Resolve and cache ``(sink, channel, dgc_fast)`` for a pair.

        ``dgc_fast`` precomputes the fused-DGC-lane eligibility checks
        that cannot change while the route cache is valid (constant
        latency, typed and DGC batch sinks registered); the cache is
        cleared on every registration.  Fault-plan delay rules are the
        one live condition and stay checked per send.
        """
        sink = self._sinks.get(dest)
        if sink is None:
            egress_shards = self._egress_shards
            if egress_shards is not None and dest in egress_shards:
                # Shard-remote destination: no sink (the node lives in
                # another process), a real sender-side channel (FIFO
                # clamp + accounting happen here), and the destination
                # shard's egress buffer in the third slot, where every
                # send lane appends its row.
                route = (
                    None,
                    self._channel(source, dest),
                    self._egress[egress_shards[dest]],
                )
                self._routes.setdefault(source, {})[dest] = route
                return route
            raise UnknownDestinationError(f"node {dest!r} is not registered")
        channel = None if source == dest else self._channel(source, dest)
        dgc_fast = (
            channel is not None
            and channel._base_latency is not None
            and dest in self._typed_sinks
            and dest in self._dgc_message_batch_sinks
            and dest in self._dgc_response_batch_sinks
        )
        route = (sink, channel, dgc_fast)
        self._routes.setdefault(source, {})[dest] = route
        return route

    def _deliver_local(
        self, envelope: Envelope, sink: Callable[[Envelope], None]
    ) -> None:
        sink(envelope)

    def _dispatch(self, envelope: Envelope) -> None:
        sink = self._sinks.get(envelope.dest_node)
        if sink is None:
            # Destination vanished mid-flight (node shut down): drop.
            self.fault_plan.dropped_count += 1
            return
        sink(envelope)

    def _channel(self, source: str, dest: str) -> FifoChannel:
        key = (source, dest)
        channel = self._channels.get(key)
        if channel is None:
            # The topology lookup (two site resolutions) is constant per
            # node pair, so it runs once at channel creation; the channel
            # falls back to ``_latency`` only while delay rules exist.
            channel = FifoChannel(
                self._kernel,
                source,
                dest,
                self._latency,
                base_latency=self._topology.one_way_latency(source, dest),
                delay_rules=self.fault_plan._delay_rules,
            )
            self._channels[key] = channel
        return channel

    def _latency(self, envelope: Envelope) -> float:
        base = self._topology.one_way_latency(
            envelope.source_node, envelope.dest_node
        )
        return base + self.fault_plan.extra_delay(envelope, self._kernel.now)
