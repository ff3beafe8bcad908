"""Unit tests for the network fabric."""

import pytest

from repro.errors import UnknownDestinationError
from repro.net.faults import FaultPlan
from repro.net.message import (
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_DGC_MESSAGE,
    Envelope,
)
from repro.net.network import Network
from repro.net.topology import uniform_topology
from repro.sim.kernel import SimKernel


def make_network(node_count=2, rtt=0.01, fault_plan=None):
    kernel = SimKernel()
    network = Network(
        kernel, uniform_topology(node_count, rtt_s=rtt), fault_plan=fault_plan
    )
    return kernel, network


def make_envelope(src, dst, kind=KIND_APP_REQUEST, size=100):
    return Envelope(
        source_node=src,
        dest_node=dst,
        kind=kind,
        size_bytes=size,
        payload="data",
        deliver=lambda payload: None,
    )


def test_cross_node_delivery_and_accounting():
    kernel, network = make_network()
    received = []
    network.register_node("site-0", lambda env: None)
    network.register_node("site-1", lambda env: received.append(kernel.now))
    network.send(make_envelope("site-0", "site-1"))
    kernel.run()
    assert received == [pytest.approx(0.005)]
    assert network.accountant.total_bytes == 100


def test_intra_node_delivery_is_not_accounted():
    kernel, network = make_network()
    received = []
    network.register_node("site-0", lambda env: received.append(env))
    network.register_node("site-1", lambda env: None)
    network.send(make_envelope("site-0", "site-0"))
    kernel.run()
    assert len(received) == 1
    assert network.accountant.total_bytes == 0


def test_unknown_destination_raises():
    kernel, network = make_network()
    network.register_node("site-0", lambda env: None)
    with pytest.raises(UnknownDestinationError):
        network.send(make_envelope("site-0", "nowhere"))


def test_partition_drops_messages():
    plan = FaultPlan()
    kernel, network = make_network(fault_plan=plan)
    received = []
    network.register_node("site-0", lambda env: None)
    network.register_node("site-1", lambda env: received.append(env))
    plan.partition("site-0", "site-1")
    network.send(make_envelope("site-0", "site-1"))
    kernel.run()
    assert received == []
    assert plan.dropped_count == 1
    assert network.accountant.total_bytes == 0


def test_heal_restores_delivery():
    plan = FaultPlan()
    kernel, network = make_network(fault_plan=plan)
    received = []
    network.register_node("site-0", lambda env: None)
    network.register_node("site-1", lambda env: received.append(env))
    plan.partition("site-0", "site-1")
    plan.heal("site-0", "site-1")
    network.send(make_envelope("site-0", "site-1"))
    kernel.run()
    assert len(received) == 1


def test_fault_plan_extra_delay_applies_to_matching_kind():
    plan = FaultPlan()
    plan.add_delay(1.0, kind=KIND_DGC_MESSAGE)
    kernel, network = make_network(fault_plan=plan)
    times = {}
    network.register_node("site-0", lambda env: None)
    network.register_node(
        "site-1", lambda env: times.setdefault(env.kind, kernel.now)
    )
    network.send(make_envelope("site-0", "site-1", kind=KIND_DGC_MESSAGE))
    kernel.run()
    # Delayed DGC message arrives 1s + latency later.
    assert times[KIND_DGC_MESSAGE] == pytest.approx(1.005)


def test_fifo_between_same_pair_with_mixed_kinds():
    kernel, network = make_network()
    received = []
    network.register_node("site-0", lambda env: None)
    network.register_node("site-1", lambda env: received.append(env.kind))
    network.send(make_envelope("site-0", "site-1", kind=KIND_APP_REQUEST))
    network.send(make_envelope("site-0", "site-1", kind=KIND_DGC_MESSAGE))
    kernel.run()
    assert received == [KIND_APP_REQUEST, KIND_DGC_MESSAGE]


def test_max_comm_reflects_topology():
    __, network = make_network(rtt=0.02)
    assert network.max_comm() == pytest.approx(0.01)


def test_delivery_to_vanished_node_is_dropped():
    kernel, network = make_network()
    network.register_node("site-0", lambda env: None)
    sink_calls = []
    network.register_node("site-1", lambda env: sink_calls.append(env))
    network.send(make_envelope("site-0", "site-1"))
    # Simulate the destination node disappearing mid-flight.
    network._sinks.pop("site-1")
    kernel.run()
    assert sink_calls == []
    assert network.fault_plan.dropped_count == 1


# ----------------------------------------------------------------------
# The unified typed fabric (send_typed)
# ----------------------------------------------------------------------


def make_typed_network(node_count=2, batching=True):
    kernel, network = make_network(node_count)
    network.pulse_batching = batching
    received = {}
    for index in range(node_count):
        name = f"site-{index}"

        def typed_sink(kind, item, payload, _name=name):
            received.setdefault(_name, []).append((kind, item, payload))

        network.register_node(name, lambda env: None, typed_sink)
    return kernel, network, received


def test_send_typed_delivers_through_typed_sink_and_accounts():
    kernel, network, received = make_typed_network()
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 123, "req")
    kernel.run()
    assert received["site-1"] == [(KIND_APP_REQUEST, "req", None)]
    assert network.accountant.bytes_for(KIND_APP_REQUEST) == 123


def test_send_typed_batches_same_instant_into_one_pulse_event():
    kernel, network, received = make_typed_network()
    for index in range(10):
        network.send_typed(
            "site-0", "site-1", KIND_APP_REQUEST, 10, f"req{index}"
        )
    kernel.run()
    assert [item for __, item, __ in received["site-1"]] == [
        f"req{index}" for index in range(10)
    ]
    # Ten messages share one delivery instant: one kernel pulse event.
    assert network.pulse_event_count == 1


def test_send_typed_intra_node_is_unaccounted_and_same_tick():
    kernel, network, received = make_typed_network()
    network.send_typed("site-0", "site-0", KIND_APP_REPLY, 99, "reply")
    kernel.run()
    assert received["site-0"] == [(KIND_APP_REPLY, "reply", None)]
    assert network.accountant.total_bytes == 0


def test_send_typed_falls_back_to_envelopes_without_batching():
    kernel, network, __ = make_typed_network(batching=False)
    envelopes = []
    network.register_node("site-1", envelopes.append)
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 50, "req")
    network.send_typed(
        "site-0", "site-1", KIND_DGC_MESSAGE, 64, "ao-1", "beat"
    )
    kernel.run()
    assert [env.kind for env in envelopes] == [
        KIND_APP_REQUEST, KIND_DGC_MESSAGE
    ]
    # Paired kinds (DGC) wrap (item, payload); the rest carry the item.
    assert envelopes[0].payload == "req"
    assert envelopes[1].payload == ("ao-1", "beat")


def test_send_typed_falls_back_for_envelope_only_destination():
    kernel, network = make_network()
    network.pulse_batching = True
    typed, envelopes = [], []
    network.register_node(
        "site-0", lambda env: None, lambda *args: typed.append(args)
    )
    network.register_node("site-1", envelopes.append)  # no typed sink
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    kernel.run()
    assert typed == []
    assert len(envelopes) == 1 and envelopes[0].payload == "req"


def test_send_typed_respects_partitions():
    plan = FaultPlan()
    kernel, network = make_network(fault_plan=plan)
    network.pulse_batching = True
    received = []
    network.register_node("site-0", lambda env: None, lambda *a: None)
    network.register_node(
        "site-1", lambda env: None, lambda *args: received.append(args)
    )
    plan.partition("site-0", "site-1")
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    kernel.run()
    assert received == []
    assert plan.dropped_count == 1
    assert network.accountant.total_bytes == 0


def test_send_typed_to_vanished_node_is_dropped():
    kernel, network, received = make_typed_network()
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    network._typed_sinks.pop("site-1")
    kernel.run()
    assert received.get("site-1") is None
    assert network.fault_plan.dropped_count == 1


def test_typed_and_envelope_traffic_share_channel_fifo():
    kernel, network, received = make_typed_network()
    order = []
    network.register_node(
        "site-1",
        lambda env: order.append(("envelope", env.kind)),
        lambda kind, item, payload: order.append(("typed", kind)),
    )
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "first")
    network.send(make_envelope("site-0", "site-1", kind=KIND_DGC_MESSAGE))
    network.send_typed("site-0", "site-1", KIND_APP_REPLY, 10, "third")
    kernel.run()
    assert order == [
        ("typed", KIND_APP_REQUEST),
        ("envelope", KIND_DGC_MESSAGE),
        ("typed", KIND_APP_REPLY),
    ]


# ----------------------------------------------------------------------
# The columnar core (send_dgc_single / send_dgc_run)
# ----------------------------------------------------------------------


def make_aggregated_network(node_count=3):
    kernel, network = make_network(node_count)
    network.pulse_batching = True
    typed, singles, batches = [], [], []
    for index in range(node_count):
        name = f"site-{index}"

        def typed_sink(kind, item, payload, _name=name):
            # No collector endpoints are registered here, so single DGC
            # entries fall back to the typed sink: record them apart.
            if kind.startswith("dgc."):
                singles.append((_name, item, payload))
            else:
                typed.append((_name, kind, item, payload))

        def batch(targets, messages, _name=name):
            batches.append((_name, list(targets), list(messages)))

        network.register_node(
            name, lambda env: None, typed_sink,
            dgc_batch_sinks={KIND_DGC_MESSAGE: batch, "dgc.response": batch},
        )
    return kernel, network, typed, singles, batches


def test_adjacent_same_channel_dgc_sends_merge_into_one_aggregate():
    kernel, network, typed, singles, batches = make_aggregated_network()
    message = object()
    for index in range(5):
        network.send_dgc_single(
            "site-0", "site-1", KIND_DGC_MESSAGE, 64, f"ao-{index}", message
        )
    kernel.run()
    # One batch-sink call carrying the flat columns, in send order.
    assert singles == []
    assert batches == [
        ("site-1", [f"ao-{i}" for i in range(5)], [message] * 5)
    ]
    assert network.aggregated_message_count == 4
    # Accounting charges each constituent at its modeled size.
    assert network.accountant.messages_for(KIND_DGC_MESSAGE) == 5
    assert network.accountant.bytes_for(KIND_DGC_MESSAGE) == 5 * 64
    assert network.accountant.pair_bytes(("site-0", "site-1")) == 5 * 64


def test_interleaved_traffic_breaks_the_run_and_keeps_order():
    kernel, network, typed, singles, batches = make_aggregated_network()
    message = object()
    order = []
    # Re-register site-1 sinks that record global arrival order; "a"
    # has a collector endpoint, so its single entry skips the typed sink.
    network.register_node(
        "site-1", lambda env: None,
        lambda kind, item, payload: order.append(("typed", item)),
        dgc_batch_sinks={
            KIND_DGC_MESSAGE: lambda ts, ms: order.extend(
                ("batch", t) for t in ts
            ),
            "dgc.response": lambda ts, ms: order.extend(
                ("batch", t) for t in ts
            ),
        },
    )
    network.dgc_message_endpoints["a"] = lambda m: order.append(("single", "a"))
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", message)
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "b", message)
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "c", message)
    kernel.run()
    # The app request broke the run: "a" stays single, "b"/"c" merged —
    # and the global sequence is exactly the send sequence.
    assert order == [
        ("single", "a"), ("typed", "req"), ("batch", "b"), ("batch", "c"),
    ]


def test_send_dgc_run_stages_one_entry_and_counts_constituents():
    kernel, network, typed, singles, batches = make_aggregated_network()
    message = object()
    network.send_dgc_run(
        "site-0", "site-2", KIND_DGC_MESSAGE, 64,
        ["x", "y", "z"], [message, message, message],
    )
    kernel.run()
    assert batches == [("site-2", ["x", "y", "z"], [message] * 3)]
    channel = network._channels[("site-0", "site-2")]
    assert channel.sent_count == 3
    assert channel.delivered_count == 3
    assert network.accountant.messages_for(KIND_DGC_MESSAGE) == 3


def test_send_dgc_run_falls_back_per_message_without_aggregation():
    kernel, network, typed, singles, batches = make_aggregated_network()
    network.pulse_batching = False
    # Re-register site-1 with an envelope sink that records arrivals
    # (the per-event path delivers envelopes, not typed entries).
    envelopes = []
    network.register_node(
        "site-1", envelopes.append,
        lambda kind, item, payload: typed.append(("site-1", kind, item, payload)),
        dgc_batch_sinks={
            KIND_DGC_MESSAGE: lambda ts, ms: batches.append(("site-1", ts, ms)),
        },
    )
    network.send_dgc_run(
        "site-0", "site-1", KIND_DGC_MESSAGE, 64, ["x", "y"], ["m", "m"]
    )
    kernel.run()
    assert batches == []
    assert singles == []
    assert typed == []
    assert [(env.kind, env.payload[0]) for env in envelopes] == [
        (KIND_DGC_MESSAGE, "x"), (KIND_DGC_MESSAGE, "y"),
    ]
    assert network.accountant.messages_for(KIND_DGC_MESSAGE) == 2


def test_send_dgc_single_respects_partitions_and_counts_drops():
    plan = FaultPlan()
    kernel, network = make_network(2, fault_plan=plan)
    network.pulse_batching = True
    received = []
    network.register_node(
        "site-0", lambda env: None, lambda *a: None,
        dgc_batch_sinks={KIND_DGC_MESSAGE: lambda ts, ms: None},
    )
    network.register_node(
        "site-1", lambda env: None, lambda *a: received.append(a),
        dgc_batch_sinks={KIND_DGC_MESSAGE: lambda ts, ms: received.extend(ts)},
    )
    plan.partition("site-0", "site-1")
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", "m")
    network.send_dgc_run(
        "site-0", "site-1", KIND_DGC_MESSAGE, 64, ["b", "c"], ["m", "m"]
    )
    kernel.run()
    assert received == []
    assert plan.dropped_count == 3
    assert network.accountant.total_bytes == 0


def test_aggregated_pulse_records_are_pooled_and_recycled():
    kernel, network, typed, singles, batches = make_aggregated_network()
    assert network._pulse_pool == []
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", "m")
    kernel.run()
    assert len(network._pulse_pool) == 1
    recycled = network._pulse_pool[0]
    assert recycled == []
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "b", "m")
    # The recycled record was reused, not a new allocation.
    assert network._pulse_pool == []
    assert len(network._pulses) == 1 and next(iter(network._pulses.values())) is recycled
    kernel.run()


# ----------------------------------------------------------------------
# Shard-remote destinations (the egress lanes)
# ----------------------------------------------------------------------


def make_sharded_network(fault_plan=None):
    """site-0 is local; site-1 and site-2 live on shard 1."""
    kernel, network = make_network(3, fault_plan=fault_plan)
    network.pulse_batching = True
    network.register_node("site-0", lambda env: None, lambda *a: None)
    network.configure_shard_egress({"site-1": 1, "site-2": 1})
    return kernel, network


def drive_remote_sends(send_dgc):
    """One fixed script: DGC singles of both kinds to two remote nodes
    and an app request, at two instants."""
    kernel, network = make_sharded_network()
    send = network.send_dgc_single if send_dgc else network.send_typed
    send("site-0", "site-1", KIND_DGC_MESSAGE, 64, "ao-1", "beat")
    send("site-0", "site-2", "dgc.response", 48, "ao-2", "answer")
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    kernel.schedule_at(
        1.0, send, "site-0", "site-1", KIND_DGC_MESSAGE, 64, "ao-3", "beat"
    )
    kernel.run()
    return network


def test_shard_remote_dgc_single_matches_send_typed():
    fused = drive_remote_sends(send_dgc=True)
    typed = drive_remote_sends(send_dgc=False)
    for network in (fused, typed):
        assert network.egress_message_count == 4
        assert network.staged_entry_count == 0  # nothing entered a pulse
    assert fused.drain_egress() == typed.drain_egress() == [(
        1,
        [
            (0.005, "site-1", KIND_DGC_MESSAGE, "ao-1", "beat"),
            (0.005, "site-2", "dgc.response", "ao-2", "answer"),
            (0.005, "site-1", KIND_APP_REQUEST, "req", None),
            (1.005, "site-1", KIND_DGC_MESSAGE, "ao-3", "beat"),
        ],
        True,
        0.005,
    )]
    for pair in (("site-0", "site-1"), ("site-0", "site-2")):
        assert (
            fused._channels[pair].sent_count
            == typed._channels[pair].sent_count
        )
        assert fused.accountant.pair_bytes(pair) == typed.accountant.pair_bytes(
            pair
        )
    for kind in (KIND_DGC_MESSAGE, "dgc.response", KIND_APP_REQUEST):
        assert fused.accountant.messages_for(kind) == (
            typed.accountant.messages_for(kind)
        )
        assert fused.accountant.bytes_for(kind) == typed.accountant.bytes_for(
            kind
        )
    # Drained: the next round starts empty.
    assert fused.drain_egress() == []


def test_dgc_only_egress_is_not_flagged_as_app_traffic():
    kernel, network = make_sharded_network()
    network.send_dgc_run(
        "site-0", "site-1", KIND_DGC_MESSAGE, 64, ["a", "b"], ["m", "m"]
    )
    network.send_dgc_single("site-0", "site-2", KIND_DGC_MESSAGE, 64, "c", "m")
    [(shard, rows, has_app, min_delivery)] = network.drain_egress()
    assert (shard, has_app, min_delivery) == (1, False, 0.005)
    assert [row[2] for row in rows] == ["dgc.message[]", KIND_DGC_MESSAGE]


def test_shard_remote_dgc_single_respects_partitions():
    plan = FaultPlan()
    kernel, network = make_sharded_network(fault_plan=plan)
    plan.partition("site-0", "site-1")
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", "m")
    assert plan.dropped_count == 1
    assert network.drain_egress() == []
    assert network.egress_message_count == 0
    assert network.accountant.total_bytes == 0
    assert network._channels[("site-0", "site-1")].sent_count == 0
