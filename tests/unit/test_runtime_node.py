"""Unit tests for node-level dispatch, replies and dead letters."""

import pytest

from repro.errors import NoSuchActivityError, RuntimeModelError
from repro.runtime.behaviors import Behavior, SinkBehavior
from repro.runtime.ids import reset_id_counter


class Echo(Behavior):
    def do_echo(self, ctx, request, proxies):
        return request.data


@pytest.fixture
def world(make_world):
    return make_world(3, dgc=None)


def test_round_robin_placement(world):
    driver = world.create_driver()  # takes the first slot
    proxies = [
        driver.context.create(SinkBehavior(), name=f"p{i}") for i in range(3)
    ]
    nodes = [proxy.node for proxy in proxies]
    assert nodes == ["site-1", "site-2", "site-0"]


def test_explicit_placement(world):
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), node="site-2", name="x")
    assert proxy.node == "site-2"


def test_get_activity_raises_for_unknown(world):
    node = world.nodes["site-0"]
    with pytest.raises(NoSuchActivityError):
        node.get_activity("ao-nope")


def test_cross_node_call_reply_roundtrip(world):
    driver = world.create_driver()
    target = driver.context.create(Echo(), node="site-2", name="echo")
    future = driver.context.call(
        target, "echo", data="hello", expect_reply=True
    )
    world.run_for(1.0)
    assert future.resolved
    assert future.value == "hello"


def test_reply_to_terminated_caller_is_dropped(world):
    class SlowEcho(Behavior):
        def do_echo(self, ctx, request, proxies):
            yield ctx.sleep(2.0)
            return request.data

    driver = world.create_driver()
    caller = driver.context.create(SinkBehavior(), name="caller")
    caller_activity = world.find_activity(caller.activity_id)
    target = driver.context.create(SlowEcho(), node="site-2", name="echo")
    target_proxy = caller_activity.node.deserialize_ref(
        caller_activity, target.ref
    )
    caller_activity.send_call(target_proxy, "echo", data="x", expect_reply=True)
    world.run_for(1.0)
    caller_activity.terminate("explicit")
    world.run_for(5.0)
    # Reply arrived after the caller died: dropped, counted, no crash.
    assert world.nodes[caller_activity.node.name].dead_letter_count >= 1


def test_calling_through_released_proxy_rejected(world):
    driver = world.create_driver()
    target = driver.context.create(SinkBehavior(), name="t")
    driver.context.drop(target)
    with pytest.raises(RuntimeModelError):
        driver.context.call(target, "anything")


def test_sending_released_proxy_as_ref_rejected(world):
    driver = world.create_driver()
    a = driver.context.create(SinkBehavior(), name="a")
    b = driver.context.create(SinkBehavior(), name="b")
    driver.context.drop(b)
    with pytest.raises(RuntimeModelError):
        driver.context.call(a, "hold", refs=[b])


def test_dgc_message_to_missing_activity_is_silently_dropped(world):
    from repro.runtime.proxy import RemoteRef

    node = world.nodes["site-0"]
    node.send_dgc_message(RemoteRef("ao-ghost", "site-1"), object())
    world.run_for(1.0)  # no exception


def test_request_refs_are_deserialized_for_receiver(world):
    held = {}

    class Keep(Behavior):
        def do_take(self, ctx, request, proxies):
            held["proxy"] = ctx.keep(proxies[0])
            return None

    driver = world.create_driver()
    receiver = driver.context.create(Keep(), node="site-1", name="r")
    passed = driver.context.create(SinkBehavior(), node="site-2", name="p")
    driver.context.call(receiver, "take", refs=[passed])
    world.run_for(1.0)
    receiver_activity = world.find_activity(receiver.activity_id)
    assert receiver_activity.proxies.holds(passed.activity_id)
    assert held["proxy"].node == "site-2"


# ----------------------------------------------------------------------
# Cross-shard ingress: one-row DGC blocks ride the single lane
# ----------------------------------------------------------------------


def _ingress_world(make_world):
    """A world whose site-1 hosts one collected activity, referenced
    from an activity on site-0; returns the world, both activities and
    the heartbeat site-0's activity would send."""
    from repro.core.wire import DgcMessage

    world = make_world(2)
    driver = world.create_driver(node="site-0")
    target = world.find_activity(
        driver.context.create(SinkBehavior(), node="site-1", name="t")
        .activity_id
    )
    collector = driver.collector
    message = DgcMessage(
        sender=driver.id,
        clock=collector.state.clock,
        consensus=False,
        sender_ref=collector.self_ref,
    )
    return world, driver, target, message


def _response_traffic(world):
    from repro.net.message import KIND_DGC_RESPONSE

    accountant = world.accountant
    return (
        accountant.messages_for(KIND_DGC_RESPONSE),
        accountant.bytes_for(KIND_DGC_RESPONSE),
        accountant.pair_bytes(("site-1", "site-0")),
        world.network._channels[("site-1", "site-0")].sent_count,
    )


def test_one_row_ingress_block_rides_the_single_lane(make_world):
    from repro.net.kinds import AGGREGATE_KINDS, KIND_DGC_MESSAGE

    world, driver, target, message = _ingress_world(make_world)
    network = world.network
    lanes = []
    handler = network.dgc_message_endpoints[target.id]
    network.dgc_message_endpoints[target.id] = (
        lambda m: (lanes.append("endpoint"), handler(m))
    )
    node = world.nodes["site-1"]
    network._dgc_message_batch_sinks["site-1"] = (
        lambda ts, ms: (lanes.append("batch"), node._on_dgc_messages(ts, ms))
    )
    responses = target.collector.messages_received
    now = world.kernel.now
    network.inject_remote_entries(
        [(now, "site-1", AGGREGATE_KINDS[KIND_DGC_MESSAGE], [target.id],
          [message])]
    )
    world.run_for(0.0001)
    assert lanes == ["endpoint"]
    assert target.collector.messages_received == responses + 1
    single = _response_traffic(world)

    # The same delivery through the aggregate unwrap (the run path)
    # accounts its response identically.
    reset_id_counter()
    world, driver, target, message = _ingress_world(make_world)
    world.nodes["site-1"]._on_dgc_messages([target.id], [message])
    assert _response_traffic(world) == single
    assert single[0] >= 1
