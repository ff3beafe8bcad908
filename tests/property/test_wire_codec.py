"""The shard wire codec round-trips staged pulse batches bit-identically.

The cross-shard frame carries what the egress stages: whatever goes in
must come back from ``unpack_frame(pack_frame(...))`` field-for-field
equal, for every traffic family the fabric routes — app
requests/replies, DGC singles and site-pair aggregate runs, registry
messages.  Kinds must come back as the *canonical interned constants*
(the columnar fire loop dispatches on kind identity).  Truncated or
corrupted buffers must raise :class:`WireFormatError`, never return
garbage.

The frame groups entries into blocks by ``(kind, delivery instant,
destination)`` — blocks in first-occurrence order, rows in staged order
within a block — and a DGC block (singles and aggregate runs of one
family together) decodes to one aggregate entry with the concatenated
columns.  :func:`normalized` is the reference model of that
permutation; every value stays bit-identical (the block key uses the
delivery's IEEE bits, so -0.0 and 0.0 never merge).

The ``test_v2_*`` tests keep the names they had when the tagged,
interned encoding they check was the second of two frame formats.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ActivityClock
from repro.core.wire import DgcMessage, DgcResponse
from repro.net import kinds
from repro.net.wire import (
    ChannelDecoder,
    ChannelEncoder,
    Frame,
    WireFormatError,
    frame_entry_count,
    frame_stamp,
    pack_frame,
    unpack_frame,
)
from repro.runtime.proxy import RemoteRef
from repro.runtime.request import (
    RegistryAck,
    RegistryBind,
    RegistryInvalidate,
    RegistryLookup,
    RegistryPush,
    RegistryRenew,
    RegistryRenewAck,
    RegistryReply,
    Reply,
    ReplyAddress,
    Request,
)

NODES = tuple(f"site-{index}" for index in range(6))
NODE_INDEX = {name: position for position, name in enumerate(NODES)}

AGG_DGC_MESSAGE = kinds.AGGREGATE_KINDS[kinds.KIND_DGC_MESSAGE]
AGG_DGC_RESPONSE = kinds.AGGREGATE_KINDS[kinds.KIND_DGC_RESPONSE]
#: Staged DGC kind -> the family its frame block decodes under.
FAMILY = {
    kinds.KIND_DGC_MESSAGE: kinds.KIND_DGC_MESSAGE,
    AGG_DGC_MESSAGE: kinds.KIND_DGC_MESSAGE,
    kinds.KIND_DGC_RESPONSE: kinds.KIND_DGC_RESPONSE,
    AGG_DGC_RESPONSE: kinds.KIND_DGC_RESPONSE,
}
STAGED_KINDS = kinds.ALL_KINDS + (AGG_DGC_MESSAGE, AGG_DGC_RESPONSE)


# ----------------------------------------------------------------------
# Strategies: one per fabric message family
# ----------------------------------------------------------------------

ids = st.integers(min_value=0, max_value=999999).map(
    lambda n: f"ao-{n:08d}:slave{n % 97}"
)
node_names = st.sampled_from(NODES)
clocks = st.builds(
    ActivityClock, st.integers(min_value=0, max_value=1 << 40), ids
)
remote_refs = st.builds(RemoteRef, ids, node_names)
reply_addresses = st.builds(
    ReplyAddress, node_names, ids, st.integers(min_value=1, max_value=1 << 50)
)
plain_data = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(1 << 70), max_value=1 << 70),
        st.floats(allow_nan=False),
        st.text(max_size=12),
        st.binary(max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=8,
)

requests = st.builds(
    Request,
    method=st.sampled_from(["do_hold", "do_run", "do_ping"]),
    sender=ids,
    target=ids,
    payload_bytes=st.integers(min_value=0, max_value=1 << 20),
    refs=st.lists(remote_refs, max_size=5).map(tuple),
    data=plain_data,
    reply_to=st.one_of(st.none(), reply_addresses),
    request_id=st.integers(min_value=1, max_value=1 << 40),
)
replies = st.builds(
    Reply,
    future_id=st.integers(min_value=1, max_value=1 << 40),
    target_activity=ids,
    payload_bytes=st.integers(min_value=0, max_value=1 << 20),
    refs=st.lists(remote_refs, max_size=5).map(tuple),
    data=plain_data,
)
dgc_messages = st.builds(
    DgcMessage,
    sender=ids,
    clock=clocks,
    consensus=st.booleans(),
    sender_ref=remote_refs,
    sender_ttb=st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
)
dgc_responses = st.builds(
    DgcResponse,
    responder=ids,
    clock=clocks,
    has_parent=st.booleans(),
    consensus_reached=st.booleans(),
    depth=st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
)
registry_items = st.one_of(
    st.builds(
        RegistryLookup,
        name=st.text(max_size=16),
        reply_to=st.one_of(st.none(), reply_addresses),
    ),
    st.builds(
        RegistryReply,
        future_id=st.integers(min_value=1, max_value=1 << 40),
        target_activity=ids,
        name=st.text(max_size=16),
        ref=st.one_of(st.none(), remote_refs),
        lease_s=st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    ),
    st.builds(
        RegistryBind,
        name=st.text(max_size=16),
        ref=st.one_of(st.none(), remote_refs),
        reply_to=st.one_of(st.none(), reply_addresses),
    ),
    st.builds(
        RegistryAck,
        future_id=st.integers(min_value=1, max_value=1 << 40),
        target_activity=ids,
        name=st.text(max_size=16),
        ok=st.booleans(),
        error=st.text(max_size=24),
    ),
    st.builds(
        RegistryRenew,
        node=node_names,
        names=st.lists(st.text(max_size=10), max_size=5),
    ),
    st.builds(
        RegistryRenewAck,
        names=st.lists(st.text(max_size=10), max_size=5),
        lease_s=st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    ),
    st.builds(
        RegistryInvalidate,
        names=st.lists(st.text(max_size=10), max_size=5),
    ),
    st.builds(
        RegistryPush,
        bindings=st.lists(
            st.tuples(st.text(max_size=10), remote_refs), max_size=5
        ).map(tuple),
    ),
)

#: A few shared instants, so blocks genuinely merge entries.
deliveries = st.one_of(
    st.sampled_from([0.0, 2.5, 7.75]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


def aggregate_columns(records):
    """Parallel target/record lists of one equal length."""
    return st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(ids, min_size=n, max_size=n),
            st.lists(records, min_size=n, max_size=n),
        )
    )


def entry_for(kind):
    """A staged-entry strategy whose item/payload match ``kind``'s shape."""
    if kind is kinds.KIND_DGC_MESSAGE:
        columns = st.tuples(ids, dgc_messages)
    elif kind is kinds.KIND_DGC_RESPONSE:
        columns = st.tuples(ids, dgc_responses)
    elif kind is AGG_DGC_MESSAGE:
        columns = aggregate_columns(dgc_messages)
    elif kind is AGG_DGC_RESPONSE:
        columns = aggregate_columns(dgc_responses)
    elif kind is kinds.KIND_APP_REQUEST:
        columns = st.tuples(requests, st.none())
    elif kind is kinds.KIND_APP_REPLY:
        columns = st.tuples(replies, st.none())
    else:
        columns = st.tuples(registry_items, st.none())
    return st.tuples(deliveries, node_names, st.just(kind), columns).map(
        lambda t: (t[0], t[1], t[2], t[3][0], t[3][1])
    )


staged_entries = st.one_of([entry_for(kind) for kind in STAGED_KINDS])
staged_batches = st.lists(staged_entries, max_size=12)
stamps = st.tuples(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=1 << 30),
)


# ----------------------------------------------------------------------
# Round-trip
# ----------------------------------------------------------------------


def _delivery_bits(delivery: float) -> bytes:
    return struct.pack("!d", delivery)


def normalized(entries):
    """The frame's decode order, modelled independently of the codec:
    group by (block kind, delivery IEEE bits, dest) in first-occurrence
    order; a DGC group becomes one aggregate entry whose columns
    concatenate its singles and runs in staged order, any other group
    its rows in staged order."""
    groups = {}
    for delivery, dest, kind, item, payload in entries:
        delivery = float(delivery)
        family = FAMILY.get(kind, kind)
        key = (family, _delivery_bits(delivery), dest)
        groups.setdefault(key, (delivery, dest, family, []))[3].append(
            (kind, item, payload)
        )
    out = []
    for delivery, dest, family, rows in groups.values():
        if family in FAMILY:
            targets, records = [], []
            for kind, item, payload in rows:
                if kind is family:
                    targets.append(item)
                    records.append(payload)
                else:
                    targets.extend(item)
                    records.extend(payload)
            out.append((delivery, dest, kinds.AGGREGATE_KINDS[family],
                        targets, records))
        else:
            out.extend(
                (delivery, dest, kind, item, payload)
                for kind, item, payload in rows
            )
    return out


def assert_decodes_to(frame, batch):
    expected = normalized(batch)
    assert len(frame.entries) == len(expected)
    for original, decoded in zip(expected, frame.entries):
        assert decoded == original
        # Bit identity for the delivery instant (== conflates ±0.0).
        assert _delivery_bits(decoded[0]) == _delivery_bits(original[0])
        # Kind identity, not just equality: the columnar fire loop
        # dispatches with ``is`` against the canonical constants.
        assert decoded[2] is original[2]


def _nth_frame(frames, shard, seq, batch):
    """Pack ``batch`` ``frames`` times and return ``(buf, decoder)`` for
    the last packing.  One frame packs statelessly (decoder ``None``);
    more pack on one channel, and the returned decoder has decoded every
    earlier frame, so the last one decodes against warm intern tables
    (its repeated ids and records are pure indices)."""
    if frames == 1:
        return pack_frame(shard, seq, batch, NODE_INDEX), None
    encoder = ChannelEncoder()
    decoder = ChannelDecoder()
    for _ in range(frames - 1):
        unpack_frame(pack_frame(shard, seq, batch, NODE_INDEX,
                                channel=encoder), NODES, channel=decoder)
    return pack_frame(shard, seq, batch, NODE_INDEX, channel=encoder), decoder


@pytest.mark.parametrize("frames", [1, 2])
@settings(max_examples=200, deadline=None)
@given(batch=staged_batches, stamp=stamps)
def test_roundtrip_bit_identical(frames, batch, stamp):
    shard, seq = stamp
    buf, decoder = _nth_frame(frames, shard, seq, batch)
    frame = unpack_frame(buf, NODES, channel=decoder)
    assert isinstance(frame, Frame)
    assert frame.src_shard == shard
    assert frame.seq == seq
    assert frame_entry_count(buf) == len(frame.entries)
    assert_decodes_to(frame, batch)


@pytest.mark.parametrize("frames", [1, 2])
@settings(max_examples=100, deadline=None)
@given(batch=staged_batches, stamp=stamps)
def test_truncation_always_raises(frames, batch, stamp):
    buf, _ = _nth_frame(frames, stamp[0], stamp[1], batch)
    for cut in range(0, len(buf), max(1, len(buf) // 17)):
        # A failed decode may leave a channel decoder half-updated, so
        # every cut gets a decoder freshly brought up to this frame.
        _, decoder = _nth_frame(frames, stamp[0], stamp[1], batch)
        with pytest.raises(WireFormatError):
            unpack_frame(buf[:cut], NODES, channel=decoder)


def test_every_kind_has_a_column_shape():
    """The strategy table covers every registered kind — a kind added
    without extending the codec test fails here, not silently."""
    covered = {
        kinds.KIND_DGC_MESSAGE,
        kinds.KIND_DGC_RESPONSE,
        kinds.KIND_APP_REQUEST,
        kinds.KIND_APP_REPLY,
    }
    for kind in kinds.ALL_KINDS:
        assert kind in covered or kind.startswith("registry."), kind
    assert set(kinds.AGGREGATE_KINDS.values()) <= set(STAGED_KINDS)


def _message(owner: str, node: str = NODES[1]) -> DgcMessage:
    return DgcMessage(
        sender=owner,
        clock=ActivityClock(3, owner),
        consensus=True,
        sender_ref=RemoteRef(owner, node),
        sender_ttb=5.0,
    )


def test_dgc_singles_and_runs_decode_in_staged_order():
    """Regression: a DGC single, a same-kind aggregate run, then another
    single for one (delivery, dest) — ``t1, [t2, t3], t4`` — decode as
    one run in exactly that order, the order a single process delivers
    them in (singles used to be pulled ahead: ``t1, t4, t2, t3``)."""
    message = _message("ao-00000001:slave1")
    batch = [
        (4.0, NODES[2], kinds.KIND_DGC_MESSAGE, "t1", message),
        (4.0, NODES[2], AGG_DGC_MESSAGE, ["t2", "t3"], [message, message]),
        (4.0, NODES[2], kinds.KIND_DGC_MESSAGE, "t4", message),
    ]
    frame = unpack_frame(pack_frame(0, 0, batch, NODE_INDEX), NODES)
    assert frame.entries == [
        (4.0, NODES[2], AGG_DGC_MESSAGE, ["t1", "t2", "t3", "t4"],
         [message] * 4),
    ]


def test_bad_magic_rejected():
    buf = pack_frame(1, 7, [], NODE_INDEX)
    corrupt = b"\x00\x00" + buf[2:]
    with pytest.raises(WireFormatError, match="magic"):
        unpack_frame(corrupt, NODES)


# ----------------------------------------------------------------------
# Surgical corruption of a known layout
# ----------------------------------------------------------------------

_HEADER_SIZE = 12  # !HHII
#: Body offsets of a one-row app frame at delivery 1.0 to NODES[0]:
_BLOCK_COUNT = _HEADER_SIZE  # varint 1
_KIND = _HEADER_SIZE + 1  # kind index column
_SIZE = _HEADER_SIZE + 3  # after the size-width byte
_DELIVERY_TAG = _HEADER_SIZE + 6  # after column length + fresh count
_DELIVERY_INDEX = _DELIVERY_TAG + 9
_DEST = _DELIVERY_INDEX + 1
_ROW = _DEST + 7  # after three empty DGC columns (length, fresh)


def _single_row_frame(item=None):
    """A one-row app frame whose columns sit at the offsets above."""
    if item is None:
        item = Request("do_ping", "ao-1:a", "ao-2:b")
    entry = (1.0, NODES[0], kinds.KIND_APP_REQUEST, item, None)
    buf = pack_frame(0, 0, [entry], NODE_INDEX)
    assert buf[_BLOCK_COUNT] == 1
    assert buf[_KIND] == kinds.ALL_KINDS.index(kinds.KIND_APP_REQUEST)
    assert buf[_SIZE] == 1
    assert buf[_DELIVERY_TAG] == 0x05  # the tagged float literal
    assert buf[_DELIVERY_INDEX] == 0
    assert buf[_DEST] == 0
    assert buf[_DEST + 1:_ROW] == bytes(6)
    return buf


def _stomp(buf, offset, value):
    corrupt = bytearray(buf)
    corrupt[offset] = value
    return bytes(corrupt)


def test_unknown_tag_rejected():
    buf = _single_row_frame()
    assert buf[_ROW] == 0x13  # the Request tag
    with pytest.raises(WireFormatError, match="tag"):
        unpack_frame(_stomp(buf, _ROW, 0xFF), NODES)


def test_v2_unknown_tag_rejected():
    """The tagged fields inside a DGC record literal reject an unknown
    tag too (the record column decodes them with the tagged codec)."""
    sender = "ao-00000001:slave1"
    batch = [(1.0, NODES[0], kinds.KIND_DGC_MESSAGE, "t1", _message(sender))]
    buf = pack_frame(0, 0, batch, NODE_INDEX)
    # The record's first field is the sender id: tag, length, bytes.
    offset = buf.index(sender.encode()) - 2
    assert buf[offset:offset + 2] == bytes([0x06, len(sender)])
    with pytest.raises(WireFormatError, match="tag"):
        unpack_frame(_stomp(buf, offset, 0xFF), NODES)


def test_v2_backref_out_of_range_rejected():
    buf = _single_row_frame(item="ao-1:a")
    # Replace the string literal (tag, length, 6 bytes) with a backref
    # into the still-empty tagged table.
    corrupt = buf[:_ROW] + b"\x0b\x05" + buf[_ROW + 8:]
    with pytest.raises(WireFormatError, match="backref"):
        unpack_frame(corrupt, NODES)


def test_column_backref_out_of_range_rejected():
    buf = _single_row_frame()
    with pytest.raises(WireFormatError, match="backref"):
        unpack_frame(_stomp(buf, _DELIVERY_INDEX, 5), NODES)


def test_v2_non_float_delivery_rejected():
    buf = _single_row_frame()
    with pytest.raises(WireFormatError, match="delivery"):
        unpack_frame(_stomp(buf, _DELIVERY_TAG, 0x00), NODES)


def test_non_float_delivery_rejected_at_pack():
    entry = ("soon", NODES[0], kinds.KIND_APP_REPLY, Reply(1, "ao-1:a"), None)
    with pytest.raises(WireFormatError, match="delivery"):
        pack_frame(0, 0, [entry], NODE_INDEX)


def test_v2_empty_run_rejected():
    buf = _single_row_frame()
    with pytest.raises(WireFormatError, match="empty"):
        unpack_frame(_stomp(buf, _SIZE, 0), NODES)


def test_v2_run_overflowing_count_rejected():
    buf = _single_row_frame()
    with pytest.raises(WireFormatError, match="overflows"):
        unpack_frame(_stomp(buf, _SIZE, 2), NODES)


def test_dgc_run_overflowing_columns_rejected():
    batch = [(1.0, NODES[0], kinds.KIND_DGC_MESSAGE, "t1",
              _message("ao-00000001:slave1"))]
    buf = pack_frame(0, 0, batch, NODE_INDEX)
    assert buf[_SIZE] == 1
    with pytest.raises(WireFormatError, match="overflows"):
        unpack_frame(_stomp(buf, _SIZE, 2), NODES)


def test_v2_overlong_varint_rejected():
    buf = _single_row_frame()
    # An 11-byte all-continuation varint where the block count belongs.
    corrupt = (buf[:_BLOCK_COUNT] + b"\x80" * 10 + b"\x01"
               + buf[_BLOCK_COUNT + 1:])
    with pytest.raises(WireFormatError, match="varint"):
        unpack_frame(corrupt, NODES)


def test_v2_bad_kind_index_rejected():
    buf = _single_row_frame()
    with pytest.raises(WireFormatError, match="kind index"):
        unpack_frame(_stomp(buf, _KIND, 0x7F), NODES)


def test_bad_destination_index_rejected():
    buf = _single_row_frame()
    with pytest.raises(WireFormatError, match="destination index"):
        unpack_frame(_stomp(buf, _DEST, 0x7F), NODES)


def test_bad_size_width_rejected():
    buf = _single_row_frame()
    with pytest.raises(WireFormatError, match="width"):
        unpack_frame(_stomp(buf, _SIZE - 1, 3), NODES)


def test_trailing_garbage_rejected():
    buf = pack_frame(0, 0, [], NODE_INDEX)
    with pytest.raises(WireFormatError, match="trailing"):
        unpack_frame(buf + b"\x00", NODES)


# ----------------------------------------------------------------------
# Interned DGC columns
# ----------------------------------------------------------------------


def test_v2_interning_shares_decoded_objects():
    """A beat's one DgcMessage fanned out across an aggregate's targets
    decodes back to *one* shared object — the in-process sharing the
    fan-out had before it crossed the wire."""
    message = _message("ao-00000001:slave1")
    targets = [f"ao-{n:08d}:slave{n}" for n in range(8)]
    entries = [
        (7.5, NODES[0], AGG_DGC_MESSAGE, list(targets), [message] * 8),
        (7.5, NODES[2], AGG_DGC_MESSAGE, list(targets), [message] * 8),
    ]
    frame = unpack_frame(pack_frame(0, 0, entries, NODE_INDEX), NODES)
    first = frame.entries[0][4][0]
    assert first == message
    for entry in frame.entries:
        assert all(decoded is first for decoded in entry[4])
    # Equal ids share one decoded string across blocks as well.
    assert frame.entries[0][3][3] is frame.entries[1][3][3]


def test_equal_records_share_one_slot():
    """Equal-but-distinct records (two responders building the same
    response) cost one literal: the value memo backs the identity memo."""
    clock = ActivityClock(2, "ao-00000007:slave7")
    batch = [
        (3.0, NODES[1], kinds.KIND_DGC_RESPONSE, f"t{n}",
         DgcResponse("ao-00000007:slave7", clock, True))
        for n in range(40)
    ]
    frame = unpack_frame(pack_frame(0, 0, batch, NODE_INDEX), NODES)
    (entry,) = frame.entries
    assert entry[2] is AGG_DGC_RESPONSE
    assert all(record is entry[4][0] for record in entry[4])


def test_v2_shrinks_fanout_traffic():
    """Repeated rows are pure index columns: once a channel has seen a
    fan-out's ids and message, re-sending its 512 rows costs two bytes
    per row (one target index, one record index) plus the block table."""
    message = _message("ao-00000042:slave42", NODES[3])
    targets = [f"ao-{n:08d}:slave{n % 7}" for n in range(32)]
    entries = [
        (100.25, NODES[index % len(NODES)], AGG_DGC_MESSAGE,
         list(targets), [message] * 32)
        for index in range(16)
    ]
    encoder = ChannelEncoder()
    decoder = ChannelDecoder()
    first = pack_frame(0, 0, entries, NODE_INDEX, channel=encoder)
    second = pack_frame(0, 1, entries, NODE_INDEX, channel=encoder)
    assert len(second) <= 2 * 512 + 64
    for buf in (first, second):
        assert_decodes_to(unpack_frame(buf, NODES, channel=decoder), entries)


def test_wide_tables_use_wider_indices():
    """Past 256 interned targets the index column widens to two bytes,
    and decoding follows it."""
    message = _message("ao-00000001:slave1")
    targets = [f"ao-{n:08d}:x" for n in range(300)]
    batch = [(1.0, NODES[0], AGG_DGC_MESSAGE, targets, [message] * 300)]
    frame = unpack_frame(pack_frame(0, 0, batch, NODE_INDEX), NODES)
    assert frame.entries[0][3] == targets


def test_unencodable_dgc_columns_rejected_at_pack():
    message = _message("ao-00000001:slave1")
    with pytest.raises(WireFormatError, match="target"):
        pack_frame(0, 0, [(1.0, NODES[0], kinds.KIND_DGC_MESSAGE, 7,
                           message)], NODE_INDEX)
    with pytest.raises(WireFormatError, match="encode"):
        pack_frame(0, 0, [(1.0, NODES[0], kinds.KIND_DGC_RESPONSE, "t1",
                           message)], NODE_INDEX)
    with pytest.raises(WireFormatError, match="records"):
        pack_frame(0, 0, [(1.0, NODES[0], AGG_DGC_MESSAGE, ["t1", "t2"],
                           [message])], NODE_INDEX)
    with pytest.raises(WireFormatError, match="unhashable"):
        pack_frame(0, 0, [(1.0, NODES[0], kinds.KIND_DGC_MESSAGE, "t1",
                           [message])], NODE_INDEX)


# ----------------------------------------------------------------------
# Persistent channels: the intern tables across frames
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(batches=st.lists(staged_batches, min_size=1, max_size=4))
def test_channel_roundtrip_across_frames(batches):
    """A ChannelEncoder/ChannelDecoder pair round-trips a whole frame
    stream: every frame decodes to its own normalized batch, values
    bit-identical, regardless of what earlier frames interned."""
    encoder = ChannelEncoder()
    decoder = ChannelDecoder()
    for seq, batch in enumerate(batches):
        buf = pack_frame(3, seq, batch, NODE_INDEX, channel=encoder)
        assert frame_stamp(buf) == (3, seq)
        assert_decodes_to(unpack_frame(buf, NODES, channel=decoder), batch)


def test_channel_backrefs_carry_across_frames():
    """The second frame of a repetitive stream is almost pure indices —
    and decoding it *without* the channel state proves the dependency
    (its indices point into tables only frame one built)."""
    batch = [(7.5, NODES[0], kinds.KIND_DGC_MESSAGE,
              "ao-00000002:slave2", _message("ao-00000001:slave1"))]
    encoder = ChannelEncoder()
    first = pack_frame(0, 0, batch, NODE_INDEX, channel=encoder)
    second = pack_frame(0, 1, batch, NODE_INDEX, channel=encoder)
    assert len(second) < len(first) - 20  # body shrank to indices
    decoder = ChannelDecoder()
    one = unpack_frame(first, NODES, channel=decoder)
    two = unpack_frame(second, NODES, channel=decoder)
    assert one.entries == two.entries
    # Cross-frame sharing: both frames decode to the *same* objects.
    assert one.entries[0][4][0] is two.entries[0][4][0]
    assert one.entries[0][3][0] is two.entries[0][3][0]
    # Stateless decode of frame two must fail, not fabricate values.
    with pytest.raises(WireFormatError, match="backref"):
        unpack_frame(second, NODES)


def test_channel_skipped_frame_desyncs_loudly():
    """Frames must decode in pack order: skipping one leaves backrefs
    pointing past the decoder's table."""
    encoder = ChannelEncoder()

    def batch_of(text):
        return [(1.0, NODES[0], kinds.KIND_APP_REQUEST,
                 Request("do_ping", "ao-1:a", text), None)]

    pack_frame(0, 0, batch_of("ao-2:b"), NODE_INDEX, channel=encoder)
    pack_frame(0, 1, batch_of("ao-3:c"), NODE_INDEX, channel=encoder)
    third = pack_frame(0, 2, batch_of("ao-3:c"), NODE_INDEX,
                       channel=encoder)
    decoder = ChannelDecoder()
    # Decode frame 0 then frame 2: frame 2's backref to "ao-3:c" points
    # at an index only frame 1 would have registered.
    first = pack_frame(0, 0, batch_of("ao-2:b"), NODE_INDEX)
    unpack_frame(first, NODES, channel=decoder)
    with pytest.raises(WireFormatError, match="backref"):
        unpack_frame(third, NODES, channel=decoder)


def test_frame_stamp_matches_header():
    entry = (2.5, NODES[1], kinds.KIND_APP_REPLY, Reply(4, "ao-9:z"), None)
    buf = pack_frame(6, 12345, [entry], NODE_INDEX)
    assert frame_stamp(buf) == (6, 12345)
    assert frame_entry_count(buf) == 1
    with pytest.raises(WireFormatError, match="truncated"):
        frame_stamp(buf[:10])
    with pytest.raises(WireFormatError, match="magic"):
        frame_stamp(b"\x00\x00" + buf[2:])


def test_unknown_destination_rejected_at_pack():
    entry = (0.0, "mars-0", kinds.KIND_APP_REPLY, Reply(1, "ao-1:a"), None)
    with pytest.raises(WireFormatError, match="topology"):
        pack_frame(0, 0, [entry], NODE_INDEX)


def test_unknown_kind_rejected_at_pack():
    entry = (0.0, NODES[0], "app.mystery", Reply(1, "ao-1:a"), None)
    with pytest.raises(WireFormatError, match="registered"):
        pack_frame(0, 0, [entry], NODE_INDEX)


def test_unpicklable_item_rejected_at_pack():
    entry = (0.0, NODES[0], kinds.KIND_APP_REQUEST, object(), None)
    with pytest.raises(WireFormatError, match="encode"):
        pack_frame(0, 0, [entry], NODE_INDEX)
