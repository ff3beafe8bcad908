"""Struct-packed cross-shard wire frames.

The sharded world (:mod:`repro.shard`) moves staged pulse entries
between shard processes: a staged entry — delivery instant, destination
node, traffic kind, item/payload columns — is exactly what a remote
shard needs to stage the delivery into its own pulse, so the egress
packs those fields and nothing else.

Frames are pickle-free and validated.  Two properties the shard
protocol relies on:

* **round-trip is bit-identical** — every decoded field compares equal
  to the staged one (delivery instants to the IEEE bit), and kinds
  come back as the canonical interned constants from
  :mod:`repro.net.kinds` (the columnar fire loop dispatches on kind
  identity, so an equal-but-distinct string would silently fall off
  the fast path);
* **frames are self-delimiting and validated** — a truncated or
  corrupted buffer raises :class:`WireFormatError` instead of returning
  garbage.

**Blocks.**  Entries are grouped into *blocks* by ``(delivery instant,
destination node, kind)``, blocks in first-occurrence order, rows in
staged order within a block.  A DGC single and a site-pair aggregate
run of the same family (``dgc.message`` and ``dgc.message[]``) land in
the same block, so a DGC block is exactly the staged-order traffic of
one family that one destination receives at one instant; it decodes to
*one* aggregate entry (flat target/record lists) for the receiving
node's batch sink.  Any other block decodes to one entry per row.
Delivery instants key blocks by value, with ``-0.0`` and ``0.0`` kept
apart so every instant round-trips to the bit.

**Layout.**  A 12-byte header ``(magic, src_shard, seq, entry count)``,
then a columnar body:

1. the block table — kind indices, block sizes, delivery instants and
   destination indices, one fixed-width column each;
2. the DGC columns — target activity ids, then
   :class:`~repro.core.wire.DgcMessage` and
   :class:`~repro.core.wire.DgcResponse` records, each one
   fixed-width column of intern indices over every DGC block of the
   frame;
3. the rows of every other block (application and registry traffic):
   ``item, payload`` in a small tagged codec that knows the closed set
   of fabric types (:mod:`repro.runtime.request`,
   :class:`~repro.runtime.proxy.RemoteRef`,
   :class:`~repro.core.clock.ActivityClock`) and the plain containers
   their fields are built from.

**Interning.**  An interned column is ``varint length, varint fresh``,
the fresh values' literals in registration order, then ``length``
indices whose width (1, 2 or 4 bytes, little-endian) follows from the
table size, which both ends know.  Delivery instants are interned per
frame only (they move on); target ids and records persist across the
frames of a channel (below).  The encoder looks records up by
identity first (the fabric fans one message object out to many
targets), then by value, so equal-but-distinct records share a slot;
decoding restores that sharing — fan-out targets receive the same
message object, exactly as in-process delivery would.  Literals are
written with the tagged codec, whose strings, floats and frozen fabric
composites intern too, behind a backref tag.  Decode is zero-copy: one
``memoryview`` over the frame, index columns read straight into
``array`` objects.

**Channel persistence.**  The intern tables are per-frame by default,
which makes every frame self-contained — but on a shard channel the
same activity ids, clocks and messages recur frame after frame.  A
:class:`ChannelEncoder` / :class:`ChannelDecoder` pair carries the
tables *across* frames: pass them to :func:`pack_frame` /
:func:`unpack_frame` and a value interned in frame ``n`` is one index
in frame ``n+k``.  This is sound exactly because the shard fabric
already guarantees per-channel FIFO: frames carry a ``(src_shard,
seq)`` stamp, the coordinator routes them in stamp order and the
worker decodes each channel's frames in seq order — the decode tables
replay the encoder's registrations move for move.  Two rules follow:

* a channel pair is **one direction of one (src, dst) shard pair** —
  never share an encoder between destinations or a decoder between
  sources, and never skip or reorder a frame;
* a :class:`WireFormatError` mid-frame leaves the channel state
  desynced — the channel must be discarded (the worker treats any
  decode error as fatal, so this is moot in the fabric).

The encoder pins every registered value (a strong reference), so the
``id()``-keyed identity memos can never alias a dead object's reused
address across frames.

Naming note (ROADMAP): the DGC *protocol* message types stay in
:mod:`repro.core.wire` — they are protocol state, not transport.  This
module owns only the transport encoding that moves staged pulse entries
between shard processes.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

import math
import struct
import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.clock import ActivityClock
from repro.core.wire import DgcMessage, DgcResponse
from repro.errors import NetworkError
from repro.net import kinds as _kinds
from repro.net.kinds import (
    AGGREGATE_KINDS,
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
    KIND_REGISTRY_BIND,
    KIND_REGISTRY_INVALIDATE,
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_PUSH,
    KIND_REGISTRY_RENEW,
    KIND_REGISTRY_REPLY,
)
from repro.runtime.proxy import RemoteRef
from repro.runtime.request import (
    RegistryAck,
    RegistryBind,
    RegistryInvalidate,
    RegistryPush,
    RegistryLookup,
    RegistryRenew,
    RegistryRenewAck,
    RegistryReply,
    Reply,
    ReplyAddress,
    Request,
)


class WireFormatError(NetworkError):
    """A wire frame failed to encode or decode."""


#: Frame magic: rejects frames from a foreign protocol (or a desynced
#: stream) before any lengths are trusted.
FRAME_MAGIC = 0x5D59

_HEADER = struct.Struct("!HHII")  # magic, src_shard, seq, entry count
_F64 = struct.Struct("!d")

#: Index columns are little-endian on the wire.
_SWAP = sys.byteorder != "little"
#: Block-size column width byte -> array typecode.
_SIZE_CODES = {1: "B", 2: "H", 4: "I"}

# Tagged-value encoding: one tag byte, then a fixed field layout per
# tag.  Compound fabric types encode their fields recursively with the
# same codec, so e.g. a Request's refs tuple of RemoteRefs needs no
# special casing.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_BIGINT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_TUPLE = 0x08
_T_LIST = 0x09
_T_DICT = 0x0A
#: A varint index into the tagged intern table.
_T_BACKREF = 0x0B
_T_CLOCK = 0x10
_T_REMOTE_REF = 0x11
_T_REPLY_ADDRESS = 0x12
_T_REQUEST = 0x13
_T_REPLY = 0x14
_T_REG_LOOKUP = 0x17
_T_REG_REPLY = 0x18
_T_REG_BIND = 0x19
_T_REG_ACK = 0x1A
_T_REG_RENEW = 0x1B
_T_REG_RENEW_ACK = 0x1C
_T_REG_INVALIDATE = 0x1D
_T_REG_PUSH = 0x1E

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_AGG_DGC_MESSAGE = AGGREGATE_KINDS[KIND_DGC_MESSAGE]
_AGG_DGC_RESPONSE = AGGREGATE_KINDS[KIND_DGC_RESPONSE]

#: Staged DGC kind -> (block kind, row is an aggregate run).  Every
#: other kind is its own block kind with one item per row.
_DGC_ROWS = {
    KIND_DGC_MESSAGE: (KIND_DGC_MESSAGE, False),
    _AGG_DGC_MESSAGE: (KIND_DGC_MESSAGE, True),
    KIND_DGC_RESPONSE: (KIND_DGC_RESPONSE, False),
    _AGG_DGC_RESPONSE: (KIND_DGC_RESPONSE, True),
}


def _kind_index() -> Dict[str, int]:
    """Registered kind -> frame kind index, memoized on the identity of
    the registry's current ``ALL_KINDS`` tuple (``register_kind``
    rebinds it).  Both ends of a pipe derive the same table: workers
    fork from the coordinator after every registration."""
    global _KIND_INDEX
    table = _kinds.ALL_KINDS
    if _KIND_INDEX[0] is not table:
        _KIND_INDEX = (
            table, {kind: position for position, kind in enumerate(table)}
        )
    return _KIND_INDEX[1]


_KIND_INDEX: Tuple[Tuple[str, ...], Dict[str, int]] = ((), {})


def _index_code(size: int) -> str:
    """Array typecode of an index column over a ``size``-value table."""
    if size <= 0x100:
        return "B"
    if size <= 0x10000:
        return "H"
    return "I"


#: Which payload classes each registered kind puts on the cross-shard
#: wire — ``registry.reply`` and ``registry.renew`` each carry two
#: (the reply doubles as the bind/unbind ack; the renew kind carries
#: both the batch and its ack).  The ``KIND-codec`` rule in
#: :mod:`repro.analysis` checks the manifest stays total over the
#: registry and that every class named here has matching encode and
#: decode branches (the tagged codec, or the DGC record columns), so
#: adding a kind without teaching the codec to carry it fails the lint
#: instead of raising :class:`WireFormatError` mid-run.
KIND_PAYLOAD_TYPES = {
    KIND_DGC_MESSAGE: (DgcMessage,),
    KIND_DGC_RESPONSE: (DgcResponse,),
    KIND_APP_REQUEST: (Request,),
    KIND_APP_REPLY: (Reply,),
    KIND_REGISTRY_LOOKUP: (RegistryLookup,),
    KIND_REGISTRY_REPLY: (RegistryReply, RegistryAck),
    KIND_REGISTRY_BIND: (RegistryBind,),
    KIND_REGISTRY_INVALIDATE: (RegistryInvalidate,),
    KIND_REGISTRY_RENEW: (RegistryRenew, RegistryRenewAck),
    KIND_REGISTRY_PUSH: (RegistryPush,),
}


#: Sentinel dict keys for the two float zeroes — ``-0.0 == 0.0`` hashes
#: identically, but bit-identical round-trips must keep them apart.
_POS_ZERO = ("f64-zero", 1.0)
_NEG_ZERO = ("f64-zero", -1.0)


def _float_key(value):
    if value.__class__ is float and value == 0.0:
        return _NEG_ZERO if math.copysign(1.0, value) < 0 else _POS_ZERO
    return value


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


class _Column:
    """Encode side of one interned column: the value memo, the identity
    memo (record columns only) and the pinned values, whose count is
    the table size."""

    __slots__ = ("ids", "values", "pins")

    def __init__(self) -> None:
        self.ids: Dict[int, int] = {}
        self.values: Dict[object, int] = {}
        self.pins: List[object] = []


class ChannelEncoder:
    """Encode state of one ordered (src, dst) frame stream: the output
    buffer, the tagged intern table and the three column tables.

    Pass the same instance to every :func:`pack_frame` call on the
    channel and the tables survive between frames: the steady state
    re-sends recurring ids, clocks and messages as indices instead of
    literals.  Sound only if the peer decodes the channel's frames in
    pack order with a matching :class:`ChannelDecoder` — the shard
    fabric's ``(src_shard, seq)`` stamps guarantee exactly that.
    Stateless :func:`pack_frame` calls use a fresh instance per frame.

    Tagged values get indices in *encode order*, children before the
    composite that contains them (post-order), which is exactly the
    order the decoder appends to its table — no index negotiation on
    the wire.
    """

    __slots__ = (
        "out", "id_memo", "val_memo", "count", "pins",
        "targets", "messages", "responses",
    )

    def __init__(self) -> None:
        self.out = bytearray()
        self.id_memo: Dict[int, int] = {}
        self.val_memo: Dict[object, int] = {}
        self.count = 0
        # Strong refs to every registered value: the id_memo keys on
        # id(value), and a collected value's address can be reused by a
        # new object — fatal for a persistent channel (zero floats key
        # the value memo through sentinels, so nothing else pins them).
        self.pins: List[object] = []
        self.targets = _Column()
        self.messages = _Column()
        self.responses = _Column()

    def varint(self, value: int) -> None:
        out = self.out
        while value >= 0x80:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)

    def zigzag(self, value: int) -> None:
        self.varint((value << 1) ^ (value >> 63))

    def fixed_width(self, code: str, values: List[int]) -> None:
        column = array(code, values)
        if _SWAP:
            column.byteswap()
        self.out += column

    def indices(self, indices: List[int], size: int) -> None:
        """A fixed-width index column over a ``size``-value table."""
        self.fixed_width(_index_code(size), indices)

    def sizes(self, sizes: List[int]) -> None:
        """The block-size column: one width byte, then the sizes."""
        largest = max(sizes, default=0)
        width = 1 if largest <= 0xFF else 2 if largest <= 0xFFFF else 4
        self.out.append(width)
        self.fixed_width(_SIZE_CODES[width], sizes)

    def column(
        self, values: list, table: _Column, by_identity: bool, literal,
        *args,
    ) -> None:
        """Intern ``values`` into ``table`` and append them as one
        column (see :meth:`interned`)."""
        ids = table.ids
        known = table.values
        fresh = []
        try:
            if by_identity:
                indices = [ids.get(id(value), -1) for value in values]
            else:
                indices = [known.get(value, -1) for value in values]
            if -1 in indices:
                pins = table.pins
                # Misses resolved so far in this column, by identity: a
                # new object fanned out to many rows is looked up by
                # value once (``values`` keeps every object alive, so
                # ids stay unique).
                resolved: Dict[int, int] = {}
                for position, index in enumerate(indices):
                    if index != -1:
                        continue
                    value = values[position]
                    index = resolved.get(id(value))
                    if index is None:
                        index = known.get(value)
                        if index is None:
                            index = len(pins)
                            pins.append(value)
                            known[value] = index
                            if by_identity:
                                ids[id(value)] = index
                            fresh.append(value)
                        resolved[id(value)] = index
                    indices[position] = index
        except TypeError:
            raise WireFormatError(
                "cannot encode an unhashable column value on the shard wire"
            ) from None
        self.interned(indices, fresh, len(table.pins), literal, *args)

    def interned(
        self, indices: List[int], fresh: list, size: int, literal, *args
    ) -> None:
        """Append one interned column: ``varint length, varint fresh``,
        each fresh value's literal (``literal(value, *args)``) in
        registration order, then the indices into the ``size``-value
        table."""
        self.varint(len(indices))
        self.varint(len(fresh))
        for value in fresh:
            literal(value, *args)
        self.indices(indices, size)

    def delivery(self, value: float) -> None:
        """First-use literal of a delivery instant: a tagged float,
        never interned beyond its frame (instants move on)."""
        self.out.append(_T_FLOAT)
        self.out += _F64.pack(value)

    def target(self, value) -> None:
        """First-use literal of a DGC target activity id."""
        if value.__class__ is not str:
            raise WireFormatError(
                f"cannot encode {type(value).__name__!r} as a DGC target "
                f"on the shard wire"
            )
        self.value(value)

    def record(self, record, expected: type) -> None:
        """First-use literal of a DGC record: its fields through the
        tagged codec (so its ids, clock and ref intern there)."""
        cls = record.__class__
        if cls is not expected:
            raise WireFormatError(
                f"cannot encode {cls.__name__!r} in a "
                f"{expected.__name__} column on the shard wire"
            )
        value = self.value
        if cls is DgcMessage:
            value(record.sender)
            value(record.clock)
            self.out.append(1 if record.consensus else 0)
            value(record.sender_ref)
            value(record.sender_ttb)
        elif cls is DgcResponse:
            value(record.responder)
            value(record.clock)
            self.out.append(1 if record.has_parent else 0)
            self.out.append(1 if record.consensus_reached else 0)
            value(record.depth)

    def _intern(self, value, key) -> bool:
        """Emit a backref if ``value`` is already in the tagged table
        (True); otherwise return False — the caller encodes the value
        and then calls :meth:`_register`."""
        index = self.id_memo.get(id(value))
        if index is None:
            index = self.val_memo.get(key)
        if index is None:
            return False
        self.out.append(_T_BACKREF)
        self.varint(index)
        return True

    def _register(self, value, key) -> None:
        index = self.count
        self.count = index + 1
        self.id_memo[id(value)] = index
        self.val_memo[key] = index
        self.pins.append(value)

    def value(self, value) -> None:
        """Append one tagged value."""
        # The dispatch chain is frequency-ordered for the sharded
        # fabric's traffic mix: activity-id strings, then the clock/ref
        # constituents of record literals.
        out = self.out
        cls = value.__class__
        if cls is str:
            # Strings skip the identity memo: equal strings hash fast
            # (CPython caches str hashes), so the value memo alone is
            # both the fast path and the dedup.
            memo = self.val_memo
            index = memo.get(value)
            if index is not None:
                out.append(_T_BACKREF)
                self.varint(index)
                return
            raw = value.encode("utf-8")
            out.append(_T_STR)
            self.varint(len(raw))
            out += raw
            memo[value] = self.count
            self.count += 1
        elif cls is ActivityClock:
            if self._intern(value, value):
                return
            out.append(_T_CLOCK)
            self.zigzag(value.value)
            self.value(value.owner)
            self._register(value, value)
        elif cls is RemoteRef:
            if self._intern(value, value):
                return
            out.append(_T_REMOTE_REF)
            self.value(value.activity_id)
            self.value(value.node)
            self._register(value, value)
        elif value is None:
            out.append(_T_NONE)
        elif cls is bool:
            out.append(_T_TRUE if value else _T_FALSE)
        elif cls is int:
            if _INT64_MIN <= value <= _INT64_MAX:
                out.append(_T_INT)
                self.zigzag(value)
            else:
                raw = value.to_bytes(
                    (value.bit_length() + 8) // 8, "big", signed=True
                )
                out.append(_T_BIGINT)
                self.varint(len(raw))
                out += raw
        elif cls is float:
            key = _float_key(value)
            if self._intern(value, key):
                return
            out.append(_T_FLOAT)
            out += _F64.pack(value)
            self._register(value, key)
        elif cls is bytes:
            out.append(_T_BYTES)
            self.varint(len(value))
            out += value
        elif cls is tuple:
            out.append(_T_TUPLE)
            self.varint(len(value))
            for element in value:
                self.value(element)
        elif cls is list:
            out.append(_T_LIST)
            self.varint(len(value))
            for element in value:
                self.value(element)
        elif cls is dict:
            out.append(_T_DICT)
            self.varint(len(value))
            for key, entry in value.items():
                self.value(key)
                self.value(entry)
        elif cls is ReplyAddress:
            if self._intern(value, value):
                return
            out.append(_T_REPLY_ADDRESS)
            self.value(value.node)
            self.value(value.activity)
            self.zigzag(value.future_id)
            self._register(value, value)
        elif cls is Request:
            out.append(_T_REQUEST)
            self.value(value.method)
            self.value(value.sender)
            self.value(value.target)
            self.zigzag(value.payload_bytes)
            self.zigzag(value.request_id)
            self.value(tuple(value.refs))
            self.value(value.data)
            self.value(value.reply_to)
        elif cls is Reply:
            out.append(_T_REPLY)
            self.zigzag(value.future_id)
            self.value(value.target_activity)
            self.zigzag(value.payload_bytes)
            self.value(tuple(value.refs))
            self.value(value.data)
        elif cls is RegistryLookup:
            out.append(_T_REG_LOOKUP)
            self.value(value.name)
            self.value(value.reply_to)
        elif cls is RegistryReply:
            out.append(_T_REG_REPLY)
            self.zigzag(value.future_id)
            self.value(value.target_activity)
            self.value(value.name)
            self.value(value.ref)
            self.value(value.lease_s)
        elif cls is RegistryBind:
            out.append(_T_REG_BIND)
            self.value(value.name)
            self.value(value.ref)
            self.value(value.reply_to)
        elif cls is RegistryAck:
            out.append(_T_REG_ACK)
            self.zigzag(value.future_id)
            self.value(value.target_activity)
            self.value(value.name)
            out.append(1 if value.ok else 0)
            self.value(value.error)
        elif cls is RegistryRenew:
            out.append(_T_REG_RENEW)
            self.value(value.node)
            self.value(value.names)
        elif cls is RegistryRenewAck:
            out.append(_T_REG_RENEW_ACK)
            self.value(value.names)
            self.value(value.lease_s)
        elif cls is RegistryInvalidate:
            out.append(_T_REG_INVALIDATE)
            self.value(value.names)
        elif cls is RegistryPush:
            out.append(_T_REG_PUSH)
            self.value(value.bindings)
        else:
            raise WireFormatError(
                f"cannot encode {type(value).__name__!r} on the shard wire"
            )


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


class ChannelDecoder:
    """Decode half of a persistent channel: the tagged and column
    intern tables, grown in the paired :class:`ChannelEncoder`'s
    registration order.  Discard after any decode error — the tables
    are desynced."""

    __slots__ = ("table", "targets", "messages", "responses")

    def __init__(self) -> None:
        self.table: List[object] = []
        self.targets: List[str] = []
        self.messages: List[DgcMessage] = []
        self.responses: List[DgcResponse] = []


class _Reader:
    """Bounds-checked zero-copy cursor over one frame.

    Fixed fields go through ``struct.unpack_from`` on the shared
    memoryview, index columns straight into ``array`` objects, text
    through ``str(view, "utf-8")`` — nothing slices into intermediate
    ``bytes``.  ``table`` is the tagged intern table; it grows in
    exactly the encoder's registration order.
    """

    __slots__ = ("buf", "pos", "end", "table")

    def __init__(self, buf, pos: int, end: int, table: List[object]) -> None:
        self.buf = buf
        self.pos = pos
        self.end = end
        self.table = table

    def _need(self, count: int) -> int:
        pos = self.pos
        stop = pos + count
        if stop > self.end:
            raise WireFormatError(
                f"truncated frame: wanted {count} bytes at offset {pos}, "
                f"{self.end - pos} available"
            )
        self.pos = stop
        return pos

    def u8(self) -> int:
        return self.buf[self._need(1)]

    def f64(self) -> float:
        return _F64.unpack_from(self.buf, self._need(8))[0]

    def varint(self) -> int:
        buf = self.buf
        pos = self.pos
        end = self.end
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise WireFormatError(
                    f"truncated frame: varint at offset {self.pos} past end"
                )
            if shift > 63:
                raise WireFormatError(f"overlong varint at offset {self.pos}")
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                self.pos = pos
                return result
            shift += 7

    def zigzag(self) -> int:
        raw = self.varint()
        return (raw >> 1) ^ -(raw & 1)

    def text(self) -> str:
        length = self.varint()
        pos = self._need(length)
        try:
            return str(self.buf[pos:pos + length], "utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"corrupt string field: {exc}") from None

    def fixed_width(self, code: str, count: int) -> array:
        column = array(code)
        start = self._need(count * column.itemsize)
        column.frombytes(self.buf[start:self.pos])
        if _SWAP:
            column.byteswap()
        return column

    def sizes(self, count: int) -> array:
        width = self.u8()
        code = _SIZE_CODES.get(width)
        if code is None:
            raise WireFormatError(f"bad block-size width {width}")
        return self.fixed_width(code, count)

    def column(self, table: list, literal, *args) -> list:
        """Read one interned column (see :meth:`ChannelEncoder.interned`)
        and return its values."""
        length = self.varint()
        for _ in range(self.varint()):
            table.append(literal(self, *args))
        indices = self.fixed_width(_index_code(len(table)), length)
        try:
            return [table[index] for index in indices]
        except IndexError:
            raise WireFormatError(
                f"backref {max(indices)} out of range "
                f"({len(table)} interned)"
            ) from None


def _decode_value(reader: _Reader):
    """One tagged value; inverse of :meth:`ChannelEncoder.value`."""
    # Tag dispatch is frequency-ordered to mirror the encoder; the tag
    # read and the one-byte backref are inlined (the hottest path).
    buf = reader.buf
    pos = reader.pos
    if pos >= reader.end:
        raise WireFormatError(
            f"truncated frame: wanted 1 bytes at offset {pos}, 0 available"
        )
    tag = buf[pos]
    pos += 1
    reader.pos = pos
    if tag == _T_BACKREF:
        if pos < reader.end and buf[pos] < 0x80:
            reader.pos = pos + 1
            index = buf[pos]
        else:
            index = reader.varint()
        table = reader.table
        if index < len(table):
            return table[index]
        raise WireFormatError(
            f"backref {index} out of range ({len(table)} interned)"
        )
    if tag == _T_STR:
        value = reader.text()
        reader.table.append(value)
        return value
    if tag == _T_CLOCK:
        value = ActivityClock(reader.zigzag(), _decode_value(reader))
        reader.table.append(value)
        return value
    if tag == _T_REMOTE_REF:
        value = RemoteRef(_decode_value(reader), _decode_value(reader))
        reader.table.append(value)
        return value
    if tag == _T_FLOAT:
        value = reader.f64()
        reader.table.append(value)
        return value
    if tag == _T_INT:
        return reader.zigzag()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_TUPLE:
        count = reader.varint()
        return tuple(_decode_value(reader) for _ in range(count))
    if tag == _T_LIST:
        count = reader.varint()
        return [_decode_value(reader) for _ in range(count)]
    if tag == _T_DICT:
        count = reader.varint()
        return {
            _decode_value(reader): _decode_value(reader)
            for _ in range(count)
        }
    if tag == _T_BIGINT:
        length = reader.varint()
        pos = reader._need(length)
        return int.from_bytes(
            reader.buf[pos:pos + length], "big", signed=True
        )
    if tag == _T_BYTES:
        length = reader.varint()
        pos = reader._need(length)
        return bytes(reader.buf[pos:pos + length])
    if tag == _T_REPLY_ADDRESS:
        value = ReplyAddress(
            _decode_value(reader), _decode_value(reader), reader.zigzag(),
        )
        reader.table.append(value)
        return value
    if tag == _T_REQUEST:
        method = _decode_value(reader)
        sender = _decode_value(reader)
        target = _decode_value(reader)
        payload_bytes = reader.zigzag()
        request_id = reader.zigzag()
        refs = _decode_value(reader)
        data = _decode_value(reader)
        reply_to = _decode_value(reader)
        return Request(
            method,
            sender,
            target,
            payload_bytes=payload_bytes,
            refs=refs,
            data=data,
            reply_to=reply_to,
            request_id=request_id,
        )
    if tag == _T_REPLY:
        future_id = reader.zigzag()
        target_activity = _decode_value(reader)
        payload_bytes = reader.zigzag()
        refs = _decode_value(reader)
        data = _decode_value(reader)
        return Reply(
            future_id,
            target_activity,
            payload_bytes=payload_bytes,
            refs=refs,
            data=data,
        )
    if tag == _T_REG_LOOKUP:
        return RegistryLookup(_decode_value(reader), _decode_value(reader))
    if tag == _T_REG_REPLY:
        future_id = reader.zigzag()
        target_activity = _decode_value(reader)
        name = _decode_value(reader)
        ref = _decode_value(reader)
        lease_s = _decode_value(reader)
        return RegistryReply(future_id, target_activity, name, ref, lease_s)
    if tag == _T_REG_BIND:
        name = _decode_value(reader)
        ref = _decode_value(reader)
        reply_to = _decode_value(reader)
        return RegistryBind(name, ref, reply_to)
    if tag == _T_REG_ACK:
        future_id = reader.zigzag()
        target_activity = _decode_value(reader)
        name = _decode_value(reader)
        ok = reader.u8() != 0
        error = _decode_value(reader)
        return RegistryAck(future_id, target_activity, name, ok, error)
    if tag == _T_REG_RENEW:
        return RegistryRenew(_decode_value(reader), _decode_value(reader))
    if tag == _T_REG_RENEW_ACK:
        return RegistryRenewAck(_decode_value(reader), _decode_value(reader))
    if tag == _T_REG_INVALIDATE:
        return RegistryInvalidate(_decode_value(reader))
    if tag == _T_REG_PUSH:
        return RegistryPush(_decode_value(reader))
    raise WireFormatError(f"unknown value tag 0x{tag:02X}")


def _decode_delivery(reader: _Reader) -> float:
    """First-use literal of a delivery instant."""
    tag = reader.u8()
    if tag != _T_FLOAT:
        raise WireFormatError(
            f"delivery instant has value tag 0x{tag:02X}, expected float"
        )
    return reader.f64()


def _decode_record(reader: _Reader, cls: type):
    """First-use literal of a DGC record; inverse of
    :meth:`ChannelEncoder.record`."""
    decode = _decode_value
    if cls is DgcMessage:
        sender = decode(reader)
        clock = decode(reader)
        consensus = reader.u8() != 0
        sender_ref = decode(reader)
        sender_ttb = decode(reader)
        return DgcMessage(sender, clock, consensus, sender_ref, sender_ttb)
    responder = decode(reader)
    clock = decode(reader)
    has_parent = reader.u8() != 0
    consensus_reached = reader.u8() != 0
    depth = decode(reader)
    return DgcResponse(responder, clock, has_parent, consensus_reached, depth)


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


class Frame:
    """One decoded cross-shard frame: the (shard, seq) stamp that orders
    it in the merged log, and the staged entries it carries."""

    __slots__ = ("src_shard", "seq", "entries")

    def __init__(
        self,
        src_shard: int,
        seq: int,
        entries: List[Tuple[float, str, str, object, object]],
    ) -> None:
        self.src_shard = src_shard
        self.seq = seq
        self.entries = entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Frame(shard={self.src_shard}, seq={self.seq}, "
            f"entries={len(self.entries)})"
        )


def _header(buf) -> Tuple[int, int, int]:
    if len(buf) < _HEADER.size:
        raise WireFormatError(
            f"truncated frame: {len(buf)} bytes, header needs {_HEADER.size}"
        )
    magic, src_shard, seq, count = _HEADER.unpack_from(buf, 0)
    if magic != FRAME_MAGIC:
        raise WireFormatError(f"bad frame magic 0x{magic:04X}")
    return src_shard, seq, count


def frame_stamp(buf: bytes) -> Tuple[int, int]:
    """The ``(src_shard, seq)`` stamp from a packed frame's header —
    the global merge key — without decoding the body.  Lets a worker
    order raw buffers *before* decoding, which persistent channel
    decoders require (each channel's frames must decode in seq order).
    """
    src_shard, seq, _count = _header(buf)
    return src_shard, seq


def frame_entry_count(buf: bytes) -> int:
    """How many entries a packed frame decodes to (one per DGC block,
    one per other row), read from its header."""
    return _header(buf)[2]


def _as_delivery(delivery) -> float:
    try:
        return float(delivery)
    except (TypeError, ValueError):
        raise WireFormatError(
            f"delivery instant {delivery!r} is not a float"
        ) from None


def _new_block(
    family: str, delivery: float, instant, dest: str,
    kind_index: Dict[str, int], node_index: Dict[str, int],
    instants: Dict[object, int], instant_values: List[float],
) -> list:
    """A fresh block: ``[kind index, delivery index, destination index,
    items, payloads, block kind]``."""
    try:
        kind_position = kind_index[family]
    except KeyError:
        raise WireFormatError(
            f"kind {family!r} is not registered with the fabric"
        ) from None
    try:
        dest_position = node_index[dest]
    except KeyError:
        raise WireFormatError(
            f"destination node {dest!r} is not in the shared topology"
        ) from None
    delivery_position = instants.get(instant)
    if delivery_position is None:
        delivery_position = instants[instant] = len(instant_values)
        instant_values.append(delivery)
    return [kind_position, delivery_position, dest_position, [], [], family]


def pack_frame(
    src_shard: int,
    seq: int,
    entries: Sequence[Tuple[float, str, str, object, object]],
    node_index: Dict[str, int],
    channel: Optional[ChannelEncoder] = None,
) -> bytes:
    """Pack staged pulse entries into one wire frame.

    Each entry is ``(delivery_time, dest_node, kind, item, payload)`` —
    exactly the columns a staged pulse entry carries minus the channel
    (the receiving shard re-binds its own ingress channel).  ``kind``
    may be any registered kind or a DGC site-pair aggregate marker, in
    which case item/payload are the flat target/record lists.
    ``channel`` persists the intern tables across the frames of one
    ordered shard channel.
    """
    kind_index = _kind_index()
    blocks: Dict[tuple, list] = {}
    get_block = blocks.get
    get_dgc = _DGC_ROWS.get
    #: Frame-local delivery table: instants move on, so they are
    #: interned per frame only.
    instants: Dict[object, int] = {}
    instant_values: List[float] = []
    for delivery, dest, kind, item, payload in entries:
        if delivery.__class__ is not float:
            delivery = _as_delivery(delivery)
        dgc = get_dgc(kind)
        family = kind if dgc is None else dgc[0]
        instant = delivery if delivery else _float_key(delivery)
        key = (instant, dest, family)
        block = get_block(key)
        if block is None:
            blocks[key] = block = _new_block(
                family, delivery, instant, dest, kind_index, node_index,
                instants, instant_values,
            )
        if dgc is not None and dgc[1]:
            if item.__class__ is not list or payload.__class__ is not list:
                raise WireFormatError(
                    f"aggregate {kind!r} row needs list columns"
                )
            block[3] += item
            block[4] += payload
        else:
            block[3].append(item)
            block[4].append(payload)
    block_kinds: List[int] = []
    sizes: List[int] = []
    delivery_indices: List[int] = []
    dests: List[int] = []
    targets: list = []
    messages: list = []
    responses: list = []
    rows: List[list] = []
    count = 0
    for block in blocks.values():
        block_kinds.append(block[0])
        delivery_indices.append(block[1])
        dests.append(block[2])
        items = block[3]
        sizes.append(len(items))
        family = block[5]
        if family is KIND_DGC_MESSAGE or family is KIND_DGC_RESPONSE:
            if len(items) != len(block[4]):
                raise WireFormatError(
                    f"{family!r} run has {len(items)} targets but "
                    f"{len(block[4])} records"
                )
            targets += items
            if family is KIND_DGC_MESSAGE:
                messages += block[4]
            else:
                responses += block[4]
            count += 1
        else:
            rows.append(block)
            count += len(items)
    encoder = ChannelEncoder() if channel is None else channel
    encoder.out = bytearray()  # fresh frame body, tables persist
    encoder.varint(len(sizes))
    encoder.indices(block_kinds, len(kind_index))
    encoder.sizes(sizes)
    encoder.interned(
        delivery_indices, instant_values, len(instant_values),
        encoder.delivery,
    )
    encoder.indices(dests, len(node_index))
    encoder.column(targets, encoder.targets, False, encoder.target)
    encoder.column(
        messages, encoder.messages, True, encoder.record, DgcMessage
    )
    encoder.column(
        responses, encoder.responses, True, encoder.record, DgcResponse
    )
    value = encoder.value
    for block in rows:
        for item, payload in zip(block[3], block[4]):
            value(item)
            value(payload)
    return _HEADER.pack(FRAME_MAGIC, src_shard, seq, count) + encoder.out


def unpack_frame(
    buf: bytes,
    node_names: Sequence[str],
    channel: Optional[ChannelDecoder] = None,
) -> Frame:
    """Decode one frame; inverse of :func:`pack_frame`.

    ``node_names`` is the shared topology's node tuple (both sides
    derive it from the same :class:`~repro.net.topology.Topology`).
    ``channel`` persists the intern tables across the frames of one
    ordered shard channel; it must mirror the packing side's
    :class:`ChannelEncoder` frame for frame.
    """
    src_shard, seq, count = _header(buf)
    if channel is None:
        channel = ChannelDecoder()
    reader = _Reader(memoryview(buf), _HEADER.size, len(buf), channel.table)
    block_count = reader.varint()
    kinds = _kinds.ALL_KINDS
    indices = reader.fixed_width(_index_code(len(kinds)), block_count)
    try:
        block_kinds = [kinds[index] for index in indices]
    except IndexError:
        raise WireFormatError(
            f"kind index {max(indices)} out of range ({len(kinds)} kinds)"
        ) from None
    sizes = reader.sizes(block_count)
    deliveries = reader.column([], _decode_delivery)
    if len(deliveries) != block_count:
        raise WireFormatError(
            f"{len(deliveries)} delivery instants for {block_count} blocks"
        )
    indices = reader.fixed_width(_index_code(len(node_names)), block_count)
    try:
        dests = [node_names[index] for index in indices]
    except IndexError:
        raise WireFormatError(
            f"destination index {max(indices)} out of range "
            f"({len(node_names)} nodes)"
        ) from None
    targets = reader.column(channel.targets, _decode_value)
    messages = reader.column(channel.messages, _decode_record, DgcMessage)
    responses = reader.column(
        channel.responses, _decode_record, DgcResponse
    )
    entries: List[Tuple[float, str, str, object, object]] = []
    append = entries.append
    decode = _decode_value
    taken = sent = answered = 0
    for kind, size, delivery, dest in zip(block_kinds, sizes, deliveries,
                                          dests):
        if size == 0:
            raise WireFormatError("empty block")
        if kind is KIND_DGC_MESSAGE:
            stop = taken + size
            if stop > len(targets) or sent + size > len(messages):
                raise WireFormatError(
                    f"DGC block of {size} overflows its columns"
                )
            append((delivery, dest, _AGG_DGC_MESSAGE, targets[taken:stop],
                    messages[sent:sent + size]))
            taken = stop
            sent += size
        elif kind is KIND_DGC_RESPONSE:
            stop = taken + size
            if stop > len(targets) or answered + size > len(responses):
                raise WireFormatError(
                    f"DGC block of {size} overflows its columns"
                )
            append((delivery, dest, _AGG_DGC_RESPONSE, targets[taken:stop],
                    responses[answered:answered + size]))
            taken = stop
            answered += size
        else:
            if len(entries) + size > count:
                raise WireFormatError(
                    f"block of {size} overflows entry count {count}"
                )
            for _ in range(size):
                item = decode(reader)
                append((delivery, dest, kind, item, decode(reader)))
    if len(entries) != count:
        raise WireFormatError(
            f"frame declares {count} entries but holds {len(entries)}"
        )
    if (taken, sent, answered) != (
        len(targets), len(messages), len(responses)
    ):
        raise WireFormatError("DGC columns hold rows no block claims")
    if reader.pos != reader.end:
        raise WireFormatError(
            f"frame has {reader.end - reader.pos} trailing bytes"
        )
    return Frame(src_shard, seq, entries)
