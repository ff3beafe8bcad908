"""Fixture shard codec: plays the role of ``repro/net/wire.py``.

Defines the two encode/decode pairs the symmetric-coverage check keys on
(the tagged encoder's ``value`` method with ``_decode_value``, and the
record-column encoder's ``record`` method with ``_decode_record``) plus
the ``KIND_PAYLOAD_TYPES`` manifest.
"""

from kinds_reg import (
    KIND_FAB_ALIEN,
    KIND_FAB_LOST,
    KIND_FAB_PAIR,
    KIND_FAB_PING,
    KIND_FAB_PONG,
    KIND_FAB_RETIRED,
)


class FabPing:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabPong:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabLost:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabPair:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabAlien:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabAsym:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabRecord:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabHalfRecord:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class _Encoder:
    __slots__ = ("out",)

    def __init__(self):
        self.out = []

    def value(self, value):
        cls = value.__class__
        if cls is FabPing:
            self.out.append(1)
        elif cls is FabPong:
            self.out.append(2)
        elif cls is FabLost:
            self.out.append(3)
        elif cls is FabAlien:
            self.out.append(5)
        elif cls is FabAsym:  # expect[KIND-codec]
            self.out.append(6)
        self.out.append(value.a)

    def record(self, record):
        cls = record.__class__
        if cls is FabPair:
            self.out.append(4)
        elif cls is FabRecord:
            self.out.append(7)
        self.out.append(record.a)


def _decode_value(tag, body):
    if tag == 1:
        return FabPing(body)
    if tag == 2:
        return FabPong(body)
    if tag == 3:
        return FabLost(body)
    return FabAlien(body)


def _decode_record(tag, body):
    if tag == 4:
        return FabPair(body)
    if tag == 7:
        return FabRecord(body)
    return FabHalfRecord(body)  # expect[KIND-codec]


KIND_PAYLOAD_TYPES = {
    KIND_FAB_PING: (FabPing,),
    KIND_FAB_PONG: (FabPong, FabOrphan),  # expect[KIND-codec]
    KIND_FAB_LOST: (FabLost,),
    KIND_FAB_PAIR: (FabPair,),
    KIND_FAB_ALIEN: (FabAlien,),
    KIND_FAB_RETIRED: (FabPing,),  # expect[KIND-codec]
}
