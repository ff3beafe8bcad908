"""In-memory span recording and self-time arithmetic.

A span is one call of a wrapped function.  Storing millions of individual
spans would dominate the traced run's memory, so spans are aggregated as
they close: per span name, the call count, the inclusive time, the time
covered by child spans, and per caller (the enclosing span's name) the
calls and inclusive time it caused.  A span's self time is its inclusive
time minus its children's; a layer's self time is the sum over its
spans.  Because every closing span hands its whole duration to exactly
one parent, the self times of all spans add up to the inclusive time of
the root spans.

Nothing here imports :mod:`repro`; the wrappers are installed by
:mod:`perfbench.probes`.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List

#: Caller name recorded for spans opened with no enclosing span.
ROOT = "<root>"

#: Layer of spans that measure waiting, not work: they are excluded from
#: every layer's self time and reported on their own.
WAIT = "wait"


class SpanRecorder:
    """Aggregated spans of one process."""

    def __init__(self) -> None:
        #: name -> [calls, inclusive_s, child_s, {caller: [calls, inclusive_s]}]
        self.stats: Dict[str, list] = {}
        self.layers: Dict[str, str] = {}
        #: Open frames, innermost last: [child_s, start, name].
        self.stack: List[list] = []

    def _stat(self, layer: str, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, {}]
            self.layers[name] = layer
        elif self.layers[name] != layer:
            raise ValueError(f"span {name!r} registered under two layers")
        return stat

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so every call records a span ``name``."""
        stat = self._stat(layer, name)
        callers = stat[3]
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][2] if stack else ROOT
            frame = [0.0, perf(), name]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - frame[1]
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                caller = callers.get(parent)
                if caller is None:
                    callers[parent] = [1, elapsed]
                else:
                    caller[0] += 1
                    caller[1] += elapsed

        return span

    def reset(self) -> None:
        """Forget everything recorded, keeping the installed wrappers
        (they hold references to the per-name records, so those are
        cleared in place)."""
        for stat in self.stats.values():
            stat[0] = 0
            stat[1] = 0.0
            stat[2] = 0.0
            stat[3].clear()
        self.stack.clear()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data copy of the records.  Spans still open count as
        ending now, so a process can report before its entry function
        returns."""
        now = time.perf_counter()
        out = {
            name: {
                "layer": self.layers[name],
                "calls": stat[0],
                "inclusive_s": stat[1],
                "child_s": stat[2],
                "callers": {
                    caller: list(value) for caller, value in stat[3].items()
                },
            }
            for name, stat in self.stats.items()
        }
        inner = 0.0
        for index in range(len(self.stack) - 1, -1, -1):
            child_s, start, name = self.stack[index]
            elapsed = now - start
            record = out[name]
            record["calls"] += 1
            record["inclusive_s"] += elapsed
            record["child_s"] += child_s + inner
            parent = self.stack[index - 1][2] if index else ROOT
            caller = record["callers"].setdefault(parent, [0, 0.0])
            caller[0] += 1
            caller[1] += elapsed
            inner = elapsed
        return out


def merge(snapshots: List[Dict[str, Dict[str, Any]]]) -> Dict[str, Dict[str, Any]]:
    """Sum snapshots of several processes (or runs) span by span."""
    out: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, record in snapshot.items():
            into = out.get(name)
            if into is None:
                out[name] = into = {
                    "layer": record["layer"], "calls": 0,
                    "inclusive_s": 0.0, "child_s": 0.0, "callers": {},
                }
            into["calls"] += record["calls"]
            into["inclusive_s"] += record["inclusive_s"]
            into["child_s"] += record["child_s"]
            for caller, (calls, inclusive) in record["callers"].items():
                slot = into["callers"].setdefault(caller, [0, 0.0])
                slot[0] += calls
                slot[1] += inclusive
    return out


def self_time(record: Dict[str, Any]) -> float:
    return record["inclusive_s"] - record["child_s"]


def layer_self_times(snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Self time per layer (the wait layer included, under its name)."""
    out: Dict[str, float] = {}
    for record in snapshot.values():
        out[record["layer"]] = out.get(record["layer"], 0.0) + self_time(record)
    return out

