"""Workload definitions and input generation.

A workload's input for one ``--seed`` is a list of *worlds*: each is a
dict holding every argument the program receives (sizes, topology shape,
configuration and the world's own seed).  The benchmark derives those
dicts from the seed alone and hands them to the program unchanged, so
the same seed always gives the same input.

``torture`` pools several independent worlds per input.  One torture
world's outcome (collapse time, DGC bytes) swings by 20-40% from seed to
seed because it is one random reference tangle; the mean over a few
tangles is a property of the workload instead of one draw.  ``naming``
needs no pooling: its tens of thousands of Zipf resolves already average
out (wire bytes vary by about 1% across seeds).
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Torture (paper Sec. 5.3 / Fig. 10), scaled from the paper-size run
#: (960 slaves) to worlds that take about a second each.
TORTURE_WORLDS = 4
TORTURE_WORLD = {
    "slave_count": 128,
    "active_duration": 150.0,
    "ttb": 5.0,
    "tta": 12.0,
    "nodes": 64,
    "sites": 4,
    "intra_rtt_s": 0.001,
    "metro_rtt_s": 0.5,
    "wan_rtt_s": 2.0,
}

#: Naming churn: collector-less Zipf clients against a leased home
#: registry while a binder churns aliased names.
NAMING_WORLDS = 1
NAMING_WORLD = {
    "client_count": 64,
    "service_count": 64,
    "name_count": 4000,
    "zipf_s": 1.1,
    "churn_burst": 64,
    "churn_period": 5.0,
    "lookup_period": 1.0,
    "lookup_burst": 4,
    "duration": 300.0,
    "lease_ttb": 8,
    "ttb": 10.0,
    "tta": 30.0,
    "nodes": 32,
}

#: Worker processes of the sharded workload.
SHARDS = 2

WORKLOADS = ("torture", "naming", "torture-2shard")

#: Layers each workload must exercise; a traced run in which any span of
#: one of these layers never fired is a failure (the wrapper missed its
#: caller, or the workload lost its reason to exist).
EXERCISED_LAYERS = {
    "torture": ("sim", "net", "core", "runtime"),
    "naming": ("sim", "net", "core", "runtime", "registry"),
    "torture-2shard": ("sim", "net", "core", "runtime", "shard"),
}


def make_inputs(workload: str, seed: int) -> List[Dict[str, Any]]:
    """The program's input for ``workload`` at benchmark seed ``seed``.

    ``torture-2shard`` gets exactly ``torture``'s worlds: the two differ
    only in how the same simulation is executed.
    """
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r} (have: {', '.join(WORKLOADS)})"
        )
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if workload == "naming":
        base, count = NAMING_WORLD, NAMING_WORLDS
    else:
        base, count = TORTURE_WORLD, TORTURE_WORLDS
    return [
        dict(base, seed=seed * count + index) for index in range(count)
    ]
