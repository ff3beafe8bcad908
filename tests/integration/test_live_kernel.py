"""LiveKernel unit coverage alongside the live runtime suite.

Three concerns:

* **stats parity with SimKernel** — ``pending_count`` /
  ``peak_pending_count`` / ``fired_count`` / ``scheduled_count`` follow
  the same accounting rules (increment on schedule, decrement on fire
  and on cancel), so ``PerfReport`` and the benchmarks read either
  kernel uniformly;
* **virtual-time mode** — the caller-driven mode the shard workers run
  in: ``advance(horizon)`` fires strictly-before-horizon events inline,
  ``now`` tracks the virtual clock, and scheduling takes no lock;
* **teardown** — ``shutdown`` drains the beat wheel, so a stopped
  shard's kernel never fires a periodic callback into a torn-down
  world (regression for the beat-wheel teardown bug).
"""

import threading
import time
import types

import pytest

import repro.live.kernel as live_kernel
from repro.errors import SchedulingInPastError, SimulationError
from repro.live import LiveKernel
from repro.sim.kernel import SimKernel


def parity_script(kernel, start):
    """Drive identical scheduling traffic through either kernel and
    return the counter snapshots taken at the same protocol points."""
    fired = []
    keep = kernel.schedule_at(start + 0.01, fired.append, "a")
    doomed = kernel.schedule_at(start + 0.02, fired.append, "b")
    kernel.schedule_fire_at(start + 0.03, fired.append, ("c",))
    after_schedule = (kernel.pending_count, kernel.peak_pending_count,
                      kernel.scheduled_count, kernel.fired_count)
    doomed.cancel()
    after_cancel = (kernel.pending_count, kernel.peak_pending_count)
    return keep, fired, after_schedule, after_cancel


def test_stats_parity_with_sim_kernel():
    sim = SimKernel()
    live = LiveKernel(virtual_time=True)
    _, sim_fired, sim_sched, sim_cancel = parity_script(sim, sim.now)
    _, live_fired, live_sched, live_cancel = parity_script(live, live.now)
    assert live_sched == sim_sched == (3, 3, 3, 0)
    assert live_cancel == sim_cancel == (2, 3)
    sim.run(until=1.0)
    live.advance(1.0)
    assert sim_fired == live_fired == ["a", "c"]
    for kernel in (sim, live):
        assert kernel.pending_count == 0
        assert kernel.peak_pending_count == 3
        assert kernel.fired_count == 2
        assert kernel.scheduled_count == 3


def test_wall_clock_counters_drain():
    kernel = LiveKernel()
    try:
        done = threading.Event()
        kernel.schedule(0.0, done.set)
        assert done.wait(2.0)
        deadline = time.monotonic() + 2.0
        while kernel.pending_count and time.monotonic() < deadline:
            time.sleep(0.001)
        assert kernel.pending_count == 0
        assert kernel.fired_count >= 1
        assert kernel.peak_pending_count >= 1
    finally:
        kernel.shutdown()


# ----------------------------------------------------------------------
# Virtual-time mode
# ----------------------------------------------------------------------


def test_virtual_advance_is_exclusive_and_sets_clock():
    kernel = LiveKernel(virtual_time=True)
    times = []
    kernel.schedule_at(1.0, lambda: times.append(kernel.now))
    kernel.schedule_at(2.0, lambda: times.append(kernel.now))
    assert kernel.next_event_time() == 1.0
    # The horizon is exclusive: the event at exactly 2.0 must hold.
    assert kernel.advance(2.0) == 1
    assert times == [1.0]
    assert kernel.now == 2.0
    assert kernel.next_event_time() == 2.0
    assert kernel.advance(2.5) == 1
    assert times == [1.0, 2.0]
    assert kernel.next_event_time() is None


class _CountingLock:
    """Stands in for every threading primitive the kernel builds and
    counts each acquire, context entry and notify."""

    taken = 0

    def __init__(self, *args, **kwargs):
        pass

    def _take(self, *args, **kwargs):
        _CountingLock.taken += 1
        return True

    acquire = notify = notify_all = _take

    def __enter__(self):
        self._take()
        return self

    def __exit__(self, *exc_info):
        return False

    def release(self):
        pass


def test_virtual_mode_schedules_without_locks(monkeypatch):
    monkeypatch.setattr(live_kernel, "threading", types.SimpleNamespace(
        Lock=_CountingLock, RLock=_CountingLock, Condition=_CountingLock,
        Thread=threading.Thread,
    ))
    monkeypatch.setattr(_CountingLock, "taken", 0)
    kernel = LiveKernel(virtual_time=True)
    fired = []
    kernel.schedule_at(1.0, fired.append, "at")
    kernel.schedule(0.5, fired.append, "delay")
    kernel.schedule_fire_at(2.0, fired.append, ("fire",))
    beat = kernel.schedule_periodic(
        1.0, lambda: fired.append("beat"), first_delay=1.5
    )
    kernel.advance(3.0)
    beat.stop()
    assert fired == ["delay", "at", "beat", "fire", "beat"]
    assert _CountingLock.taken == 0


def test_virtual_advance_runs_nested_schedules_in_window():
    kernel = LiveKernel(virtual_time=True)
    order = []

    def first():
        order.append(("first", kernel.now))
        kernel.schedule(0.5, second)

    def second():
        order.append(("second", kernel.now))

    kernel.schedule_at(1.0, first)
    assert kernel.advance(3.0) == 2
    assert order == [("first", 1.0), ("second", 1.5)]


def test_virtual_mode_rejects_thread_apis_and_rewind():
    kernel = LiveKernel(virtual_time=True)
    with pytest.raises(SimulationError):
        kernel.run(until=1.0)
    with pytest.raises(SimulationError):
        kernel.run_until_quiescent(lambda: True, 0.1, 1.0)
    kernel.advance(5.0)
    with pytest.raises(SchedulingInPastError):
        kernel.advance(4.0)


def test_wall_clock_mode_rejects_advance():
    kernel = LiveKernel()
    try:
        with pytest.raises(SimulationError):
            kernel.advance(1.0)
    finally:
        kernel.shutdown()


# ----------------------------------------------------------------------
# Teardown (regression: beat wheel must not outlive the kernel)
# ----------------------------------------------------------------------


def test_shutdown_drains_live_periodic_timers():
    kernel = LiveKernel()
    ticks = []
    kernel.schedule_periodic(0.005, lambda: ticks.append(1), first_delay=0.0)
    kernel.schedule_periodic(10.0, lambda: ticks.append(2))
    deadline = time.monotonic() + 2.0
    while not ticks and time.monotonic() < deadline:
        time.sleep(0.001)
    assert ticks, "fast timer never ticked"
    kernel.shutdown()
    # Every registered member is stopped and every bucket dropped: the
    # joined scheduler thread plus the drained wheel mean no callback
    # can ever reach a torn-down world.
    assert kernel.beat_wheel.member_count() == 0
    assert kernel.beat_wheel.live_bucket_count == 0
    count = len(ticks)
    time.sleep(0.05)
    assert len(ticks) == count


def test_drained_bucket_event_is_inert():
    # Virtual mode makes the race deterministic: the bucket's kernel
    # event is still in the heap when the wheel drains; firing it must
    # be a no-op instead of a KeyError or a zombie callback.
    kernel = LiveKernel(virtual_time=True)
    ticks = []
    handle = kernel.schedule_periodic(1.0, lambda: ticks.append(kernel.now))
    assert kernel.beat_wheel.drain() == 1
    assert handle.stopped
    kernel.advance(5.0)
    assert ticks == []
