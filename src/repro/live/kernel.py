"""A wall-clock kernel with the same interface as the simulator's.

All callbacks run on one dedicated scheduler thread, preserving the
single-threaded execution model every component was written for; other
threads only *schedule* work (thread-safe) and *poll* state (reads of
counters/collections under the GIL).

``LiveKernel(virtual_time=True)`` selects the kernel's second mode: no
scheduler thread is started and the caller drives execution directly
through :meth:`advance`, which fires every event strictly before a
horizon inline on the calling thread.  This is the mode the sharded
world (:mod:`repro.shard`) runs each shard worker in — the coordinator
grants conservative horizons round by round, and determinism requires
exactly this single-threaded, caller-paced execution, so the mode
schedules without taking any lock.  Everything else (heap layout, beat
wheel, counters) is shared between the modes.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SchedulingInPastError, SimulationError
from repro.sim.beats import BeatWheel
from repro.sim.kernel import Event


class LiveKernel:
    """Drop-in kernel executing events at real (monotonic) times.

    Mirrors :class:`repro.sim.kernel.SimKernel`, including its two fast
    paths: the heap holds ``(time, seq, event, callback, args)`` tuples
    (``event`` is ``None`` for fire-and-forget work, so
    :meth:`schedule_fire_at` honours its event-less contract and never
    allocates a cancellable :class:`Event` for deliveries), and
    :meth:`schedule_periodic` batches aligned heartbeats through a
    :class:`repro.sim.beats.BeatWheel` driven by the scheduler thread —
    and its load counters (``pending_count`` / ``peak_pending_count`` /
    ``fired_count`` / ``scheduled_count``), so :class:`PerfReport` and
    the benchmarks read both kernels uniformly.
    """

    def __init__(self, *, virtual_time: bool = False) -> None:
        self._origin = time.monotonic()
        self._heap: List[
            Tuple[float, int, Optional[Event], Callable[..., None], tuple]
        ] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._shutdown = False
        self._fired = 0
        self._scheduled = 0
        self._pending = 0
        self._peak_pending = 0
        self._virtual = virtual_time
        #: The run/stop handshake: ``run`` blocks the calling thread on
        #: this condition; ``request_stop`` (typically fired from the
        #: scheduler thread by the world's termination hook) wakes it.
        self._run_cv = threading.Condition()
        self._stop_requested = False
        #: Beat wheel shared by all ``schedule_periodic`` callers; its
        #: lock is reentrant because bucket callbacks (running on the
        #: scheduler thread, under the lock) may register/stop members.
        #: The caller-driven mode has no second thread and no lock.
        self._beats = BeatWheel(
            self, lock=None if virtual_time else threading.RLock()
        )
        self._thread: Optional[threading.Thread] = None
        if virtual_time:
            # Caller-driven mode: no scheduler thread; ``_now`` is the
            # virtual clock (the attribute doubles as the network
            # fabric's fast-clock handshake, exactly like SimKernel's).
            self._now = 0.0
            # Single-threaded: fire-and-forget work goes straight onto
            # the heap — no lock, no wakeup, no per-call mode branch.
            self.schedule_fire_at = self._push_fire
        else:
            self._thread = threading.Thread(
                target=self._loop, name="repro-live-kernel", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------------
    # Kernel interface (mirrors repro.sim.kernel.SimKernel)
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds since kernel start (monotonic wall clock), or the
        virtual clock in ``virtual_time`` mode."""
        if self._virtual:
            return self._now
        return time.monotonic() - self._origin

    @property
    def virtual_time(self) -> bool:
        return self._virtual

    @property
    def fired_count(self) -> int:
        return self._fired

    @property
    def scheduled_count(self) -> int:
        return self._scheduled

    @property
    def pending_count(self) -> int:
        """Live (non-cancelled) entries in the heap — same accounting as
        :attr:`SimKernel.pending_count`: cancelled events leave the
        count at cancel time, fired events when popped."""
        return self._pending

    @property
    def peak_pending_count(self) -> int:
        return self._peak_pending

    @property
    def beat_wheel(self) -> BeatWheel:
        return self._beats

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        if delay < 0:
            raise SchedulingInPastError(
                f"cannot schedule {label or callback!r} with negative "
                f"delay {delay}"
            )
        return self.schedule_at(self.now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        if self._virtual:
            # Caller-driven mode is single-threaded: no lock, no wakeup.
            return self._push_event(when, callback, args, label)
        with self._wakeup:
            event = self._push_event(when, callback, args, label)
            self._wakeup.notify()
        return event

    def _push_event(
        self, when: float, callback: Callable[..., None], args: tuple,
        label: str,
    ) -> Event:
        if self._shutdown:
            raise SimulationError("kernel is shut down")
        seq = next(self._seq)
        event = Event(when, seq, callback, args, label)
        event.owner = self
        heapq.heappush(self._heap, (when, seq, event, callback, args))
        self._scheduled += 1
        self._pending += 1
        if self._pending > self._peak_pending:
            self._peak_pending = self._pending
        return event

    def schedule_fire_at(
        self,
        when: float,
        callback: Callable[..., None],
        args: tuple = (),
    ) -> None:
        """Mirror of :meth:`SimKernel.schedule_fire_at`: fire-and-forget
        work is pushed without allocating an :class:`Event`, honouring
        the documented event-less contract for never-cancelled
        deliveries.  Threaded mode only: a virtual-time kernel binds
        :meth:`_push_fire` in its place."""
        with self._wakeup:
            self._push_fire(when, callback, args)
            self._wakeup.notify()

    def _push_fire(
        self, when: float, callback: Callable[..., None], args: tuple = ()
    ) -> None:
        if self._shutdown:
            raise SimulationError("kernel is shut down")
        heapq.heappush(self._heap, (when, next(self._seq), None, callback, args))
        self._scheduled += 1
        self._pending += 1
        if self._pending > self._peak_pending:
            self._peak_pending = self._pending

    def _on_event_cancelled(self) -> None:
        """Event-owner hook (see :meth:`Event.cancel`): a cancelled
        event leaves ``pending_count`` immediately, its heap tuple is
        skipped when popped."""
        self._pending -= 1

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        label: str = "beat",
    ):
        """Register ``callback`` on the beat wheel; same protocol as
        :meth:`SimKernel.schedule_periodic`.  Bucket events fire on the
        scheduler thread, so member callbacks keep the single-threaded
        execution model."""
        return self._beats.register(
            period, callback, first_delay=first_delay, label=label
        )

    def request_stop(self) -> None:
        """Wake a blocked :meth:`run` immediately (the event-driven
        quiescence path, mirroring :meth:`SimKernel.request_stop`): the
        world's termination hook — running on the scheduler thread —
        calls this the instant the live non-root counter hits zero, and
        the caller of ``run`` returns without polling.

        The request latches: one issued while no ``run`` is blocked
        (e.g. the racy instant right before ``run`` enters) is consumed
        by the *next* ``run``, which then returns immediately."""
        with self._run_cv:
            self._stop_requested = True
            self._run_cv.notify_all()

    def run(self, until: Optional[float] = None, max_events=None) -> int:
        """Block the calling thread until wall time reaches ``until`` or
        :meth:`request_stop` is called.

        The scheduler thread keeps firing events throughout; this only
        provides the ``world.run_for`` / ``run_until_collected``
        blocking semantics.
        """
        if self._virtual:
            raise SimulationError(
                "a virtual-time LiveKernel is driven by advance(); run() "
                "has no scheduler thread to wait on"
            )
        if until is None:
            raise SimulationError(
                "LiveKernel.run requires 'until' (it cannot drain an "
                "open-ended real-time queue)"
            )
        with self._run_cv:
            try:
                while not self._stop_requested:
                    remaining = until - self.now
                    if remaining <= 0:
                        break
                    self._run_cv.wait(timeout=remaining)
            finally:
                # Consume the request so the next run starts fresh.
                self._stop_requested = False
        return 0

    def run_until_quiescent(
        self,
        predicate: Callable[[], bool],
        check_interval: float,
        timeout: float,
    ) -> bool:
        """Poll ``predicate`` every ``check_interval`` real seconds."""
        if self._virtual:
            raise SimulationError(
                "a virtual-time LiveKernel is driven by advance(); "
                "quiescence is the shard coordinator's call"
            )
        deadline = self.now + timeout
        while True:
            if predicate():
                return True
            if self.now >= deadline:
                return predicate()
            time.sleep(min(check_interval, max(deadline - self.now, 0.001)))

    # ------------------------------------------------------------------
    # Virtual-time mode (the shard worker's drive shaft)
    # ------------------------------------------------------------------

    def next_event_time(self) -> Optional[float]:
        """The earliest live event's time, or ``None`` when the heap is
        empty — the per-round bid a shard worker reports so the
        coordinator can compute the global horizon."""
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[2]
            if event is not None and event.cancelled:
                heapq.heappop(heap)
                continue
            return head[0]
        return None

    def advance(self, horizon: float) -> int:
        """Fire every event strictly before ``horizon`` inline, in heap
        order, then move the clock to ``horizon``.  Returns the number
        of events fired.

        The horizon is *exclusive*: an event at exactly ``horizon``
        stays pending, because the granting coordinator only guarantees
        that no cross-shard frame can arrive strictly before it.  During
        each callback ``now`` reads the event's own time (as under
        SimKernel), and callbacks may schedule freely, including before
        the horizon — new events inside the window fire in this same
        call.
        """
        if not self._virtual:
            raise SimulationError(
                "advance() requires LiveKernel(virtual_time=True)"
            )
        if horizon < self._now:
            raise SchedulingInPastError(
                f"cannot advance backwards to {horizon} (now={self._now})"
            )
        heap = self._heap
        heappop = heapq.heappop
        fired = 0
        while heap:
            head = heap[0]
            if head[0] >= horizon:
                break
            event = head[2]
            if event is not None and event.cancelled:
                heappop(heap)
                continue
            heappop(heap)
            self._pending -= 1
            if event is not None:
                event.owner = None
            self._now = head[0]
            self._fired += 1
            fired += 1
            head[3](*head[4])
        self._now = horizon
        return fired

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self, join_timeout: float = 2.0) -> None:
        """Stop the scheduler thread and tear down periodic work.

        Pending one-shot events are dropped; the beat wheel is *drained*
        — every registered periodic member is stopped and every bucket
        dropped — so nothing can fire a callback into a torn-down world
        afterwards: the scheduler thread is joined first, and any bucket
        event still in the heap finds its bucket gone (the wheel's
        ``_fire`` tolerates drained keys).
        """
        with self._wakeup:
            self._shutdown = True
            self._wakeup.notify()
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
        self._beats.drain()

    # ------------------------------------------------------------------
    # Scheduler loop
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._wakeup:
                while True:
                    if self._shutdown:
                        return
                    if not self._heap:
                        self._wakeup.wait()
                        continue
                    head = self._heap[0]
                    event = head[2]
                    if event is not None and event.cancelled:
                        heapq.heappop(self._heap)
                        continue
                    delay = head[0] - self.now
                    if delay > 0:
                        self._wakeup.wait(timeout=delay)
                        continue
                    heapq.heappop(self._heap)
                    self._pending -= 1
                    if event is not None:
                        event.owner = None
                    break
            # Fire outside the lock so callbacks can schedule freely.
            self._fired += 1
            try:
                head[3](*head[4])
            except Exception:  # pragma: no cover - surfaced by tests
                import traceback

                traceback.print_exc()
