"""Discrete-event simulation engine — S12 in DESIGN.md.

A minimal, deterministic DES kernel: events fire in ``(time, sequence)``
order, so simultaneous events fire in schedule order and every run is
exactly reproducible.  This is the substrate on which the "distributed"
system runs; the paper's campus pool becomes agents exchanging messages
over :mod:`repro.sim.network` on this clock.

The soft-state design makes the kernel's load structural: every agent
re-advertises every period, every message is a scheduled event, and
same-instant delivery bursts are the common case, not the corner case.
So the queue is tuned for exactly those regular shapes:

* queue entries are mutable ``[time, seq, fn, arg]`` records — callers
  pass ``schedule(delay, fn, arg)`` and no per-event closure is built;
* the heap holds distinct timestamps, not entries: each owns a *slot*
  — its lone entry, or a FIFO of the events due at that instant — so a
  run of same-instant events (an advertising burst, a delivery fan-out,
  a period's re-arms) costs one O(1) append/popleft per event however
  its schedules interleave with others', and heap compares are floats';
* cancellation marks the entry in place (``fn = None``), so
  ``pending()`` is an O(1) live counter and cancelling an already-fired
  handle is a no-op that leaves nothing behind;
* the per-event ``sim.events`` counter bump is hoisted behind the
  metrics registry's ``enabled`` flag.

The ``(time, seq)`` total order is load-bearing (every differential,
chaos, and tracing suite depends on it);
``tests/sim/test_engine_property.py`` holds the kernel to a sorted-list
model of it under generated schedule/cancel/step programs.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from ..obs import event_log as _event_log, metrics as _metrics
from ..obs.causal import causal_log as _causal_log
from ..obs.timeseries import series as _series

# The kernel bumps the event counter only while the registry is
# enabled, so a disabled registry costs a single attribute check per
# event.
_SIM_EVENTS = _metrics.counter("sim.events", "simulation events dispatched")

#: Sentinel: "call ``fn`` with no argument" (``None`` is a valid arg).
_NO_ARG = object()


class EventHandle(list):
    """Returned by schedule(); lets the caller cancel the event.

    The handle *is* the queue entry — a mutable ``[time, seq, fn, arg]``
    list — so scheduling an event allocates exactly one object.
    Ordering is the inherited elementwise list comparison: sequence
    numbers are unique, so two entries always order on ``(time, seq)``
    and callbacks are never compared.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def sequence(self) -> int:
        return self[1]

    def __hash__(self) -> int:  # identity on (time, seq); both are frozen
        return hash((self[0], self[1]))

    def __repr__(self) -> str:
        return f"EventHandle(time={self[0]!r}, sequence={self[1]!r})"


class Simulator:
    """The simulation clock and event queue.

    Typical agent code::

        sim = Simulator()
        sim.schedule(5.0, callback)          # fn called as callback()
        sim.schedule(5.0, handler, message)  # fn called as handler(message)
        sim.every(60.0, advertise)           # periodic timer
        sim.run_until(3600.0)
    """

    def __init__(self, start: float = 0.0):
        self.now = start
        self._sequence = itertools.count()
        self.events_processed = 0
        # Mutable [time, seq, fn, arg] entries, one slot per distinct
        # pending timestamp — the entry itself while it is alone there,
        # else a FIFO of them in schedule (= sequence) order — and a heap
        # of those timestamps; _pending_count is a live counter
        # maintained by schedule/cancel/step.  Neither container is ever
        # rebound — run loops hold locals.
        self._heap: List[float] = []
        self._slots: Dict[float, Any] = {}
        self._pending_count = 0
        # Forensics: the newest simulator becomes the clock of every
        # recorded stream (events, causal spans, pool series), so
        # everything recorded during a simulation is stamped with
        # simulated time.  Each stream's reset() restores the wall clock.
        _event_log.set_clock(lambda: self.now)
        _causal_log.set_clock(lambda: self.now)
        _series.set_clock(lambda: self.now)
        _event_log.emit("sim.started", t=self.now)

    # -- scheduling ------------------------------------------------------
    #
    # The guards are written ``not x >= bound`` so that a NaN time, delay
    # or interval is rejected too (every comparison with NaN is false).

    def schedule(
        self, delay: float, fn: Callable, arg: Any = _NO_ARG
    ) -> EventHandle:
        """Run *fn* after *delay* simulated seconds.

        With *arg* given the event fires as ``fn(arg)``; without it, as
        ``fn()`` — so hot callers pass a bound method plus its argument
        instead of allocating a closure per event.
        """
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        # Inlined schedule_at (delay >= 0 already proves the past-check):
        # this is the hottest call in a full-pool run.
        time = self.now + delay
        entry = EventHandle((time, next(self._sequence), fn, arg))
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = entry
            heapq.heappush(self._heap, time)
        elif type(slot) is EventHandle:
            self._slots[time] = deque((slot, entry))
        else:
            slot.append(entry)
        self._pending_count += 1
        return entry

    def schedule_at(
        self, time: float, fn: Callable, arg: Any = _NO_ARG
    ) -> EventHandle:
        """Run *fn* at absolute simulated *time* (see :meth:`schedule`)."""
        if not time >= self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        entry = EventHandle((time, next(self._sequence), fn, arg))
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = entry
            heapq.heappush(self._heap, time)
        elif type(slot) is EventHandle:
            self._slots[time] = deque((slot, entry))
        else:
            slot.append(entry)
        self._pending_count += 1
        return entry

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event; cancelling one that already fired
        (or was already cancelled) is a no-op."""
        if handle[2] is not None:
            handle[2] = None
            self._pending_count -= 1

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        start_delay: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run *callback* every *interval* seconds until stopped.

        The first firing happens after ``start_delay`` (default: one full
        interval), matching how Condor daemons start their timers.
        """
        if not interval > 0:
            raise ValueError("interval must be positive")
        task = PeriodicTask(self, interval, callback)
        task._arm(interval if start_delay is None else start_delay)
        return task

    # -- execution ---------------------------------------------------------

    def _head(self) -> Optional[list]:
        """The next live entry, still in its slot (dead entries and spent
        slots ahead of it are dropped)."""
        heap, slots = self._heap, self._slots
        while heap:
            slot = slots[heap[0]]
            if type(slot) is EventHandle:
                if slot[2] is not None:
                    return slot
            else:
                while slot and slot[0][2] is None:
                    slot.popleft()
                if slot:
                    return slot[0]
            del slots[heapq.heappop(heap)]
        return None

    def step(self) -> bool:
        """Process one event; False when the queue is empty."""
        head = self._head()
        if head is None:
            return False
        slot = self._slots[head[0]]
        if slot is head:
            del self._slots[heapq.heappop(self._heap)]
        else:
            slot.popleft()
        if head[0] < self.now:
            raise AssertionError("causality violation: event in the past")
        self.now = head[0]
        self.events_processed += 1
        self._pending_count -= 1
        fn = head[2]
        arg = head[3]
        head[2] = None  # mark fired: cancel-after-fire stays a no-op
        if _metrics.enabled:
            _SIM_EVENTS.inc()
        if arg is _NO_ARG:
            fn()
        else:
            fn(arg)
        return True

    def run_until(self, time: float) -> None:
        """Process events up to and including simulated *time*."""
        # Inlined dispatch loop: no per-event method calls beyond the
        # callback itself.  The earliest slot is re-read after every lone
        # event and every run, so a callback may schedule, cancel or
        # step.  The past-event assertion is omitted here — the
        # scheduling guards make it unreachable (step() still carries it).
        heap, slots = self._heap, self._slots
        registry = _metrics
        pop_heap = heapq.heappop
        while heap:
            now_t = heap[0]
            if now_t > time:
                break
            slot = slots[now_t]
            if type(slot) is not EventHandle:
                # A run of same-instant events: drain it in one tight
                # loop with the clock write hoisted and the counters
                # batched; nothing its callbacks schedule can preempt it,
                # and a spent run's slot is dropped on the next pass.
                if not slot:
                    del slots[pop_heap(heap)]
                    continue
                self.now = now_t
                fired = 0
                popleft = slot.popleft
                while slot:
                    entry = popleft()
                    fn = entry[2]
                    if fn is None:
                        continue  # cancelled
                    entry[2] = None  # mark fired: cancel-after-fire no-ops
                    fired += 1
                    if registry.enabled:
                        _SIM_EVENTS.inc()
                    arg = entry[3]
                    if arg is _NO_ARG:
                        fn()
                    else:
                        fn(arg)
                self.events_processed += fired
                self._pending_count -= fired
                continue
            # A lone event leaves its slot before it runs.
            del slots[pop_heap(heap)]
            fn = slot[2]
            if fn is None:
                continue  # cancelled
            slot[2] = None
            self.now = now_t
            self.events_processed += 1
            self._pending_count -= 1
            if registry.enabled:
                _SIM_EVENTS.inc()
            arg = slot[3]
            if arg is _NO_ARG:
                fn()
            else:
                fn(arg)
        self.now = max(self.now, time)

    def run(self, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains (or *max_events*)."""
        processed = 0
        while (max_events is None or processed < max_events) and self.step():
            processed += 1
        return processed

    def pending(self) -> int:
        """Number of pending (non-cancelled) events — O(1)."""
        return self._pending_count


class PeriodicTask:
    """A repeating timer created by :meth:`Simulator.every`.

    Re-arming reuses one bound method (``_fire_cb``) captured at
    construction, so a million firings allocate no closures — just the
    kernel's own event entry per arm.
    """

    __slots__ = ("sim", "interval", "callback", "stopped", "firings", "_handle", "_fire_cb")

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], None]):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.stopped = False
        self.firings = 0
        self._handle: Optional[EventHandle] = None
        self._fire_cb = self._fire

    def _arm(self, delay: float) -> None:
        self._handle = self.sim.schedule(delay, self._fire_cb)

    def _fire(self) -> None:
        if self.stopped:
            return
        self.firings += 1
        self.callback()
        if not self.stopped:  # the callback may have stopped us
            self._handle = self.sim.schedule(self.interval, self._fire_cb)

    def stop(self) -> None:
        self.stopped = True
        if self._handle is not None:
            self.sim.cancel(self._handle)
