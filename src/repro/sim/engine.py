"""Discrete-event simulation engine — S12 in DESIGN.md.

A minimal, deterministic DES kernel: events fire in ``(time, sequence)``
order, so simultaneous events fire in schedule order and every run is
exactly reproducible.  This is the substrate on which the "distributed"
system runs; the paper's campus pool becomes agents exchanging messages
over :mod:`repro.sim.network` on this clock.

Profile history: the seed's docstring claimed >95% of full-pool time in
classad evaluation, so "no further cleverness is warranted here".  PRs
3–8 removed that 95% (compilation, batching, refresh ads), which
inverted the profile — steady-state runs now spend their
time in the kernel itself.  The soft-state design makes that load
structural: every agent re-advertises every period, every message is a
scheduled event, and same-instant delivery bursts are the common case,
not the corner case.  So the kernel now has a *fast path* tuned for
exactly those regular shapes:

* heap entries are mutable ``[time, seq, fn, arg]`` records — callers
  pass ``schedule(delay, fn, arg)`` and no per-event closure is built;
* the heap holds distinct timestamps, not entries: each owns a *slot*
  — its lone entry, or a FIFO of the events due at that instant — so a
  run of same-instant events (an advertising burst, a delivery fan-out,
  a period's re-arms) costs one O(1) append/popleft per event however
  its schedules interleave with others', and heap compares are floats';
* cancellation marks the entry in place (``fn = None``), which both
  makes ``pending()`` an O(1) live counter and removes the old
  ``_cancelled`` set — cancelling an already-fired handle is a no-op
  instead of an unbounded leak;
* the per-event ``sim.events`` counter bump is hoisted behind the
  metrics registry's ``enabled`` flag.

The ``(time, seq)`` total order is load-bearing (every differential,
chaos, and tracing suite depends on it), so the pre-optimization kernel
survives as the *reference heap*: ``REPRO_NO_FASTKERNEL=1`` (or
:func:`set_fast_kernel`\\ ``(False)``) routes every simulator — and the
network's send fast path — back to it, and
``tests/sim/test_engine_property.py`` drives both kernels through
interleaved schedule/cancel/step sequences asserting identical firing
order.  ``benchmarks/bench_engine.py`` measures the gap and CI gates it
(``engine_event_throughput``).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from .._env import env_flag
from ..obs import event_log as _event_log, metrics as _metrics
from ..obs.causal import causal_log as _causal_log
from ..obs.timeseries import series as _series

# The event counter is the denominator for throughput (events per
# wall-second); step() bumps it only while the registry is enabled, so
# a disabled registry costs a single attribute check per event.
_SIM_EVENTS = _metrics.counter("sim.events", "simulation events dispatched")
_SIM_EVENT_RATE = _metrics.gauge(
    "sim.events_per_wall_second",
    "raw kernel dispatch throughput, recorded by benchmarks/bench_engine.py",
)

#: Sentinel: "call ``fn`` with no argument" (``None`` is a valid arg).
_NO_ARG = object()


# ---------------------------------------------------------------------------
# kill-switch (mirrors REPRO_NO_COMPILE / REPRO_NO_BATCH / REPRO_NO_REFRESH)


_fast_kernel = not env_flag("REPRO_NO_FASTKERNEL")


def fast_kernel_enabled() -> bool:
    """Whether new simulators use the fast kernel (see
    ``REPRO_NO_FASTKERNEL``).  Also consulted per-send by the network's
    allocation-free fast path, so throwing the switch routes *all*
    substrate shortcuts back to the reference code."""
    return _fast_kernel


def set_fast_kernel(enabled: Optional[bool]) -> None:
    """Override the kill-switch; ``None`` re-reads the environment.

    Affects simulators constructed afterwards (and the network fast
    path immediately); an existing :class:`Simulator` keeps the kernel
    it was born with.
    """
    global _fast_kernel
    _fast_kernel = (not env_flag("REPRO_NO_FASTKERNEL")) if enabled is None else bool(enabled)


class EventHandle(list):
    """Returned by schedule(); lets the caller cancel the event.

    In the fast kernel the handle *is* the queue entry — a mutable
    ``[time, seq, fn, arg]`` list — so scheduling an event allocates
    exactly one object.  The reference kernel keeps immutable tuples in
    its heap and hands back a two-element ``[time, seq]`` handle.
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

    Two kernels share this API (see the module docstring): the fast
    slotted kernel and the reference heap.  ``fast=None`` (the
    default) consults :func:`fast_kernel_enabled`.
    """

    def __init__(self, start: float = 0.0, fast: Optional[bool] = None):
        self.now = start
        self._fast = _fast_kernel if fast is None else bool(fast)
        self._sequence = itertools.count()
        self.events_processed = 0
        if self._fast:
            # Fast kernel: mutable [time, seq, fn, arg] entries, one slot
            # per distinct pending timestamp — the entry itself while it
            # is alone there, else a FIFO of them in schedule (= sequence)
            # order — and a heap of those timestamps; _pending_count is a
            # live counter maintained by schedule/cancel/step.  Neither
            # container is ever rebound — run loops hold locals.
            self._heap: List[float] = []
            self._slots: Dict[float, Any] = {}
            self._pending_count = 0
        else:
            # Reference heap: immutable (time, seq, fn, arg) tuples plus
            # a set of live (not yet fired, not cancelled) sequences.
            self._heap = []
            self._live: set = set()
        # Forensics: the newest simulator becomes the clock of every
        # recorded stream (events, causal spans, pool series), so
        # everything recorded during a simulation is stamped with
        # simulated time.  Each stream's reset() restores the wall clock.
        _event_log.set_clock(lambda: self.now)
        _causal_log.set_clock(lambda: self.now)
        _series.set_clock(lambda: self.now)
        _event_log.emit("sim.started", t=self.now)

    # -- scheduling ------------------------------------------------------

    def schedule(
        self, delay: float, fn: Callable, arg: Any = _NO_ARG
    ) -> EventHandle:
        """Run *fn* after *delay* simulated seconds.

        With *arg* given the event fires as ``fn(arg)``; without it, as
        ``fn()`` — so hot callers pass a bound method plus its argument
        instead of allocating a closure per event.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if not self._fast:
            return self.schedule_at(self.now + delay, fn, arg)
        # Inlined fast-path schedule_at (delay >= 0 already proves the
        # past-check): this is the hottest call in a full-pool run.
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
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        seq = next(self._sequence)
        if not self._fast:
            heapq.heappush(self._heap, (time, seq, fn, arg))
            self._live.add(seq)
            return EventHandle((time, seq))
        entry = EventHandle((time, seq, fn, arg))
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
        if not self._fast:
            self._live.discard(handle[1])
            return
        if len(handle) == 4 and handle[2] is not None:
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
        if interval <= 0:
            raise ValueError("interval must be positive")
        task = PeriodicTask(self, interval, callback)
        task._arm(interval if start_delay is None else start_delay)
        return task

    # -- execution ---------------------------------------------------------

    def _head(self) -> Optional[list]:
        """Fast kernel: the next live entry, still in its slot (dead
        entries and spent slots ahead of it are dropped)."""
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

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None."""
        if self._fast:
            head = self._head()
            return head[0] if head is not None else None
        heap = self._heap
        live = self._live
        while heap and heap[0][1] not in live:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def _fire(self, entry: list) -> None:
        """Fast kernel: consume one popped entry."""
        time = entry[0]
        if time < self.now:
            raise AssertionError("causality violation: event in the past")
        self.now = time
        self.events_processed += 1
        self._pending_count -= 1
        fn = entry[2]
        arg = entry[3]
        entry[2] = None  # mark fired: cancel-after-fire stays a no-op
        if _metrics.enabled:
            _SIM_EVENTS.inc()
        if arg is _NO_ARG:
            fn()
        else:
            fn(arg)

    def step(self) -> bool:
        """Process one event; False when the queue is empty."""
        if self._fast:
            head = self._head()
            if head is None:
                return False
            slot = self._slots[head[0]]
            if slot is head:
                del self._slots[heapq.heappop(self._heap)]
            else:
                slot.popleft()
            self._fire(head)
            return True
        when = self.peek_time()
        if when is None:
            return False
        time, seq, fn, arg = heapq.heappop(self._heap)
        self._live.remove(seq)
        if time < self.now:
            raise AssertionError("causality violation: event in the past")
        self.now = time
        self.events_processed += 1
        # The reference kernel keeps the seed's unconditional per-event
        # metrics call (the counter's own guard eats it when disabled) —
        # hoisting it is part of what the fast kernel buys.
        _SIM_EVENTS.inc()
        if arg is _NO_ARG:
            fn()
        else:
            fn(arg)
        return True

    def run_until(self, time: float) -> None:
        """Process events up to and including simulated *time*."""
        if self._fast:
            # Inlined dispatch loop: no per-event method calls beyond
            # the callback itself.  The earliest slot is re-read after
            # every lone event and every run, so a callback may
            # schedule, cancel, step or peek.  The past-event assertion
            # is omitted here — schedule_at's guard makes it unreachable
            # (step() still carries it).
            heap, slots = self._heap, self._slots
            registry = _metrics
            pop_heap = heapq.heappop
            while heap:
                now_t = heap[0]
                if now_t > time:
                    break
                slot = slots[now_t]
                if type(slot) is not EventHandle:
                    # A run of same-instant events: drain it in one
                    # tight loop with the clock write hoisted and the
                    # counters batched; nothing its callbacks schedule
                    # can preempt it, and a spent run's slot is dropped
                    # on the next pass.
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
            return
        while True:
            when = self.peek_time()
            if when is None or when > time:
                break
            self.step()
        self.now = max(self.now, time)

    def run(self, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains (or *max_events*)."""
        processed = 0
        while self.step():
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        return processed

    def pending(self) -> int:
        """Number of pending (non-cancelled) events — O(1)."""
        return self._pending_count if self._fast else len(self._live)


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
            self._arm(self.interval)

    def stop(self) -> None:
        self.stopped = True
        if self._handle is not None:
            self.sim.cancel(self._handle)
