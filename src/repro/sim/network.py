"""Simulated message network — S13 in DESIGN.md.

The paper's substrate was a real campus network; what the matchmaking
protocols are claimed robust against is its *misbehaviour*: delay,
reordering, loss, and unreachable peers.  This network reproduces those
behaviours deterministically:

* each message is delivered after ``latency + U(0, jitter)`` seconds —
  jitter makes reordering possible;
* each message is independently dropped with probability ``loss``;
* messages to a crashed (downed or never registered) node vanish, as UDP
  datagrams to a dead host would;
* an installed :class:`~repro.sim.chaos.ChaosController` is consulted
  on every send and may additionally drop the message (time-windowed
  loss, asymmetric partitions) or deliver extra copies (duplication),
  each copy with an independent latency draw.

Handlers are ``fn(message) -> None`` callables registered per contact
address, mirroring the daemons listening on their command ports.

Throughput: the clean configuration (no chaos, no loss, no jitter —
the steady-state benchmark shape) takes an allocation-free send fast
path that schedules ``(deliver, message)`` directly on the kernel; see
:meth:`Network.send`.  Eligibility is precomputed into ``_fast_send``
and recomputed on every configuration change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..obs import metrics as _metrics
from ..obs.causal import causal_log as _causal
from .engine import Simulator
from .rng import RngStream

Handler = Callable[[object], None]

_NET_DUPLICATED = _metrics.counter(
    "net.duplicated", "extra message copies injected by chaos duplication"
)
_NET_DROPPED_PARTITION = _metrics.counter(
    "net.dropped_partition", "messages dropped by chaos partition windows"
)
_NET_BYTES_SENT = _metrics.gauge(
    "net.bytes_sent", "cumulative estimated bytes handed to the network"
)


@dataclass
class NetworkStats:
    """Delivery accounting (failure-injection tests assert on these)."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_no_recipient: int = 0
    dropped_down: int = 0
    dropped_partition: int = 0
    duplicated: int = 0
    #: Estimated wire bytes of accepted sends (``Message.wire_size``).
    #: Sizing a message costs a serialization-shaped walk, so it runs
    #: only while the metrics registry is enabled *at send time*:
    #: enable metrics before the run or the total undercounts, and
    #: messages without a ``wire_size`` method contribute 0.  The
    #: ``net.bytes_sent`` gauge mirrors this field under the same rule.
    bytes_sent: int = 0


class Network:
    """Message fabric between agents on one simulator."""

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[RngStream] = None,
        latency: float = 0.050,
        jitter: float = 0.0,
        loss: float = 0.0,
    ):
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if latency < 0 or jitter < 0:
            raise ValueError("latency and jitter must be non-negative")
        self.sim = sim
        self.rng = (rng or RngStream(0)).fork("network")
        self.latency = latency
        self._jitter = jitter
        self._loss = loss
        self.stats = NetworkStats()
        self._handlers: Dict[str, Handler] = {}
        self._down: set = set()
        self._chaos = None  # Optional[repro.sim.chaos.ChaosController]
        self._deliver_cb = self._deliver  # one bound method for every send
        self._recompute_fast_path()

    # Loss and jitter are exposed as properties so direct configuration
    # writes (tests and benchmarks mutate them mid-run) keep the
    # precomputed fast-path eligibility flag honest.

    @property
    def jitter(self) -> float:
        return self._jitter

    @jitter.setter
    def jitter(self, value: float) -> None:
        self._jitter = value
        self._recompute_fast_path()

    @property
    def loss(self) -> float:
        return self._loss

    @loss.setter
    def loss(self, value: float) -> None:
        self._loss = value
        self._recompute_fast_path()

    def _recompute_fast_path(self) -> None:
        """Recomputed on every config change (chaos install, loss/jitter
        writes): when true, sends need no randomness and no chaos
        consult, so the fixed-latency fast path is eligible."""
        self._fast_send = self._chaos is None and not self._loss and not self._jitter

    def install_chaos(self, controller) -> None:
        """Route every subsequent send through *controller* (see
        :mod:`repro.sim.chaos`); ``None`` uninstalls."""
        self._chaos = controller
        self._recompute_fast_path()

    # -- membership ------------------------------------------------------

    def register(self, address: str, handler: Handler) -> None:
        """Attach *handler* to *address* (replacing any previous one)."""
        self._handlers[address] = handler
        self._down.discard(address)

    def set_down(self, address: str, down: bool = True) -> None:
        """Crash (or revive) a node without losing its registration."""
        if down:
            self._down.add(address)
        else:
            self._down.discard(address)

    def revive(self, address: str) -> None:
        """Bring a downed node back (schedulable: ``schedule(at, net.revive,
        address)`` needs no closure, unlike ``set_down(..., down=False)``)."""
        self._down.discard(address)

    def is_down(self, address: str) -> bool:
        return address in self._down

    # -- transmission ------------------------------------------------------

    def send(self, message) -> None:
        """Queue *message* for delivery to ``message.recipient``.

        A down *sender* cannot transmit (a dead process sends nothing);
        loss is decided at send time, delivery state at delivery time —
        a message in flight to a node that crashes mid-flight is lost,
        like a datagram to a dead host.

        Fast path: with no chaos controller, loss, or jitter configured
        (``_fast_send``), no node down, and the causal/metrics layers
        off, a send is exactly "deliver after ``latency``" — one direct
        ``(deliver, message)`` schedule, no closure, no RNG draw, no
        getattr chain.  The conditions guarantee the slow path would
        have made byte-identical decisions, so the fast path is pure
        strength reduction.
        """
        if (
            self._fast_send
            and not self._down
            and not _causal.enabled
            and not _metrics.enabled
        ):
            self.stats.sent += 1
            self.sim.schedule(self.latency, self._deliver_cb, message)
            return
        self._send_slow(message)

    def _send_slow(self, message) -> None:
        sender = getattr(message, "sender", None)
        if sender in self._down:
            self.stats.dropped_down += 1
            return
        if _causal.enabled and getattr(message, "ctx", None) is None:
            # Causal injection happens once per message *object*: the
            # send span parents on whatever context is active (a recv
            # span mid-handler, a daemon-stitched claim/job context) and
            # rides the message — so blind retransmits and chaos
            # duplicates of this object all share the originating span.
            ctx = _causal.span(
                f"send.{type(message).__name__}", frm=sender, to=message.recipient
            )
            if ctx is not None and hasattr(message, "ctx"):
                object.__setattr__(message, "ctx", ctx)
        self.stats.sent += 1
        if _metrics.enabled:
            sizer = getattr(message, "wire_size", None)
            if sizer is not None:
                self.stats.bytes_sent += sizer()
                _NET_BYTES_SENT.set(self.stats.bytes_sent)
        if self._loss and self.rng.bernoulli(self._loss):
            self.stats.dropped_loss += 1
            return
        if self._chaos is not None:
            cause, copies = self._chaos.send_verdict(
                sender or "", message.recipient, self.sim.now
            )
            if cause == "partition":
                self.stats.dropped_partition += 1
                _NET_DROPPED_PARTITION.inc()
                return
            if cause == "loss":
                self.stats.dropped_loss += 1
                return
            for _ in range(copies):
                self.stats.duplicated += 1
                _NET_DUPLICATED.inc()
                self.sim.schedule(self._delay(), self._deliver_cb, message)
        self.sim.schedule(self._delay(), self._deliver_cb, message)

    def _delay(self) -> float:
        delay = self.latency
        if self._jitter:
            delay += self.rng.uniform(0.0, self._jitter)
        return delay

    def _deliver(self, message) -> None:
        recipient = message.recipient
        if recipient in self._down:
            self.stats.dropped_down += 1
            return
        handler = self._handlers.get(recipient)
        if handler is None:
            self.stats.dropped_no_recipient += 1
            return
        self.stats.delivered += 1
        if _causal.enabled:
            ctx = getattr(message, "ctx", None)
            if ctx is not None:
                # Each delivered copy gets its own recv span under the
                # shared send span, and the handler runs with it active —
                # anything the handler sends becomes a causal child, which
                # is how the DAG crosses daemon boundaries.
                rctx = _causal.span(
                    f"recv.{type(message).__name__}", parent=ctx, at=recipient
                )
                with _causal.activate(rctx):
                    handler(message)
                return
        handler(message)
