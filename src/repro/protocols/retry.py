"""At-least-once delivery over the datagram network — protocol hardening.

Section 3.2's robustness claim is end-to-end: the matchmaker may hand
out stale hints and the network may eat messages, because the claiming
protocol re-validates everything at claim time.  That argument still
needs the *messages themselves* to eventually arrive, which deployed
Condor gets from TCP and periodic refresh.  Our network is datagram-like
(:mod:`repro.sim.network`), so the agents retransmit:

* :class:`BackoffPolicy` — capped exponential backoff with optional
  jitter drawn from a forked :class:`~repro.sim.rng.RngStream` (so
  retry timing never perturbs other streams' draws);
* :class:`Retransmitter` — blindly resends a message on that schedule
  until a ``stop_when`` predicate says the exchange resolved, the
  policy's try budget runs out, or retries are globally disabled.

Retransmits are *blind*: no trace events, no protocol counters — only
the ``retries.sent`` / ``retries.exhausted`` observability counters —
so duplicate wire messages never inflate protocol statistics.
Receivers de-duplicate (the other half of at-least-once): see the
replay cache in :mod:`repro.condor.machine` and the match/notice
de-duplication in :mod:`repro.condor.schedd`.

:func:`set_retries`\\ ``(False)`` (``repro chaos --no-retry``) is the
ablation kill-switch: every retransmission and lease-loss recovery in
the codebase consults :func:`retries_enabled`, so a chaos run with the
switch thrown demonstrates what the hardening buys (stranded work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..obs import metrics as _metrics

_RETRIES_SENT = _metrics.counter(
    "retries.sent", "protocol retransmissions actually sent, by message kind"
)
_RETRIES_EXHAUSTED = _metrics.counter(
    "retries.exhausted", "retransmit series that ran out of tries, by message kind"
)


_retries_enabled = True


def retries_enabled() -> bool:
    """Whether protocol retransmission/recovery is active (see
    :func:`set_retries`)."""
    return _retries_enabled


def set_retries(enabled: bool) -> None:
    """Turn retries off (``False``, the ablation) or back on (``True``)."""
    global _retries_enabled
    _retries_enabled = bool(enabled)


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff: delay(n) = min(cap, base * factor**n),
    plus up to ``jitter`` (a fraction of the delay) of random smear."""

    base: float = 5.0
    factor: float = 2.0
    cap: float = 60.0
    jitter: float = 0.2
    #: Retransmissions *beyond* the first send.
    max_tries: int = 3

    def delay(self, attempt: int, rng=None) -> float:
        raw = min(self.cap, self.base * self.factor**attempt)
        if self.jitter and rng is not None:
            raw += rng.uniform(0.0, self.jitter * raw)
        return raw


DEFAULT_POLICY = BackoffPolicy()


class Retransmitter:
    """Resends messages on a :class:`BackoffPolicy` schedule.

    ``send`` transmits once unconditionally, then (while
    :func:`retries_enabled`) arms blind retransmissions that stop as
    soon as ``stop_when()`` returns true — e.g. "the claim is no longer
    pending" — or the try budget is spent.
    """

    __slots__ = ("sim", "net", "rng", "kind", "policy")

    def __init__(self, sim, net, rng=None, kind: str = "message", policy: BackoffPolicy = DEFAULT_POLICY):
        self.sim = sim
        self.net = net
        self.rng = rng
        self.kind = kind
        self.policy = policy

    def send(
        self,
        message,
        stop_when: Optional[Callable[[], bool]] = None,
        policy: Optional[BackoffPolicy] = None,
    ) -> None:
        self.net.send(message)
        pol = policy if policy is not None else self.policy
        if _retries_enabled and pol.max_tries > 0:
            self._arm((message, stop_when, pol, 0))

    # The retransmit state rides the kernel's argument slot as one
    # (message, stop_when, policy, attempt) tuple — no closure per
    # copy/attempt (tests/sim/test_engine.py's TestDispatchAnatomy
    # asserts this).

    def _arm(self, state) -> None:
        pol = state[2]
        self.sim.schedule(pol.delay(state[3], self.rng), self._fire, state)

    def _fire(self, state) -> None:
        message, stop_when, pol, attempt = state
        if not _retries_enabled:
            return
        if stop_when is not None and stop_when():
            return
        if _metrics.enabled:
            _RETRIES_SENT.inc(kind=self.kind)
        self.net.send(message)
        if attempt + 1 >= pol.max_tries:
            if _metrics.enabled:
                _RETRIES_EXHAUSTED.inc(kind=self.kind)
            return
        self._arm((message, stop_when, pol, attempt + 1))
