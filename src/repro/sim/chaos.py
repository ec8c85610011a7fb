"""Deterministic fault injection — seeded, time-scheduled chaos plans.

The paper's Section 3.2 claims matchmaking tolerates a misbehaving
substrate because correctness is restored end-to-end at claim time.
This module supplies the misbehaviour, reproducibly: a declarative
:class:`ChaosPlan` describes *when* and *where* the network lies and
*which* daemons die, and a :class:`ChaosController` applies the plan to
a :class:`~repro.sim.network.Network` and a
:class:`~repro.sim.engine.Simulator`.

Fault primitives (all windows are half-open ``[start, end)`` in
simulated seconds; ``src``/``dst`` are :mod:`fnmatch` patterns over
contact addresses such as ``startd@m0`` or ``collector@*``):

* :class:`LossWindow` — extra Bernoulli message loss, optionally scoped
  to a sender/recipient pattern pair;
* :class:`PartitionWindow` — a *one-directional* cut: every matching
  ``src → dst`` message is dropped while ``dst → src`` traffic still
  flows (the asymmetric-partition case that breaks naive protocols);
* :class:`DuplicationWindow` — each matching send also delivers
  ``copies`` extra replicas with independent latency draws, exercising
  receiver-side duplicate suppression;
* :class:`CrashWindow` — a daemon crash (and optional restart) applied
  through crash hooks registered by the harness; unmatched targets fall
  back to downing the address on the network.

All randomness comes from a stream forked off the plan's (or the
harness's) seed, so a given plan replays identically and never perturbs
the draws of other components.  Named fixed-seed profiles back the CI
chaos matrix: ``lossy``, ``partition``, ``cm-crash`` (see
:func:`chaos_profile`); ``REPRO_CHAOS=<profile>`` injects one into
every :class:`~repro.condor.pool.CondorPool` via :func:`plan_from_env`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fnmatch import fnmatchcase
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import event_log as _events
from .rng import RngStream


@dataclass(frozen=True)
class LossWindow:
    """Extra message loss of probability ``loss`` during [start, end)."""

    start: float
    end: float
    loss: float
    src: str = "*"
    dst: str = "*"


@dataclass(frozen=True)
class PartitionWindow:
    """One-directional cut: ``src → dst`` messages drop during
    [start, end); the reverse direction is untouched."""

    start: float
    end: float
    src: str
    dst: str


@dataclass(frozen=True)
class DuplicationWindow:
    """Each send during [start, end) gains ``copies`` extra deliveries
    with probability ``probability``."""

    start: float
    end: float
    probability: float
    copies: int = 1


@dataclass(frozen=True)
class CrashWindow:
    """Crash ``target`` at ``at``; restart after ``duration`` (None =
    never).  ``target`` is a crash-hook key, an fnmatch pattern over
    hook keys (``startd@*``), or a bare network address."""

    target: str
    at: float
    duration: Optional[float] = None


@dataclass(frozen=True)
class ChaosPlan:
    """A complete, seeded fault schedule."""

    name: str = "custom"
    seed: int = 0
    losses: Tuple[LossWindow, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    duplications: Tuple[DuplicationWindow, ...] = ()
    crashes: Tuple[CrashWindow, ...] = ()

    def validate(self) -> None:
        for w in self.losses:
            if not 0.0 <= w.loss < 1.0:
                raise ValueError(f"loss window probability must be in [0, 1): {w}")
            if w.end <= w.start:
                raise ValueError(f"empty loss window: {w}")
        for w in self.partitions:
            if w.end <= w.start:
                raise ValueError(f"empty partition window: {w}")
        for w in self.duplications:
            if not 0.0 <= w.probability <= 1.0:
                raise ValueError(f"duplication probability must be in [0, 1]: {w}")
            if w.copies < 1:
                raise ValueError(f"duplication copies must be >= 1: {w}")
            if w.end <= w.start:
                raise ValueError(f"empty duplication window: {w}")
        for c in self.crashes:
            if c.duration is not None and c.duration <= 0:
                raise ValueError(f"crash duration must be positive: {c}")


#: (crash, restart) callables per target key, e.g. {"cm": (...), "startd@m0": (...)}
CrashHooks = Dict[str, Tuple[Callable[[], None], Callable[[], None]]]


def _emit_partition_open(w: PartitionWindow) -> None:
    _events.emit("net.partition", action="open", src=w.src, dst=w.dst, until=w.end)


def _emit_partition_close(w: PartitionWindow) -> None:
    _events.emit("net.partition", action="close", src=w.src, dst=w.dst)


class ChaosController:
    """Applies a :class:`ChaosPlan` to one simulator + network."""

    def __init__(self, plan: ChaosPlan, rng: Optional[RngStream] = None):
        plan.validate()
        self.plan = plan
        self.rng = (rng if rng is not None else RngStream(plan.seed)).fork("chaos")

    # -- the per-send consult (called by Network.send) --------------------

    def send_verdict(self, sender: str, recipient: str, now: float):
        """Returns ``(drop_cause, extra_copies)`` for one send attempt;
        ``drop_cause`` is ``"partition"``, ``"loss"``, or None."""
        for w in self.plan.partitions:
            if (
                w.start <= now < w.end
                and fnmatchcase(sender, w.src)
                and fnmatchcase(recipient, w.dst)
            ):
                return "partition", 0
        for w in self.plan.losses:
            if (
                w.start <= now < w.end
                and fnmatchcase(sender, w.src)
                and fnmatchcase(recipient, w.dst)
                and self.rng.bernoulli(w.loss)
            ):
                return "loss", 0
        copies = 0
        for w in self.plan.duplications:
            if w.start <= now < w.end and self.rng.bernoulli(w.probability):
                copies += w.copies
        return None, copies

    # -- schedule-driven faults -------------------------------------------

    def arm(self, sim, net, crash_hooks: Optional[CrashHooks] = None) -> None:
        """Install the plan: network consults, partition edge events,
        and the crash/restart schedule.

        Everything scheduled here uses the kernel's argument-passing
        API (``schedule_at(t, fn, arg)``) — no per-window closures, so
        ``tests/sim/test_engine.py``'s ``TestDispatchAnatomy`` can assert
        a closure-free queue even with a chaos plan armed.
        """
        net.install_chaos(self)
        for w in self.plan.partitions:
            sim.schedule_at(w.start, _emit_partition_open, w)
            sim.schedule_at(w.end, _emit_partition_close, w)
        hooks = crash_hooks or {}
        for c in self.plan.crashes:
            crash_fns, restart_fns = self._resolve(c.target, net, hooks)
            sim.schedule_at(c.at, self._fire_crash, (c.target, crash_fns))
            if c.duration is not None:
                sim.schedule_at(
                    c.at + c.duration, self._fire_restart, (c.target, restart_fns)
                )

    def _fire_crash(self, action) -> None:
        target, fns = action
        _events.emit("chaos.crash", target=target)
        for fn in fns:
            fn()

    def _fire_restart(self, action) -> None:
        target, fns = action
        _events.emit("chaos.restart", target=target)
        for fn in fns:
            fn()

    def _resolve(
        self, target: str, net, hooks: CrashHooks
    ) -> Tuple[List[Callable[[], None]], List[Callable[[], None]]]:
        """The (crash, restart) callable lists for *target*: matching
        crash hooks, or — when no hook knows the target — downing it as
        a plain network address."""
        matched = [
            hooks[key] for key in sorted(hooks) if key == target or fnmatchcase(key, target)
        ]
        if matched:
            return [fn for fn, _ in matched], [fn for _, fn in matched]
        return [partial(net.set_down, target)], [partial(net.set_down, target, False)]


# ---------------------------------------------------------------------------
# named fixed-seed profiles (the CI chaos matrix)

PROFILES = ("lossy", "partition", "cm-crash")


def chaos_profile(name: str, horizon: float = 3600.0) -> ChaosPlan:
    """A named, fixed-seed plan scaled to ``horizon`` simulated seconds.

    * ``lossy`` — two sustained loss windows (8% then 10%) plus 3%
      duplication throughout; exercises retransmission and duplicate
      suppression with no structural faults.
    * ``partition`` — background 2% loss and duplication plus two
      asymmetric cuts: machines→collector (ads silently vanish while
      match traffic flows), then schedds→machines (claim requests drop
      while responses would deliver).
    * ``cm-crash`` — 5% loss and duplication throughout, one mid-run
      central-manager outage, and one machine crash/restart (the
      acceptance scenario: leases + retries must recover everything).
    """
    h = float(horizon)
    if h <= 0:
        raise ValueError("horizon must be positive")
    if name == "lossy":
        return ChaosPlan(
            name="lossy",
            seed=101,
            losses=(
                LossWindow(0.05 * h, 0.45 * h, 0.08),
                LossWindow(0.55 * h, 0.85 * h, 0.10),
            ),
            duplications=(DuplicationWindow(0.0, h, 0.03),),
        )
    if name == "partition":
        return ChaosPlan(
            name="partition",
            seed=202,
            losses=(LossWindow(0.0, h, 0.02),),
            partitions=(
                PartitionWindow(0.15 * h, 0.35 * h, "startd@*", "collector@*"),
                PartitionWindow(0.50 * h, 0.65 * h, "schedd@*", "startd@*"),
            ),
            duplications=(DuplicationWindow(0.0, h, 0.02),),
        )
    if name == "cm-crash":
        return ChaosPlan(
            name="cm-crash",
            seed=303,
            losses=(LossWindow(0.0, h, 0.05),),
            duplications=(DuplicationWindow(0.0, h, 0.03),),
            crashes=(
                CrashWindow("cm", 0.25 * h, 0.20 * h),
                CrashWindow("startd@m0", 0.45 * h, 0.25 * h),
            ),
        )
    raise ValueError(f"unknown chaos profile {name!r} (known: {', '.join(PROFILES)})")


def plan_from_env(horizon: float = 3600.0) -> Optional[ChaosPlan]:
    """The profile named by ``REPRO_CHAOS``, or None when unset.

    ``REPRO_CHAOS=<profile>[:<seed>]`` optionally overrides the
    profile's fixed seed."""
    raw = os.environ.get("REPRO_CHAOS", "").strip()
    if not raw:
        return None
    name, _, seed = raw.partition(":")
    plan = chaos_profile(name, horizon=horizon)
    if seed:
        plan = replace(plan, seed=int(seed))
    return plan
