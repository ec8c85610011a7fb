"""Simulation substrate — S12–S13 and S23 in DESIGN.md.

The paper deployed on a real campus pool; this package is the
substitution (see DESIGN.md §3): a deterministic discrete-event kernel
(:mod:`~repro.sim.engine`), a lossy/reordering message fabric
(:mod:`~repro.sim.network`), reproducible random streams
(:mod:`~repro.sim.rng`), and the tracing/metrics layers the experiments
read (:mod:`~repro.sim.trace`, :mod:`~repro.sim.metrics`).
"""

from .chaos import (
    PROFILES,
    ChaosController,
    ChaosPlan,
    CrashWindow,
    DuplicationWindow,
    LossWindow,
    PartitionWindow,
    chaos_profile,
    plan_from_env,
)
from .engine import EventHandle, PeriodicTask, Simulator
from .metrics import PoolMetrics, RunningStats, UtilizationTracker
from .network import Network, NetworkStats
from .rng import RngStream
from .trace import Trace, TraceEvent

__all__ = [
    "PROFILES",
    "ChaosController",
    "ChaosPlan",
    "CrashWindow",
    "DuplicationWindow",
    "EventHandle",
    "LossWindow",
    "PartitionWindow",
    "chaos_profile",
    "plan_from_env",
    "Network",
    "NetworkStats",
    "PeriodicTask",
    "PoolMetrics",
    "RngStream",
    "RunningStats",
    "Simulator",
    "Trace",
    "TraceEvent",
    "UtilizationTracker",
]
