"""Substrate benchmark — the DES kernel and message-fabric fast path.

After PRs 3–8 piled differential suites, chaos matrices, and scaling
benchmarks onto the simulator, the kernel itself became the cost floor
under every other number in this repo.  This benchmark measures that
floor: the fast slotted kernel (the default) against the reference
heap (``REPRO_NO_FASTKERNEL=1``), on the workloads that dominate real
runs:

* **burst dispatch** — an advertising-burst-shaped load (thousands of
  same-instant events scheduled from a periodic callback); the gated
  figure ``engine_event_throughput`` is the fast/reference events-per-
  second ratio here, asserted >= 2x;
* **timer wheel** — many interleaved periodic tasks at coprime
  intervals (heap-dominated, informational);
* **cancel churn** — schedule-then-cancel cycles, the claim-timeout
  shape (informational);
* **end-to-end pool** — wall time of a small full CondorPool run under
  each kernel (``pool_wall_speedup``, informational: the pool's wall
  time is dominated by ClassAd construction, so this ratio sits inside
  measurement noise — see the Substrate section of PERFORMANCE.md);
* **dispatch anatomy** — walks the pending queue of an armed
  Retransmitter + chaos plan and asserts every entry's callback is
  closure-free (the allocation regression this PR removes).

The raw fast-kernel events/s figure is also published as the
``sim.events_per_wall_second`` gauge (set after measurement — enabling
metrics during it would disable the very fast path under test).

Run as a script for the CI smoke benchmark::

    python benchmarks/bench_engine.py --smoke [--out DIR]

which writes ``BENCH_ENGINE_substrate.json`` for the regression gate
(``check_regression.py`` holds ``engine_event_throughput``).
"""

import argparse
import functools
from collections import deque
import gc
import os
import sys
import time

if __name__ == "__main__":
    # Allow `python benchmarks/bench_engine.py` from a bare checkout.
    _src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    if os.path.isdir(_src) and os.path.abspath(_src) not in map(os.path.abspath, sys.path):
        sys.path.insert(0, os.path.abspath(_src))

from repro import obs
from repro.condor import CondorPool, Job, MachineSpec, PoissonOwner, PoolConfig
from repro.protocols.retry import BackoffPolicy, Retransmitter
from repro.sim import Network, RngStream, Simulator, set_fast_kernel
from repro.sim.chaos import ChaosController, ChaosPlan, CrashWindow, PartitionWindow

from _report import table, write_bench_json, write_report


def _noop(arg=None):
    pass


# -- workloads --------------------------------------------------------------


class _Fanout:
    """Periodic callback scheduling one same-instant burst per round —
    the advertising-period shape same-instant runs are drained for."""

    def __init__(self, sim, per_round):
        self.sim = sim
        self.per_round = per_round

    def fire(self):
        schedule = self.sim.schedule
        for _ in range(self.per_round):
            schedule(0.5, _noop, None)


def _timed_drain(sim, horizon):
    """run_until under a quiesced GC; returns (events/s, events)."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        sim.run_until(horizon)
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return sim.events_processed / wall, sim.events_processed


def bench_burst(fast, rounds, per_round):
    sim = Simulator(fast=fast)
    fanout = _Fanout(sim, per_round)
    for r in range(rounds):
        sim.schedule_at(float(r), fanout.fire)
    rate, events = _timed_drain(sim, float(rounds) + 1.0)
    assert events == rounds * (per_round + 1), "burst workload lost events"
    return rate


def bench_timer_wheel(fast, tasks, horizon):
    sim = Simulator(fast=fast)
    for i in range(tasks):
        sim.every(1.0 + (i % 97) / 97.0, _noop)
    rate, _ = _timed_drain(sim, horizon)
    return rate


def bench_cancel_churn(fast, rounds, per_round):
    """The claim-timeout shape: most scheduled events get cancelled."""
    sim = Simulator(fast=fast)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            handles = [sim.schedule(1.0, _noop, None) for _ in range(per_round)]
            for handle in handles[: per_round * 3 // 4]:
                sim.cancel(handle)
            sim.run_until(sim.now + 2.0)
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return rounds * per_round / wall  # scheduled ops (fired + cancelled) per second


def bench_pool(fast, horizon=15_000.0):
    """Wall time of a small end-to-end pool run under one kernel."""
    set_fast_kernel(fast)
    try:
        specs = [MachineSpec(name=f"m{i}") for i in range(8)]
        owner_models = {
            spec.name: PoissonOwner(mean_active=600.0, mean_idle=900.0)
            for spec in specs
        }
        pool = CondorPool(
            specs,
            PoolConfig(
                seed=17,
                advertise_interval=60.0,
                negotiation_interval=60.0,
                network_loss=0.02,
                network_jitter=0.2,
            ),
            owner_models=owner_models,
        )
        for i in range(24):
            pool.submit(Job(owner="alice" if i % 2 else "bob", total_work=700.0))
        gc.collect()
        start = time.perf_counter()
        pool.run_until(horizon)
        wall = time.perf_counter() - start
        return wall, pool.sim.events_processed, pool.metrics.jobs_completed
    finally:
        set_fast_kernel(None)


# -- dispatch anatomy -------------------------------------------------------


def _assert_closure_free(sim):
    """Every pending entry's callback must be a plain function, bound
    method, or partial of one — never a per-event closure or lambda."""
    entries = [
        e
        for slot in sim._slots.values()
        for e in (slot if isinstance(slot, deque) else [slot])
        if e[2] is not None
    ]
    assert entries, "anatomy check armed nothing"
    for entry in entries:
        fn = entry[2]
        if isinstance(fn, functools.partial):
            fn = fn.func
        code_holder = getattr(fn, "__func__", fn)
        assert getattr(code_holder, "__name__", "") != "<lambda>", (
            f"pending event carries a lambda: {fn!r}"
        )
        assert getattr(code_holder, "__closure__", None) is None, (
            f"pending event carries a closure: {fn!r}"
        )


class _Probe:
    sender = "schedd@s0"
    recipient = "startd@m0"


def check_dispatch_anatomy():
    """Arm the allocation-prone machinery (retransmitter, chaos crash
    and partition schedules, a periodic timer) and inspect the queue."""
    sim = Simulator(fast=True)
    net = Network(sim, rng=RngStream(5), latency=0.01)
    net.register("startd@m0", _noop)
    retransmitter = Retransmitter(
        sim, net, rng=RngStream(6), policy=BackoffPolicy(base=1.0, max_tries=3)
    )
    retransmitter.send(_Probe())
    ChaosController(
        ChaosPlan(
            crashes=(CrashWindow(target="startd@m0", at=50.0, duration=10.0),),
            partitions=(PartitionWindow(10.0, 20.0, "schedd@s0", "startd@m0"),),
        )
    ).arm(sim, net)
    sim.every(5.0, _noop)
    _assert_closure_free(sim)
    sim.run_until(200.0)


# -- harness ----------------------------------------------------------------

HEADERS = ("workload", "fast (ev/s)", "reference (ev/s)", "ratio")


def sweep(rounds, per_round, repeats):
    def best(fn, *args):
        return max(fn(*args) for _ in range(repeats))

    burst_fast = best(bench_burst, True, rounds, per_round)
    burst_ref = best(bench_burst, False, rounds, per_round)
    wheel_fast = best(bench_timer_wheel, True, 500, 2000.0)
    wheel_ref = best(bench_timer_wheel, False, 500, 2000.0)
    churn_fast = best(bench_cancel_churn, True, 50, 1000)
    churn_ref = best(bench_cancel_churn, False, 50, 1000)
    pool_fast_wall, pool_events, pool_jobs_fast = min(
        (bench_pool(True) for _ in range(repeats)), key=lambda r: r[0]
    )
    pool_ref_wall, pool_events_ref, pool_jobs_ref = min(
        (bench_pool(False) for _ in range(repeats)), key=lambda r: r[0]
    )
    assert (pool_events, pool_jobs_fast) == (pool_events_ref, pool_jobs_ref), (
        "kernels diverged: the fast path changed pool history"
    )
    return {
        "burst_fast": burst_fast,
        "burst_reference": burst_ref,
        "wheel_fast": wheel_fast,
        "wheel_reference": wheel_ref,
        "churn_fast": churn_fast,
        "churn_reference": churn_ref,
        "pool_fast_wall": pool_fast_wall,
        "pool_reference_wall": pool_ref_wall,
        "pool_events": pool_events,
    }


def figures(measured):
    return {
        "engine_event_throughput": measured["burst_fast"] / measured["burst_reference"],
        "events_per_s_fast": measured["burst_fast"],
        "events_per_s_reference": measured["burst_reference"],
        "timer_wheel_speedup": measured["wheel_fast"] / measured["wheel_reference"],
        "cancel_churn_speedup": measured["churn_fast"] / measured["churn_reference"],
        "pool_wall_speedup": measured["pool_reference_wall"]
        / measured["pool_fast_wall"],
        "pool_events_per_s_fast": measured["pool_events"]
        / measured["pool_fast_wall"],
    }


def _assert_bars(fig, per_round):
    # The acceptance bar from the issue, held at meaningful burst sizes
    # (tiny bursts measure call overhead, not the queue discipline).
    if per_round >= 2000:
        assert fig["engine_event_throughput"] >= 2.0, (
            f"fast kernel is only {fig['engine_event_throughput']:.2f}x the"
            " reference on burst dispatch; the acceptance bar is 2x"
        )


def _run(rounds, per_round, repeats, out_dir=None, label="smoke"):
    check_dispatch_anatomy()
    obs.disable()  # the timed region must keep the fast paths eligible
    obs.reset()
    measured = sweep(rounds, per_round, repeats)
    fig = figures(measured)
    # Publish the raw dispatch rate on the registry gauge *after*
    # measurement, so the written record carries it.
    obs.enable()
    obs.metrics.get("sim.events_per_wall_second").set(measured["burst_fast"])
    rows = [
        ("burst dispatch", f"{measured['burst_fast']:.0f}",
         f"{measured['burst_reference']:.0f}",
         f"{fig['engine_event_throughput']:.2f}x"),
        ("timer wheel", f"{measured['wheel_fast']:.0f}",
         f"{measured['wheel_reference']:.0f}",
         f"{fig['timer_wheel_speedup']:.2f}x"),
        ("cancel churn", f"{measured['churn_fast']:.0f}",
         f"{measured['churn_reference']:.0f}",
         f"{fig['cancel_churn_speedup']:.2f}x"),
    ]
    report = table(HEADERS, rows) + (
        f"\n\nburst: {rounds} rounds x {per_round} same-instant events,"
        f" best of {repeats}"
        f"\nend-to-end pool ({measured['pool_events']} events):"
        f" {measured['pool_fast_wall']:.3f}s fast vs"
        f" {measured['pool_reference_wall']:.3f}s reference"
        f" ({fig['pool_wall_speedup']:.2f}x)"
    )
    write_report(f"ENGINE_substrate_{label}", report, out_dir=out_dir)
    path = write_bench_json(
        "ENGINE_substrate",
        wall_time_s=measured["pool_fast_wall"],
        throughput=fig,
        data=[measured],
        extra={"mode": label, "repeats": repeats,
               "burst": {"rounds": rounds, "per_round": per_round}},
        out_dir=out_dir,
    )
    obs.disable()
    obs.reset()
    _assert_bars(fig, per_round)
    return path, fig


def run_smoke(out_dir=None, rounds=60, per_round=5000, repeats=2):
    """The CI smoke benchmark: fewer rounds, same bars."""
    return _run(rounds, per_round, repeats, out_dir=out_dir, label="smoke")


# -- pytest entry point (full scale) ----------------------------------------


def test_substrate_throughput(benchmark):
    """The issue's headline figure: >= 2x raw event-dispatch throughput
    over the reference kernel.  The end-to-end pool row is reported but
    not asserted: full-pool wall time is dominated by ClassAd
    construction, so the kernel's share sits inside measurement noise
    (the honest number lives in PERFORMANCE.md)."""

    def run():
        return _run(200, 5000, 3, label="full")

    path, fig = benchmark.pedantic(run, rounds=1, iterations=1)
    assert os.path.exists(path)
    assert fig["engine_event_throughput"] >= 2.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced CI run")
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--per-round", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args()
    kwargs = {}
    if args.rounds is not None:
        kwargs["rounds"] = args.rounds
    if args.per_round is not None:
        kwargs["per_round"] = args.per_round
    if args.repeats is not None:
        kwargs["repeats"] = args.repeats
    if args.smoke:
        run_smoke(out_dir=args.out, **kwargs)
    else:
        _run(
            kwargs.pop("rounds", 200),
            kwargs.pop("per_round", 5000),
            kwargs.pop("repeats", 3),
            out_dir=args.out,
            **kwargs,
        )
