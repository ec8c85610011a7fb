"""PR 8 — fingerprinted refresh advertising: steady-state ingest cost.

In steady state almost every advertisement re-states an unchanged ad;
the refresh fast path replaces those re-advertisements with a compact
``Refresh`` (name, sequence, fingerprint, volatile values) that the
collector honours by renewing the soft-state lease in place — no
validation, no store replacement, no index delta.  This benchmark
measures exactly that trade at the collector, over a pool of Figure
1-shaped machines re-advertising every period:

* wall time to ingest one steady-state advertising period, full-ad
  path vs refresh path (``advertising_ingest_speedup``);
* ads validated+inserted per period (the work the fast path skips);
* bytes on wire per period (the ``net.bytes_sent`` gauge);
* the sender's side: steady-state microseconds per
  ``MachineAgent.advertise`` over a pool of Figure-1 policy machines
  whose ads do not change (``sender_us_per_advertise``, informational).

Run as a script for the CI smoke benchmark::

    python benchmarks/bench_advertising.py --smoke [--out DIR]

which executes a reduced pool without pytest and writes
``BENCH_ADV_advertising.json`` for the regression gate
(``check_regression.py`` holds ``advertising_ingest_speedup``).
"""

import argparse
import os
import sys
import time

if __name__ == "__main__":
    # Allow `python benchmarks/bench_advertising.py` from a bare checkout.
    _src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    if os.path.isdir(_src) and os.path.abspath(_src) not in map(os.path.abspath, sys.path):
        sys.path.insert(0, os.path.abspath(_src))

from repro import obs
from repro.classads import fingerprint
from repro.condor.collector import Collector
from repro.condor.machine import MachineAgent
from repro.condor.workload import generate_policy_pool
from repro.paper import figure1_machine
from repro.protocols import VOLATILE_MACHINE_ATTRS, Advertisement, Refresh
from repro.sim import Network, RngStream, Simulator, Trace

from _report import table, write_bench_json, write_report

PERIOD_S = 300.0
LIFETIME_S = 3 * PERIOD_S


def build_ads(n):
    """*n* Figure 1-shaped machine ads with a little hardware variety."""
    base = figure1_machine()
    ads = []
    for i in range(n):
        ad = base.copy()
        ad["Name"] = f"m{i}"
        ad["ContactAddress"] = f"startd@m{i}"
        ad["Memory"] = 32 << (i % 3)
        ad["Mips"] = 100 + (i % 5) * 25
        ads.append(ad)
    return ads


def _volatile_for(period, i):
    """Synthetic per-period owner/clock state (changes every period)."""
    return (
        ("DayTime", int(36107 + period * PERIOD_S) % 86400),
        ("KeyboardIdle", 1432 + 60 * period + i % 7),
        ("LoadAvg", 0.01 * ((period + i) % 30)),
    )


def run_mode(refresh, machines, periods):
    """One collector ingesting *periods* steady-state re-advertisements
    of *machines* ads — as Refreshes, or as full Advertisements (the
    ingest path every content change still takes).  Returns the measured
    figures; only the send-and-deliver loop is timed (sender-side ad
    construction happens outside the clock)."""
    sim = Simulator()
    net = Network(sim, rng=RngStream(7), latency=0.0)
    collector = Collector(sim, net, trace=Trace(enabled=False))
    collector.provider_index()  # keep the maintained index live, as a pool does
    ads = build_ads(machines)
    fps = [fingerprint(ad, exclude=VOLATILE_MACHINE_ATTRS) for ad in ads]

    # Initial registration is a full advertisement in both modes.
    for i, ad in enumerate(ads):
        net.send(
            Advertisement(
                sender=f"startd@m{i}",
                recipient=collector.address,
                name=f"machine.m{i}",
                ad=ad,
                lifetime=LIFETIME_S,
                sequence=1,
                fingerprint=fps[i] if refresh else None,
            )
        )
    sim.run_until(1.0)
    assert collector.ads_admitted == machines, "warm-up registration failed"

    admitted_before = collector.ads_admitted
    bytes_before = net.stats.bytes_sent
    wall = 0.0
    for period in range(1, periods + 1):
        t = period * PERIOD_S
        sequence = period + 1
        messages = []
        if refresh:
            for i in range(machines):
                messages.append(
                    Refresh(
                        sender=f"startd@m{i}",
                        recipient=collector.address,
                        name=f"machine.m{i}",
                        fingerprint=fps[i],
                        lifetime=LIFETIME_S,
                        sequence=sequence,
                        volatile=_volatile_for(period, i),
                    )
                )
        else:
            for i in range(machines):
                ad = ads[i].copy()
                for attr, value in _volatile_for(period, i):
                    ad[attr] = value
                messages.append(
                    Advertisement(
                        sender=f"startd@m{i}",
                        recipient=collector.address,
                        name=f"machine.m{i}",
                        ad=ad,
                        lifetime=LIFETIME_S,
                        sequence=sequence,
                    )
                )
        start = time.perf_counter()
        for message in messages:
            net.send(message)
        sim.run_until(t + 1.0)
        wall += time.perf_counter() - start

    assert len(collector.store) == machines, "steady state lost ads"
    return {
        "mode": "refresh" if refresh else "full",
        "machines": machines,
        "periods": periods,
        "ingest_s": wall,
        "ingest_s_per_period": wall / periods,
        "ads_per_s": machines * periods / wall,
        "validated": collector.ads_admitted - admitted_before,
        "bytes_on_wire": net.stats.bytes_sent - bytes_before,
    }


def run_sender(machines, periods):
    """*machines* Figure-1 policy machines advertising *periods* times
    after their first full ad, nothing about them changing: only the
    ``advertise`` calls are timed (delivery and the blind retransmits run
    between periods, off the clock)."""
    sim = Simulator()
    net = Network(sim, rng=RngStream(7), latency=0.0)
    sent = {"Advertisement": 0, "Refresh": 0}

    def collect(message):
        sent[type(message).__name__] += 1

    net.register("collector@cm", collect)
    specs = generate_policy_pool(
        RngStream(7), machines, groups=[("u0", "u1"), ("u2", "u3")],
        friends=("u4", "u5"), untrusted=("u7",),
    )
    agents = [
        MachineAgent(sim, net, spec, "collector@cm", rng=RngStream(i), advertise_interval=PERIOD_S)
        for i, spec in enumerate(specs)
    ]
    for agent in agents:
        agent.authority.mint()
        agent.advertise()
    wall = 0.0
    for period in range(1, periods + 1):
        sim.run_until(period * PERIOD_S)
        start = time.perf_counter()
        for agent in agents:
            agent.advertise()
        wall += time.perf_counter() - start
    sim.run_until((periods + 1) * PERIOD_S)
    return {
        "mode": "sender",
        "machines": machines,
        "periods": periods,
        "advertise_s": wall,
        "us_per_advertise": 1e6 * wall / (machines * periods),
        "refresh_share": sent["Refresh"] / max(sent["Refresh"] + sent["Advertisement"], 1),
    }


def sweep(machines, periods, repeats):
    """Best-of-*repeats* for both modes (counts are deterministic)."""
    full = min(
        (run_mode(False, machines, periods) for _ in range(repeats)),
        key=lambda r: r["ingest_s"],
    )
    refresh = min(
        (run_mode(True, machines, periods) for _ in range(repeats)),
        key=lambda r: r["ingest_s"],
    )
    return full, refresh


def figures(full, refresh, sender):
    return {
        "sender_us_per_advertise": sender["us_per_advertise"],
        "ingest_s_full": full["ingest_s_per_period"],
        "ingest_s_refresh": refresh["ingest_s_per_period"],
        "advertising_ingest_speedup": full["ingest_s"] / refresh["ingest_s"],
        "ads_validated_full": full["validated"],
        "ads_validated_refresh": refresh["validated"],
        "validated_ratio": full["validated"] / max(refresh["validated"], 1),
        "bytes_per_period_full": full["bytes_on_wire"] / full["periods"],
        "bytes_per_period_refresh": refresh["bytes_on_wire"] / refresh["periods"],
        "bytes_reduction": full["bytes_on_wire"] / refresh["bytes_on_wire"],
    }


HEADERS = [
    "mode",
    "machines",
    "periods",
    "ingest s/period",
    "ads/s",
    "validated",
    "bytes/period",
]


def _rows(full, refresh):
    return [
        (
            r["mode"],
            r["machines"],
            r["periods"],
            f"{r['ingest_s_per_period']:.4f}",
            f"{r['ads_per_s']:.0f}",
            r["validated"],
            f"{r['bytes_on_wire'] / r['periods']:.0f}",
        )
        for r in (full, refresh)
    ]


def _assert_bars(fig, machines):
    # The acceptance bars from the issue; held only at meaningful scale
    # (tiny pools measure the ratio of two trivially small numbers).
    assert fig["validated_ratio"] >= 5.0, (
        f"refresh path validates 1/{fig['validated_ratio']:.1f} of the"
        " full path's ads; the acceptance bar is 1/5"
    )
    assert fig["bytes_reduction"] > 1.0, (
        f"refreshes are not smaller on the wire ({fig['bytes_reduction']:.2f}x)"
    )
    if machines >= 500:
        assert fig["advertising_ingest_speedup"] >= 2.0, (
            f"steady-state ingest is only {fig['advertising_ingest_speedup']:.2f}x"
            " faster under refresh; the acceptance bar is 2x"
        )


def _run(machines, periods, repeats, out_dir=None, label="smoke"):
    obs.disable()
    obs.reset()
    obs.enable()  # metrics on: the bytes-on-wire gauge needs them
    try:
        start = time.perf_counter()
        full, refresh = sweep(machines, periods, repeats)
        # The counter accumulates across the repeated runs; each run
        # renews the same number of leases, so per-run is an exact share.
        refresh_hits = obs.metrics.get("collector.refresh_hits").total // repeats
    finally:
        obs.disable()
    # The sender runs with metrics off, as a pool does (metrics route
    # every send down the network's slow path).
    sender = min(
        (run_sender(machines, periods) for _ in range(repeats)),
        key=lambda r: r["advertise_s"],
    )
    wall = time.perf_counter() - start
    fig = figures(full, refresh, sender)
    report = table(HEADERS, _rows(full, refresh)) + (
        f"\n\nsteady state ({machines} machines, {periods} periods,"
        f" best of {repeats}):"
        f"\n  full ads : {1000 * fig['ingest_s_full']:.1f}ms/period,"
        f" {full['validated']} ads validated+inserted"
        f"\n  refreshes: {1000 * fig['ingest_s_refresh']:.1f}ms/period,"
        f" {refresh['validated']} ads validated+inserted"
        f" ({refresh_hits} lease renewals in place)"
        f"\n  ingest speedup      : {fig['advertising_ingest_speedup']:.2f}x"
        f"\n  validated/inserted  : 1/{fig['validated_ratio']:.0f}"
        f"\n  bytes on wire       : 1/{fig['bytes_reduction']:.1f}"
        f" ({fig['bytes_per_period_refresh']:.0f} vs"
        f" {fig['bytes_per_period_full']:.0f} per period)"
        f"\n  sender              : {fig['sender_us_per_advertise']:.1f} us per"
        f" MachineAgent.advertise ({sender['refresh_share']:.0%} refreshes)"
    )
    write_report(f"ADV_advertising_{label}", report, out_dir=out_dir)
    path = write_bench_json(
        "ADV_advertising",
        wall_time_s=wall,
        throughput=fig,
        data=[full, refresh, sender],
        extra={"mode": label, "repeats": repeats},
        out_dir=out_dir,
    )
    _assert_bars(fig, machines)
    return path, fig


def run_smoke(out_dir=None, machines=1000, periods=2, repeats=3):
    """The CI smoke benchmark: a reduced pool, same bars."""
    return _run(machines, periods, repeats, out_dir=out_dir, label="smoke")


# -- pytest entry point (full scale) ----------------------------------------


def test_steady_state_ingest(benchmark):
    """The issue's headline figure at 5000 machines: >= 2x faster ingest
    and >= 5x fewer validated/inserted ads with the fast path on."""

    def run():
        return _run(5000, 3, 2, label="full")

    path, fig = benchmark.pedantic(run, rounds=1, iterations=1)
    assert os.path.exists(path)
    assert fig["advertising_ingest_speedup"] >= 2.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced CI run")
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument("--machines", type=int, default=None)
    parser.add_argument("--periods", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args()
    if args.smoke:
        kwargs = {}
        if args.machines is not None:
            kwargs["machines"] = args.machines
        if args.periods is not None:
            kwargs["periods"] = args.periods
        if args.repeats is not None:
            kwargs["repeats"] = args.repeats
        run_smoke(out_dir=args.out, **kwargs)
    else:
        _run(
            args.machines or 5000,
            args.periods or 3,
            args.repeats or 2,
            out_dir=args.out,
            label="full",
        )
