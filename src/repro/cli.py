"""Command-line interface to the matchmaking library.

The paper's deployment shipped user tools (Section 4); this CLI exposes
their modern equivalents over ad files:

* ``repro eval EXPR [--ad FILE] [--other FILE]`` — evaluate a classad
  expression, optionally inside a match environment;
* ``repro match CUSTOMER PROVIDER`` — bilateral match verdict + ranks;
* ``repro best CUSTOMER POOL`` — pick the best provider from a pool;
* ``repro status POOL [--constraint EXPR]`` — the condor_status view;
* ``repro q POOL [--owner NAME]`` — the condor_q view;
* ``repro diagnose JOB POOL`` — why-won't-my-job-match analysis;
* ``repro convert FILE --to {json,classad}`` — format conversion;
* ``repro obs …`` — post-mortems over recorded ``repro-events/1`` logs:
  ``obs record POOL`` runs negotiation with forensics on and writes the
  event log, ``obs report FILE`` summarizes it per cycle, ``obs why
  JOB-ID FILE`` explains one job's rejections (failing conjuncts,
  undefined attributes, near-miss providers), ``obs tail FILE`` prints
  the raw stream, ``obs export FILE`` emits the CI-facing JSON summary;
* lifecycle analytics over the same recordings: ``obs timeline JOB
  FILE`` renders one job's submit→completion phase breakdown, ``obs
  critical-path JOB FILE`` walks the causal span chain of a
  ``repro-trace/1`` stream, ``obs latency FILE [--json]`` prints
  per-phase dwell percentiles, and ``obs pool FILE [--watch]`` renders
  the ``repro-series/1`` pool-health history.

Ad files may be classad source (``[...]``; file extension ``.ad`` or
anything non-JSON) or JSON (``.json`` or content starting with ``{``).
Pool files hold multiple ads: JSON arrays, JSON-lines, or concatenated
``[...]`` blocks.

Run ``python -m repro --help`` for details.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .classads import ClassAd, evaluate, is_true, parse, unparse_classad
from .classads.serialize import SerializationError, dumps, from_json_obj
from .matchmaking import (
    best_match,
    constraints_satisfied,
    diagnose,
    evaluate_rank,
)
from .obs.causal import read_jsonl as read_trace
from .obs.events import read_jsonl as read_events
from .obs.stream import StreamError
from .obs.timeseries import read_jsonl as read_series


class CliError(Exception):
    """User-facing CLI failure (bad file, bad arguments)."""


# ---------------------------------------------------------------------------
# ad file loading


def _looks_like_json(text: str) -> bool:
    stripped = text.lstrip()
    return stripped.startswith("{") or stripped.startswith("[{") or stripped.startswith('[\n{')


def load_ad(path: str) -> ClassAd:
    """Load a single ad from a classad-source or JSON file."""
    text = _read(path)
    if _looks_like_json(text):
        try:
            return from_json_obj(json.loads(text))
        except (SerializationError, json.JSONDecodeError) as exc:
            raise CliError(f"{path}: {exc}") from exc
    try:
        return ClassAd.parse(text)
    except Exception as exc:
        raise CliError(f"{path}: {exc}") from exc


def load_pool(path: str) -> List[ClassAd]:
    """Load many ads: JSON array, JSON lines, or concatenated [..] blocks."""
    text = _read(path)
    stripped = text.strip()
    if not stripped:
        return []
    if stripped.startswith("["):
        # Could be a JSON array of objects or a classad block; peek deeper.
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError:
            return _parse_classad_blocks(stripped, path)
        if isinstance(data, list):
            return [from_json_obj(item) for item in data]
        raise CliError(f"{path}: JSON pool file must be an array of objects")
    if stripped.startswith("{"):
        # JSON lines: one object per line.
        ads = []
        for line_number, line in enumerate(stripped.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                ads.append(from_json_obj(json.loads(line)))
            except (SerializationError, json.JSONDecodeError) as exc:
                raise CliError(f"{path}:{line_number}: {exc}") from exc
        return ads
    raise CliError(f"{path}: unrecognized pool file format")


def _parse_classad_blocks(text: str, path: str) -> List[ClassAd]:
    """Split concatenated ``[ ... ]`` blocks by bracket balance."""
    ads = []
    depth = 0
    start: Optional[int] = None
    in_string = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "[":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0 and start is not None:
                try:
                    ads.append(ClassAd.parse(text[start : i + 1]))
                except Exception as exc:
                    raise CliError(f"{path}: {exc}") from exc
                start = None
        i += 1
    if depth != 0:
        raise CliError(f"{path}: unbalanced brackets in classad pool file")
    return ads


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    self_ad = load_ad(args.ad) if args.ad else None
    other_ad = load_ad(args.other) if args.other else None
    try:
        expr = parse(args.expression)
    except Exception as exc:
        raise CliError(f"bad expression: {exc}") from exc
    result = evaluate(expr, self_ad, other=other_ad)
    print(_format_value(result))
    return 0


def _format_value(value) -> str:
    from .classads import unparse
    from .classads.classad import _value_to_expr

    try:
        return unparse(_value_to_expr(value))
    except TypeError:
        return repr(value)


def cmd_match(args) -> int:
    customer = load_ad(args.customer)
    provider = load_ad(args.provider)
    matched = constraints_satisfied(customer, provider)
    print(f"match: {'yes' if matched else 'no'}")
    print(f"customer accepts provider: {is_true(_side(customer, provider))}")
    print(f"provider accepts customer: {is_true(_side(provider, customer))}")
    print(f"customer Rank of provider: {evaluate_rank(customer, provider):g}")
    print(f"provider Rank of customer: {evaluate_rank(provider, customer):g}")
    return 0 if matched else 1


def _side(ad, other):
    from .matchmaking.match import DEFAULT_POLICY

    name = DEFAULT_POLICY.constraint_of(ad)
    return True if name is None else ad.evaluate(name, other=other)


def cmd_best(args) -> int:
    customer = load_ad(args.customer)
    pool = load_pool(args.pool)
    match = best_match(customer, pool)
    if match is None:
        print("no compatible provider in the pool")
        return 1
    name = match.provider.evaluate("Name")
    print(f"best provider: {name if isinstance(name, str) else '<unnamed>'}")
    print(f"customer rank: {match.customer_rank:g}")
    print(f"provider rank: {match.provider_rank:g}")
    return 0


def cmd_status(args) -> int:
    from .condor.status import machine_status

    print(machine_status(load_pool(args.pool), constraint=args.constraint))
    return 0


def cmd_q(args) -> int:
    from .condor.status import queue_status

    print(queue_status(load_pool(args.pool), owner=args.owner))
    return 0


def cmd_diagnose(args) -> int:
    job = load_ad(args.job)
    pool = load_pool(args.pool)
    report = diagnose(job, pool)
    print(report.render())
    return 0 if not report.never_matches else 1


def cmd_convert(args) -> int:
    ad = load_ad(args.file)
    if args.to == "json":
        print(dumps(ad, indent=2))
    else:
        print(unparse_classad(ad))
    return 0


# ---------------------------------------------------------------------------
# the `obs` family: negotiation forensics over repro-events/1 logs


def _load(read, path: str):
    """``read(path)``, reporting an unreadable or invalid recording as a
    :class:`CliError`."""
    try:
        return read(path)
    except (OSError, StreamError) as exc:
        raise CliError(str(exc)) from exc


def _job_of(event) -> Optional[object]:
    return event.fields.get("job")


def _parse_job_id(raw: str):
    """Job ids are integers in the ads; accept the string form too."""
    try:
        return int(raw)
    except ValueError:
        return raw


def cmd_obs_record(args) -> int:
    """Run negotiation over a pool file with forensics on; write the log."""
    from .matchmaking.matchmaker import negotiation_cycle
    from .obs import event_log

    ads = load_pool(args.pool)
    machines = [ad for ad in ads if ad.evaluate("Type") == "Machine"]
    jobs = [ad for ad in ads if ad.evaluate("Type") == "Job"]
    if not jobs:
        raise CliError(f"{args.pool}: no Job ads to negotiate for")
    submitters: dict = {}
    for job in jobs:
        owner = job.evaluate("Owner")
        submitters.setdefault(owner if isinstance(owner, str) else "<unknown>", []).append(job)

    was_enabled = event_log.enabled
    seq_before = event_log._seq
    event_log.enable()
    try:
        event_log.open_file(args.out)
        for _ in range(args.cycles):
            negotiation_cycle(submitters, machines)
    finally:
        event_log.close_file()
        if not was_enabled:
            event_log.disable()
    recorded = event_log._seq - seq_before
    print(f"recorded {recorded} events over {args.cycles} cycle(s) to {args.out}")
    return 0


#: ``repro obs report`` sections, in print order.
REPORT_SECTIONS = ("cycles", "rejections", "robustness", "kinds")


def cmd_obs_report(args) -> int:
    from .obs.events import summarize

    events = _load(read_events, args.file)
    summary = summarize(events)
    wanted = set(args.section) if getattr(args, "section", None) else set(REPORT_SECTIONS)
    print(f"events   : {summary['events']}")
    print(f"kinds    : {len(summary['by_kind'])}")
    if "cycles" in wanted and summary["cycles"]:
        print()
        print("cycle  requests  matched  rejected  preemptions")
        for row in summary["cycles"]:
            print(
                "{cycle:>5}  {requests:>8}  {matched:>7}  {rejected:>8}  {preemptions:>11}".format(
                    **{k: ("?" if v is None else v) for k, v in row.items()}
                )
            )
    if "rejections" in wanted and summary["top_rejections"]:
        print()
        print("top rejection reasons:")
        for item in summary["top_rejections"]:
            print(f"  [{item['count']:5d}×] {item['reason']}")
    if "robustness" in wanted and summary.get("robustness"):
        print()
        print("robustness (network + retry/lease accounting):")
        for key, value in summary["robustness"].items():
            print(f"  {key:<24} {value}")
    if "kinds" in wanted:
        print()
        print("events by kind:")
        for kind, count in summary["by_kind"].items():
            print(f"  {kind:<24} {count}")
    return 0


def cmd_obs_why(args) -> int:
    """Explain one job's negotiation outcome from the recorded stream."""
    job_id = _parse_job_id(args.job_id)
    events = _load(read_events, args.file)
    mine = [e for e in events if _job_of(e) == job_id]
    if not mine:
        print(f"job {job_id}: no recorded events (wrong id, or forensics were off)")
        return 1

    matches = [e for e in mine if e.kind == "match.made"]
    rejects = [e for e in mine if e.kind == "match.reject"]
    unmatched = [e for e in mine if e.kind == "job.unmatched"]
    claims = [e for e in mine if e.kind == "claim.verdict"]
    cycles = sorted({e.fields.get("cycle") for e in mine if e.fields.get("cycle") is not None})

    print(
        f"job {job_id}: {len(matches)} match(es), {len(rejects)} rejection(s)"
        + (f" across {len(cycles)} cycle(s)" if cycles else "")
    )
    for e in matches:
        print(
            f"  matched provider {e.fields.get('provider')}"
            + (f" in cycle {e.fields.get('cycle')}" if e.fields.get("cycle") else "")
        )
    for e in claims:
        print(f"  claim verdict: {e.fields.get('verdict')} at provider {e.fields.get('provider')}")

    if rejects:
        # Group by attributed reason; constraint failures name the conjunct.
        grouped: dict = {}
        for e in rejects:
            f = e.fields
            if f.get("reason") == "constraint":
                key = (
                    "{side} {constraint}: conjunct {conjunct} is {value}".format(
                        side=f.get("side", "?"),
                        constraint=f.get("constraint", "Constraint"),
                        conjunct=f.get("conjunct", "?"),
                        value=f.get("value", "false"),
                    )
                )
            else:
                key = str(f.get("reason", "?"))
            providers, undefined = grouped.setdefault(key, ([], set()))
            provider = f.get("provider")
            if provider is not None and provider not in providers:
                providers.append(provider)
            for name in f.get("undefined", ()) or ():
                undefined.add(name)
        print("rejections:")
        for key, (providers, undefined) in sorted(
            grouped.items(), key=lambda item: -len(item[1][0])
        ):
            line = f"  [{len(providers):5d}×] {key}"
            if providers:
                shown = ", ".join(str(p) for p in providers[:4])
                more = len(providers) - 4
                line += f"   e.g. {shown}" + (f" (+{more} more)" if more > 0 else "")
            print(line)
            if undefined:
                print(f"           undefined attributes: {', '.join(sorted(undefined))}")
        # Near misses: providers that passed constraints but lost on rank.
        near = [
            e.fields.get("provider")
            for e in rejects
            if e.fields.get("reason") == "rank-not-above-current"
        ]
        if near:
            print(f"near-miss providers (constraints held, rank too low): {', '.join(map(str, dict.fromkeys(near)))}")
    if unmatched and not matches:
        print(f"outcome: unmatched in every recorded cycle ({len(unmatched)} attempt(s))")
    return 0 if matches else 1


def cmd_obs_check(args) -> int:
    """Audit a recorded run against the protocol invariants."""
    from .obs.invariants import check_events

    report = check_events(_load(read_events, args.file), require_complete=args.require_complete)
    print(report.render())
    return 0 if report.ok else 1


def cmd_obs_tail(args) -> int:
    events = _load(read_events, args.file)
    if args.kind:
        events = [e for e in events if e.kind in set(args.kind)]
    for event in events[-args.limit :]:
        print(event)
    return 0


def cmd_obs_export(args) -> int:
    from .obs.events import summarize

    summary = summarize(_load(read_events, args.file))
    text = json.dumps(summary, indent=2, sort_keys=False)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# lifecycle analytics: timeline / critical-path / latency over recorded runs


def _resolve_trace_id(spans, spec: str) -> str:
    """Resolve a job spec (`<id>`, `<owner>.<id>`, or a full trace id)
    against the trace ids present in a recorded stream."""
    trace_ids = sorted({s.trace for s in spans})
    if spec in trace_ids:
        return spec
    prefixed = f"job.{spec}"
    if prefixed in trace_ids:
        return prefixed
    suffixed = [t for t in trace_ids if t.endswith(f".{spec}")]
    if len(suffixed) == 1:
        return suffixed[0]
    if len(suffixed) > 1:
        raise CliError(f"job {spec!r} is ambiguous: {', '.join(suffixed)}")
    available = ", ".join(trace_ids) if trace_ids else "<none>"
    raise CliError(f"no trace for job {spec!r}; recorded traces: {available}")


def cmd_obs_timeline(args) -> int:
    """Render one job's lifecycle timeline from a recorded event stream."""
    from .obs.lifecycle import build_lifecycles, find_job, render_timeline

    lifecycles = build_lifecycles(_load(read_events, args.file))
    matches = find_job(lifecycles, args.job_id)
    if not matches:
        known = ", ".join(f"{o}.{j}" for o, j in sorted(lifecycles, key=str)) or "<none>"
        raise CliError(f"no lifecycle for job {args.job_id!r}; recorded jobs: {known}")
    if len(matches) > 1:
        ambiguous = ", ".join(f"{lc.owner}.{lc.job_id}" for lc in matches)
        raise CliError(f"job {args.job_id!r} is ambiguous: {ambiguous}")
    print(render_timeline(matches[0]))
    return 0


def cmd_obs_critical_path(args) -> int:
    """Render the causal critical path of one job from a trace stream."""
    from .obs.lifecycle import critical_path, render_critical_path

    spans = _load(read_trace, args.file)
    trace_id = _resolve_trace_id(spans, args.job_id)
    chain = critical_path(spans, trace_id)
    if not chain:
        raise CliError(f"trace {trace_id} has no spans")
    print(render_critical_path(chain))
    return 0


def cmd_obs_latency(args) -> int:
    """Per-phase dwell and end-to-end latency percentiles for a run."""
    from .obs.lifecycle import build_lifecycles, latency_table, render_latency_table

    table = latency_table(build_lifecycles(_load(read_events, args.file)))
    if args.json:
        print(json.dumps(table, indent=2, sort_keys=False))
    else:
        print(render_latency_table(table))
    return 0


def cmd_obs_pool(args) -> int:
    """Render a recorded pool time series (`repro-series/1`)."""
    from .obs.timeseries import render_table

    if args.watch:
        return _load(lambda path: _follow_series(path, args.interval), args.file)
    print(render_table(_load(read_series, args.file), limit=args.limit))
    return 0


def _follow_series(path: str, interval: float) -> int:
    """`obs pool --watch`: print one row per sample as it lands.  The
    writer flushes per sample, so a live `repro chaos --series` run can
    be observed from another terminal; Ctrl-C ends the watch."""
    import time as _time

    from .obs.stream import check_header, parse_line
    from .obs.timeseries import SAMPLE_CHECKS, SERIES_SCHEMA, SeriesError, sample_of
    from .obs.timeseries import render_header, render_row

    with open(path) as handle:
        check_header(handle.readline(), path, SERIES_SCHEMA, SeriesError)
        print(render_header())
        number = 1
        try:
            while True:
                position = handle.tell()
                line = handle.readline()
                if not line.endswith("\n"):
                    # Nothing new, or a partial line mid-write: rewind
                    # past it and poll again.
                    handle.seek(position)
                    _time.sleep(interval)
                    continue
                number += 1
                if line.strip():
                    record = parse_line(line, f"{path}:{number}", SAMPLE_CHECKS, SeriesError)
                    print(render_row(sample_of(record)), flush=True)
        except (KeyboardInterrupt, BrokenPipeError):
            return 0


# ---------------------------------------------------------------------------
# the `chaos` command: run a pool under a fault-injection profile


def cmd_chaos(args) -> int:
    """Run a small pool under a chaos profile; exit 0 iff every job
    completed (the liveness half of the robustness claim)."""
    import dataclasses

    from . import obs
    from .condor import CondorPool, Job, MachineSpec, PoolConfig
    from .protocols import reset_message_ids, set_retries
    from .sim.chaos import chaos_profile

    plan = chaos_profile(args.profile, horizon=args.horizon)
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)

    # Fresh recording: restart sequence/span/match-id/cycle numbering and
    # zero the counters so same-seed runs produce bitwise-identical streams.
    from .matchmaking.matchmaker import reset_cycle_ids

    obs.reset()
    reset_message_ids()
    reset_cycle_ids()
    # Everything from here on changes process-wide state, so it all sits
    # under the ``finally`` that undoes it — an unwritable --trace path
    # must not leave the event log enabled with its sink open.
    try:
        obs.enable(events=True, causal=bool(args.trace), timeseries=bool(args.series))
        if args.out:
            obs.event_log.open_file(args.out)
        if args.trace:
            obs.causal_log.open_file(args.trace)
        if args.series:
            obs.series.open_file(args.series)
        if args.no_retry:
            set_retries(False)
        specs = [
            MachineSpec(name=f"m{i}", mips=100.0 + 50.0 * (i % 3))
            for i in range(args.machines)
        ]
        pool = CondorPool(
            specs,
            config=PoolConfig(
                seed=plan.seed,
                advertise_interval=60.0,
                negotiation_interval=60.0,
                chaos=plan,
                chaos_horizon=args.horizon,
            ),
        )
        jobs = [
            Job(
                job_id=j,
                owner="alice" if j % 2 == 0 else "bob",
                total_work=600.0 + 60.0 * (j % 5),
            )
            for j in range(args.jobs)
        ]
        pool.submit_all(jobs, arrival_times=[5.0 * j for j in range(len(jobs))])
        finished_at = pool.run_until_quiescent(
            check_interval=60.0, max_time=8.0 * args.horizon
        )
        done = len(pool.completed_jobs())
        stats = pool.net.stats
        # Close the recorded run with the PR 5 robustness counters so
        # `repro obs report --section robustness` has data to fold in.
        totals = obs.metrics.totals()
        obs.event_log.emit(
            "run.stats",
            t=finished_at,
            delivered=stats.delivered,
            dropped_loss=stats.dropped_loss,
            dropped_partition=stats.dropped_partition,
            duplicated=stats.duplicated,
            dropped_down=stats.dropped_down,
            **{
                key.replace(".", "_"): totals[key]
                for key in (
                    "retries.sent",
                    "retries.exhausted",
                    "leases.renewed",
                    "leases.expired",
                    "schedd.leases_lost",
                    "schedd.duplicate_matches",
                    "machine.duplicate_claims",
                )
                if key in totals
            },
        )
        print(f"profile   : {plan.name} (seed {plan.seed})")
        print(f"jobs      : {done}/{len(jobs)} completed at t={finished_at:.0f}")
        print(
            "network   : "
            f"{stats.delivered} delivered, {stats.dropped_loss} lost, "
            f"{stats.dropped_partition} partitioned, {stats.duplicated} duplicated, "
            f"{stats.dropped_down} to-down"
        )
        if args.out:
            print(f"events    : {args.out}")
        if args.trace:
            print(f"trace     : {args.trace}")
        if args.series:
            print(f"series    : {args.series}")
        return 0 if done == len(jobs) else 1
    finally:
        if args.no_retry:
            set_retries(None)
        obs.event_log.close_file()
        obs.causal_log.close_file()
        obs.series.close_file()
        obs.disable()


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ClassAd matchmaking tools (Raman/Livny/Solomon, HPDC'98)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a classad expression")
    p.add_argument("expression")
    p.add_argument("--ad", help="file providing the `self` ad")
    p.add_argument("--other", help="file providing the `other` ad")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("match", help="bilateral match of two ads")
    p.add_argument("customer")
    p.add_argument("provider")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("best", help="best provider for a customer ad")
    p.add_argument("customer")
    p.add_argument("pool")
    p.set_defaults(func=cmd_best)

    p = sub.add_parser("status", help="condor_status view of a pool file")
    p.add_argument("pool")
    p.add_argument("--constraint", help="one-way filter expression")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("q", help="condor_q view of a pool file")
    p.add_argument("pool")
    p.add_argument("--owner", help="filter to one submitter")
    p.set_defaults(func=cmd_q)

    p = sub.add_parser("diagnose", help="why won't this job match?")
    p.add_argument("job")
    p.add_argument("pool")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("convert", help="convert an ad between formats")
    p.add_argument("file")
    p.add_argument("--to", choices=("json", "classad"), required=True)
    p.set_defaults(func=cmd_convert)

    obs = sub.add_parser("obs", help="negotiation forensics (repro-events/1 logs)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    p = obs_sub.add_parser("record", help="negotiate over a pool file, recording events")
    p.add_argument("pool", help="pool file holding both Job and Machine ads")
    p.add_argument("--out", default="events.jsonl", help="event log path (default: events.jsonl)")
    p.add_argument("--cycles", type=int, default=1, help="negotiation cycles to run")
    p.set_defaults(func=cmd_obs_record)

    p = obs_sub.add_parser("report", help="per-cycle summary of a recorded run")
    p.add_argument("file", help="repro-events/1 JSONL file")
    p.add_argument(
        "--section",
        action="append",
        choices=REPORT_SECTIONS,
        help="only these sections (repeatable; default: all)",
    )
    p.set_defaults(func=cmd_obs_report)

    p = obs_sub.add_parser("why", help="explain one job's rejections")
    p.add_argument("job_id", help="JobId of the job to explain")
    p.add_argument("file", help="repro-events/1 JSONL file")
    p.set_defaults(func=cmd_obs_why)

    p = obs_sub.add_parser("check", help="verify protocol invariants over a recorded run")
    p.add_argument("file", help="repro-events/1 JSONL file")
    p.add_argument(
        "--require-complete",
        action="store_true",
        help="also fail on unterminated claims and unfinished jobs",
    )
    p.set_defaults(func=cmd_obs_check)

    p = obs_sub.add_parser("tail", help="print the recorded event stream")
    p.add_argument("file", help="repro-events/1 JSONL file")
    p.add_argument("--limit", type=int, default=20, help="events to show (default: 20)")
    p.add_argument("--kind", action="append", help="only these kinds (repeatable)")
    p.set_defaults(func=cmd_obs_tail)

    p = obs_sub.add_parser("export", help="JSON summary for CI (repro-events-summary/1)")
    p.add_argument("file", help="repro-events/1 JSONL file")
    p.add_argument("--out", help="write summary here instead of stdout")
    p.set_defaults(func=cmd_obs_export)

    p = obs_sub.add_parser("timeline", help="one job's lifecycle timeline")
    p.add_argument("job_id", help="job id, or owner.job-id when ids collide")
    p.add_argument("file", help="repro-events/1 JSONL file")
    p.set_defaults(func=cmd_obs_timeline)

    p = obs_sub.add_parser("critical-path", help="causal critical path of one job")
    p.add_argument("job_id", help="job id, owner.job-id, or full trace id")
    p.add_argument("file", help="repro-trace/1 JSONL file")
    p.set_defaults(func=cmd_obs_critical_path)

    p = obs_sub.add_parser("latency", help="per-phase dwell and latency percentiles")
    p.add_argument("file", help="repro-events/1 JSONL file")
    p.add_argument("--json", action="store_true", help="emit repro-latency/1 JSON")
    p.set_defaults(func=cmd_obs_latency)

    p = obs_sub.add_parser("pool", help="pool health time series (repro-series/1)")
    p.add_argument("file", help="repro-series/1 JSONL file")
    p.add_argument("--limit", type=int, help="only the last N samples")
    p.add_argument("--watch", action="store_true", help="follow a live series file")
    p.add_argument(
        "--interval", type=float, default=0.5, help="poll interval for --watch (s)"
    )
    p.set_defaults(func=cmd_obs_pool)

    from .sim.chaos import PROFILES

    p = sub.add_parser("chaos", help="run a pool under a fault-injection profile")
    p.add_argument("profile", choices=PROFILES)
    p.add_argument("--out", help="record a repro-events/1 log here")
    p.add_argument("--trace", help="record a repro-trace/1 causal trace here")
    p.add_argument("--series", help="record a repro-series/1 pool series here")
    p.add_argument("--seed", type=int, help="override the profile's seed")
    p.add_argument("--machines", type=int, default=6)
    p.add_argument("--jobs", type=int, default=16)
    p.add_argument("--horizon", type=float, default=3600.0, help="chaos window span (s)")
    p.add_argument(
        "--no-retry",
        action="store_true",
        help="disable protocol retries/leases (demonstrates stranded work)",
    )
    p.set_defaults(func=cmd_chaos)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
