"""Post-hoc protocol invariant checking over recorded event streams.

The chaos harness (:mod:`repro.sim.chaos`) makes the network lie —
drop, duplicate, partition — and crashes daemons mid-claim.  The
hardened protocols are supposed to keep the pool *safe* (no machine
ever runs two jobs at once, no job ever holds two claims at once — as
the customer sees it or as the machines do) and *live* (every accepted
claim eventually terminates; under bounded chaos every submitted job
eventually completes).  This module checks those invariants against a
``repro-events/1`` stream after the fact, so a chaos run can be audited
from its recorded log alone::

    repro obs check events.jsonl --require-complete

The checker consumes the canonical trace kinds mirrored into the event
log by every agent:

* machine-side claims open at ``claim-response`` with ``accepted=True``
  and close at ``job-completed`` / ``job-evicted`` / ``claim-released``
  / ``machine-crash`` (a crash vaporizes the claim by definition);
* customer-side claims open at ``claim-accepted`` and close at
  ``job-done`` / ``job-evicted-ca`` / ``job-removed`` /
  ``claim.lease.lost``;
* job lifecycle runs ``job-submitted`` → ``job-done`` or
  ``job-removed``.

Safety violations (overlapping claims, double completion) are always
errors.  Liveness gaps (claims still open, jobs still unfinished at the
end of the stream) are errors only under ``require_complete`` —
otherwise they are warnings, because a truncated log is not a protocol
bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .events import Event

__all__ = ["Violation", "InvariantReport", "check_events"]


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the event that revealed it.

    Beyond the human-readable ``detail``, a violation carries machine-
    consumable anchors so tooling can pivot straight from an audit
    failure to the offending job (``job``, as ``owner.job-id``), the
    match that caused it (``match``), and — when the run was recorded
    with causal tracing on — the job's ``repro-trace/1`` trace id
    (``trace``), ready for ``repro obs critical-path``.
    """

    invariant: str
    detail: str
    seq: int
    t: float
    job: Optional[str] = None
    match: Any = None
    trace: Optional[str] = None

    def __str__(self) -> str:
        anchors = " ".join(
            f"{name}={value}"
            for name, value in (("job", self.job), ("match", self.match), ("trace", self.trace))
            if value is not None
        )
        base = f"[{self.t:12.3f}] #{self.seq:<6d} {self.invariant}: {self.detail}"
        return f"{base}  [{anchors}]" if anchors else base


@dataclass
class InvariantReport:
    """Outcome of an invariant sweep over one event stream."""

    violations: List[Violation] = field(default_factory=list)
    warnings: List[Violation] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = []
        for key in sorted(self.stats):
            lines.append(f"{key:28s} {self.stats[key]}")
        for violation in self.violations:
            lines.append(f"VIOLATION {violation}")
        for warning in self.warnings:
            lines.append(f"warning   {warning}")
        lines.append("OK" if self.ok else f"{len(self.violations)} violation(s)")
        return "\n".join(lines)


# Machine-side claim terminators (all carry a ``machine`` field).
_MACHINE_CLAIM_ENDS = {"job-completed", "job-evicted", "claim-released", "machine-crash"}
# Customer-side claim terminators (all carry ``owner`` + ``job``).
_JOB_CLAIM_ENDS = {"job-done", "job-evicted-ca", "job-removed", "claim.lease.lost"}
# Job terminators.
_JOB_ENDS = {"job-done", "job-removed"}


def _job_key(fields: Dict[str, Any]) -> Optional[Tuple[Any, Any]]:
    if "owner" not in fields or "job" not in fields:
        return None
    return (fields["owner"], fields["job"])


def check_events(
    events: Iterable[Event], require_complete: bool = False
) -> InvariantReport:
    """Sweep *events* (in order) and report invariant breaches.

    With ``require_complete`` every claim must terminate and every
    submitted job must finish by the end of the stream; without it those
    loose ends are warnings only.
    """
    report = InvariantReport()

    # machine name -> (seq, t, match, job) of the open machine-side claim
    machine_claims: Dict[Any, Tuple[int, float, Any, Any]] = {}
    # (owner, job) -> (seq, t, match) of the open customer-side claim
    job_claims: Dict[Tuple[Any, Any], Tuple[int, float, Any]] = {}
    submitted: Dict[Tuple[Any, Any], float] = {}
    finished: Dict[Tuple[Any, Any], str] = {}
    # Anchor tables: (owner, job) -> trace id (recorded with tracing on),
    # and match id -> (owner, job) (machine-side events carry no owner).
    traces: Dict[Tuple[Any, Any], str] = {}
    match_to_key: Dict[Any, Tuple[Any, Any]] = {}

    def anchor(
        match: Any = None, key: Optional[Tuple[Any, Any]] = None
    ) -> Dict[str, Any]:
        """Job/match/trace anchors for a Violation, best effort."""
        if key is None and match is not None:
            key = match_to_key.get(match)
        return {
            "job": f"{key[0]}.{key[1]}" if key is not None else None,
            "match": match,
            "trace": traces.get(key) if key is not None else None,
        }

    counts = {
        "events": 0,
        "machine_claims": 0,
        "job_claims": 0,
        "jobs_submitted": 0,
        "jobs_done": 0,
        "jobs_removed": 0,
        "machine_crashes": 0,
    }

    for event in events:
        counts["events"] += 1
        kind = event.kind
        fields = event.fields

        if kind == "match-notified-customer":
            key = _job_key(fields)
            if key is not None and fields.get("match") is not None:
                match_to_key[fields["match"]] = key

        if kind == "claim-response" and fields.get("accepted"):
            machine = fields.get("machine")
            counts["machine_claims"] += 1
            # Machine-side events name no owner: the job's other holders
            # are found through the match ids.
            key = match_to_key.get(fields.get("match"))
            for other, held in machine_claims.items():
                if key is not None and other != machine and match_to_key.get(held[2]) == key:
                    report.violations.append(
                        Violation(
                            "job-double-held",
                            f"machine {machine!r} accepted match {fields.get('match')} for job "
                            f"{key} while machine {other!r} still held it under match {held[2]} "
                            f"(accepted at t={held[1]:.3f})",
                            event.seq, event.t, **anchor(match=fields.get("match"), key=key),
                        )
                    )
            open_claim = machine_claims.get(machine)
            if open_claim is not None:
                report.violations.append(
                    Violation(
                        "machine-overlap",
                        f"machine {machine!r} accepted match "
                        f"{fields.get('match')} (job {fields.get('job')}) while "
                        f"match {open_claim[2]} (job {open_claim[3]}, accepted "
                        f"at t={open_claim[1]:.3f}) was still running",
                        event.seq,
                        event.t,
                        **anchor(match=fields.get("match")),
                    )
                )
            machine_claims[machine] = (
                event.seq,
                event.t,
                fields.get("match"),
                fields.get("job"),
            )
        elif kind in _MACHINE_CLAIM_ENDS:
            machine_claims.pop(fields.get("machine"), None)
            if kind == "machine-crash":
                counts["machine_crashes"] += 1

        if kind == "claim-accepted":
            key = _job_key(fields)
            if key is not None:
                counts["job_claims"] += 1
                open_claim = job_claims.get(key)
                if open_claim is not None:
                    report.violations.append(
                        Violation(
                            "job-overlap",
                            f"job {key} accepted claim {fields.get('match')} "
                            f"while claim {open_claim[2]} (accepted at "
                            f"t={open_claim[1]:.3f}) was still active",
                            event.seq,
                            event.t,
                            **anchor(match=fields.get("match"), key=key),
                        )
                    )
                job_claims[key] = (event.seq, event.t, fields.get("match"))
        elif kind in _JOB_CLAIM_ENDS:
            key = _job_key(fields)
            if key is not None:
                job_claims.pop(key, None)

        if kind == "job-submitted":
            key = _job_key(fields)
            if key is not None:
                counts["jobs_submitted"] += 1
                submitted[key] = event.t
                if fields.get("trace"):
                    traces[key] = fields["trace"]
        elif kind in _JOB_ENDS:
            key = _job_key(fields)
            if key is not None:
                if key in finished:
                    report.violations.append(
                        Violation(
                            "double-completion",
                            f"job {key} terminated twice "
                            f"({finished[key]} then {kind})",
                            event.seq,
                            event.t,
                            **anchor(key=key),
                        )
                    )
                else:
                    finished[key] = kind
                    counts["jobs_done" if kind == "job-done" else "jobs_removed"] += 1

    end_seq = counts["events"]
    end_t = 0.0

    def loose_end(invariant: str, detail: str, **anchors: Any) -> None:
        entry = Violation(invariant, detail, end_seq, end_t, **anchors)
        (report.violations if require_complete else report.warnings).append(entry)

    for machine, (seq, t, match, job) in sorted(
        machine_claims.items(), key=lambda item: str(item[0])
    ):
        loose_end(
            "unterminated-machine-claim",
            f"machine {machine!r} still holds match {match} (job {job}, "
            f"accepted at t={t:.3f}) at end of stream",
            **anchor(match=match),
        )
    for key, (seq, t, match) in sorted(job_claims.items(), key=lambda item: str(item[0])):
        loose_end(
            "unterminated-job-claim",
            f"job {key} still holds claim {match} (accepted at t={t:.3f}) "
            f"at end of stream",
            **anchor(match=match, key=key),
        )
    for key in sorted(set(submitted) - set(finished), key=str):
        loose_end(
            "incomplete-job",
            f"job {key} (submitted at t={submitted[key]:.3f}) never completed",
            **anchor(key=key),
        )

    counts["open_machine_claims"] = len(machine_claims)
    counts["open_job_claims"] = len(job_claims)
    counts["incomplete_jobs"] = len(set(submitted) - set(finished))
    report.stats = counts
    return report
