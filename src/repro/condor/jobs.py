"""Jobs and their classads — part of S15/S17 in DESIGN.md.

A job is work measured in CPU-seconds at a 100-Mips reference machine
(so a 200-Mips machine finishes it in half the wall time).  Its request
classad follows Figure 2's shape: ``Type``, ``Owner``, ``QDate``,
``Memory``, a ``Constraint`` over machine attributes, and a ``Rank``
preferring faster machines.

``WantCheckpoint`` drives experiment E5: evicted checkpointing jobs keep
the work they completed (Condor's transparent checkpointing); others
restart from scratch and the lost work is badput.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..classads import ClassAd, parse
from .states import JobState

_job_ids = itertools.count(1)

#: Parsed Constraint/Rank expressions shared across every ad built from
#: the same source text — jobs overwhelmingly use the two defaults, a
#: pool's machines a handful of owner policies, and re-advertisement
#: rebuilds the ad every period.  Shared Expr objects also let the
#: refresh fast path's change detector and the matchmaker's
#: per-expression memos answer by identity.  Bounded defensively;
#: expressions are immutable.
_policy_memo: dict = {}


def parsed_policy(source: str):
    expr = _policy_memo.get(source)
    if expr is None:
        if len(_policy_memo) > 4096:
            _policy_memo.clear()
        expr = _policy_memo[source] = parse(source)
    return expr

#: Reference speed against which job work is expressed.
REFERENCE_MIPS = 100.0

DEFAULT_JOB_CONSTRAINT = (
    'other.Type == "Machine" && Arch == self.ReqArch && OpSys == self.ReqOpSys '
    "&& other.Memory >= self.Memory"
)
DEFAULT_JOB_RANK = "other.KFlops / 1E3 + other.Memory / 32"

#: A request ad's attributes in ad order.  :meth:`Job.stable_key` yields
#: the values of all but ``AdvertisedAt`` (the one volatile attribute,
#: ``VOLATILE_JOB_ATTRS``) in this order.
_AD_NAMES = (
    "Type",
    "JobId",
    "Owner",
    "Cmd",
    "QDate",
    "SubmittedAt",
    "Memory",
    "ReqArch",
    "ReqOpSys",
    "WantCheckpoint",
    "JobPrio",
    "RemainingWork",
    "ContactAddress",
    "AdvertisedAt",
    "Constraint",
    "Rank",
)


@dataclass
class Job:
    """One submitted job and its full lifecycle bookkeeping."""

    owner: str
    total_work: float  # CPU-seconds at REFERENCE_MIPS
    memory: int = 31
    req_arch: str = "INTEL"
    req_opsys: str = "SOLARIS251"
    want_checkpoint: bool = True
    #: User-assigned queue priority (Condor's JobPrio): higher runs
    #: first *within this submitter's own queue*; it never trumps
    #: another submitter's fair share.
    priority: int = 0
    cmd: str = "run_sim"
    constraint: str = DEFAULT_JOB_CONSTRAINT
    rank: str = DEFAULT_JOB_RANK
    job_id: int = field(default_factory=lambda: next(_job_ids))

    # lifecycle (owned by the customer agent)
    state: JobState = JobState.IDLE
    submit_time: float = 0.0
    completion_time: Optional[float] = None
    first_start_time: Optional[float] = None
    completed_work: float = 0.0  # checkpointed progress
    restarts: int = 0
    evictions: int = 0
    matches: int = 0
    claim_rejections: int = 0
    running_on: Optional[str] = None
    running_match_id: Optional[int] = None

    @property
    def remaining_work(self) -> float:
        return max(0.0, self.total_work - self.completed_work)

    @property
    def done(self) -> bool:
        return self.state is JobState.COMPLETED

    def wait_time(self) -> Optional[float]:
        """Queue wait before first execution, if it ever started."""
        if self.first_start_time is None:
            return None
        return self.first_start_time - self.submit_time

    def turnaround(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.submit_time

    def stable_key(self, contact_address: str) -> tuple:
        """Everything the request ad's non-volatile attributes are built
        from: the scalar values in ``_AD_NAMES`` order, then the
        Constraint and Rank source text.

        :meth:`to_classad` builds the ad from this tuple and nothing
        else, so two keys that are ``values_equal`` describe ads with
        the same stable fingerprint — the schedd compares keys each
        period instead of rebuilding the ad.
        """
        return (
            "Job",
            self.job_id,
            self.owner,
            self.cmd,
            int(self.submit_time),
            self.submit_time,
            self.memory,
            self.req_arch,
            self.req_opsys,
            1 if self.want_checkpoint else 0,
            self.priority,
            self.remaining_work,
            contact_address,
            self.constraint,
            self.rank,
        )

    def to_classad(self, contact_address: str, now: float) -> ClassAd:
        """The request classad advertised to the matchmaker."""
        *scalars, constraint, rank = self.stable_key(contact_address)
        return ClassAd(
            zip(
                _AD_NAMES,
                (*scalars, now, parsed_policy(constraint), parsed_policy(rank)),
                strict=True,
            )
        )


def execution_time(job: Job, mips: float) -> float:
    """Wall-clock seconds for *job*'s remaining work on a *mips* machine."""
    if mips <= 0:
        raise ValueError("machine speed must be positive")
    return job.remaining_work * REFERENCE_MIPS / mips
