"""The matchmaker service — S6 in DESIGN.md.

"A designated matchmaking service (matchmaker) matches classads in a
manner that satisfies the constraints specified in the respective
advertisements and informs the relevant entities of the match.  The
responsibility of the matchmaker then ceases with respect to the match."
(Section 3.)

Two layers live here:

* :class:`Matchmaker` — the stateless match engine: given the current ad
  collection it identifies matches; it retains *no state about matches*
  (the paper's end-to-end argument), only the ads most recently
  advertised to it, which are soft state refreshed by the advertising
  protocol and fully reconstructible after a crash (experiment E1).
* :func:`negotiation_cycle` — Section 4's "negotiation cycle": serve
  submitters in fair-share order, pick the best-ranked compatible
  resource for each request, honouring Rank-driven preemption.

The cycle has one scorer, one oracle, and three stages.

**The oracle** (:func:`_naive_try_match`) is the paper read literally:
for each request scan the providers, evaluate both Constraints and both
Ranks per pair, keep the best.  ``negotiation_cycle(batch=False)``
selects it; the differential suites hold the scorer to it — same
matches, same preemptions, same tie-breaks, and (with the event log on)
the same forensic event stream.

**The scorer** is Section 5's group matching: ad lists "exhibit a high
degree of regularity", exploited through one notion, used on both sides
and defined in :mod:`repro.matchmaking.groups`.  An evaluation of one
ad's Constraint or Rank against another ad depends on the evaluating
ad's **self key** for that root — the attributes of its own the root can
transitively read — and on the **view** the other ad shows it, and on
nothing else.  Requests with equal self keys showing the pool equal views are one
equivalence class, settled against the pool once and consumed by its
members under the per-cycle ``taken`` set; and each of the four
evaluations a pairing needs is made once per cycle per distinct (self
key, view), whether the evaluator is a class representative or a
provider.  A self key holds a literal the root reads only through
comparisons with constants by those comparisons' outcomes, so a pool of
400 Figure-1 workstations, every owner's ``LoadAvg`` and
``KeyboardIdle`` its own, is a handful of distinct Constraints and 2
distinct Ranks.

**The stages** are module-level functions over one per-cycle record
(:class:`_Cycle`): :func:`_scan` picks a request's candidate providers
(the index's, or the whole pool), :func:`_score` settles a class against
them, :func:`_commit` records an assignment and :func:`_replay`
reproduces the oracle's per-member events from the class dispositions.
While the event log is on, a constraint disposition names the verdict
that decided it — the rejecting side, its self key and the view it
rejected — and the replay attributes the rejection (which conjunct
failed) once per cycle per such verdict and spelling of the Constraint,
not once per pair.
The oracle shares ``_scan`` and ``_commit`` and cannot reach the class
table or the table of evaluations, which live apart in
:class:`_ClassTable`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..classads import ClassAd
from ..classads.ast import Literal
from ..classads.compile import cache_hits_total as _compiled_cache_hits
from ..obs import event_log as _events, metrics as _metrics
from .accounting import Accountant
from .diagnose import FailureAttribution, _attribute_side, attribute_failure
from .groups import _Shape, _self_keys, _view_key
from .index import MaintainedIndex, ProviderIndex
from .match import (
    DEFAULT_POLICY,
    Match,
    MatchPolicy,
    availability_of,
    best_match,
    constraint_holds,
    constraints_satisfied,
    current_owner_of,
    current_rank_of,
    evaluate_rank,
    rank_candidates,
)
from .query import select

# Observability: the hot loop accumulates into the (pre-existing, local)
# CycleStats and the global counters are bumped once per cycle, so an
# enabled registry adds a handful of dict updates per cycle — not per
# (request, provider) pair.
_MM_CYCLES = _metrics.counter("matchmaker.cycles", "negotiation cycles run")
_MM_REQUESTS = _metrics.counter("matchmaker.requests", "requests considered")
_MM_MATCHED = _metrics.counter("matchmaker.matched", "requests matched")
_MM_REJECTED = _metrics.counter(
    "matchmaker.rejected", "requests with no compatible provider this cycle"
)
_MM_PREEMPTIONS = _metrics.counter(
    "matchmaker.preemptions", "matches that preempt a running customer"
)
_MM_PRUNED = _metrics.counter(
    "matchmaker.index_pruned", "constraint evaluations saved by index pre-filtering"
)
_MM_CLASSES = _metrics.counter(
    "matchmaker.request_classes", "request equivalence classes built per cycle"
)
_MM_VIEW_SAVED = _metrics.counter(
    "matchmaker.view_evals_saved",
    "Constraint/Rank evaluations served from an equal (self key, view) evaluated earlier",
)
_MM_CYCLE_SECONDS = _metrics.histogram(
    "matchmaker.cycle_seconds", "wall-clock duration of one negotiation cycle"
)

#: Process-wide negotiation-cycle numbering for the forensic event log —
#: every ``cycle.*``/``match.*`` event carries one of these so post-mortem
#: queries can group a run's events by cycle.
_CYCLE_IDS = itertools.count(1)


def reset_cycle_ids() -> None:
    """Restart cycle numbering at 1 (fresh recordings — ``repro chaos``
    resets before each run so same-seed event streams are bitwise
    identical)."""
    global _CYCLE_IDS
    _CYCLE_IDS = itertools.count(1)


def _identity_field(ad: ClassAd, name: str):
    """Fast identity read for event fields: ads bind ``Name``/``JobId``
    to plain literals, which can be read off the AST without paying the
    evaluator — the per-rejection emit path must stay cheap enough to
    hold the <=5% events-enabled overhead bar."""
    expr = ad.lookup(name)
    if expr is None:
        return None
    if isinstance(expr, Literal):
        value = expr.value
    else:
        value = ad.evaluate(name)
    return value if isinstance(value, (int, float, str)) and not isinstance(value, bool) else None


@dataclass(frozen=True)
class Assignment:
    """One negotiated match: a request ad paired with a provider ad.

    ``preempts`` names the submitter currently occupying the provider
    when the match is preemptive, else None.
    """

    submitter: str
    request: ClassAd
    provider: ClassAd
    customer_rank: float
    provider_rank: float
    preempts: Optional[str] = None


@dataclass
class CycleStats:
    """Bookkeeping for one negotiation cycle (feeds E6's benchmarks)."""

    submitters_considered: int = 0
    requests_considered: int = 0
    matched: int = 0
    preemptions: int = 0
    constraint_evaluations_saved: int = 0  # by index pre-filtering
    request_classes: int = 0  # equivalence classes built (0 on the oracle path)
    pairings_saved: int = 0  # (request, provider) pairings served from a class
    # Evaluations a class build did not make because the same (self key
    # of the evaluating ad, view of the other ad) had been evaluated this
    # cycle — the representative's Constraint and Rank, a provider's
    # Constraint and Rank — and those it made per pair because the other
    # ad's view was opaque (an observed attribute bound to an expression).
    view_request_evals_saved: int = 0
    view_provider_evals_saved: int = 0
    view_opaque_evals: int = 0


class _ClassState:
    """Shared per-cycle state of one request equivalence class."""

    __slots__ = ("pool", "cands", "head", "dispositions")

    def __init__(self, pool, cands, dispositions):
        self.pool = pool
        #: Viable candidates as (customer_rank, provider_rank, -pos,
        #: provider, preempts) tuples, best first.  ``-pos`` is unique
        #: within the pool, so sorting never compares the ad objects and
        #: the order equals the naive max()'s preference order.
        self.cands = cands
        self.head = 0  # first candidate not yet known to be taken
        #: Per pool position: None for viable candidates, else the
        #: reject reason replayed into the event log for each member, with
        #: what it reports (a constraint reject's side, self key and view,
        #: a rank reject's ranks).  Only built while the event log is enabled.
        self.dispositions = dispositions


class _Cycle:
    """What the stages of one negotiation cycle share: the inputs, what
    has been decided so far, and per-ad memos.  Plain data; the stages
    are the module-level functions below.  It holds no request-class or
    view table, and it is all the per-pair oracle is ever handed.
    """

    __slots__ = (
        "providers", "policy", "allow_preemption", "index", "stats", "emit_events",
        "cycle_id", "taken", "assignments", "provider_states", "provider_names",
        "job_identities",
    )

    def __init__(self, providers, policy, allow_preemption, index, stats):
        self.providers = providers
        self.policy = policy
        self.allow_preemption = allow_preemption
        self.index = index
        self.stats = stats
        #: The event-log switch, read once per cycle: the per-pair loops
        #: pay one truth test while the log is off, and record
        #: clause-level rejection attribution while it is on.
        self.emit_events = _events.enabled
        self.cycle_id = next(_CYCLE_IDS) if self.emit_events else None
        self.taken: Set[int] = set()  # ids of providers already matched this cycle
        self.assignments: List[Assignment] = []
        #: id(provider) -> (availability, preempted occupant, CurrentRank):
        #: facts of the ad, not of the pairing, so computed once per
        #: provider per cycle instead of once per (request, provider).
        self.provider_states: Dict[int, Tuple[str, Optional[str], float]] = {}
        # Identity fields recur on every rejection event — a busy cycle
        # emits thousands of rejects, each naming the same few ads — so
        # the ClassAd lookups behind them are memoized like the above.
        self.provider_names: Dict[int, object] = {}
        self.job_identities: Dict[int, Dict[str, object]] = {}


#: A view no evaluation may be shared through (see :func:`_view_key`).
_OPAQUE = -1


class _ClassTable:
    """The class engine's per-cycle tables; the oracle never sees one.

    Section 5's regularity, taken per evaluation: ``verdicts`` holds one
    entry per distinct (evaluator's self key, subject's view), whoever
    the evaluator and the subject are — a class representative and a
    provider, or a provider and a class.  Keys are looked up, never
    iterated: no outcome may depend on their order.
    """

    __slots__ = ("observed", "classes", "ids", "groups", "rows", "verdicts", "attributions")

    def __init__(self):
        #: Request attributes some provider's Constraint/Rank can read;
        #: computed, with ``groups``, when the first request is served.
        self.observed: Optional[Tuple[str, ...]] = None
        self.classes: Dict[Tuple[int, int, int], _ClassState] = {}  # request signature -> class
        #: self key or view -> this cycle's small integer for it
        self.ids: Dict[object, int] = {}
        #: id(provider) -> ids of its Constraint and Rank self keys
        self.groups: Dict[int, Tuple[int, int]] = {}
        #: (names a class's Constraint reads of a provider, names its Rank
        #: reads) -> {id(provider): everything the scoring loop asks of
        #: that provider, see :func:`_provider_row`}
        self.rows: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], Dict[int, Tuple]] = {}
        #: id of the evaluating ad's Constraint or Rank self key -> {id of
        #: the other ad's view: the verdict, or the rank}
        self.verdicts: Dict[int, Dict[int, object]] = {}
        #: (side, id of the rejecting Constraint's self key, id of the
        #: view it rejected, id of that Constraint's expression) -> why;
        #: filled only while the event log is on
        self.attributions: Dict[Tuple[str, int, int, int], FailureAttribution] = {}

    def id_of(self, key) -> int:
        ids = self.ids
        return ids.setdefault(key, len(ids))


def _survey(cycle: _Cycle, table: _ClassTable) -> None:
    """Once per cycle, over the whole pool: which group each provider's
    Constraint and Rank evaluate in, and what the pool can read of
    requests — through its Constraints and Ranks, and through any other
    provider expression a request reads back (:attr:`_Shape.reach`)."""
    policy = cycle.policy
    groups = table.groups
    observed: Set[str] = set()
    surveyed: Set[int] = set()  # shapes are shared objects: union each once
    for provider in cycle.providers:
        constraint, rank, _, shape = _self_keys(provider, policy)
        groups[id(provider)] = (table.id_of(constraint), table.id_of(rank))
        if id(shape) not in surveyed:
            surveyed.add(id(shape))
            observed.update(shape.reach)
    table.observed = tuple(sorted(observed))


def _provider_state(cycle: _Cycle, provider: ClassAd) -> Tuple[str, Optional[str], float]:
    key = id(provider)
    state = cycle.provider_states.get(key)
    if state is None:
        avail = availability_of(provider)
        if avail == "preemptable":
            state = (avail, current_owner_of(provider) or "<unknown>", current_rank_of(provider))
        else:
            state = (avail, None, 0.0)
        cycle.provider_states[key] = state
    return state


def _provider_row(cycle: _Cycle, table: _ClassTable, provider: ClassAd,
                  constraint_reads: Tuple[str, ...], rank_reads: Tuple[str, ...]) -> Tuple:
    """One provider as the scoring loop sees it, for classes whose
    Constraint reads *constraint_reads* of a provider and whose Rank
    reads *rank_reads*: its state, the ids of the two views it shows such
    a class (:data:`_OPAQUE` where a view is opaque), and the verdicts
    so far of its own Constraint and Rank self keys.  Built once per
    cycle, so the loop pays one lookup per pairing."""
    views = [
        _OPAQUE if view is None else table.id_of(view)
        for view in (_view_key(provider, constraint_reads), _view_key(provider, rank_reads))
    ]
    verdicts = [table.verdicts.setdefault(key, {}) for key in table.groups[id(provider)]]
    return (*_provider_state(cycle, provider), *views, *verdicts)


# -- forensic events ----------------------------------------------------------


def _name_of(cycle: _Cycle, provider: ClassAd):
    key = id(provider)
    name = cycle.provider_names.get(key)
    if name is None:
        name = cycle.provider_names[key] = _identity_field(provider, "Name")
    return name


def _identity_of(cycle: _Cycle, request: ClassAd) -> Dict[str, object]:
    """The fields that name a request in forensic events."""
    key = id(request)
    ident = cycle.job_identities.get(key)
    if ident is None:
        ident = cycle.job_identities[key] = {"job": _identity_field(request, "JobId")}
    return ident


def _emit_reject(cycle: _Cycle, submitter: str, request: ClassAd, provider: ClassAd,
                 **fields) -> None:
    _events.emit(
        "match.reject",
        cycle=cycle.cycle_id,
        submitter=submitter,
        provider=_name_of(cycle, provider),
        **_identity_of(cycle, request),
        **fields,
    )


def _emit_constraint_reject(cycle: _Cycle, submitter: str, request: ClassAd,
                            provider: ClassAd,
                            attribution: Optional[FailureAttribution] = None) -> None:
    """The Section 5 diagnosis, captured at match time: which side's
    Constraint failed, and on which top-level conjunct — *attribution*,
    or worked out for the pair when none is given."""
    if attribution is None:
        attribution = attribute_failure(request, provider, cycle.policy)
    fields: Dict[str, object] = {"reason": "constraint"}
    if attribution is not None:
        fields.update(attribution.event_fields())
    _emit_reject(cycle, submitter, request, provider, **fields)


def _attribution(table: _ClassTable, policy: MatchPolicy, side: str, key: int, view: int,
                 ad: ClassAd, other: ClassAd) -> FailureAttribution:
    """Why *ad*'s Constraint (self key *key*) rejected *other* (view
    *view*): worked out once per cycle per key and view, like the verdict
    it explains, and per pair where the view is opaque.  The Constraint's
    own expression is keyed too: a self key equates ``Memory`` with
    ``MEMORY``, and the conjunct is reported as its ad spells it."""
    if view == _OPAQUE:
        return _attribute_side(side, ad, other, policy)
    memo = (side, key, view, id(ad.lookup(policy.constraint_of(ad))))
    attribution = table.attributions.get(memo)
    if attribution is None:
        attribution = table.attributions[memo] = _attribute_side(side, ad, other, policy)
    return attribution


def _emit_unmatched(cycle: _Cycle, submitter: str, request: ClassAd, candidates: int) -> None:
    _events.emit(
        "job.unmatched",
        cycle=cycle.cycle_id,
        submitter=submitter,
        candidates=candidates,
        **_identity_of(cycle, request),
    )


# -- the three stages ---------------------------------------------------------
#
# Always called through this module's globals, never bound into a local
# or a default argument, so a benchmark or a test can wrap one by name.


def _scan(cycle: _Cycle, request: ClassAd) -> Sequence[ClassAd]:
    """Stage 1, candidate scan: the providers worth scoring for *request*
    — the index's candidates, or the whole pool."""
    if cycle.index is not None:
        return cycle.index.candidates_for(request, cycle.policy)
    return cycle.providers


def _score(cycle: _Cycle, table: _ClassTable, rep: ClassAd, pool: Sequence[ClassAd],
           rep_ids: Tuple[int, int, int], rep_shape: _Shape) -> _ClassState:
    """Stage 2, class score: settle every (class, provider) pairing once,
    exactly in the oracle's check order, and record the outcome.

    The loop walks every pairing but evaluates per *group*: each of the
    four evaluations is made once per cycle per distinct (evaluating
    ad's self key, other ad's view) and otherwise read from
    ``table.verdicts`` — the representative's Constraint and Rank shared
    with every class of equal self key, a provider's with every provider
    of equal self key.  Where the other ad's view is opaque the pair is
    evaluated as the oracle would, and nothing is recorded.  While the
    event log is on, a failed Constraint's disposition names the verdict,
    which :func:`_replay` attributes the same way (:func:`_attribution`).
    """
    policy = cycle.policy
    allow_preemption = cycle.allow_preemption
    cands: List[Tuple] = []
    dispositions: Optional[List[Optional[Tuple]]] = (
        [None] * len(pool) if cycle.emit_events else None
    )
    rep_constraint, rep_rank, rep_view = rep_ids
    if rep_shape.opaque:
        rep_view = _OPAQUE
    rep_verdicts = table.verdicts.setdefault(rep_constraint, {})
    rep_ranks = table.verdicts.setdefault(rep_rank, {})
    reads = rep_shape.constraint.reads, rep_shape.rank.reads
    rows = table.rows.setdefault(reads, {})
    request_saved = provider_saved = opaque = 0
    for pid, provider in enumerate(pool):
        row = rows.get(id(provider))
        if row is None:
            row = rows[id(provider)] = _provider_row(cycle, table, provider, *reads)
        (availability, owner, current, constraint_view, rank_view,
         verdicts, ranks) = row
        if availability == "unavailable":
            if dispositions is not None:
                dispositions[pid] = ("unavailable",)
            continue
        preempts: Optional[str] = None
        if availability == "preemptable":
            if not allow_preemption:
                if dispositions is not None:
                    dispositions[pid] = ("preemption-disabled",)
                continue
            preempts = owner
        if constraint_view == _OPAQUE:
            ok = constraint_holds(rep, provider, policy)
            opaque += 1
        else:
            ok = rep_verdicts.get(constraint_view)
            if ok is None:
                ok = rep_verdicts[constraint_view] = constraint_holds(rep, provider, policy)
            else:
                request_saved += 1
        if not ok:
            if dispositions is not None:
                dispositions[pid] = ("constraint", "customer", rep_constraint, constraint_view)
            continue
        if rep_view == _OPAQUE:
            ok = constraint_holds(provider, rep, policy)
            opaque += 1
        else:
            ok = verdicts.get(rep_view)
            if ok is None:
                ok = verdicts[rep_view] = constraint_holds(provider, rep, policy)
            else:
                provider_saved += 1
        if not ok:
            if dispositions is not None:
                dispositions[pid] = ("constraint", "provider", table.groups[id(provider)][0],
                                     rep_view)
            continue
        if rep_view == _OPAQUE:
            provider_rank = evaluate_rank(provider, rep, policy)
            opaque += 1
        else:
            provider_rank = ranks.get(rep_view)
            if provider_rank is None:
                provider_rank = ranks[rep_view] = evaluate_rank(provider, rep, policy)
            else:
                provider_saved += 1
        if preempts is not None and provider_rank <= current:
            if dispositions is not None:
                dispositions[pid] = ("rank", provider_rank, current)
            continue
        if rank_view == _OPAQUE:
            customer_rank = evaluate_rank(rep, provider, policy)
            opaque += 1
        else:
            customer_rank = rep_ranks.get(rank_view)
            if customer_rank is None:
                customer_rank = rep_ranks[rank_view] = evaluate_rank(rep, provider, policy)
            else:
                request_saved += 1
        cands.append((customer_rank, provider_rank, -pid, provider, preempts))
    stats = cycle.stats
    stats.view_request_evals_saved += request_saved
    stats.view_provider_evals_saved += provider_saved
    stats.view_opaque_evals += opaque
    cands.sort(reverse=True)
    return _ClassState(pool, cands, dispositions)


def _commit(cycle: _Cycle, submitter: str, request: ClassAd, provider: ClassAd,
            customer_rank: float, provider_rank: float, preempts: Optional[str]) -> None:
    """Stage 3, serial commit: the one place a provider becomes taken."""
    cycle.taken.add(id(provider))
    cycle.assignments.append(
        Assignment(submitter, request, provider, customer_rank, provider_rank, preempts)
    )
    stats = cycle.stats
    stats.matched += 1
    if preempts is not None:
        stats.preemptions += 1
    if cycle.emit_events:
        name = _name_of(cycle, provider)
        ident = _identity_of(cycle, request)
        _events.emit(
            "match.made", cycle=cycle.cycle_id, submitter=submitter, provider=name,
            customer_rank=customer_rank, provider_rank=provider_rank, preempts=preempts,
            **ident,
        )
        if preempts is not None:
            _events.emit(
                "preemption", cycle=cycle.cycle_id, submitter=submitter, provider=name,
                evicted=preempts, **ident,
            )


def _replay(cycle: _Cycle, table: _ClassTable, submitter: str, request: ClassAd,
            state: _ClassState) -> None:
    """Stage 3's forensic half: reproduce the oracle's event stream for
    one class member from the class dispositions plus the current
    ``taken`` set (checked first, as the oracle does).  A constraint
    reject is attributed from the verdict that decided it."""
    taken = cycle.taken
    dispositions = state.dispositions
    for pid, provider in enumerate(state.pool):
        if id(provider) in taken:
            _emit_reject(cycle, submitter, request, provider, reason="taken")
            continue
        d = dispositions[pid]
        if d is None:
            continue
        reason = d[0]
        if reason == "constraint":
            _, side, key, view = d
            ad, other = (request, provider) if side == "customer" else (provider, request)
            _emit_constraint_reject(cycle, submitter, request, provider, _attribution(
                table, cycle.policy, side, key, view, ad, other,
            ))
        elif reason == "rank":
            _emit_reject(
                cycle, submitter, request, provider,
                reason="rank-not-above-current", provider_rank=d[1], current_rank=d[2],
            )
        else:
            _emit_reject(cycle, submitter, request, provider, reason=reason)


# -- serving one request ------------------------------------------------------


def _naive_try_match(cycle: _Cycle, submitter: str, request: ClassAd) -> bool:
    """The oracle (Section 3.3 read literally): scan the candidates for
    this one request, evaluate both Constraints and both Ranks per pair,
    keep the best.  It shares the scan and commit stages with the class
    engine and nothing else — no class, no view, no memoized verdict."""
    stats = cycle.stats
    policy = cycle.policy
    taken = cycle.taken
    emit_events = cycle.emit_events
    stats.requests_considered += 1
    pool = _scan(cycle, request)
    stats.constraint_evaluations_saved += len(cycle.providers) - len(pool)
    chosen: Optional[Tuple[Match, Optional[str]]] = None
    for pid, provider in enumerate(pool):
        if id(provider) in taken:
            if emit_events:
                _emit_reject(cycle, submitter, request, provider, reason="taken")
            continue
        availability, owner, current = _provider_state(cycle, provider)
        if availability == "unavailable":
            if emit_events:
                _emit_reject(cycle, submitter, request, provider, reason="unavailable")
            continue
        preempts: Optional[str] = None
        if availability == "preemptable":
            if not cycle.allow_preemption:
                if emit_events:
                    _emit_reject(
                        cycle, submitter, request, provider, reason="preemption-disabled"
                    )
                continue
            preempts = owner
        if not constraints_satisfied(request, provider, policy):
            if emit_events:
                _emit_constraint_reject(cycle, submitter, request, provider)
            continue
        provider_rank = evaluate_rank(provider, request, policy)
        if preempts is not None and provider_rank <= current:
            if emit_events:
                _emit_reject(
                    cycle, submitter, request, provider,
                    reason="rank-not-above-current",
                    provider_rank=provider_rank, current_rank=current,
                )
            continue  # not strictly preferred: no preemption
        candidate = Match(
            customer=request,
            provider=provider,
            customer_rank=evaluate_rank(request, provider, policy),
            provider_rank=provider_rank,
            index=pid,
        )
        if chosen is None or candidate.sort_key > chosen[0].sort_key:
            chosen = (candidate, preempts)
    if chosen is None:
        if emit_events:
            _emit_unmatched(cycle, submitter, request, len(pool))
        return False
    match, preempts = chosen
    _commit(
        cycle, submitter, request, match.provider,
        match.customer_rank, match.provider_rank, preempts,
    )
    return True


def _batched_try_match(cycle: _Cycle, table: _ClassTable, submitter: str,
                       request: ClassAd) -> bool:
    """The class engine: score the request's equivalence class on first
    sight, then let each member take the best candidate still free."""
    stats = cycle.stats
    stats.requests_considered += 1
    if table.observed is None:
        _survey(cycle, table)
    constraint, rank, shown, shape = _self_keys(request, cycle.policy, table.observed)
    sig = (table.id_of(constraint), table.id_of(rank), table.id_of(shown))
    state = table.classes.get(sig)
    if state is None:
        state = table.classes[sig] = _score(
            cycle, table, request, _scan(cycle, request), sig, shape
        )
        stats.request_classes += 1
    else:
        stats.pairings_saved += len(state.pool)
    stats.constraint_evaluations_saved += len(cycle.providers) - len(state.pool)
    cands = state.cands
    taken = cycle.taken
    head = state.head
    while head < len(cands) and id(cands[head][3]) in taken:
        head += 1
    state.head = head
    if cycle.emit_events:
        _replay(cycle, table, submitter, request, state)
    if head == len(cands):
        if cycle.emit_events:
            _emit_unmatched(cycle, submitter, request, len(state.pool))
        return False
    customer_rank, provider_rank, _negpid, provider, preempts = cands[head]
    _commit(cycle, submitter, request, provider, customer_rank, provider_rank, preempts)
    return True


def _try_match(cycle: _Cycle, table: Optional[_ClassTable], submitter: str,
               request: ClassAd) -> bool:
    """Serve one request: through the class engine, or — no *table* — the oracle."""
    if table is None:
        return _naive_try_match(cycle, submitter, request)
    return _batched_try_match(cycle, table, submitter, request)


def _publish(cycle: _Cycle, base: CycleStats, base_cache_hits: int, start: float) -> None:
    """Bump the global counters and close the cycle's event bracket.
    Callers may pass an accumulating CycleStats, so only this cycle's
    delta over *base* is counted."""
    stats = cycle.stats
    requests_seen = stats.requests_considered - base.requests_considered
    matched = stats.matched - base.matched
    preemptions = stats.preemptions - base.preemptions
    classes = stats.request_classes - base.request_classes
    if _metrics.enabled:
        _MM_CYCLES.inc()
        _MM_REQUESTS.inc(requests_seen)
        _MM_MATCHED.inc(matched)
        _MM_REJECTED.inc(requests_seen - matched)
        _MM_PREEMPTIONS.inc(preemptions)
        _MM_PRUNED.inc(stats.constraint_evaluations_saved - base.constraint_evaluations_saved)
        _MM_CLASSES.inc(classes)
        _MM_VIEW_SAVED.inc(
            stats.view_request_evals_saved + stats.view_provider_evals_saved
            - base.view_request_evals_saved - base.view_provider_evals_saved
        )
        _MM_CYCLE_SECONDS.observe(time.perf_counter() - start)
    if cycle.emit_events:
        _events.emit(
            "cycle.end",
            cycle=cycle.cycle_id,
            requests=requests_seen,
            matched=matched,
            rejected=requests_seen - matched,
            preemptions=preemptions,
            # Full AST walks avoided this cycle: evaluations served from
            # the compiled-expression cache (0 when REPRO_NO_COMPILE=1).
            evals_saved=_compiled_cache_hits() - base_cache_hits,
            # Request-batching yield: classes built and (request, provider)
            # pairings served from a shared class instead of re-evaluated
            # (both 0 on the oracle path).
            request_classes=classes,
            pairings_saved=stats.pairings_saved - base.pairings_saved,
            duration_s=time.perf_counter() - start,
        )


def negotiation_cycle(
    requests_by_submitter: Mapping[str, Sequence[ClassAd]],
    providers: Sequence[ClassAd],
    accountant: Optional[Accountant] = None,
    policy: MatchPolicy = DEFAULT_POLICY,
    allow_preemption: bool = True,
    index: Optional[ProviderIndex] = None,
    stats: Optional[CycleStats] = None,
    batch: bool = True,
) -> List[Assignment]:
    """Run one negotiation cycle and return the assignments.

    Fair matching (Section 4) happens in two mechanisms, both driven by
    the accountant: submitters are served in ascending effective-priority
    order, *and* each submitter's matches in the first serving round are
    capped at its fair-share "pie slice" of the available resources
    (shares ∝ 1/effective-priority).  Remaining capacity is then handed
    out unrestricted in priority order so no machine idles while work is
    queued.  Ordering alone cannot yield factor-weighted shares — two
    lock-step users would simply alternate whole cycles — which is why
    deployed Condor spins the pie; we reproduce that.

    For each request, the best compatible provider is chosen by
    (customer Rank, provider Rank) per Section 3.1.  A claimed provider
    may be matched only when preemption is allowed and the provider
    ranks the new customer *strictly above* its advertised
    ``CurrentRank`` — Section 4's "it is still interested in hearing
    from higher priority customers".

    ``batch=False`` serves every request through the per-pair oracle.
    Both produce identical assignments; the class engine evaluates each
    distinct (class, provider) pairing once.

    The cycle only *identifies* matches; claiming is the parties' own
    business (separation of matching and claiming).
    """
    start = time.perf_counter()
    stats = stats if stats is not None else CycleStats()
    base = replace(stats)
    submitters = list(requests_by_submitter.keys())
    if accountant is not None:
        submitters = accountant.negotiation_order(submitters)
    else:
        submitters.sort()

    cycle = _Cycle(providers, policy, allow_preemption, index, stats)
    table = _ClassTable() if batch else None
    emit_events = cycle.emit_events
    base_cache_hits = _compiled_cache_hits() if emit_events else 0
    if emit_events:
        _events.emit(
            "cycle.begin",
            cycle=cycle.cycle_id,
            submitters=len(submitters),
            providers=len(providers),
            indexed=index is not None,
            batched=batch,
        )

    # Pie slices: cap the first round at each submitter's fair share of
    # the currently matchable capacity.  Rounding each share up to at
    # least one match can over-commit the pie with many low-share
    # submitters, so the quotas are additionally capped to never exceed
    # the matchable capacity in total: later (lower-priority) submitters
    # absorb the shortfall and are served from the spin-pie round.
    quotas: Dict[str, int] = {}
    if accountant is not None and len(submitters) > 1:
        matchable = sum(1 for p in providers if _provider_state(cycle, p)[0] != "unavailable")
        shares = accountant.fair_shares(submitters)
        capacity = matchable
        for s in submitters:
            quota = min(max(1, int(round(shares[s] * matchable))), capacity)
            quotas[s] = quota
            capacity -= quota
        if emit_events:
            for position, s in enumerate(submitters):
                _events.emit(
                    "fairshare.quota",
                    cycle=cycle.cycle_id,
                    submitter=s,
                    position=position,
                    quota=quotas[s],
                    share=shares[s],
                )

    leftovers: List[Tuple[str, List[ClassAd]]] = []
    for submitter in submitters:
        stats.submitters_considered += 1
        quota = quotas.get(submitter)
        served = 0
        queue = requests_by_submitter[submitter]
        for position, request in enumerate(queue):
            if quota is not None and served >= quota:
                leftovers.append((submitter, list(queue[position:])))
                break
            if _try_match(cycle, table, submitter, request):
                served += 1

    # Spin the pie: hand unused capacity to still-hungry submitters in
    # priority order, unrestricted.
    for submitter, requests in leftovers:
        for request in requests:
            _try_match(cycle, table, submitter, request)

    _publish(cycle, base, base_cache_hits, start)
    return cycle.assignments


class Matchmaker:
    """An ad collection plus the matching algorithms — the paper's service.

    The matchmaker holds only *advertisements* (soft state): entities
    re-advertise periodically and ads expire, so a restarted matchmaker
    reconverges without recovery protocol.  The simulated collector
    (:mod:`repro.condor.collector`) keeps its own ad store and index on
    the same terms, and experiments E1/E2 exercise it there.

    No match state is retained: ``match`` and ``negotiate`` compute from
    the current ads and return; claiming is end-to-end between the
    matched parties.

    Since PR 4 the provider index used by ``negotiate(use_index=True)``
    is *persistent*: a :class:`MaintainedIndex` hangs off the matchmaker
    and is delta-updated by ``advertise``/``withdraw`` instead of being
    rebuilt from the ad collection every cycle.  Note one contract this
    sharpens: an ad must be **re-advertised after mutation** for the
    index to observe the change (which the advertising protocol does
    anyway — soft state is refreshed, not edited in place).
    """

    def __init__(self, policy: MatchPolicy = DEFAULT_POLICY):
        self.policy = policy
        self._ads: Dict[str, ClassAd] = {}
        self._mindex: Optional[MaintainedIndex] = None

    # -- advertising side -------------------------------------------------

    def advertise(self, name: str, ad: ClassAd) -> None:
        """Insert or refresh the ad advertised under *name*."""
        mindex = self._mindex
        if mindex is not None:
            if not mindex.advertise(name, ad, had_prior=name in self._ads):
                # Candidate order can no longer be preserved by deltas;
                # drop the index and rebuild lazily on the next negotiate.
                self._mindex = None
        self._ads[name] = ad

    def withdraw(self, name: str) -> None:
        """Remove an ad; absent names are ignored (idempotent)."""
        if self._mindex is not None:
            self._mindex.withdraw(name)
        self._ads.pop(name, None)

    def clear(self) -> None:
        """Forget everything — simulates a matchmaker crash/restart."""
        self._ads.clear()
        if self._mindex is not None:
            self._mindex.clear()

    def ads(self, constraint: Optional[str] = None) -> List[ClassAd]:
        """All ads, optionally filtered by a one-way constraint."""
        if constraint is None:
            return list(self._ads.values())
        return select(self._ads.values(), constraint)

    def __len__(self) -> int:
        return len(self._ads)

    def __contains__(self, name: str) -> bool:
        return name in self._ads

    # -- matching side ------------------------------------------------------

    def match(self, customer: ClassAd, constraint: Optional[str] = None) -> Optional[Match]:
        """Best provider for a single customer ad among stored ads."""
        providers = self.ads(constraint)
        return best_match(customer, providers, self.policy)

    def matches(self, customer: ClassAd, constraint: Optional[str] = None) -> List[Match]:
        """All compatible providers for *customer*, best first."""
        return rank_candidates(customer, self.ads(constraint), self.policy)

    def query(self, constraint: str) -> List[ClassAd]:
        """One-way matching over the stored ads (status tools)."""
        return select(self.ads(), constraint)

    def provider_index(self, constraint: str = 'Type == "Machine"') -> MaintainedIndex:
        """The persistent provider index for *constraint*, built lazily
        and kept current by ``advertise``/``withdraw`` thereafter."""
        mindex = self._mindex
        if mindex is None or mindex.constraint_source != constraint:
            mindex = self._mindex = MaintainedIndex(
                constraint, items=self._ads.items()
            )
        return mindex

    def negotiate(
        self,
        requests_by_submitter: Mapping[str, Sequence[ClassAd]],
        provider_constraint: str = 'Type == "Machine"',
        accountant: Optional[Accountant] = None,
        allow_preemption: bool = True,
        use_index: bool = False,
        stats: Optional[CycleStats] = None,
    ) -> List[Assignment]:
        """One negotiation cycle over the stored provider ads."""
        if use_index:
            mindex = self.provider_index(provider_constraint)
            providers: Sequence[ClassAd] = mindex.providers()
            index: Optional[ProviderIndex] = mindex.index
        else:
            providers = self.ads(provider_constraint)
            index = None
        return negotiation_cycle(
            requests_by_submitter,
            providers,
            accountant=accountant,
            policy=self.policy,
            allow_preemption=allow_preemption,
            index=index,
            stats=stats,
        )
