"""Constraint diagnostics — S22 in DESIGN.md.

Section 5: "The complexity of constraints imposed by resources and
customers may hinder the diagnostic capability of administrators and
customers who may wonder why certain requests are unable to find
resources with particular characteristics.  To alleviate this problem,
we are researching methods for identifying constraints which can never
be satisfied by the pool.  In addition to diagnostic utilities, this
tool may help discovering hidden characteristics of a pool."

This module is that tool (the ancestor of HTCondor's
``condor_q -better-analyze``):

* decompose the request's Constraint into top-level conjuncts and count,
  for every conjunct, how many pool ads satisfy it;
* identify *unsatisfiable* conjuncts (zero ads) — the "never satisfied
  by the pool" detector;
* for equality predicates on a pool attribute, report the values the
  pool actually advertises (the "hidden characteristics" discovery);
* analyze the reverse direction too: of the ads satisfying the request,
  *which provider-side conjuncts* refuse the requester (not just how
  many ads) — provider policy is as diagnosable as customer policy;
* attribute a single failed (request, provider) pair to the side and
  first failing top-level conjunct that killed it
  (:func:`attribute_failure`) — the negotiation event log captures this
  at match time, so the offline analysis above is also recorded live for
  every rejection (see :mod:`repro.obs.events`).  The class engine knows
  the failing side already and attributes it with :func:`_attribute_side`,
  once per verdict it shares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..classads import ClassAd, Expr, is_true, unparse
from ..classads.ast import AttributeRef, walk
from ..classads.evaluator import evaluate
from ..classads.values import is_error, is_number, is_string, is_undefined
from .groups import Predicate, conjuncts, predicate_of
from .match import DEFAULT_POLICY, MatchPolicy, constraint_holds


@dataclass
class ClauseReport:
    """Per-conjunct satisfaction statistics against the pool."""

    expression: str
    satisfied: int
    total: int
    suggestion: Optional[str] = None

    @property
    def unsatisfiable(self) -> bool:
        return self.satisfied == 0

    def __str__(self) -> str:
        line = f"[{self.satisfied:5d} / {self.total}] {self.expression}"
        if self.suggestion:
            line += f"\n        hint: {self.suggestion}"
        return line


@dataclass
class ReverseReport:
    """One provider-side conjunct that rejected the requester.

    ``value`` is the three-valued verdict of that conjunct against the
    requester (``false``, ``undefined``, or ``error`` — remember that
    ``undefined`` is *not* ``false``: it usually means the request ad is
    missing an attribute the provider's policy reads)."""

    expression: str
    value: str
    count: int
    examples: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        line = f"[{self.count:5d}×] {self.expression}"
        if self.value != "false":
            line += f"  (evaluates to {self.value})"
        if self.examples:
            line += f"  e.g. {', '.join(self.examples)}"
        return line


@dataclass
class Diagnosis:
    """The full analysis of one request against one pool."""

    request_summary: str
    pool_size: int
    clauses: List[ClauseReport]
    full_constraint_matches: int
    bilateral_matches: int
    rejected_by_provider_policy: int
    provider_rejections: List[ReverseReport] = field(default_factory=list)

    @property
    def unsatisfiable_clauses(self) -> List[ClauseReport]:
        return [c for c in self.clauses if c.unsatisfiable]

    @property
    def never_matches(self) -> bool:
        return self.bilateral_matches == 0

    def render(self) -> str:
        lines = [
            f"Analysis of {self.request_summary} against {self.pool_size} ads:",
            "",
            "Constraint clauses (ads satisfying each / pool size):",
        ]
        lines += [f"  {clause}" for clause in self.clauses]
        lines += [
            "",
            f"ads satisfying the full Constraint : {self.full_constraint_matches}",
            f"of those, rejecting this requester : {self.rejected_by_provider_policy}",
            f"bilateral matches                  : {self.bilateral_matches}",
        ]
        if self.provider_rejections:
            lines.append("")
            lines.append(
                "provider-side rejections (their Constraint, evaluated against"
                " this requester):"
            )
            lines += [f"  {r}" for r in self.provider_rejections]
        if self.unsatisfiable_clauses:
            lines.append("")
            lines.append("UNSATISFIABLE clauses (no ad in the pool satisfies them):")
            lines += [f"  {c.expression}" for c in self.unsatisfiable_clauses]
        return "\n".join(lines)


def _clause_satisfied(clause: Expr, request: ClassAd, target: ClassAd) -> bool:
    return is_true(evaluate(clause, request, other=target))


# ---------------------------------------------------------------------------
# pairwise failure attribution (the live half of Section 5)


@dataclass(frozen=True)
class FailureAttribution:
    """Why one candidate (request, provider) pair failed to match.

    ``side`` names whose Constraint failed first — the matchmaking
    predicate checks the customer's, then the provider's, and so does
    this.  ``conjunct`` is the first failing top-level conjunct of that
    Constraint, ``value`` its three-valued verdict (``false`` /
    ``undefined`` / ``error``), and ``undefined_attrs`` the attribute
    references inside that conjunct which evaluated to ``undefined`` —
    the "you asked for an attribute nobody advertises" signal.
    """

    side: str  # "customer" | "provider"
    constraint: str  # the Constraint/Requirements attribute that failed
    conjunct: str  # first failing top-level conjunct, unparsed
    value: str  # "false" | "undefined" | "error"
    undefined_attrs: Tuple[str, ...] = ()

    def describe(self) -> str:
        text = f"{self.side} {self.constraint}: {self.conjunct} is {self.value}"
        if self.undefined_attrs:
            text += f" (undefined: {', '.join(self.undefined_attrs)})"
        return text

    def event_fields(self) -> Dict[str, object]:
        """The fields every forensic event that carries this attribution
        shares (``match.reject``, ``claim.verdict``)."""
        fields: Dict[str, object] = {
            "side": self.side,
            "constraint": self.constraint,
            "conjunct": self.conjunct,
            "value": self.value,
        }
        if self.undefined_attrs:
            fields["undefined"] = list(self.undefined_attrs)
        return fields


def _verdict(value) -> str:
    if is_undefined(value):
        return "undefined"
    if is_error(value):
        return "error"
    return "false"


def _undefined_refs(clause: Expr, ad: ClassAd, other: ClassAd) -> Tuple[str, ...]:
    """Attribute references in *clause* that evaluate to ``undefined``."""
    names: List[str] = []
    for node in walk(clause):
        if not isinstance(node, AttributeRef):
            continue
        if is_undefined(evaluate(node, ad, other=other)):
            display = node.name if node.scope is None else f"{node.scope}.{node.name}"
            if display not in names:
                names.append(display)
    return tuple(names)


def _attribute_side(
    side: str, ad: ClassAd, other: ClassAd, policy: MatchPolicy
) -> FailureAttribution:
    """*ad*'s Constraint rejected *other*; find the first failing conjunct."""
    name = policy.constraint_of(ad)
    assert name is not None, "an unconstrained ad cannot reject"
    for clause in conjuncts(ad[name]):
        value = evaluate(clause, ad, other=other)
        if not is_true(value):
            return FailureAttribution(
                side=side,
                constraint=name,
                conjunct=unparse(clause),
                value=_verdict(value),
                undefined_attrs=_undefined_refs(clause, ad, other),
            )
    # Unreachable for a pure top-level conjunction, but non-strict
    # operators could in principle make the whole fail while every
    # conjunct holds; attribute to the full expression.
    return FailureAttribution(
        side=side,
        constraint=name,
        conjunct=unparse(ad[name]),
        value=_verdict(ad.evaluate(name, other=other)),
    )


def attribute_failure(
    request: ClassAd,
    provider: ClassAd,
    policy: MatchPolicy = DEFAULT_POLICY,
) -> Optional[FailureAttribution]:
    """Which side's Constraint killed this pair, and which conjunct?

    Returns None when the pair is actually bilaterally compatible.  The
    customer's Constraint is checked first, mirroring the order of
    :func:`~repro.matchmaking.match.constraints_satisfied`.
    """
    if not constraint_holds(request, provider, policy):
        return _attribute_side("customer", request, provider, policy)
    if not constraint_holds(provider, request, policy):
        return _attribute_side("provider", provider, request, policy)
    return None


def _value_census(
    predicate: Predicate, pool: Sequence[ClassAd], limit: int = 6
) -> Optional[str]:
    """What values does the pool actually advertise for this attribute?"""
    census = pool_attribute_census(pool, [predicate.attr])[predicate.attr]
    missing = census.pop("<undefined>", 0)
    if not census and not missing:
        return None
    parts = [
        f"{value!r}×{count}" for value, count in census.most_common(limit)
    ]
    if missing:
        parts.append(f"<undefined>×{missing}")
    return f"pool advertises {predicate.attr} ∈ {{ {', '.join(parts)} }}"


def diagnose(
    request: ClassAd,
    pool: Sequence[ClassAd],
    policy: MatchPolicy = DEFAULT_POLICY,
) -> Diagnosis:
    """Why does (or doesn't) *request* match the *pool*?"""
    pool = list(pool)
    constraint_name = policy.constraint_of(request)
    clauses: List[ClauseReport] = []
    full_matches = 0
    bilateral = 0
    rejected_by_policy = 0

    clause_exprs = (
        conjuncts(request[constraint_name]) if constraint_name is not None else []
    )
    for clause in clause_exprs:
        satisfied = sum(1 for ad in pool if _clause_satisfied(clause, request, ad))
        suggestion = None
        if satisfied == 0:
            predicate = predicate_of(clause, request)
            if predicate is not None:
                suggestion = _value_census(predicate, pool)
        clauses.append(
            ClauseReport(
                expression=unparse(clause),
                satisfied=satisfied,
                total=len(pool),
                suggestion=suggestion,
            )
        )

    reverse: Dict[Tuple[str, str], ReverseReport] = {}
    for ad in pool:
        if constraint_name is None or is_true(
            request.evaluate(constraint_name, other=ad)
        ):
            full_matches += 1
            if constraint_holds(ad, request, policy):
                bilateral += 1
            else:
                rejected_by_policy += 1
                attribution = _attribute_side("provider", ad, request, policy)
                key = (attribution.conjunct, attribution.value)
                report = reverse.get(key)
                if report is None:
                    report = reverse[key] = ReverseReport(
                        expression=attribution.conjunct,
                        value=attribution.value,
                        count=0,
                    )
                report.count += 1
                name = ad.evaluate("Name")
                if isinstance(name, str) and len(report.examples) < 4:
                    report.examples.append(name)

    owner = request.evaluate("Owner")
    job_id = request.evaluate("JobId")
    summary = "request"
    if isinstance(owner, str):
        summary = f"job {job_id} of {owner}" if isinstance(job_id, int) else f"request of {owner}"
    return Diagnosis(
        request_summary=summary,
        pool_size=len(pool),
        clauses=clauses,
        full_constraint_matches=full_matches,
        bilateral_matches=bilateral,
        rejected_by_provider_policy=rejected_by_policy,
        provider_rejections=sorted(
            reverse.values(), key=lambda r: r.count, reverse=True
        ),
    )


def is_unsatisfiable(
    request: ClassAd, pool: Sequence[ClassAd], policy: MatchPolicy = DEFAULT_POLICY
) -> bool:
    """True iff no ad in *pool* can bilaterally match *request* — the
    Section 5 "constraints which can never be satisfied" detector."""
    return diagnose(request, pool, policy).never_matches


def pool_attribute_census(
    pool: Sequence[ClassAd], attrs: Sequence[str]
) -> Dict[str, Counter]:
    """Value distribution per attribute — "discovering hidden
    characteristics of a pool" (Section 5)."""
    out: Dict[str, Counter] = {}
    for attr in attrs:
        census: Counter = Counter()
        for ad in pool:
            value = ad.evaluate(attr)
            if is_string(value) or is_number(value) or isinstance(value, bool):
                census[value] += 1
            else:
                census["<undefined>"] += 1
        out[attr] = census
    return out
