"""The bilateral matching algorithm — S5 in DESIGN.md.

Section 3.1: "The classads ... assume a matchmaking algorithm that
considers a pair of ads to be incompatible unless their Constraint
expressions both evaluate to true.  The Rank attributes [are] then used
to choose among compatible matches: Among provider ads matching a given
customer ad, the matchmaker chooses the one with the highest Rank value
(non-integer values are treated as zero), breaking ties according to the
provider's Rank value."

The match is deliberately *symmetric* in the constraint check — the
framework's distinguishing feature is that "service providers [may also]
express constraints on the customers they are willing to serve".

``undefined``/``error``-valued Constraints fail the match ("the match
fails if the Constraint evaluates to undefined").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..classads import ClassAd, is_true, rank_value
from ..obs import event_log as _events


@dataclass(frozen=True)
class MatchPolicy:
    """Names of the protocol-defined attributes.

    The advertising protocol "attaches a meaning to some attributes"
    (Section 3.2); the paper's convention is ``Constraint``/``Rank``,
    while deployed Condor spells the former ``Requirements``.  We accept
    a primary name plus aliases so ads from either era match.
    """

    constraint_attrs: Tuple[str, ...] = ("Constraint", "Requirements")
    rank_attr: str = "Rank"

    def constraint_of(self, ad: ClassAd):
        """The first present constraint attribute's name, or None."""
        for name in self.constraint_attrs:
            if name in ad:
                return name
        return None


DEFAULT_POLICY = MatchPolicy()


def constraint_holds(ad: ClassAd, other: ClassAd, policy: MatchPolicy = DEFAULT_POLICY) -> bool:
    """True iff *ad*'s Constraint evaluates to ``true`` against *other*.

    An ad with no constraint attribute imposes no requirements and always
    accepts (an entity that publishes no Constraint is unconstrained).

    Evaluation goes through the closure-compiled path
    (:mod:`repro.classads.compile`): the Constraint compiles once per ad
    and every later candidate pairing reuses the cached closure.
    """
    name = policy.constraint_of(ad)
    if name is None:
        return True
    return is_true(ad.evaluate(name, other=other))


def constraints_satisfied(a: ClassAd, b: ClassAd, policy: MatchPolicy = DEFAULT_POLICY) -> bool:
    """The symmetric compatibility predicate: both Constraints hold."""
    return constraint_holds(a, b, policy) and constraint_holds(b, a, policy)


def evaluate_rank(ad: ClassAd, other: ClassAd, policy: MatchPolicy = DEFAULT_POLICY) -> float:
    """*ad*'s Rank of *other*, with non-numeric values mapped to 0."""
    return rank_value(ad.evaluate(policy.rank_attr, other=other))


@dataclass(frozen=True)
class Match:
    """The outcome of ranking one provider against one customer.

    ``customer_rank`` orders candidates (higher is better);
    ``provider_rank`` breaks ties; ``index`` is the provider's position
    in the input sequence and breaks remaining ties deterministically.
    """

    customer: ClassAd = field(compare=False)
    provider: ClassAd = field(compare=False)
    customer_rank: float
    provider_rank: float
    index: int

    @property
    def sort_key(self) -> Tuple[float, float, int]:
        # Negated index: earlier providers win final ties under max().
        return (self.customer_rank, self.provider_rank, -self.index)


def _emit_pair_reject(
    customer: ClassAd, provider: ClassAd, policy: MatchPolicy, context: str
) -> None:
    """Record a failed candidate pair in the forensic event log, with the
    same clause-level attribution the negotiation cycle captures.

    Callers gate on ``_events.enabled`` (hoisted to a local), so the hot
    path pays nothing while the log is off.  The import is deferred:
    :mod:`.diagnose` imports this module.
    """
    from .diagnose import attribute_failure

    attribution = attribute_failure(customer, provider, policy)
    fields = {"reason": "constraint", "context": context}
    if attribution is not None:
        fields.update(attribution.event_fields())
    job_id = customer.evaluate("JobId")
    name = provider.evaluate("Name")
    _events.emit(
        "match.reject",
        job=job_id if isinstance(job_id, int) else None,
        provider=name if isinstance(name, str) else None,
        **fields,
    )


def _compatible(
    customer: ClassAd, providers: Sequence[ClassAd], policy: MatchPolicy, context: str
) -> Iterator[Match]:
    """Every provider compatible with *customer*, ranked, in input order;
    each rejected pair is logged under *context* while the event log is on."""
    emit_events = _events.enabled
    for index, provider in enumerate(providers):
        if not constraints_satisfied(customer, provider, policy):
            if emit_events:
                _emit_pair_reject(customer, provider, policy, context)
            continue
        yield Match(
            customer=customer,
            provider=provider,
            customer_rank=evaluate_rank(customer, provider, policy),
            provider_rank=evaluate_rank(provider, customer, policy),
            index=index,
        )


def rank_candidates(
    customer: ClassAd,
    providers: Sequence[ClassAd],
    policy: MatchPolicy = DEFAULT_POLICY,
) -> List[Match]:
    """All compatible providers for *customer*, best first.

    Ordering: customer's Rank of the provider, then the provider's Rank
    of the customer (the paper's tie-break), then input order.
    """
    return sorted(
        _compatible(customer, providers, policy, "rank_candidates"),
        key=lambda m: m.sort_key, reverse=True,
    )


def best_match(
    customer: ClassAd,
    providers: Sequence[ClassAd],
    policy: MatchPolicy = DEFAULT_POLICY,
) -> Optional[Match]:
    """The single best compatible provider, or None: the first of
    :func:`rank_candidates`, found in one pass without sorting."""
    return max(
        _compatible(customer, providers, policy, "best_match"),
        key=lambda m: m.sort_key, default=None,
    )


def symmetric_match(a: ClassAd, b: ClassAd, policy: MatchPolicy = DEFAULT_POLICY) -> bool:
    """Alias for :func:`constraints_satisfied` (paper terminology)."""
    return constraints_satisfied(a, b, policy)


# -- provider classification ------------------------------------------------
#
# The negotiation cycle reads three facts off every provider ad before any
# pairing work: its availability class, its advertised CurrentRank, and its
# current occupant.  They live here (rather than in matchmaker.py) because
# they are properties of one ad under the match policy, not of the cycle —
# and the batched engine memoizes them once per provider per cycle.


def availability_of(provider: ClassAd) -> str:
    """Classify a provider: "available", "preemptable", or "unavailable".

    Providers that do not advertise State are assumed available — the
    matchmaker works with whatever schema the ads actually use
    (semi-structured model: no schema is *required*).  Only Claimed
    providers are preemption candidates; an Owner-state machine is its
    owner's and is skipped outright.
    """
    state = provider.evaluate("State")
    if not isinstance(state, str):
        return "available"
    lowered = state.lower()
    if lowered in ("unclaimed", "available", "idle"):
        return "available"
    if lowered == "claimed":
        return "preemptable"
    return "unavailable"


def current_rank_of(provider: ClassAd) -> float:
    """The provider's advertised rank of its current occupant.

    Condor startds advertise ``CurrentRank`` while claimed so the
    negotiator can decide preemption without the occupant's ad.
    """
    return rank_value(provider.evaluate("CurrentRank"))


def current_owner_of(provider: ClassAd) -> Optional[str]:
    """The submitter currently occupying the provider, if advertised."""
    owner = provider.evaluate("RemoteOwner")
    return owner if isinstance(owner, str) else None
