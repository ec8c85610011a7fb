"""The matchmaking framework — S5–S8 and S20–S22 in DESIGN.md.

Core matching (Section 3): :func:`constraints_satisfied`,
:func:`rank_candidates`, :func:`best_match`, :class:`Matchmaker`,
:func:`negotiation_cycle`.

Fair matching (Section 4): :class:`Accountant`.

Throughput optimization: :class:`ProviderIndex`.

Section 5 future-work systems: group matching is how
:func:`negotiation_cycle` scores (its key algebra — self keys, atoms,
views, and the index's predicates — is :mod:`repro.matchmaking.groups`);
:mod:`repro.matchmaking.gangmatch` (co-allocation);
:mod:`repro.matchmaking.diagnose` (unsatisfiable-constraint analysis).
"""

from .accounting import MINIMUM_PRIORITY, Accountant, SubmitterRecord
from .diagnose import (
    ClauseReport,
    Diagnosis,
    FailureAttribution,
    ReverseReport,
    attribute_failure,
    diagnose,
    is_unsatisfiable,
    pool_attribute_census,
)
from .gangmatch import (
    GangMatch,
    GangRequest,
    GangStats,
    Port,
    gang_match,
    gang_match_all,
)
from .groups import Predicate, conjuncts, extract_predicates
from .index import (
    DEFAULT_EQUALITY_ATTRS,
    DEFAULT_RANGE_ATTRS,
    MaintainedIndex,
    ProviderIndex,
)
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
    symmetric_match,
)
from .matchmaker import (
    Assignment,
    CycleStats,
    Matchmaker,
    negotiation_cycle,
)
from .query import count_matching, one_way_match, select

__all__ = [
    "Accountant",
    "Assignment",
    "ClauseReport",
    "Diagnosis",
    "FailureAttribution",
    "ReverseReport",
    "attribute_failure",
    "GangMatch",
    "GangRequest",
    "GangStats",
    "Port",
    "diagnose",
    "gang_match",
    "gang_match_all",
    "is_unsatisfiable",
    "pool_attribute_census",
    "CycleStats",
    "DEFAULT_EQUALITY_ATTRS",
    "DEFAULT_POLICY",
    "DEFAULT_RANGE_ATTRS",
    "MINIMUM_PRIORITY",
    "MaintainedIndex",
    "Match",
    "MatchPolicy",
    "Matchmaker",
    "Predicate",
    "ProviderIndex",
    "SubmitterRecord",
    "availability_of",
    "best_match",
    "current_owner_of",
    "current_rank_of",
    "conjuncts",
    "constraint_holds",
    "constraints_satisfied",
    "count_matching",
    "evaluate_rank",
    "extract_predicates",
    "negotiation_cycle",
    "one_way_match",
    "rank_candidates",
    "select",
    "symmetric_match",
]
