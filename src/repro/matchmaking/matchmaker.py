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

**The scorer** exploits Section 5's observation that ad lists "exhibit a
high degree of regularity" through one notion, used on both sides.  An
evaluation of one ad's Constraint or Rank against another ad depends on
the evaluating ad's **self key** for that root — the attributes of its
own the root can transitively read (see :func:`_self_keys`) — and on the
**view** the other ad shows it (see :func:`_view_key`), and on nothing
else.  Requests with equal self keys showing the pool equal views are one
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
The oracle shares ``_scan`` and ``_commit`` and cannot reach the class
table or the table of evaluations, which live apart in
:class:`_ClassTable`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from ..classads import ClassAd
from ..classads.ast import (
    AttributeRef,
    BinaryOp,
    Expr,
    Literal,
    RecordExpr,
    Select,
    children,
    external_references,
)
from ..classads.compile import (
    NOT_CONSTANT,
    cache_hits_total as _compiled_cache_hits,
    constant_value,
    structural_key,
)
from ..classads.evaluator import _COMPARISONS, _compare
from ..classads.values import ERROR, UNDEFINED, is_error
from ..obs import event_log as _events, metrics as _metrics, tracer as _tracer
from .accounting import Accountant
from .diagnose import attribute_failure
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


# -- self keys and views ------------------------------------------------------
#
# One evaluation — *root* (Constraint or Rank) of ad A against ad B — can
# depend on two things only: the attributes of A itself that the root
# transitively reads through ``self.`` and bare references (A's **self
# key** for that root), and the attributes of B it reads through
# ``other.`` or a bare name A does not define (B's **view** under those
# names).  Ads with equal self keys are the same evaluator; ads with equal
# views are the same subject; the scorer makes one evaluation per distinct
# (self key, view) and every grouping in this module is built from those
# two notions — a request equivalence class *is* (Constraint self key,
# Rank self key, what the request shows the pool).
#
# A self key holds each literal by what the root can tell of it.  A
# literal the root reads only as a direct operand of comparisons with
# constants — Figure 1's ``LoadAvg < 0.3`` — is held as the outcomes of
# those comparisons, its **atoms**; any other literal by its value.

#: Small integers for the things keys are made of — expressions (by
#: ``structural_key``) and the fixed parts of self keys — so that keys
#: hash and compare in a few machine words.  Numbers are never reused:
#: overflowing forgets who had which, so ads keyed before and after stop
#: sharing (until their memos are rebuilt) but can never be conflated.
_INTERNED: Dict[object, int] = {}
_INTERN_LIMIT = 512
_INTERN_IDS = itertools.count()
#: interned expression -> (its ``external_references``, its :func:`_comparisons`)
_FACTS: Dict[int, Tuple[frozenset, Mapping[str, Optional[Tuple]]]] = {}
#: interned fixed part of a self key -> its literal names with their atoms
#: (a function of the closure the fixed part describes and of its roots)
_LITERALS: Dict[int, Tuple[Tuple[str, Optional[Tuple]], ...]] = {}


def _intern(value) -> int:
    ident = _INTERNED.get(value)
    if ident is None:
        if len(_INTERNED) >= _INTERN_LIMIT:
            _INTERNED.clear()
            _FACTS.clear()
            _LITERALS.clear()
        ident = _INTERNED[value] = next(_INTERN_IDS)
    return ident


#: The comparisons a literal may be keyed through.
_ATOM_OPS = frozenset(_COMPARISONS)


def _atom(node: BinaryOp):
    """``(name, (op, constant, side))`` when comparison *node* has an own
    reference (``self.X`` or a bare ``X``) on one side — side 0 is the
    left — and on the other a reference-free expression that folds to a
    scalar through pure builtins; else None."""
    for ref, other, side in ((node.left, node.right, 0), (node.right, node.left, 1)):
        if type(ref) is AttributeRef and ref.scope != "other":
            value = constant_value(other)
            if value is NOT_CONSTANT or type(value) is list or isinstance(value, ClassAd):
                return None
            return ref.canonical, (node.op, value, side)
    return None


def _comparisons(expr: Expr) -> Dict[str, Optional[Tuple]]:
    """Own name -> the atoms *expr* reads it through, or None where some
    reference to it is anything else: an operand of ``is`` or of
    arithmetic, a function argument, a reference inside a record or a
    ``Select``, a comparison with something that is not a constant.
    ``self.X`` and a bare ``X`` are one name — the ad's own ``X``, for
    every name this is asked about."""
    found: Dict[str, Optional[list]] = {}
    stack = [(expr, False)]
    while stack:
        node, nested = stack.pop()
        kind = type(node)
        if kind is AttributeRef:
            if node.scope != "other":
                found[node.canonical] = None
            continue
        if kind is BinaryOp and node.op in _ATOM_OPS and not nested:
            atom = _atom(node)
            if atom is not None:
                name, triple = atom
                atoms = found.setdefault(name, [])
                if atoms is not None and triple not in atoms:
                    atoms.append(triple)
                continue
        nested = nested or kind is RecordExpr or kind is Select
        stack.extend((child, nested) for child in reversed(children(node)))
    return {name: None if atoms is None else tuple(atoms) for name, atoms in found.items()}


#: ``id(expr)`` -> (expr, interned structural id, external references,
#: comparisons): identity first, because agents bind one parsed policy
#: object into every ad they rebuild.  The entry holds the expression (so
#: the id stays its own) and is checked with ``is``.
_EXPR_FACTS: Dict[int, Tuple[Expr, int, frozenset, Mapping[str, Optional[Tuple]]]] = {}
_EXPR_FACTS_LIMIT = 512


def _expr_facts(expr: Expr) -> Tuple[Expr, int, frozenset, Mapping[str, Optional[Tuple]]]:
    entry = _EXPR_FACTS.get(id(expr))
    if entry is None or entry[0] is not expr:
        ident = _intern(structural_key(expr))
        facts = _FACTS.get(ident)
        if facts is None:
            facts = _FACTS[ident] = (frozenset(external_references(expr)), _comparisons(expr))
        if len(_EXPR_FACTS) >= _EXPR_FACTS_LIMIT:
            _EXPR_FACTS.clear()
        entry = _EXPR_FACTS[id(expr)] = (expr, ident, *facts)
    return entry


#: Values many ads derive alike (a pool's providers share a handful of
#: policies, a queue's requests a handful of shapes) are stored once.
#: Sharing is only an economy, so overflowing just starts over.
_SHARED: Dict[object, object] = {}
_SHARED_LIMIT = 256


def _shared(value):
    if len(_SHARED) >= _SHARED_LIMIT:
        _SHARED.clear()
    return _SHARED.setdefault(value, value)


#: In a closure: "some literal, whichever" — the shape was read off the
#: name being bound to a literal, not off the literal's value.
_ANY_LITERAL = object()


class _Roots(NamedTuple):
    """What one group of root attributes — an ad's Constraint, its Rank, or
    the attributes it shows the pool — can reach."""

    #: Interned fixed part of the self key: every own attribute the roots
    #: transitively read that is bound to an expression (as its interned
    #: ``structural_key``) or absent (``None``; absence is behaviour too:
    #: it evaluates to ``undefined``), with the roots — which together
    #: determine the literal names below and their atoms.
    fixed: int
    #: The other names the roots reach, all bound to literals, each with
    #: the atoms the closure reads it through — ``None`` where it is read
    #: any other way, a root included, so its value keys it.  The values
    #: complete the key and are re-read every cycle, because a
    #: ``Refresh`` rebinds them in place.
    literals: Tuple[Tuple[str, Optional[Tuple]], ...]
    #: Attributes of the *other* ad the roots can read, sorted: ``other.X``
    #: always, a bare ``X`` only while the ad does not define ``X`` itself.
    reads: Tuple[str, ...]


class _Shape(NamedTuple):
    """Everything about an ad's keys that survives a refresh."""

    constraint: _Roots
    rank: _Roots
    #: Rooted at the request attributes the pool's policies read (none
    #: for a provider).
    shown: _Roots
    #: Some shown attribute is bound to an expression: it would be
    #: evaluated in the ad's own environment, where it can read
    #: arbitrarily more — the other ad included — so no evaluation
    #: against this ad can be shared between evaluators.
    opaque: bool
    #: Attributes of the other ad that *any* expression of this ad can
    #: read, sorted.  A provider attribute bound to an expression is
    #: evaluated wherever a request reads it — per pair, under an opaque
    #: view — and may read the request in turn; a request class must
    #: cover that too, so the pool's reach is what requests show it.
    reach: Tuple[str, ...]


def _walk_shape(ad: ClassAd, policy: MatchPolicy, shown: Tuple[str, ...]) -> _Shape:
    """One closure walk per root group — Constraint, Rank, *shown* — over
    *ad*'s own attributes (a Constraint referencing the ad's ``MyPolicy``
    attribute reads whatever *that* expression reads), and the atoms of
    each literal it reaches."""
    fields = ad.bindings()
    comparisons: Dict[str, Mapping[str, Optional[Tuple]]] = {}  # by own name bound to an expression
    cname = policy.constraint_of(ad)
    groups = []
    for roots in (
        () if cname is None else (cname.lower(),),
        (policy.rank_attr.lower(),),
        shown,
    ):
        closure: Dict[str, object] = {}  # own name -> expression id, None, or _ANY_LITERAL
        observed: Set[str] = set()
        stack: List[str] = list(roots)
        while stack:
            name = stack.pop()
            if name in closure:
                continue
            expr = fields.get(name)
            if type(expr) is Literal:
                # Reads nothing, whatever its value (a refresh rebinds it).
                closure[name] = _ANY_LITERAL
                continue
            if expr is None:
                closure[name] = None
                continue
            _, closure[name], refs, comparisons[name] = _expr_facts(expr)
            for scope, ref in refs:
                if scope == "other":
                    observed.add(ref)
                elif scope == "self" or ref in fields:
                    stack.append(ref)
                else:
                    # Bare and undefined here, so it falls through to the
                    # other ad — until this ad defines it.
                    observed.add(ref)
                    closure[ref] = None
        names = sorted(closure)
        fixed = tuple((n, closure[n]) for n in names if closure[n] is not _ANY_LITERAL)
        ident = _intern((len(groups), roots, fixed))
        literals = _LITERALS.get(ident)
        if literals is None:
            readers = [comparisons[n] for n, bound in fixed if bound is not None]
            literals = _LITERALS[ident] = tuple(
                (n, None if n in roots else _atoms_of(n, readers))
                for n in names if closure[n] is _ANY_LITERAL
            )
        groups.append(_Roots(ident, literals, tuple(sorted(observed))))
    reach = set(groups[0].reads).union(groups[1].reads, groups[2].reads)
    for name, expr in fields.items():
        if name not in comparisons and type(expr) is not Literal:
            reach.update(ref for scope, ref in external_references(expr)
                         if scope == "other" or (scope is None and ref not in fields))
    opaque = any(type(fields.get(name)) not in (Literal, type(None)) for name in shown)
    return _Shape(*groups, opaque, tuple(sorted(reach)))


def _atoms_of(name: str, readers: Sequence[Mapping[str, Optional[Tuple]]]) -> Optional[Tuple]:
    """The atoms the closure's expressions (*readers*, in name order) read
    literal *name* through, or None when one of them reads it otherwise."""
    atoms: List[Tuple] = []
    for reads in readers:
        found = reads.get(name, ())
        if found is None:
            return None
        atoms.extend(atom for atom in found if atom not in atoms)
    return tuple(atoms) or None


def _shape(ad: ClassAd, policy: MatchPolicy, shown: Tuple[str, ...] = ()) -> _Shape:
    """*ad*'s :class:`_Shape`, memoized on it.

    The memo is the ad's single ``_derived`` entry ``(args, shape)``.  A
    shape depends on which names the ad binds and to which expression
    objects, never on literal values, and :class:`ClassAd` drops the entry
    on every mutation except one literal replacing another — the in-place
    rebinding a refresh does.  Ads live in the collector across cycles,
    so steady-state cycles pay one comparison here instead of the walk.
    An entry is a few words (shapes are shared between ads) and lives and
    dies with the ad it describes.
    """
    derived = ad._derived
    if derived is not None and derived[0] == (policy, shown):
        return derived[1]
    shape = _shared(_walk_shape(ad, policy, shown))
    ad._derived = ((policy, shown), shape)
    return shape


def _view_key(ad: ClassAd, names: Tuple[str, ...]):
    """What an expression that can read only *names* of *ad* sees of it.

    The ``(type, value)`` of each literal binding (``None`` for absent
    names): two ads with equal keys are indistinguishable to such an
    expression, so one evaluation serves both.  The type is part of the
    key because ``64 == 64.0 == true`` in Python while ``is`` and
    ``isInteger`` tell them apart (the reason ``structural_key`` carries
    a type signature); the sign of a zero is, because ``string()`` shows
    it.  A name bound to anything but a literal would be evaluated in
    *ad*'s own environment, where it can read arbitrarily more: the view
    is then *opaque* — ``None``, shared with nothing.

    The one literal normalisation in this module: self keys hold the
    literals they key by value the same way.
    """
    fields = ad.bindings()
    key = []
    for name in names:
        bound = fields.get(name)
        if bound is None:
            key.append(None)
        elif type(bound) is Literal:
            value = bound.value
            kind = type(value)
            if kind is float and value == 0.0:
                value = repr(value)
            key.append((kind, value))
        else:
            return None
    return tuple(key)


def _outcome(op: str, left, right):
    """``left op right`` as the language evaluates it: error dominates,
    then undefined; strings compare case-insensitively, numbers and
    booleans as numbers, anything else is an error.  Every error is
    :data:`ERROR` here: a key cannot tell their reasons apart, and
    nothing a shared evaluation returns shows them."""
    if is_error(left) or is_error(right):
        return ERROR
    if left is UNDEFINED or right is UNDEFINED:
        return UNDEFINED
    result = _compare(op, left, right)
    return ERROR if is_error(result) else result


def _outcomes(value, atoms: Tuple) -> Tuple:
    """The outcome of each atom ``(op, constant, side)`` for *value*."""
    kind = type(value)
    numeric = kind is int or kind is float
    out = []
    for op, constant, side in atoms:
        ckind = type(constant)
        if numeric and (ckind is int or ckind is float):
            compare = _COMPARISONS[op]
            out.append(compare(value, constant) if side == 0 else compare(constant, value))
        else:
            out.append(_outcome(op, value, constant) if side == 0 else _outcome(op, constant, value))
    return tuple(out)


def _literal_key(fields: Mapping[str, Expr], literals: Tuple[Tuple[str, Optional[Tuple]], ...]):
    """The values that complete a self key: per literal name its atoms'
    outcomes, or — read otherwise — :func:`_view_key`'s ``(type, value)``."""
    key = []
    for name, atoms in literals:
        value = fields[name].value
        if atoms is not None:
            key.append(_outcomes(value, atoms))
        else:
            kind = type(value)
            if kind is float and value == 0.0:
                value = repr(value)
            key.append((kind, value))
    return tuple(key)


def _self_keys(ad: ClassAd, policy: MatchPolicy, shown: Tuple[str, ...] = ()):
    """*ad*'s ``(Constraint self key, Rank self key, shown key, shape)``.

    A self key is the shape's fixed part plus, per literal name, its
    atoms' outcomes or its value.  Equal Constraint (Rank) self keys: the
    two ads' Constraints (Ranks) evaluate alike against every ad showing
    them the same view — an expression that reads a literal only through
    comparisons with constants cannot tell apart two values on which every
    one of those comparisons comes out the same (steps and depth are
    charged per node, so budgets cannot either).  Equal shown keys: the
    two ads look alike to every expression reading only *shown* —
    including through shown attributes bound to expressions, whose own
    closures the key covers.
    """
    shape = _shape(ad, policy, shown)
    fields = ad.bindings()
    return (
        (shape.constraint.fixed, _literal_key(fields, shape.constraint.literals)),
        (shape.rank.fixed, _literal_key(fields, shape.rank.literals)),
        (shape.shown.fixed, _literal_key(fields, shape.shown.literals)),
        shape,
    )


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
        #: reject reason replayed into the event log for each member.
        #: Only built while the event log is enabled.
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

    __slots__ = ("observed", "classes", "ids", "groups", "rows", "verdicts")

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
                            provider: ClassAd) -> None:
    """The Section 5 diagnosis, captured at match time: which side's
    Constraint failed, and on which top-level conjunct."""
    attribution = attribute_failure(request, provider, cycle.policy)
    fields: Dict[str, object] = {"reason": "constraint"}
    if attribution is not None:
        fields.update(
            side=attribution.side,
            constraint=attribution.constraint,
            conjunct=attribution.conjunct,
            value=attribution.value,
        )
        if attribution.undefined_attrs:
            fields["undefined"] = list(attribution.undefined_attrs)
    _emit_reject(cycle, submitter, request, provider, **fields)


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
    evaluated as the oracle would, and nothing is recorded.
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
        if ok:
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
                dispositions[pid] = ("constraint",)
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


def _replay(cycle: _Cycle, submitter: str, request: ClassAd, state: _ClassState) -> None:
    """Stage 3's forensic half: reproduce the oracle's event stream for
    one class member from the class dispositions plus the current
    ``taken`` set (checked first, as the oracle does)."""
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
            _emit_constraint_reject(cycle, submitter, request, provider)
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
        _replay(cycle, submitter, request, state)
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
    with _tracer.span("try_match", submitter=submitter) as span:
        if table is None:
            matched = _naive_try_match(cycle, submitter, request)
        else:
            matched = _batched_try_match(cycle, table, submitter, request)
        span.annotate(matched=matched)
        return matched


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

    with _tracer.span(
        "negotiation_cycle",
        submitters=len(submitters),
        providers=len(providers),
        indexed=index is not None,
    ) as cycle_span:
        leftovers: List[Tuple[str, List[ClassAd]]] = []
        for submitter in submitters:
            stats.submitters_considered += 1
            quota = quotas.get(submitter)
            served = 0
            remaining: List[ClassAd] = []
            with _tracer.span("submitter", submitter=submitter) as submitter_span:
                for position, request in enumerate(requests_by_submitter[submitter]):
                    if quota is not None and served >= quota:
                        remaining = list(requests_by_submitter[submitter][position:])
                        break
                    if _try_match(cycle, table, submitter, request):
                        served += 1
                submitter_span.annotate(served=served)
            if remaining:
                leftovers.append((submitter, remaining))

        # Spin the pie: hand unused capacity to still-hungry submitters in
        # priority order, unrestricted.
        with _tracer.span("spin_pie", submitters=len(leftovers)):
            for submitter, requests in leftovers:
                for request in requests:
                    _try_match(cycle, table, submitter, request)
        cycle_span.annotate(matched=stats.matched, preemptions=stats.preemptions)

    _publish(cycle, base, base_cache_hits, start)
    return cycle.assignments


class Matchmaker:
    """An ad collection plus the matching algorithms — the paper's service.

    The matchmaker holds only *advertisements* (soft state): entities
    re-advertise periodically and ads expire, so a restarted matchmaker
    reconverges without recovery protocol (experiments E1/E2 exercise
    this through the simulated collector, which wraps this class).

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
