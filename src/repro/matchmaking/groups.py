"""Group matching's key algebra — Section 5's regularity, stated once.

Section 5: "lists of classads representing resources and customers
exhibit a high degree of regularity ... We are currently investigating
techniques for exploiting this regularity, and automatically aggregating
classads so that matches may be performed in groups."  The negotiation
cycle (:mod:`repro.matchmaking.matchmaker`) performs its matches in
groups, and this module says what a group is.

One evaluation — *root* (Constraint or Rank) of ad A against ad B — can
depend on two things only: the attributes of A itself that the root
transitively reads through ``self.`` and bare references (A's **self
key** for that root, :func:`_self_keys`), and the attributes of B it
reads through ``other.`` or a bare name A does not define (B's **view**
under those names, :func:`_view_key`).  Ads with equal self keys are the
same evaluator; ads with equal views are the same subject; the scorer
makes one evaluation per distinct (self key, view), and a request
equivalence class *is* (Constraint self key, Rank self key, what the
request shows the pool).

A self key holds each literal by what the root can tell of it.  A
literal the root reads only as a direct operand of comparisons with
constants — Figure 1's ``LoadAvg < 0.3`` — is held as the outcomes of
those comparisons, its **atoms**; any other literal by its
:func:`~repro.classads.values.literal_key`.

The same reading of "attribute compared with a constant" serves the
provider index and the diagnostics: :func:`extract_predicates` turns a
customer's top-level conjuncts into predicates over the provider
(:class:`Predicate`), and :func:`predicate_of` reads one conjunct.  Atoms
and predicates split a comparison with :func:`split_comparison`, which
states every operator with the attribute on its left.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

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
from ..classads.compile import NOT_CONSTANT, constant_value, structural_key
from ..classads.evaluator import _COMPARISONS, _compare
from ..classads.values import ERROR, UNDEFINED, is_error, is_number, is_string, literal_key
from .match import MatchPolicy

# -- comparisons with a constant ----------------------------------------------

#: ``a op b`` is ``b flipped[op] a``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def split_comparison(
    node: BinaryOp, is_attribute: Callable[[AttributeRef], bool]
) -> Optional[Tuple[str, str, Expr]]:
    """Comparison *node* read as ``name op operand``, where ``name`` is an
    attribute reference on one side that *is_attribute* accepts — the left
    one first — and ``operand`` the other side; else None.

    The one orientation convention: the operator is stated with the
    attribute on its left, so ``0.3 > LoadAvg`` reads ``LoadAvg < 0.3``.
    """
    left = node.left
    if type(left) is AttributeRef and is_attribute(left):
        return left.canonical, node.op, node.right
    right = node.right
    if type(right) is AttributeRef and is_attribute(right):
        return right.canonical, _FLIPPED[node.op], left
    return None


def _own(ref: AttributeRef) -> bool:
    return ref.scope != "other"


def _atom(node: BinaryOp):
    """``(name, (op, constant))`` when comparison *node* has an own
    reference (``self.X`` or a bare ``X``) on one side and on the other a
    reference-free expression that folds to a scalar through pure
    builtins; else None."""
    split = split_comparison(node, _own)
    if split is None:
        return None
    name, op, operand = split
    value = constant_value(operand)
    if value is NOT_CONSTANT or type(value) is list or isinstance(value, ClassAd):
        return None
    return name, (op, value)


@dataclass(frozen=True)
class Predicate:
    """One extracted conjunct: ``attr <op> value`` over the provider ad."""

    attr: str  # canonical (lowercase) provider attribute
    op: str  # one of == < <= > >=
    value: object  # concrete string or number


#: The comparisons a provider index can prune on.
_INDEXED_OPS = frozenset(("==", "<", "<=", ">", ">="))


def conjuncts(expr: Expr) -> List[Expr]:
    """Split *expr* into its top-level ``&&`` conjuncts."""
    out: List[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp) and node.op == "&&":
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def predicate_of(node: Expr, customer: ClassAd) -> Optional[Predicate]:
    """Conjunct *node* of *customer*'s Constraint as a :class:`Predicate`:
    a comparison of a provider attribute with a customer constant.

    A reference targets the provider when it is ``other.X``, or a bare
    ``X`` that the customer ad does not itself define (bare names resolve
    self-first, then fall through to the other ad).  The other side must
    fold to a string or number on the customer ad alone: this is what
    lets Figure 2's ``other.Memory >= self.Memory`` become ``memory >=
    31``.  A side that can reach the provider — directly, through a
    compound expression (``isUndefined(other.Disk) ? 64 : 16``) or
    through a customer attribute bound to one — is no constant: evaluated
    without the provider it would yield a value the real match never sees.
    """
    if type(node) is not BinaryOp or node.op not in _INDEXED_OPS:
        return None
    split = split_comparison(
        node,
        lambda ref: ref.scope == "other" or (ref.scope is None and ref.canonical not in customer),
    )
    if split is None:
        return None
    attr, op, operand = split
    value = constant_value(operand, customer)
    if is_string(value) or is_number(value):
        return Predicate(attr, op, value)
    return None


def extract_predicates(constraint: Expr, customer: ClassAd) -> List[Predicate]:
    """Indexable predicates implied by the customer's Constraint.

    Only comparisons at the top-level conjunction are considered; any
    predicate inside ``||``/``?:`` could be satisfied another way and is
    ignored (soundness).
    """
    predicates = (predicate_of(node, customer) for node in conjuncts(constraint))
    return [predicate for predicate in predicates if predicate is not None]


# -- self keys and views ------------------------------------------------------

#: Small integers for the things keys are made of — expressions (by
#: ``structural_key``) and the fixed parts of self keys — so that keys
#: hash and compare in a few machine words.  Numbers are never reused:
#: overflowing forgets who had which, so ads keyed before and after stop
#: sharing (until their memos are rebuilt) but can never be conflated.
_INTERNED: Dict[object, int] = {}
_INTERN_LIMIT = 512
_INTERN_IDS = itertools.count()
#: interned expression -> (its ``external_references`` in :func:`_ref_order`,
#: its :func:`_comparisons`)
_FACTS: Dict[int, Tuple[Tuple, Mapping[str, Optional[Tuple]]]] = {}
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
                name, pair = atom
                atoms = found.setdefault(name, [])
                if atoms is not None and pair not in atoms:
                    atoms.append(pair)
                continue
        nested = nested or kind is RecordExpr or kind is Select
        stack.extend((child, nested) for child in reversed(children(node)))
    return {name: None if atoms is None else tuple(atoms) for name, atoms in found.items()}


#: ``id(expr)`` -> (expr, interned structural id, ordered external
#: references, comparisons): identity first, because agents bind one
#: parsed policy object into every ad they rebuild.  The entry holds the expression (so
#: the id stays its own) and is checked with ``is``.
_EXPR_FACTS: Dict[int, Tuple[Expr, int, Tuple, Mapping[str, Optional[Tuple]]]] = {}
_EXPR_FACTS_LIMIT = 512


def _ref_order(ref: Tuple[Optional[str], str]) -> Tuple[str, str]:
    """Sort key for a ``(scope, name)`` reference that hashes nothing.
    A set's order over bare ``(None, name)`` refs follows ``hash(None)``,
    which before CPython 3.12 is ``None``'s address and moves from
    process to process (``PYTHONHASHSEED`` does not pin it); the shape
    walk's visit order, and so which memo entries survive an overflow,
    would move with it."""
    return (ref[0] or "", ref[1])


def _expr_facts(expr: Expr) -> Tuple[Expr, int, Tuple, Mapping[str, Optional[Tuple]]]:
    entry = _EXPR_FACTS.get(id(expr))
    if entry is None or entry[0] is not expr:
        ident = _intern(structural_key(expr))
        facts = _FACTS.get(ident)
        if facts is None:
            refs = tuple(sorted(external_references(expr), key=_ref_order))
            facts = _FACTS[ident] = (refs, _comparisons(expr))
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

    The :func:`~repro.classads.values.literal_key` of each literal binding
    (``None`` for absent names): two ads with equal keys are
    indistinguishable to such an expression, so one evaluation serves
    both.  A name bound to anything but a literal would be evaluated in
    *ad*'s own environment, where it can read arbitrarily more: the view
    is then *opaque* — ``None``, shared with nothing.
    """
    fields = ad.bindings()
    key = []
    for name in names:
        bound = fields.get(name)
        if bound is None:
            key.append(None)
        elif type(bound) is Literal:
            key.append(literal_key(bound.value))
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
    """The outcome of each atom ``(op, constant)`` — ``value op
    constant`` — for *value*."""
    kind = type(value)
    numeric = kind is int or kind is float
    out = []
    for op, constant in atoms:
        ckind = type(constant)
        if numeric and (ckind is int or ckind is float):
            out.append(_COMPARISONS[op](value, constant))
        else:
            out.append(_outcome(op, value, constant))
    return tuple(out)


def _literal_key(fields: Mapping[str, Expr], literals: Tuple[Tuple[str, Optional[Tuple]], ...]):
    """The values that complete a self key: per literal name its atoms'
    outcomes, or — read otherwise — its ``literal_key``."""
    key = []
    for name, atoms in literals:
        value = fields[name].value
        key.append(literal_key(value) if atoms is None else _outcomes(value, atoms))
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
