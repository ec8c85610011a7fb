"""Compile classad expressions to cached Python closures.

The negotiation inner loop evaluates the same ``Constraint``/``Rank``
ASTs for every candidate (request, provider) pair; the recursive
interpreter in :mod:`.evaluator` re-dispatches on node type, re-resolves
operators, and re-walks constant subtrees on every one of those
evaluations.  Robinson & DeWitt ("Turning Cluster Management into Data
Management") observe that matchmaking is query evaluation — the standard
fix is compiled predicates.  This module is that fix:

* :func:`compile_expr` lowers an :class:`~.ast.Expr` to a tree of nested
  Python closures — one closure per node, with dispatch resolved at
  compile time, operator implementations bound into cells, and constant
  subtrees folded to literal values;
* every :class:`~.classad.ClassAd` carries a compiled-attribute cache
  (``Constraint``/``Rank`` compile once per ad and are reused across all
  candidates; entries are validated by expression identity, so mutating
  an ad invalidates its stale code automatically);
* structurally equal expressions share compiled code through a global
  memo (thousands of machine ads advertising the same policy text
  compile it once).

Semantics are the interpreter's, exactly: three-valued ``&&``/``||``,
strict operators, ``is``/``isnt`` meta-identity, ``self``/``other``
scope resolution with bare-name fall-through, cycle detection, and
totality (in-language faults yield ``error``, never an exception).  The
differential harness in ``tests/classads/test_compile_equivalence.py``
checks compiled == interpreted on generated expressions; the interpreter
remains the semantic reference and the runtime fallback.

Where the two paths intentionally differ: *budget accounting*.  The
interpreter charges one step per visited node and one depth level per
active node; the compiled path charges a tree's full static size and
static depth up front (at entry and at each attribute resolution).  The
compiled charge is conservative — it can exhaust a budget slightly
earlier when short-circuiting would have skipped a large subtree — and
expressions too large or too deep for a caller's budget (or for the
compiler's own limits) fall back to the interpreter wholesale, so tiny
explicit budgets behave exactly as before.

Kill-switch: set ``REPRO_NO_COMPILE=1`` in the environment (or call
:func:`set_compilation` ``(False)``) and every entry point routes to the
tree-walking interpreter.  CI runs the fast test tier once in that mode
so the fallback cannot rot.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

from ..obs import metrics as _metrics
from . import evaluator as _interp
from .ast import (
    AttributeRef,
    BinaryOp,
    Conditional,
    Expr,
    FunctionCall,
    ListExpr,
    Literal,
    RecordExpr,
    Select,
    Subscript,
    UnaryOp,
    walk,
)
from .builtins import BUILTINS, is_pure
from .classad import ClassAd
from .evaluator import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_STEPS,
    _COMPARISONS,
    _EvalState,
    _arith,
)
from .values import (
    UNDEFINED,
    ErrorValue,
    literal_key,
    values_identical,
)

__all__ = [
    "NOT_CONSTANT",
    "CompiledExpr",
    "cache_hits_total",
    "cache_stats",
    "clear_cache",
    "compilation_enabled",
    "compile_expr",
    "constant_value",
    "evaluate",
    "evaluate_attribute",
    "set_compilation",
    "structural_key",
]

#: Compiler refusal limits: expressions bigger/deeper than this are left
#: to the interpreter (its per-node budget accounting is exact, and such
#: expressions are pathological, not hot).
MAX_COMPILE_SIZE = 4096
MAX_COMPILE_DEPTH = 100

#: Global structural memo: (Expr, literal-type signature) -> _Compiled |
#: None (None = refused).  Expr equality/hashing is structural, so equal
#: policy text parsed into thousands of ads compiles exactly once.  The
#: type signature is needed because AST equality inherits Python's
#: type-coarse value equality (``Literal(3) == Literal(3.0) ==
#: Literal(True)``) while the language distinguishes them (``is``,
#: ``isInteger``); without it the memo would conflate their code.
_MEMO: Dict[tuple, Optional["_Compiled"]] = {}
_MEMO_LIMIT = 4096

_MISSING = object()


#: ``REPRO_NO_COMPILE`` is the only environment variable the package reads.
_ENABLED = os.environ.get("REPRO_NO_COMPILE", "").strip().lower() not in ("1", "true", "yes", "on")


def compilation_enabled() -> bool:
    """Whether the compiled path is active (see ``REPRO_NO_COMPILE``)."""
    return _ENABLED


def set_compilation(enabled: bool) -> None:
    """Programmatic kill-switch (benchmarks and tests toggle this)."""
    global _ENABLED
    _ENABLED = bool(enabled)


# ---------------------------------------------------------------------------
# observability
#
# The always-on tallies are single module-int adds (negligible next to an
# evaluation); a registry collector settles deltas into the real counters
# whenever a snapshot is taken, mirroring the evaluator's pattern.  The
# matchmaker also reads `cache_hits_total()` around a cycle to report the
# per-cycle `evals_saved` event field.

_C_COMPILES = _metrics.counter(
    "classads.compile.compiles", "expressions lowered to closures"
)
_C_HITS = _metrics.counter(
    "classads.compile.cache_hits", "evaluations served by a cached compiled attribute"
)
_C_MISSES = _metrics.counter(
    "classads.compile.cache_misses", "compiled-attribute cache misses (compile or re-validate)"
)

_stat_compiles = 0
_stat_hits = 0
_stat_misses = 0
_settled_compiles = 0
_settled_hits = 0
_settled_misses = 0


def _flush_compile_counters() -> None:
    global _settled_compiles, _settled_hits, _settled_misses
    if _stat_compiles != _settled_compiles:
        _C_COMPILES.inc(_stat_compiles - _settled_compiles)
        _settled_compiles = _stat_compiles
    if _stat_hits != _settled_hits:
        _C_HITS.inc(_stat_hits - _settled_hits)
        _settled_hits = _stat_hits
    if _stat_misses != _settled_misses:
        _C_MISSES.inc(_stat_misses - _settled_misses)
        _settled_misses = _stat_misses


_metrics.register_collector(_flush_compile_counters)


def cache_hits_total() -> int:
    """Running count of compiled-cache hits (monotone, always counted)."""
    return _stat_hits


def cache_stats() -> Dict[str, int]:
    """The always-on tallies: compiles / cache hits / cache misses."""
    return {"compiles": _stat_compiles, "hits": _stat_hits, "misses": _stat_misses}


def clear_cache() -> None:
    """Drop the global compiled-code memo (cold-cache benchmarking)."""
    _MEMO.clear()
    _KEY_BY_ID.clear()


# ---------------------------------------------------------------------------
# shared fault constants (ErrorValue compares equal regardless of reason,
# so sharing instances is semantically invisible and allocation-free)

_ERR_STEPS = ErrorValue("evaluation step budget exceeded")
_ERR_DEPTH = ErrorValue("evaluation depth budget exceeded")
_ERR_LOGIC = ErrorValue("logical operator applied to non-boolean")
_ERR_GUARD = ErrorValue("conditional guard is not boolean")
_ERR_NOT_BOOL = ErrorValue("! applied to non-boolean")
_ERR_SUB_LIST = ErrorValue("subscript of non-list")
_ERR_SUB_INT = ErrorValue("non-integer subscript")
_ERR_CMP = ErrorValue("comparison of incompatible types")


class _Compiled:
    """A compiled expression: its closure plus static size/depth charges."""

    __slots__ = ("fn", "size", "depth")

    def __init__(self, fn: Callable, size: int, depth: int):
        self.fn = fn
        self.size = size
        self.depth = depth


# ---------------------------------------------------------------------------
# static measurement

_CHILDREN = {
    Literal: lambda n: (),
    AttributeRef: lambda n: (),
    UnaryOp: lambda n: (n.operand,),
    BinaryOp: lambda n: (n.left, n.right),
    Conditional: lambda n: (n.cond, n.then, n.otherwise),
    ListExpr: lambda n: n.items,
    RecordExpr: lambda n: (),  # fields evaluate lazily, in their own ad
    Select: lambda n: (n.base,),
    Subscript: lambda n: (n.base, n.index),
    FunctionCall: lambda n: n.args,
}


def _measure(expr: Expr):
    """(node count, tree depth) of *expr*, or None when past the limits."""
    stack = [(expr, 1)]
    count = 0
    max_depth = 0
    while stack:
        node, depth = stack.pop()
        count += 1
        if depth > max_depth:
            max_depth = depth
        if count > MAX_COMPILE_SIZE or depth > MAX_COMPILE_DEPTH:
            return None
        children = _CHILDREN.get(type(node))
        if children is None:
            return None  # unknown node kind: interpreter's problem
        for child in children(node):
            stack.append((child, depth + 1))
    return count, max_depth


# ---------------------------------------------------------------------------
# attribute resolution (the only dynamically recursive part)


def _compiled_for(ad: ClassAd, name: str, expr: Expr) -> Optional[_Compiled]:
    """Compiled code for attribute *name* of *ad* (canonical name).

    The per-ad cache is validated by expression identity — rebinding an
    attribute replaces the expression object, so stale code can never be
    used after a mutation.  Structural sharing happens one level down in
    the global memo.
    """
    global _stat_hits, _stat_misses
    cache = ad._ccache
    if cache is None:
        cache = ad._ccache = {}
    entry = cache.get(name)
    if entry is not None and entry[0] is expr:
        _stat_hits += 1
        return entry[1]
    _stat_misses += 1
    compiled = _memo_compile(expr)
    cache[name] = (expr, compiled)
    return compiled


def _type_sig(expr: Expr) -> tuple:
    """Everything structural equality ignores but compiled code preserves:
    each literal's :func:`~repro.classads.values.literal_key` (its value
    type and the sign of a float zero) and record field spellings."""
    sig = []
    for node in walk(expr):
        t = type(node)
        if t is Literal:
            sig.append(literal_key(node.value))
        elif t is RecordExpr:
            sig.extend(name for name, _ in node.fields)
    return tuple(sig)


#: Identity-first front of :func:`structural_key`: ``id(expr)`` -> (expr,
#: key).  Agents parse a policy once and bind the same expression object
#: into every ad they rebuild, so most calls are for an object seen
#: before and need neither the type-signature walk nor a structural
#: hash.  The entry holds the expression, so its id cannot be reused
#: while the entry lives; kept small because that also keeps dead ads'
#: expressions alive.
_KEY_BY_ID: Dict[int, tuple] = {}
_KEY_BY_ID_LIMIT = 512


def structural_key(expr: Expr) -> tuple:
    """The global memo's key for *expr*: structural equality refined by
    the literal-type signature.

    Two expressions with equal keys are *behaviourally identical* — they
    evaluate to identical values in every environment — which is exactly
    what AST equality alone cannot promise (``Literal(3) == Literal(3.0)``
    while ``is``/``isInteger`` distinguish them).  Group matching's
    self keys are built on this, so the guarantee is load-bearing beyond
    the compile cache.
    """
    entry = _KEY_BY_ID.get(id(expr))
    if entry is not None and entry[0] is expr:
        return entry[1]
    key = (expr, _type_sig(expr))
    if len(_KEY_BY_ID) >= _KEY_BY_ID_LIMIT:
        _KEY_BY_ID.clear()
    _KEY_BY_ID[id(expr)] = (expr, key)
    return key


#: What :func:`constant_value` returns for an expression that is not one.
NOT_CONSTANT = object()


def constant_value(expr: Expr, ad: Optional[ClassAd] = None):
    """*expr*'s value when nothing but *expr* itself and *ad* can change
    it, else :data:`NOT_CONSTANT`.

    Every reference is followed through *ad*'s own attributes (``self.X``
    and bare names *ad* defines) and must stay among them: an ``other.X``,
    a bare name *ad* lacks (it falls through to the other ad), any
    reference at all when there is no *ad*, or a call to a builtin that is
    not pure makes *expr* no constant.  Without an ad this is the
    "reference-free, folds through pure builtins" test for the constant
    side of a self key's atom; with the customer ad, for the constant
    side of an index predicate (both in ``repro.matchmaking.groups``).
    """
    if type(expr) is Literal:
        return expr.value
    stack = [expr]
    followed = set()
    while stack:
        for node in walk(stack.pop()):
            kind = type(node)
            if kind is AttributeRef:
                if ad is None or node.scope == "other":
                    return NOT_CONSTANT
                bound = ad.lookup(node.canonical)
                if bound is None:
                    if node.scope is None:
                        return NOT_CONSTANT  # falls through to the other ad
                elif node.canonical not in followed:
                    followed.add(node.canonical)
                    stack.append(bound)
            elif kind is FunctionCall and not is_pure(node.canonical):
                return NOT_CONSTANT
    return evaluate(expr, ad)


def _memo_compile(expr: Expr) -> Optional[_Compiled]:
    global _stat_compiles
    key = structural_key(expr)
    compiled = _MEMO.get(key, _MISSING)
    if compiled is not _MISSING:
        return compiled
    measured = _measure(expr)
    if measured is None:
        compiled = None
    else:
        size, depth = measured
        fn, const = _build(expr)
        if const is not _NOT_CONST:
            value = const
            fn = lambda state: value  # noqa: E731
        compiled = _Compiled(fn, size, depth)
        _stat_compiles += 1
    if len(_MEMO) >= _MEMO_LIMIT:
        _MEMO.clear()
    _MEMO[key] = compiled
    return compiled


def _resolve_root(expr: Expr, ad: ClassAd, name: str, state: _EvalState):
    """Evaluate non-literal attribute *name* of root ad *ad* in *state*.

    Mirrors the interpreter's ``_resolve_found``: cycle detection on the
    (ad identity, canonical name) pair — the key format matches the
    interpreter's exactly, so mixed compiled/interpreted evaluation
    shares one cycle set — plus the conservative static budget charge.
    """
    key = (id(ad), name)
    in_progress = state.in_progress
    if key in in_progress:
        return UNDEFINED  # circular reference
    compiled = _compiled_for(ad, name, expr)
    if compiled is None:
        return _interp._resolve_found(expr, ad, name, state)
    steps = state.steps + compiled.size
    if steps > state.max_steps:
        return _ERR_STEPS
    depth = state.depth + compiled.depth
    if depth >= state.max_depth:
        return _ERR_DEPTH
    state.steps = steps
    state.depth = depth
    in_progress.add(key)
    try:
        return compiled.fn(state)
    finally:
        in_progress.discard(key)
        state.depth = depth - compiled.depth


# ---------------------------------------------------------------------------
# the compiler proper
#
# _build(expr) -> (closure, const) where const is _NOT_CONST for dynamic
# nodes and the folded value otherwise.  Closures take the shared
# _EvalState and return a classad value; they never raise for in-language
# faults.  Constant folding calls the freshly built closure once with
# state=None — a node is only foldable when no path through it can touch
# the state, which holds exactly when every child is constant and the
# node is not a reference or record constructor — and when its value
# cannot change between evaluations: a call only to a pure builtin.

_NOT_CONST = object()


def _build(expr: Expr):
    kind = type(expr)
    builder = _BUILDERS.get(kind)
    if builder is None:  # unreachable behind _measure, but stay total
        reason = ErrorValue(f"unknown expression node {kind.__name__}")
        return (lambda state: reason), _NOT_CONST
    return builder(expr)


def _fold(fn):
    """Run a state-free closure once and return (trivial closure, value)."""
    value = fn(None)
    return (lambda state: value), value


def _build_literal(expr: Literal):
    value = expr.value
    return (lambda state: value), value


def _build_ref(expr: AttributeRef):
    name = expr.canonical
    scope = expr.scope

    if scope == "self":

        def fn(state):
            ad = state.self_ad
            if ad is None:
                return UNDEFINED
            bound = ad._fields.get(name)
            if bound is None:
                return UNDEFINED
            if type(bound) is Literal:
                return bound.value
            return _resolve_root(bound, ad, name, state)

    elif scope == "other":

        def fn(state):
            ad = state.other_ad
            if ad is None:
                return UNDEFINED
            bound = ad._fields.get(name)
            if bound is None:
                return UNDEFINED
            if type(bound) is Literal:
                return bound.value
            return _resolve_root(bound, ad, name, state.flipped())

    else:
        # Bare name: the hot case is a flat match environment (one root
        # scope).  Nested lexical chains (inside Select / nested records)
        # defer to the interpreter's resolution for exactness.
        def fn(state):
            scopes = state.scopes
            if len(scopes) == 1:
                ad = scopes[0]
                bound = ad._fields.get(name)
                if bound is not None:
                    if type(bound) is Literal:
                        return bound.value
                    return _resolve_root(bound, ad, name, state)
            elif scopes:
                return _interp._eval_ref(expr, state)
            other = state.other_ad
            if other is not None:
                bound = other._fields.get(name)
                if bound is not None:
                    if type(bound) is Literal:
                        return bound.value
                    return _resolve_root(bound, other, name, state.flipped())
            return UNDEFINED

    return fn, _NOT_CONST


def _build_unary(expr: UnaryOp):
    operand_fn, operand_const = _build(expr.operand)
    op = expr.op

    if op == "!":

        def fn(state):
            value = operand_fn(state)
            if value is True:
                return False
            if value is False:
                return True
            if value is UNDEFINED:
                return UNDEFINED
            if type(value) is ErrorValue:
                return value
            return _ERR_NOT_BOOL

    else:
        negate = op == "-"
        reason = ErrorValue(f"unary {op} applied to non-number")

        def fn(state):
            value = operand_fn(state)
            if type(value) is ErrorValue:
                return value
            if value is UNDEFINED:
                return UNDEFINED
            if type(value) is bool:
                value = 1 if value else 0
            elif type(value) is not int and type(value) is not float:
                return reason
            return -value if negate else value

    if operand_const is not _NOT_CONST:
        return _fold(fn)
    return fn, _NOT_CONST


def _logic(value):
    """The compiled twin of the interpreter's ``_to_logic``."""
    if value is True or value is False or value is UNDEFINED:
        return value
    if type(value) is ErrorValue:
        return value
    return _ERR_LOGIC


def _build_and(left_fn, left_const, right_fn, right_const):
    if left_const is not _NOT_CONST:
        left_logic = _logic(left_const)
        if left_logic is False:
            return (lambda state: False), False
        if left_logic is True:

            def fn(state):
                return _logic(right_fn(state))

        else:  # undefined or error on the left

            def fn(state):
                right = _logic(right_fn(state))
                if right is False:
                    return False
                if type(left_logic) is ErrorValue:
                    return left_logic
                if type(right) is ErrorValue:
                    return right
                return UNDEFINED

    else:

        def fn(state):
            left = _logic(left_fn(state))
            if left is False:
                return False
            right = _logic(right_fn(state))
            if right is False:
                return False
            if type(left) is ErrorValue:
                return left
            if type(right) is ErrorValue:
                return right
            if left is UNDEFINED or right is UNDEFINED:
                return UNDEFINED
            return True

    if left_const is not _NOT_CONST and right_const is not _NOT_CONST:
        return _fold(fn)
    return fn, _NOT_CONST


def _build_or(left_fn, left_const, right_fn, right_const):
    if left_const is not _NOT_CONST:
        left_logic = _logic(left_const)
        if left_logic is True:
            return (lambda state: True), True
        if left_logic is False:

            def fn(state):
                return _logic(right_fn(state))

        else:

            def fn(state):
                right = _logic(right_fn(state))
                if right is True:
                    return True
                if type(left_logic) is ErrorValue:
                    return left_logic
                if type(right) is ErrorValue:
                    return right
                return UNDEFINED

    else:

        def fn(state):
            left = _logic(left_fn(state))
            if left is True:
                return True
            right = _logic(right_fn(state))
            if right is True:
                return True
            if type(left) is ErrorValue:
                return left
            if type(right) is ErrorValue:
                return right
            if left is UNDEFINED or right is UNDEFINED:
                return UNDEFINED
            return False

    if left_const is not _NOT_CONST and right_const is not _NOT_CONST:
        return _fold(fn)
    return fn, _NOT_CONST


def _build_binary(expr: BinaryOp):
    op = expr.op
    left_fn, left_const = _build(expr.left)
    right_fn, right_const = _build(expr.right)
    both_const = left_const is not _NOT_CONST and right_const is not _NOT_CONST

    if op == "&&":
        return _build_and(left_fn, left_const, right_fn, right_const)
    if op == "||":
        return _build_or(left_fn, left_const, right_fn, right_const)

    if op == "is":

        def fn(state):
            return values_identical(left_fn(state), right_fn(state))

    elif op == "isnt":

        def fn(state):
            return not values_identical(left_fn(state), right_fn(state))

    elif op in _COMPARISONS:
        compare = _COMPARISONS[op]
        if right_const is not _NOT_CONST and type(right_const) is str:
            # The dominant matchmaking shape: attr <cmp> "constant".
            lowered = right_const.lower()

            def fn(state):
                left = left_fn(state)
                if type(left) is str:
                    return compare(left.lower(), lowered)
                if type(left) is ErrorValue:
                    return left
                if left is UNDEFINED:
                    return UNDEFINED
                return _ERR_CMP  # string vs non-string never compares

        else:

            def fn(state):
                left = left_fn(state)
                right = right_fn(state)
                if type(left) is ErrorValue:
                    return left
                if type(right) is ErrorValue:
                    return right
                if left is UNDEFINED or right is UNDEFINED:
                    return UNDEFINED
                if type(left) is str and type(right) is str:
                    return compare(left.lower(), right.lower())
                if type(left) is bool:
                    left = 1 if left else 0
                elif type(left) is not int and type(left) is not float:
                    return _ERR_CMP
                if type(right) is bool:
                    right = 1 if right else 0
                elif type(right) is not int and type(right) is not float:
                    return _ERR_CMP
                return compare(left, right)

    else:  # arithmetic (+ - * / %) and anything unknown: share _arith

        def fn(state):
            left = left_fn(state)
            right = right_fn(state)
            if type(left) is ErrorValue:
                return left
            if type(right) is ErrorValue:
                return right
            if left is UNDEFINED or right is UNDEFINED:
                return UNDEFINED
            return _arith(op, left, right)

    if both_const:
        return _fold(fn)
    return fn, _NOT_CONST


def _build_conditional(expr: Conditional):
    cond_fn, cond_const = _build(expr.cond)
    then_fn, then_const = _build(expr.then)
    else_fn, else_const = _build(expr.otherwise)

    if cond_const is not _NOT_CONST:
        # The guard is known now: the dead branch is dropped entirely.
        if cond_const is True:
            return then_fn, then_const
        if cond_const is False:
            return else_fn, else_const
        if cond_const is UNDEFINED:
            return (lambda state: UNDEFINED), UNDEFINED
        if type(cond_const) is ErrorValue:
            value = cond_const
            return (lambda state: value), value
        return (lambda state: _ERR_GUARD), _ERR_GUARD

    def fn(state):
        cond = cond_fn(state)
        if cond is True:
            return then_fn(state)
        if cond is False:
            return else_fn(state)
        if cond is UNDEFINED:
            return UNDEFINED
        if type(cond) is ErrorValue:
            return cond
        return _ERR_GUARD

    return fn, _NOT_CONST


def _build_list(expr: ListExpr):
    built = [_build(item) for item in expr.items]
    fns = [fn for fn, _ in built]
    if all(const is not _NOT_CONST for _, const in built):
        values = [const for _, const in built]
        # Fresh list per evaluation, like the interpreter (callers may
        # treat evaluated lists as their own).
        return (lambda state: values.copy()), _NOT_CONST

    def fn(state):
        return [item_fn(state) for item_fn in fns]

    return fn, _NOT_CONST


def _build_record(expr: RecordExpr):
    # A record constructor yields a *fresh* mutable ad per evaluation;
    # never folded.
    def fn(state):
        return ClassAd.from_record(expr)

    return fn, _NOT_CONST


def _build_select(expr: Select):
    base_fn, base_const = _build(expr.base)
    name = expr.canonical

    def fn(state):
        base = base_fn(state)
        if base is UNDEFINED:
            return UNDEFINED
        if type(base) is ErrorValue:
            return base
        if not isinstance(base, ClassAd):
            return ErrorValue(f"cannot select attribute of {type(base).__name__}")
        bound = base._fields.get(name)
        if bound is None:
            return UNDEFINED
        if type(bound) is Literal:
            return bound.value
        # Nested-record scoping: join the lexical chain and let the
        # interpreter resolve, exactly as the reference semantics do.
        state.scopes.append(base)
        try:
            return _interp._resolve_found(bound, base, name, state)
        finally:
            state.scopes.pop()

    if base_const is not _NOT_CONST:
        # A constant base is never a ClassAd (records don't fold), so
        # this can only fold to undefined/error — still worth folding.
        return _fold(fn)
    return fn, _NOT_CONST


def _build_subscript(expr: Subscript):
    base_fn, base_const = _build(expr.base)
    index_fn, index_const = _build(expr.index)

    def fn(state):
        base = base_fn(state)
        index = index_fn(state)
        if type(base) is ErrorValue:
            return base
        if type(index) is ErrorValue:
            return index
        if base is UNDEFINED or index is UNDEFINED:
            return UNDEFINED
        if type(base) is not list:
            return _ERR_SUB_LIST
        if type(index) is not int:
            return _ERR_SUB_INT
        if 0 <= index < len(base):
            return base[index]
        return ErrorValue(f"subscript {index} out of range (list of {len(base)})")

    if base_const is not _NOT_CONST and index_const is not _NOT_CONST:
        return _fold(fn)
    return fn, _NOT_CONST


def _build_call(expr: FunctionCall):
    name = expr.canonical
    if name == "ifthenelse":
        if len(expr.args) != 3:
            reason = ErrorValue("ifThenElse expects 3 arguments")
            return (lambda state: reason), reason
        return _build_conditional(
            Conditional(expr.args[0], expr.args[1], expr.args[2])
        )
    builtin = BUILTINS.get(name)
    if builtin is None:
        reason = ErrorValue(f"unknown function {expr.name!r}")
        return (lambda state: reason), reason

    built = [_build(arg) for arg in expr.args]
    fns = [fn for fn, _ in built]

    def fn(state):
        return builtin([arg_fn(state) for arg_fn in fns])

    if is_pure(name) and all(const is not _NOT_CONST for _, const in built):
        return _fold(fn)  # a pure call of constants is a constant
    return fn, _NOT_CONST


_BUILDERS = {
    Literal: _build_literal,
    AttributeRef: _build_ref,
    UnaryOp: _build_unary,
    BinaryOp: _build_binary,
    Conditional: _build_conditional,
    ListExpr: _build_list,
    RecordExpr: _build_record,
    Select: _build_select,
    Subscript: _build_subscript,
    FunctionCall: _build_call,
}


# ---------------------------------------------------------------------------
# entry points


def _run_compiled(compiled: _Compiled, self_ad, other, max_steps, max_depth, seed_key=None):
    state = _EvalState(self_ad, other, max_steps, max_depth)
    state.steps = compiled.size
    if seed_key is not None:
        state.in_progress.add(seed_key)
    try:
        result = compiled.fn(state)
    except RecursionError:
        # Pathological resolution chains bottom out in the Python stack
        # before the (conservatively charged) budget does; stay total.
        result = ErrorValue("evaluation depth budget exceeded")
    if _metrics.enabled:
        _interp._note_evaluation(state.steps)
    return result


def evaluate(
    expr: Expr,
    self_ad: Optional[ClassAd] = None,
    other: Optional[ClassAd] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_depth: int = DEFAULT_MAX_DEPTH,
):
    """Compiled twin of :func:`repro.classads.evaluator.evaluate`.

    Falls back to the interpreter when compilation is disabled, refused,
    or the compiled static charges don't fit the caller's budgets.
    """
    if not _ENABLED:
        return _interp.evaluate(expr, self_ad, other, max_steps, max_depth)
    compiled = _memo_compile(expr)
    if compiled is None or compiled.size > max_steps or compiled.depth >= max_depth:
        return _interp.evaluate(expr, self_ad, other, max_steps, max_depth)
    return _run_compiled(compiled, self_ad, other, max_steps, max_depth)


def evaluate_attribute(
    ad: ClassAd,
    name: str,
    other: Optional[ClassAd] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_depth: int = DEFAULT_MAX_DEPTH,
):
    """Compiled twin of :func:`repro.classads.evaluator.evaluate_attribute`.

    This is the negotiation hot path: ``Constraint``/``Rank`` compile
    once per ad, and every later (request, provider) pairing reuses the
    cached closure.
    """
    if not _ENABLED:
        return _interp.evaluate_attribute(ad, name, other, max_steps, max_depth)
    canonical = name.lower()
    expr = ad._fields.get(canonical)
    if expr is None:
        return UNDEFINED
    kind = type(expr)
    if kind is Literal:
        if _metrics.enabled:
            _interp._note_evaluation(1)
        return expr.value
    if kind is RecordExpr:
        # What _build_record's code returns, without a memo entry per
        # distinct record (every claim's AuthTicket is one).
        if _metrics.enabled:
            _interp._note_evaluation(1)
        return ClassAd.from_record(expr)
    compiled = _compiled_for(ad, canonical, expr)
    if compiled is None or compiled.size > max_steps or compiled.depth >= max_depth:
        return _interp.evaluate_attribute(ad, name, other, max_steps, max_depth)
    return _run_compiled(
        compiled, ad, other, max_steps, max_depth, seed_key=(id(ad), canonical)
    )


class CompiledExpr:
    """A detached expression compiled once, for evaluation against many ads.

    ``query.select`` compiles its constraint once and probes the whole
    pool with it; this wrapper carries the compiled code (or the
    interpreter fallback when compilation was refused/disabled).
    """

    __slots__ = ("expr", "_compiled")

    def __init__(self, expr: Expr):
        self.expr = expr
        self._compiled = _memo_compile(expr) if _ENABLED else None

    def evaluate(
        self,
        self_ad: Optional[ClassAd] = None,
        other: Optional[ClassAd] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ):
        compiled = self._compiled
        if (
            not _ENABLED
            or compiled is None
            or compiled.size > max_steps
            or compiled.depth >= max_depth
        ):
            return _interp.evaluate(self.expr, self_ad, other, max_steps, max_depth)
        return _run_compiled(compiled, self_ad, other, max_steps, max_depth)


def compile_expr(expr: Expr) -> CompiledExpr:
    """Compile *expr* (memoized); the result is always safe to evaluate."""
    return CompiledExpr(expr)
