"""Abstract syntax tree for classad expressions.

Expressions are immutable and hashable so they can be shared freely
between ads (the workload generators build thousands of machine ads that
share policy expressions) and used as dict keys by the aggregation engine
(experiment E7 clusters ads by their expression *structure*).

Node equality is structural, which gives us:

* cheap ad-identity checks for the ``is`` operator on nested ads,
* structural signatures for group matching (S21),
* parse∘unparse round-trip property tests (``parse(unparse(e)) == e``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from .values import ERROR, UNDEFINED, ErrorValue, UndefinedType

LiteralValue = Union[int, float, str, bool, UndefinedType, ErrorValue]


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .unparse import unparse

        return f"<Expr {unparse(self)}>"


@dataclass(frozen=True, repr=False)
class Literal(Expr):
    """A constant: integer, real, string, boolean, undefined, or error."""

    __slots__ = ("value",)
    value: LiteralValue


#: Shared literal nodes for the distinguished constants.
UNDEFINED_LITERAL = Literal(UNDEFINED)
ERROR_LITERAL = Literal(ERROR)
TRUE_LITERAL = Literal(True)
FALSE_LITERAL = Literal(False)


@dataclass(frozen=True, repr=False)
class AttributeRef(Expr):
    """A reference to an attribute by name.

    ``scope`` distinguishes the three reference forms of Section 3.1:

    * ``None`` — a bare name like ``Memory``; "the evaluation mechanism
      assumes the self prefix", resolving lexically through enclosing
      nested ads and finally the root ad of this side of the match.
    * ``"self"`` — ``self.Memory``: the root ad containing the reference.
    * ``"other"`` — ``other.Memory``: the root ad of the candidate ad.

    Names are case-preserving but the language is case-insensitive, so
    ``canonical`` (lower-cased) is what resolution uses.
    """

    __slots__ = ("name", "scope", "canonical")
    name: str
    scope: Union[str, None]
    canonical: str

    def __init__(self, name: str, scope: Union[str, None] = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "canonical", name.lower())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AttributeRef)
            and self.canonical == other.canonical
            and self.scope == other.scope
        )

    def __hash__(self) -> int:
        return hash((AttributeRef, self.canonical, self.scope))


@dataclass(frozen=True, repr=False)
class UnaryOp(Expr):
    """Unary operator application: ``-``, ``+``, ``!``."""

    __slots__ = ("op", "operand")
    op: str
    operand: Expr


@dataclass(frozen=True, repr=False)
class BinaryOp(Expr):
    """Binary operator application.

    ``op`` is one of: ``+ - * / % < <= > >= == != && || is isnt``.
    """

    __slots__ = ("op", "left", "right")
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Conditional(Expr):
    """The ternary ``cond ? then : else`` operator."""

    __slots__ = ("cond", "then", "otherwise")
    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass(frozen=True, repr=False)
class ListExpr(Expr):
    """A list constructor ``{ e1, e2, ... }``."""

    __slots__ = ("items",)
    items: Tuple[Expr, ...]

    def __init__(self, items):
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True, repr=False)
class RecordExpr(Expr):
    """A nested classad constructor ``[ name = expr ; ... ]``.

    Classads are first-class in the model ("They can be arbitrarily
    nested, leading to a natural language for expressing resource
    aggregates or co-allocation requests" — Section 3.1), so a record is
    an ordinary expression node.  Attribute order is preserved for
    faithful unparse; lookup is case-insensitive.
    """

    __slots__ = ("fields", "_index")
    fields: Tuple[Tuple[str, Expr], ...]

    def __init__(self, fields):
        object.__setattr__(self, "fields", tuple(fields))
        object.__setattr__(
            self, "_index", {name.lower(): expr for name, expr in fields}
        )

    def lookup(self, name: str):
        """Return the expression bound to *name* (case-insensitive) or None."""
        return self._index.get(name.lower())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordExpr):
            return NotImplemented
        if len(self.fields) != len(other.fields):
            return False
        return all(
            a[0].lower() == b[0].lower() and a[1] == b[1]
            for a, b in zip(self.fields, other.fields)
        )

    def __hash__(self) -> int:
        return hash(
            (RecordExpr, tuple((n.lower(), e) for n, e in self.fields))
        )


@dataclass(frozen=True, repr=False)
class Select(Expr):
    """Attribute selection on an expression: ``expr.Attr``.

    Distinct from :class:`AttributeRef`: the base is a general expression
    (typically a nested ad), e.g. ``cpu.Mips`` where ``cpu`` names a
    record-valued attribute.
    """

    __slots__ = ("base", "attr", "canonical")
    base: Expr
    attr: str
    canonical: str

    def __init__(self, base: Expr, attr: str):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "attr", attr)
        object.__setattr__(self, "canonical", attr.lower())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Select)
            and self.base == other.base
            and self.canonical == other.canonical
        )

    def __hash__(self) -> int:
        return hash((Select, self.base, self.canonical))


@dataclass(frozen=True, repr=False)
class Subscript(Expr):
    """List indexing: ``expr[index]`` (0-based)."""

    __slots__ = ("base", "index")
    base: Expr
    index: Expr


@dataclass(frozen=True, repr=False)
class FunctionCall(Expr):
    """A built-in function call ``name(arg, ...)``.

    Function names are case-insensitive; resolution against the builtin
    table happens at evaluation time so unknown functions evaluate to
    ``error`` rather than failing the parse (ads from newer agents must
    degrade gracefully on older matchmakers — the evolvability argument
    of Section 1).
    """

    __slots__ = ("name", "args", "canonical")
    name: str
    args: Tuple[Expr, ...]
    canonical: str

    def __init__(self, name: str, args):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "canonical", name.lower())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionCall)
            and self.canonical == other.canonical
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return hash((FunctionCall, self.canonical, self.args))


def children(expr: Expr) -> Tuple[Expr, ...]:
    """The direct sub-expressions of *expr*, left to right (a record's
    field expressions included)."""
    kind = type(expr)
    if kind is Literal or kind is AttributeRef:
        return ()
    if kind is BinaryOp:
        return (expr.left, expr.right)
    if kind is UnaryOp:
        return (expr.operand,)
    if kind is Conditional:
        return (expr.cond, expr.then, expr.otherwise)
    if kind is ListExpr:
        return expr.items
    if kind is RecordExpr:
        return tuple(e for _, e in expr.fields)
    if kind is Select:
        return (expr.base,)
    if kind is Subscript:
        return (expr.base, expr.index)
    if kind is FunctionCall:
        return expr.args
    return ()


def walk(expr: Expr):
    """Yield *expr* and every sub-expression, pre-order.

    Used by the diagnostics engine (S22) to decompose Constraints into
    clauses and by the index builder (S7) to extract indexable predicates.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def external_references(expr: Expr):
    """Return the set of canonical attribute names *expr* references.

    Scoped references are reported as ``("self", name)`` / ``("other",
    name)``; bare names as ``(None, name)``.  Select chains rooted at a
    reference report only the root.
    """
    refs = set()
    for node in walk(expr):
        if isinstance(node, AttributeRef):
            refs.add((node.scope, node.canonical))
    return refs
