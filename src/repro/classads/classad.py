"""The ClassAd container: "a mapping from attribute names to expressions".

This is the paper's central data structure (Section 3.1).  A ClassAd
behaves as an ordered, case-insensitive mapping whose values are
unevaluated :class:`~repro.classads.ast.Expr` nodes; evaluation happens
lazily, in an environment that may pair the ad with a candidate ("other")
ad — see :mod:`repro.classads.evaluator`.

Ads are mutable (agents update ``State``, ``LoadAvg`` etc. between
advertisements) and therefore unhashable, like ``dict``; the collector
and matchmaker key their stores by advertised name instead.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .ast import Expr, Literal, ListExpr, RecordExpr
from .values import (
    UNDEFINED,
    ErrorValue,
    UndefinedType,
    is_classad,
)


#: The exact classes of a plain scalar: most of what agents bind when
#: they build or refresh an ad, so they are recognised first and by
#: class identity (subclasses take the isinstance route below).
_SCALAR_CLASSES = frozenset({bool, int, float, str})


def _value_to_expr(value: Any) -> Expr:
    """Convert a Python value (or Expr) to an expression node.

    Accepted: Expr (passed through), int/float/str/bool/undefined/error
    literals, lists (recursively), ClassAds and dicts (to nested records).
    Strings are treated as literal strings, *not* parsed — use
    :meth:`ClassAd.set_expr` or the parser for expression-valued strings.
    """
    if type(value) in _SCALAR_CLASSES:
        return Literal(value)
    if isinstance(value, Expr):
        return value
    if isinstance(value, (bool, int, float, str, UndefinedType, ErrorValue)):
        return Literal(value)
    if value is None:
        return Literal(UNDEFINED)
    if isinstance(value, (list, tuple)):
        return ListExpr([_value_to_expr(v) for v in value])
    if isinstance(value, ClassAd):
        return RecordExpr(list(value.items()))
    if isinstance(value, Mapping):
        return RecordExpr([(k, _value_to_expr(v)) for k, v in value.items()])
    raise TypeError(f"cannot convert {type(value).__name__} to a classad expression")


# The compiled evaluator and the parser import this module, so their entry
# points are bound here on first use; after that ``evaluate``/``eval_expr``
# pay a global lookup per call instead of a trip through the import system.
_evaluate_attribute = None
_evaluate = None
_parse = None


def _bind_compiled() -> None:
    global _evaluate_attribute, _evaluate, _parse
    from .compile import evaluate, evaluate_attribute
    from .parser import parse

    _evaluate_attribute, _evaluate, _parse = evaluate_attribute, evaluate, parse


class ClassAd:
    """An ordered, case-insensitive mapping from attribute names to expressions.

    Construction accepts any mix of expressions and plain Python values::

        ad = ClassAd({"Type": "Machine", "Memory": 64})
        ad["Rank"] = parse("other.Memory / 32")

    Key operations:

    * ``ad[name]`` / ``ad.lookup(name)`` — the bound *expression*
      (``lookup`` returns None when absent; ``[]`` raises KeyError).
    * ``ad.evaluate(name, other=...)`` — evaluate an attribute in a match
      environment (delegates to the evaluator).
    * Insertion order is preserved for faithful unparsing.
    """

    __slots__ = ("_fields", "_names", "_ccache", "_fpcache", "_derived")

    def __init__(self, fields: Union[None, Mapping, Iterable[Tuple[str, Any]]] = None):
        # _fields maps canonical (lowercase) name -> Expr;
        # _names maps canonical name -> original spelling, in insert order.
        # _ccache lazily maps canonical name -> (Expr, compiled closure);
        # owned by repro.classads.compile, entries validated by expression
        # identity and dropped on rebinding.
        # _fpcache is owned by repro.classads.fingerprint: serialized
        # per-attribute payloads, content fingerprints, and the wire-size
        # estimate, all dropped wholesale on any mutation.
        # _derived is owned by repro.matchmaking.matchmaker: the shape of
        # this ad's self keys (what its Constraint and Rank read of itself
        # and of the other ad), which depends on which names are bound and
        # to which expressions, never on literal values.  Dropped here by
        # every other mutation; one literal replacing another — the
        # in-place volatile-attribute updates of a refresh — leaves it
        # standing.
        self._fields: Dict[str, Expr] = {}
        self._names: Dict[str, str] = {}
        self._ccache: Optional[dict] = None
        self._fpcache: Optional[dict] = None
        self._derived: Optional[tuple] = None
        if fields is not None:
            self.update(fields)

    # -- mapping protocol ----------------------------------------------

    def __setitem__(self, name: str, value: Any) -> None:
        key = name.lower()
        if key not in self._names:
            self._names[key] = name
        expr = _value_to_expr(value)
        if self._derived is not None and (
            type(expr) is not Literal or type(self._fields.get(key)) is not Literal
        ):
            self._derived = None
        self._fields[key] = expr
        if self._ccache is not None:
            self._ccache.pop(key, None)
        self._fpcache = None

    def __getitem__(self, name: str) -> Expr:
        expr = self._fields.get(name.lower())
        if expr is None:
            raise KeyError(name)
        return expr

    def __delitem__(self, name: str) -> None:
        key = name.lower()
        if key not in self._fields:
            raise KeyError(name)
        del self._fields[key]
        del self._names[key]
        self._derived = None
        if self._ccache is not None:
            self._ccache.pop(key, None)
        self._fpcache = None

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._fields

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names.values())

    def keys(self) -> List[str]:
        """Attribute names in insertion order, original spelling."""
        return list(self._names.values())

    def canonical_keys(self) -> List[str]:
        """Attribute names in insertion order, lower-cased."""
        return list(self._names.keys())

    def items(self) -> List[Tuple[str, Expr]]:
        """(name, expression) pairs in insertion order."""
        return [(self._names[k], self._fields[k]) for k in self._names]

    def lookup(self, name: str) -> Optional[Expr]:
        """The expression bound to *name*, or None if absent."""
        return self._fields.get(name.lower())

    def bindings(self) -> Mapping[str, Expr]:
        """The live canonical-name -> expression mapping, not a copy: for
        callers that read many attributes of one ad (the matchmaker's
        view keys and memo validation).  Read-only by contract — writes
        must go through the mapping protocol, which maintains the caches.
        """
        return self._fields

    def set_expr(self, name: str, source: str) -> None:
        """Bind *name* to the expression parsed from *source*."""
        from .parser import parse

        self[name] = parse(source)

    def update(self, other: Union[Mapping, "ClassAd", Iterable[Tuple[str, Any]]]) -> None:
        """Merge *other* (a mapping, an ad or ``(name, value)`` pairs) by
        ``__setitem__``'s rules, dropping the caches once per batch."""
        items = other.items() if hasattr(other, "items") else other
        names, fields, ccache = self._names, self._fields, self._ccache
        keep_derived = self._derived is not None
        for name, value in items:
            key = name.lower()
            names.setdefault(key, name)
            expr = Literal(value) if type(value) in _SCALAR_CLASSES else _value_to_expr(value)
            if keep_derived and (type(expr) is not Literal or type(fields.get(key)) is not Literal):
                keep_derived = False
            fields[key] = expr
            if ccache is not None:
                ccache.pop(key, None)
        if not keep_derived:
            self._derived = None
        self._fpcache = None

    def copy(self, bind: Iterable[Tuple[str, Any]] = ()) -> "ClassAd":
        """A shallow copy (expressions are immutable and shared), with
        order and spelling kept and every cache starting empty, and then
        each ``(name, value)`` of *bind* bound by ``__setitem__``'s rules."""
        ad = ClassAd()
        ad._fields = fields = self._fields.copy()
        ad._names = names = self._names.copy()
        for name, value in bind:
            key = name.lower()
            names.setdefault(key, name)
            fields[key] = Literal(value) if type(value) in _SCALAR_CLASSES else _value_to_expr(value)
        return ad

    # -- evaluation ------------------------------------------------------

    def evaluate(self, name: str, other: Optional["ClassAd"] = None, **kwargs):
        """Evaluate attribute *name* with this ad as ``self``.

        Returns ``undefined`` when the attribute is absent, mirroring the
        language rule for dangling references.

        Served by the closure-compiled evaluator (:mod:`.compile`) with
        the tree-walking interpreter as fallback and kill-switch
        (``REPRO_NO_COMPILE=1``).
        """
        if _evaluate_attribute is None:
            _bind_compiled()
        return _evaluate_attribute(self, name, other=other, **kwargs)

    def eval_expr(self, source_or_expr, other: Optional["ClassAd"] = None, **kwargs):
        """Evaluate an expression (source text or Expr) against this ad."""
        if _evaluate is None:
            _bind_compiled()
        expr = (
            _parse(source_or_expr)
            if isinstance(source_or_expr, str)
            else source_or_expr
        )
        return _evaluate(expr, self, other=other, **kwargs)

    # -- conversion ------------------------------------------------------

    def to_record(self) -> RecordExpr:
        """This ad as a RecordExpr node (for nesting inside other ads)."""
        return RecordExpr(self.items())

    @classmethod
    def from_record(cls, record: RecordExpr) -> "ClassAd":
        """Build an ad from a parsed record expression."""
        return cls(record.fields)

    @classmethod
    def parse(cls, text: str) -> "ClassAd":
        """Parse classad source text (``[...]`` brackets optional)."""
        from .parser import parse_record

        return cls.from_record(parse_record(text))

    def __str__(self) -> str:
        from .unparse import unparse_classad

        return unparse_classad(self)

    def __repr__(self) -> str:
        head = ", ".join(self.keys()[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"<ClassAd [{head}{suffix}] ({len(self)} attrs)>"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same attributes bound to equal expressions.

        Attribute *order* is ignored (two agents advertising the same
        state in different orders describe the same entity); name case is
        ignored per the language rules.
        """
        if not is_classad(other):
            return NotImplemented
        if self._fields.keys() != other._fields.keys():  # type: ignore[attr-defined]
            return False
        return all(
            self._fields[k] == other._fields[k]  # type: ignore[attr-defined]
            for k in self._fields
        )

    __hash__ = None  # type: ignore[assignment]  # mutable: unhashable like dict
