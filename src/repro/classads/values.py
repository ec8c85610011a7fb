"""Value domain of the classad language.

Section 3.1 of the paper defines attributes as "simple integer, real, or
string constants, or ... more complicated expressions constructed with
arithmetic and logical operators and record and list constructors", with
two distinguished constants: ``undefined`` (produced by references to
non-existent attributes and propagated by strict operators) and — in the
classic ClassAd realization the paper describes — ``error`` (produced by
type mismatches and other in-language faults).

We represent values as plain Python objects wherever possible:

========================  =========================================
classad type              Python representation
========================  =========================================
Integer                   ``int`` (but not ``bool``)
Real                      ``float``
String                    ``str``
Boolean                   ``bool``
Undefined                 :data:`UNDEFINED` (singleton)
Error                     :class:`ErrorValue` (carries a reason)
List                      ``list`` of values
ClassAd (nested record)   :class:`repro.classads.classad.ClassAd`
========================  =========================================

Using native types keeps the evaluator's hot path allocation-free for the
common case, which matters for the scalability benchmarks (experiment E6):
matching a 5,000-machine pool evaluates hundreds of thousands of
sub-expressions per negotiation cycle.
"""

from __future__ import annotations

from typing import Any, Union


class UndefinedType:
    """The classad ``undefined`` constant.  A singleton: use :data:`UNDEFINED`."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        # Guard against accidental host-side truthiness tests: undefined is
        # neither true nor false, and silently treating it as falsy hides
        # three-valued-logic bugs.  Host code must use is_true()/is_false().
        raise TypeError(
            "undefined has no Python truth value; use classad three-valued "
            "logic helpers (is_true / is_false) instead"
        )

    def __hash__(self) -> int:
        return hash("classad-undefined")

    def __reduce__(self):
        return (UndefinedType, ())


UNDEFINED = UndefinedType()


class ErrorValue:
    """The classad ``error`` constant, carrying a human-readable reason.

    Two error values compare equal regardless of reason (the language has a
    single ``error`` constant; the reason exists only for diagnostics).
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = "error"):
        self.reason = reason

    def __repr__(self) -> str:
        return f"error({self.reason!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ErrorValue)

    def __hash__(self) -> int:
        return hash("classad-error")

    def __bool__(self) -> bool:
        raise TypeError(
            "error has no Python truth value; use classad three-valued "
            "logic helpers (is_true / is_false) instead"
        )


ERROR = ErrorValue()

#: Union of all classad value types (ClassAd joins via duck typing to
#: avoid a circular import; see repro.classads.classad).
Value = Union[int, float, str, bool, UndefinedType, ErrorValue, list]


def is_undefined(v: Any) -> bool:
    """True iff *v* is the classad ``undefined`` constant."""
    return isinstance(v, UndefinedType)


def is_error(v: Any) -> bool:
    """True iff *v* is a classad ``error`` value."""
    return isinstance(v, ErrorValue)


def is_boolean(v: Any) -> bool:
    """True iff *v* is a classad Boolean."""
    return isinstance(v, bool)


def is_integer(v: Any) -> bool:
    """True iff *v* is a classad Integer (excludes Booleans)."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_real(v: Any) -> bool:
    """True iff *v* is a classad Real."""
    return isinstance(v, float)


def is_number(v: Any) -> bool:
    """True iff *v* is an Integer or Real (excludes Booleans)."""
    return is_integer(v) or is_real(v)


def is_string(v: Any) -> bool:
    """True iff *v* is a classad String."""
    return isinstance(v, str)


def is_list(v: Any) -> bool:
    """True iff *v* is a classad List."""
    return isinstance(v, list)


def is_classad(v: Any) -> bool:
    """True iff *v* is a (nested) classad record."""
    from .classad import ClassAd  # local import to break the cycle

    return isinstance(v, ClassAd)


def is_true(v: Any) -> bool:
    """True iff *v* is the Boolean ``true``.

    This is the predicate the matchmaking algorithm uses on ``Constraint``
    values: the paper requires both Constraints to "evaluate to true", and
    "the match fails if the Constraint evaluates to undefined" — so
    undefined, error, and non-Boolean values all yield False here.
    """
    return v is True


def is_false(v: Any) -> bool:
    """True iff *v* is the Boolean ``false``."""
    return v is False


def coerce_to_number(v: Any):
    """Return *v* as an int/float if it is numeric or Boolean, else None.

    Booleans promote to integers (true=1, false=0).  The paper's Figure 1
    relies on this: ``Rank = member(...)*10 + member(...)`` multiplies a
    Boolean by an integer.
    """
    if is_boolean(v):
        return int(v)
    if is_number(v):
        return v
    return None


def rank_value(v: Any) -> float:
    """Map an evaluated Rank expression to its numeric goodness.

    Per Section 3.1: "non-integer values are treated as zero".  Classic
    ClassAds generalize this to "non-numeric"; Booleans promote.
    """
    n = coerce_to_number(v)
    return float(n) if n is not None else 0.0


def literal_key(value: Any) -> tuple:
    """The one identity of a literal value: ``(type, value)``.

    Two literals with equal keys are the same literal to every expression
    that reads them.  The type is part of the key because ``1 == 1.0 ==
    true`` in Python while ``is`` and ``isInteger`` tell them apart; the
    sign of a float zero is (held by its ``repr``), because ``0.0 ==
    -0.0`` while ``string()`` shows it.  Error values are one key
    whatever their reason, as they are one ``error`` to the language.
    """
    kind = type(value)
    if kind is float and value == 0.0:
        return kind, repr(value)
    return kind, value


def values_identical(a: Any, b: Any) -> bool:
    """The ``is`` operator's meta-identity: same type *and* same value.

    Unlike ``==`` this never yields undefined, treats strings
    case-sensitively, and distinguishes 1 from 1.0 and true.
    """
    if is_undefined(a) or is_undefined(b):
        return is_undefined(a) and is_undefined(b)
    if is_error(a) or is_error(b):
        return is_error(a) and is_error(b)
    if is_boolean(a) or is_boolean(b):
        return is_boolean(a) and is_boolean(b) and a == b
    if is_integer(a) or is_integer(b):
        return is_integer(a) and is_integer(b) and a == b
    if is_real(a) or is_real(b):
        return is_real(a) and is_real(b) and a == b
    if is_string(a) or is_string(b):
        return is_string(a) and is_string(b) and a == b
    if is_list(a) or is_list(b):
        return (
            is_list(a)
            and is_list(b)
            and len(a) == len(b)
            and all(values_identical(x, y) for x, y in zip(a, b))
        )
    if is_classad(a) or is_classad(b):
        if not (is_classad(a) and is_classad(b)):
            return False
        # Attribute names are case-insensitive: compare canonical keys.
        if set(a.canonical_keys()) != set(b.canonical_keys()):
            return False
        # Identity over records compares the *expressions* attribute-wise;
        # two ads are identical iff their unevaluated bodies are.
        return all(a.lookup(k) == b.lookup(k) for k in a.canonical_keys())
    return False
