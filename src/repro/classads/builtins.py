"""Built-in function library for the classad language.

The paper's Figure 1 uses ``member(other.Owner, ResearchGroup)``; the rest
of this table follows the classic ClassAd library so realistic Condor-era
policy ads evaluate unmodified.  All functions are *total*: bad arguments
produce the in-language ``error`` value, and (unless documented
otherwise) an ``undefined`` argument yields ``undefined`` — strictness
mirrors the operator semantics.

Type-test predicates (``isUndefined`` etc.) are intentionally non-strict:
their whole purpose is to inspect ``undefined``/``error`` values.

Every function here is also *pure*: its result is a function of its
arguments alone.  The registry records that per name (:data:`PURE`),
because constant folding and the matchmaker's memos are sound only for
pure calls; :func:`register_builtin` adds a function, impure unless said
otherwise.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Set

from .values import (
    ERROR,
    UNDEFINED,
    ErrorValue,
    coerce_to_number,
    is_boolean,
    is_classad,
    is_error,
    is_integer,
    is_list,
    is_number,
    is_real,
    is_string,
    is_undefined,
)

BUILTINS: Dict[str, Callable[[List], object]] = {}
#: Canonical names of the registered functions that are pure: same
#: arguments, same result, no other input.  Only these may be folded.
PURE: Set[str] = set()


def register_builtin(name: str, fn: Callable[[List], object], pure: bool = False) -> None:
    """Register *fn* under the (case-insensitive) *name*; *pure* says
    whether its result depends on its arguments alone."""
    key = name.lower()
    BUILTINS[key] = fn
    if pure:
        PURE.add(key)
    else:
        PURE.discard(key)


def is_pure(name: str) -> bool:
    """Whether a call to the canonical *name* may be folded: a pure
    builtin, or the lazy special form ``ifThenElse``."""
    return name in PURE or name == "ifthenelse"


def _builtin(*names: str):
    """Register a pure function under one or more (case-insensitive) names."""

    def register(fn):
        for name in names:
            register_builtin(name, fn, pure=True)
        return fn

    return register


def _arity_error(name: str, expected: str) -> ErrorValue:
    return ErrorValue(f"{name} expects {expected} argument(s)")


def _strict_guard(args):
    """Return the dominating error/undefined among *args*, or None."""
    for a in args:
        if is_error(a):
            return a
    for a in args:
        if is_undefined(a):
            return UNDEFINED
    return None


# ---------------------------------------------------------------------------
# list functions


@_builtin("member")
def _member(args):
    """member(x, list) — true iff some element of list equals x (== rules)."""
    if len(args) != 2:
        return _arity_error("member", "2")
    item, seq = args
    guard = _strict_guard([item, seq])
    if guard is not None:
        return guard
    if not is_list(seq):
        return ErrorValue("member: second argument is not a list")
    saw_error = False
    for element in seq:
        if is_string(item) and is_string(element):
            if item.lower() == element.lower():
                return True
        else:
            left = coerce_to_number(item)
            right = coerce_to_number(element)
            if left is not None and right is not None:
                if left == right:
                    return True
            else:
                saw_error = True
    if saw_error:
        return ErrorValue("member: incomparable element in list")
    return False


@_builtin("identicalmember")
def _identical_member(args):
    """identicalMember(x, list) — membership under `is` (meta-identity)."""
    from .values import values_identical

    if len(args) != 2:
        return _arity_error("identicalMember", "2")
    item, seq = args
    if is_error(seq):
        return seq
    if is_undefined(seq):
        return UNDEFINED
    if not is_list(seq):
        return ErrorValue("identicalMember: second argument is not a list")
    return any(values_identical(item, element) for element in seq)


@_builtin("size")
def _size(args):
    """size(x) — length of a list, string, or classad."""
    if len(args) != 1:
        return _arity_error("size", "1")
    (value,) = args
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    if is_list(value) or is_string(value):
        return len(value)
    if is_classad(value):
        return len(value)
    return ErrorValue("size: argument has no size")


@_builtin("sum")
def _sum(args):
    """sum(list) — numeric sum; booleans count as 0/1; non-numeric ⇒ error."""
    if len(args) != 1:
        return _arity_error("sum", "1")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    (seq,) = args
    if not is_list(seq):
        return ErrorValue("sum: argument is not a list")
    total = 0
    for element in seq:
        if is_undefined(element):
            return UNDEFINED
        number = coerce_to_number(element)
        if number is None:
            return ErrorValue("sum: non-numeric element")
        total += number
    return total


@_builtin("min")
def _min(args):
    return _fold_extremum("min", args, min)


@_builtin("max")
def _max(args):
    return _fold_extremum("max", args, max)


def _fold_extremum(name, args, fold):
    """min/max over a list argument or over the argument tuple itself."""
    if not args:
        return _arity_error(name, "1 or more")
    values = args[0] if len(args) == 1 and is_list(args[0]) else args
    guard = _strict_guard(list(values))
    if guard is not None:
        return guard
    numbers = []
    for element in values:
        number = coerce_to_number(element)
        if number is None:
            return ErrorValue(f"{name}: non-numeric element")
        numbers.append(number)
    if not numbers:
        return UNDEFINED
    return fold(numbers)


# ---------------------------------------------------------------------------
# string functions


@_builtin("strcat")
def _strcat(args):
    """strcat(s1, s2, ...) — concatenation; numbers/booleans are stringified."""
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    parts = []
    for value in args:
        text = _stringify(value)
        if text is None:
            return ErrorValue("strcat: unprintable argument")
        parts.append(text)
    return "".join(parts)


@_builtin("substr")
def _substr(args):
    """substr(s, offset [, length]) — negative offsets count from the end."""
    if len(args) not in (2, 3):
        return _arity_error("substr", "2 or 3")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    text, offset = args[0], args[1]
    if not is_string(text) or not is_integer(offset):
        return ErrorValue("substr: bad argument types")
    if offset < 0:
        offset = max(0, len(text) + offset)
    if len(args) == 3:
        length = args[2]
        if not is_integer(length):
            return ErrorValue("substr: bad length")
        if length < 0:
            end = max(offset, len(text) + length)
        else:
            end = offset + length
        return text[offset:end]
    return text[offset:]


@_builtin("toupper")
def _toupper(args):
    if len(args) != 1:
        return _arity_error("toUpper", "1")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    if not is_string(args[0]):
        return ErrorValue("toUpper: argument is not a string")
    return args[0].upper()


@_builtin("tolower")
def _tolower(args):
    if len(args) != 1:
        return _arity_error("toLower", "1")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    if not is_string(args[0]):
        return ErrorValue("toLower: argument is not a string")
    return args[0].lower()


@_builtin("regexp")
def _regexp(args):
    """regexp(pattern, target [, options]) — options: "i" case-insensitive."""
    if len(args) not in (2, 3):
        return _arity_error("regexp", "2 or 3")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    pattern, target = args[0], args[1]
    if not is_string(pattern) or not is_string(target):
        return ErrorValue("regexp: arguments must be strings")
    flags = 0
    if len(args) == 3:
        if not is_string(args[2]):
            return ErrorValue("regexp: options must be a string")
        if "i" in args[2].lower():
            flags |= re.IGNORECASE
    try:
        return re.search(pattern, target, flags) is not None
    except re.error:
        return ErrorValue(f"regexp: bad pattern {pattern!r}")


@_builtin("stringlistmember")
def _string_list_member(args):
    """stringListMember(x, "a,b,c" [, delims]) — Condor's string-list test."""
    if len(args) not in (2, 3):
        return _arity_error("stringListMember", "2 or 3")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    item, text = args[0], args[1]
    delims = args[2] if len(args) == 3 else ","
    if not (is_string(item) and is_string(text) and is_string(delims)):
        return ErrorValue("stringListMember: arguments must be strings")
    pattern = "|".join(re.escape(d) for d in delims) or ","
    members = [part.strip() for part in re.split(pattern, text)]
    return item.lower() in (m.lower() for m in members if m)


@_builtin("split")
def _split(args):
    """split(s [, delims]) — tokenize on any of the delimiter chars
    (default whitespace), dropping empty tokens."""
    if len(args) not in (1, 2):
        return _arity_error("split", "1 or 2")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    text = args[0]
    if not is_string(text):
        return ErrorValue("split: first argument must be a string")
    if len(args) == 2:
        delims = args[1]
        if not is_string(delims) or not delims:
            return ErrorValue("split: delimiters must be a non-empty string")
        pattern = "|".join(re.escape(d) for d in delims)
        parts = re.split(pattern, text)
    else:
        parts = text.split()
    return [part for part in parts if part]


@_builtin("join")
def _join(args):
    """join(sep, list) or join(sep, s1, s2, ...) — concatenate with *sep*."""
    if len(args) < 2:
        return _arity_error("join", "2 or more")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    sep = args[0]
    if not is_string(sep):
        return ErrorValue("join: separator must be a string")
    items = args[1] if len(args) == 2 and is_list(args[1]) else args[1:]
    parts = []
    for item in items:
        if is_undefined(item):
            return UNDEFINED
        text = _stringify(item)
        if text is None:
            return ErrorValue("join: unprintable element")
        parts.append(text)
    return sep.join(parts)


def _stringify(value):
    if is_string(value):
        return value
    if is_boolean(value):
        return "true" if value else "false"
    if is_integer(value):
        return str(value)
    if is_real(value):
        return repr(value)
    return None


# ---------------------------------------------------------------------------
# numeric functions


@_builtin("int")
def _int(args):
    if len(args) != 1:
        return _arity_error("int", "1")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    (value,) = args
    if is_string(value):
        try:
            return int(float(value.strip()))
        except ValueError:
            return ErrorValue(f"int: cannot convert {value!r}")
    number = coerce_to_number(value)
    if number is None:
        return ErrorValue("int: non-numeric argument")
    return int(number)


@_builtin("real")
def _real(args):
    if len(args) != 1:
        return _arity_error("real", "1")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    (value,) = args
    if is_string(value):
        try:
            return float(value.strip())
        except ValueError:
            return ErrorValue(f"real: cannot convert {value!r}")
    number = coerce_to_number(value)
    if number is None:
        return ErrorValue("real: non-numeric argument")
    return float(number)


@_builtin("string")
def _string(args):
    if len(args) != 1:
        return _arity_error("string", "1")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    text = _stringify(args[0])
    if text is None:
        return ErrorValue("string: unprintable argument")
    return text


@_builtin("floor")
def _floor(args):
    return _rounding("floor", args, math.floor)


@_builtin("ceiling")
def _ceiling(args):
    return _rounding("ceiling", args, math.ceil)


@_builtin("round")
def _round(args):
    # Classic round() rounds half away from zero, unlike Python's banker's
    # rounding; policy expressions written for Condor expect that.
    return _rounding("round", args, lambda x: int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5)))


def _rounding(name, args, fn):
    if len(args) != 1:
        return _arity_error(name, "1")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    number = coerce_to_number(args[0])
    if number is None:
        return ErrorValue(f"{name}: non-numeric argument")
    return int(fn(number))


@_builtin("abs")
def _abs(args):
    if len(args) != 1:
        return _arity_error("abs", "1")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    number = coerce_to_number(args[0])
    if number is None:
        return ErrorValue("abs: non-numeric argument")
    return abs(number)


@_builtin("pow")
def _pow(args):
    if len(args) != 2:
        return _arity_error("pow", "2")
    guard = _strict_guard(args)
    if guard is not None:
        return guard
    base, exponent = (coerce_to_number(a) for a in args)
    if base is None or exponent is None:
        return ErrorValue("pow: non-numeric argument")
    try:
        result = base**exponent
    except (OverflowError, ZeroDivisionError):
        return ErrorValue("pow: domain error")
    if isinstance(result, complex):
        return ErrorValue("pow: domain error")
    return result


# ---------------------------------------------------------------------------
# type predicates (non-strict by design)


@_builtin("isundefined")
def _is_undefined(args):
    if len(args) != 1:
        return _arity_error("isUndefined", "1")
    return is_undefined(args[0])


@_builtin("iserror")
def _is_error(args):
    if len(args) != 1:
        return _arity_error("isError", "1")
    return is_error(args[0])


@_builtin("isstring")
def _is_string(args):
    if len(args) != 1:
        return _arity_error("isString", "1")
    return is_string(args[0])


@_builtin("isinteger")
def _is_integer(args):
    if len(args) != 1:
        return _arity_error("isInteger", "1")
    return is_integer(args[0])


@_builtin("isreal")
def _is_real(args):
    if len(args) != 1:
        return _arity_error("isReal", "1")
    return is_real(args[0])


@_builtin("isboolean")
def _is_boolean(args):
    if len(args) != 1:
        return _arity_error("isBoolean", "1")
    return is_boolean(args[0])


@_builtin("islist")
def _is_list(args):
    if len(args) != 1:
        return _arity_error("isList", "1")
    return is_list(args[0])


@_builtin("isclassad")
def _is_classad(args):
    if len(args) != 1:
        return _arity_error("isClassAd", "1")
    return is_classad(args[0])
