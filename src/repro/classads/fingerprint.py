"""Content fingerprints over the classad wire form.

The advertising fast path (PR 8) needs a cheap, stable answer to "is
this ad the same one I sent last period?" — Robinson & DeWitt's
database framing of the pool makes re-advertisement a no-op update, and
no-op updates are detected by content hashing.  The fingerprint here is
a :mod:`blake2b` digest over the :mod:`repro.classads.serialize` wire
form, canonicalized so that it respects the language's equality rules
at the top level:

* top-level attribute *order* is ignored (payloads are hashed in sorted
  canonical-name order);
* top-level attribute name *case* is ignored (canonical names are the
  lower-cased spellings);
* everything below the top level rides through the serializer verbatim,
  so nested structure, expression shape, and literal *types* all count
  — the fingerprint is strictly finer than ``ClassAd.__eq__`` (which
  conflates ``3``, ``3.0`` and ``true``).  Finer is the safe direction:
  a spurious difference costs one full advertisement, never a wrong
  skip.

``exclude`` names attributes whose *values* are left out of the hash
(the advertising protocol's volatile attributes — ``LoadAvg``,
``KeyboardIdle``, ``DayTime``, ``AdvertisedAt`` — which change every
period by construction and ride the compact ``Refresh`` message
instead).  Excluded attributes still contribute their *presence*: an ad
that drops a volatile attribute fingerprints differently from one that
carries it, so the refresh fast path can never mask an attribute
appearing or disappearing.

All derived forms (per-attribute payload strings, digests per exclusion
set, the wire-size estimate) are cached on the ad itself (the
``_fpcache`` slot) and invalidated wholesale by any mutation, so the
serialization cost is paid once per distinct ad content.

The payload of one expression is by definition
``json.dumps(_expr_to_json(expr), separators=(",", ":"))``;
:func:`_payload` writes the common shapes (plain scalars, lists of
them, shared policy expressions) directly, byte for byte the same, and
leaves everything else to that definition.
"""

from __future__ import annotations

import json
from hashlib import blake2b
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Dict, FrozenSet, Iterable, Sequence

from .ast import Expr, ListExpr, Literal, RecordExpr
from .classad import ClassAd
from .serialize import _expr_to_json
from .unparse import unparse
from .values import ErrorValue, literal_key

_NO_EXCLUDE: FrozenSet[str] = frozenset()

#: Marker hashed in place of an excluded attribute's payload.  It can
#: never collide with a real payload (JSON strings cannot contain a
#: raw NUL) so presence-without-value is unambiguous.
_VOLATILE_MARKER = "\x00volatile"

#: Identity-first memo of operator-expression payloads: ``id(expr)`` ->
#: (expr, payload).  Agents bind one shared expression object per policy
#: source text into every ad they build, so the unparse behind a
#: ``$expr`` payload is paid once per policy, not once per ad.  The
#: entry holds the expression, so its id cannot be reused while the
#: entry lives; kept small because that also keeps dead ads'
#: expressions alive.
_EXPR_PAYLOADS: Dict[int, tuple] = {}
_EXPR_PAYLOADS_LIMIT = 512


def _payload(expr: Expr) -> str:
    """The compact-JSON wire payload of one expression."""
    kind = type(expr)
    if kind is Literal:
        value = expr.value
        vkind = type(value)
        # Exact classes only: a subclass may override __repr__/__str__,
        # and the JSON encoder has its own rules for those.
        if vkind is str:
            return _quote(value)
        if vkind is bool:
            return "true" if value else "false"
        if vkind is int or (vkind is float and isfinite(value)):
            return repr(value)
    elif kind is ListExpr:
        return "[" + ",".join(map(_payload, expr.items)) + "]"
    elif not isinstance(expr, (Literal, ListExpr, RecordExpr)):
        entry = _EXPR_PAYLOADS.get(id(expr))
        if entry is not None and entry[0] is expr:
            return entry[1]
        payload = '{"$expr":' + _quote(unparse(expr)) + "}"
        if len(_EXPR_PAYLOADS) >= _EXPR_PAYLOADS_LIMIT:
            _EXPR_PAYLOADS.clear()
        _EXPR_PAYLOADS[id(expr)] = (expr, payload)
        return payload
    return json.dumps(_expr_to_json(expr), separators=(",", ":"))


def _payloads(ad: ClassAd) -> Dict[str, str]:
    """Per-attribute compact-JSON payload strings, canonical-name keyed."""
    cache = ad._fpcache
    if cache is None:
        cache = ad._fpcache = {}
    payloads = cache.get("payloads")
    if payloads is None:
        payloads = cache["payloads"] = {
            key: _payload(expr) for key, expr in ad._fields.items()
        }
    return payloads


def fingerprint(ad: ClassAd, exclude: Iterable[str] = _NO_EXCLUDE) -> str:
    """Stable content hash of *ad*'s wire form.

    ``exclude`` attributes contribute presence but not value (see the
    module docstring).  Cached per (ad, exclusion set); any mutation of
    the ad invalidates the cache.
    """
    if exclude is _NO_EXCLUDE:
        exclude_set = _NO_EXCLUDE
    else:
        exclude_set = frozenset(map(str.lower, exclude))
    payloads = _payloads(ad)
    cache = ad._fpcache
    cache_key = ("fp", exclude_set)
    cached = cache.get(cache_key)
    if cached is not None:
        return cached
    buffer = "".join(
        [
            f"{name}={_VOLATILE_MARKER if name in exclude_set else payloads[name]};"
            for name in sorted(payloads)
        ]
    )
    result = blake2b(buffer.encode("utf-8"), digest_size=16).hexdigest()
    cache[cache_key] = result
    return result


def ad_wire_size(ad: ClassAd) -> int:
    """Estimated serialized size of *ad* in bytes (names + payloads +
    framing), for the network's bytes-on-wire accounting.  Cached with
    the fingerprint payloads."""
    payloads = _payloads(ad)
    cache = ad._fpcache
    size = cache.get("size")
    if size is None:
        size = cache["size"] = 2 + sum(
            len(name) + len(payload) + 4 for name, payload in payloads.items()
        )
    return size


def literal_equal(va: object, vb: object) -> bool:
    """Whether two literal *values* serialize to the same wire payload.

    The one definition of "unchanged" for a plain value, shared by
    :func:`payload_equal` and by senders that compare the values an ad
    is built from instead of the ad (:func:`values_equal`).  Equal
    literal keys (:func:`~repro.classads.values.literal_key`: literal
    types count, ``3`` / ``3.0`` / ``true``, and a float zero keeps its
    sign, as ``-0.0`` travels as ``-0.0``) plus two rules of the wire's
    own: error reasons count, and NaN never equals anything (treated as
    changed, which is conservative).
    """
    if va != va:
        return False
    if type(va) is ErrorValue:
        return type(vb) is ErrorValue and va.reason == vb.reason
    return literal_key(va) == literal_key(vb)


def values_equal(a: Sequence[object], b: Sequence[object]) -> bool:
    """:func:`literal_equal`, pairwise over two equal-length sequences.

    For a sender that keeps the values an ad is built from instead of
    the ad.  An object both sides share needs no comparison — unless it
    is a NaN, which stays "changed" as it would between two ads.
    """
    for va, vb in zip(a, b, strict=True):
        if (va is not vb or va != va) and not literal_equal(va, vb):
            return False
    return True


def payload_equal(a: Expr, b: Expr) -> bool:
    """Whether two expressions serialize to the *same wire payload*.

    This is the sender-side change detector for the refresh fast path:
    it must be exactly as fine as :func:`fingerprint` (which hashes the
    serialized form), so it compares literal types — ``3`` vs ``3.0``
    differs here even though ``==`` conflates them.  Every ``True``
    answer is provable payload equality; anything uncertain answers
    ``False``, which merely costs a full advertisement.
    """
    if a is b:
        return True
    if isinstance(a, Literal):
        return isinstance(b, Literal) and literal_equal(a.value, b.value)
    if isinstance(a, ListExpr):
        if not isinstance(b, ListExpr) or len(a.items) != len(b.items):
            return False
        return all(map(payload_equal, a.items, b.items))
    if isinstance(a, RecordExpr):
        if not isinstance(b, RecordExpr) or len(a.fields) != len(b.fields):
            return False
        # Nested records serialize with original spelling and order, so
        # the comparison is spelling- and order-exact.
        return all(
            na == nb and payload_equal(ea, eb)
            for (na, ea), (nb, eb) in zip(a.fields, b.fields)
        )
    if type(a) is not type(b):
        return False
    # Operator/reference nodes serialize through the unparser; compare
    # the unparsed source, which is deterministic per AST.
    return unparse(a) == unparse(b)
