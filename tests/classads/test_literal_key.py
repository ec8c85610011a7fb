"""One literal identity: :func:`repro.classads.values.literal_key`.

"The same literal" is ``(type, value)`` with a float zero held by its
``repr``: ``1``, ``1.0`` and ``true`` are three literals (``is`` and
``isInteger`` tell them apart) and so are ``0.0`` and ``-0.0``
(``string()`` shows the sign), although Python's ``==`` conflates each
pair.  Four sites read it — the scorer's views (``_view_key``), the
literals that complete a self key (``_literal_key``), the compile cache's
``structural_key`` and the wire's ``literal_equal`` — and they must all
agree with it.  ``literal_equal`` adds two rules of the wire's own on
top: error reasons count, and NaN never equals anything.
"""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.classads import UNDEFINED, ClassAd, ErrorValue, Literal
from repro.classads.compile import structural_key
from repro.classads.fingerprint import literal_equal
from repro.classads.values import literal_key
from repro.matchmaking.groups import _literal_key, _view_key

values = st.one_of(
    st.sampled_from(["", "a", "A", "64", "0.0"]),
    st.sampled_from([0, 1, -1, 64]),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 64.0, 0.5, math.nan]),
    st.just(UNDEFINED),
    st.builds(ErrorValue, st.sampled_from(["a", "b"])),
)


def is_nan(value):
    return type(value) is float and value != value


def same_literal(a, b):
    """The identity stated independently of ``literal_key``: same type and
    the same printed value; one error whatever its reason."""
    if type(a) is ErrorValue or type(b) is ErrorValue:
        return type(a) is type(b)
    return type(a) is type(b) and repr(a) == repr(b)


def site_keys(value):
    """What each site that keys a literal makes of *value*."""
    ad = ClassAd({"X": value})
    return (
        _view_key(ad, ("x",)),
        _literal_key(ad.bindings(), (("x", None),)),
        structural_key(Literal(value)),
    )


@given(values, values)
def test_every_site_agrees_with_literal_key(a, b):
    assume(not is_nan(a) and not is_nan(b))
    same = literal_key(a) == literal_key(b)
    assert same == same_literal(a, b)
    for key_a, key_b in zip(site_keys(a), site_keys(b)):
        assert (key_a == key_b) == same, (a, b)
    reasons_differ = type(a) is ErrorValue and type(b) is ErrorValue and a.reason != b.reason
    assert literal_equal(a, b) == (same and not reasons_differ)


@pytest.mark.parametrize("a, b", [
    (64, 64.0), (1, 1.0), (1, True), (1.0, True), (0, False), (0.0, -0.0), (0, 0.0),
])
def test_values_python_conflates_are_different_literals(a, b):
    assert a == b
    assert literal_key(a) != literal_key(b)
    for key_a, key_b in zip(site_keys(a), site_keys(b)):
        assert key_a != key_b
    assert not literal_equal(a, b)


def test_literal_equal_treats_nan_and_error_reasons_as_changes():
    nan = math.nan
    assert literal_key(nan) == literal_key(nan)  # one object: one key
    assert not literal_equal(nan, nan)
    assert not literal_equal(1.0, nan) and not literal_equal(nan, 1.0)
    assert literal_key(ErrorValue("a")) == literal_key(ErrorValue("b"))
    assert not literal_equal(ErrorValue("a"), ErrorValue("b"))
    assert literal_equal(ErrorValue("a"), ErrorValue("a"))
