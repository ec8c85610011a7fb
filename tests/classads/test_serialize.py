"""Unit + property tests for classad JSON serialization.

This format is what ``classads/fingerprint.py`` hashes structurally and
sizes on the wire, what the CLI dumps and loads ads in, and what the
collector writes its snapshots in, so every AST node type gets explicit
round-trip coverage here, plus a hypothesis sweep asserting the decoded
ad *evaluates identically* (``values_identical``) to the original.
"""

import json
import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classads import (
    UNDEFINED,
    AttributeRef,
    BinaryOp,
    ClassAd,
    Conditional,
    FunctionCall,
    ListExpr,
    Literal,
    RecordExpr,
    Select,
    Subscript,
    UnaryOp,
    is_error,
    is_undefined,
    parse,
    values_identical,
)
from repro.classads.serialize import (
    SerializationError,
    dumps,
    from_json_obj,
    loads,
    to_json_obj,
)
from repro.paper import figure1_machine, figure2_job

from tests.classads.test_properties import classads, expressions


class TestLiterals:
    def test_scalars_encode_natively(self):
        ad = ClassAd({"i": 3, "r": 2.5, "s": "text", "b": True})
        obj = to_json_obj(ad)
        assert obj == {"i": 3, "r": 2.5, "s": "text", "b": True}

    def test_undefined_and_error(self):
        ad = ClassAd({})
        ad.set_expr("u", "undefined")
        ad.set_expr("e", "error")
        obj = to_json_obj(ad)
        assert obj["u"] == {"$undefined": True}
        assert obj["e"] == {"$error": "error"}
        back = from_json_obj(obj)
        assert is_undefined(back.evaluate("u"))
        assert is_error(back.evaluate("e"))

    def test_json_null_decodes_to_undefined(self):
        ad = from_json_obj({"x": None})
        assert is_undefined(ad.evaluate("x"))

    def test_lists_and_nested_records(self):
        ad = ClassAd({"xs": [1, "two", [3]], "rec": {"a": 1}})
        obj = to_json_obj(ad)
        assert obj["xs"] == [1, "two", [3]]
        assert obj["rec"] == {"a": 1}
        assert from_json_obj(obj) == ad


class TestExpressions:
    def test_expression_rides_through_source(self):
        ad = ClassAd({})
        ad.set_expr("Constraint", "other.Memory >= self.Memory && Rank > 0")
        obj = to_json_obj(ad)
        assert "$expr" in obj["Constraint"]
        assert from_json_obj(obj) == ad

    def test_figure1_round_trips(self):
        ad = figure1_machine()
        assert loads(dumps(ad)) == ad

    def test_figure2_round_trips(self):
        ad = figure2_job()
        assert loads(dumps(ad)) == ad

    def test_output_is_valid_json(self):
        text = dumps(figure1_machine(), indent=2)
        parsed = json.loads(text)
        assert parsed["Name"] == "leonardo.cs.wisc.edu"

    def test_attribute_order_preserved(self):
        ad = ClassAd([("z", 1), ("a", 2), ("m", 3)])
        assert list(to_json_obj(ad)) == ["z", "a", "m"]

    def test_nonfinite_reals_survive(self):
        ad = ClassAd({"x": float("inf")})
        back = loads(dumps(ad))
        assert back.evaluate("x") == float("inf")


def _round_trip(ad):
    back = from_json_obj(to_json_obj(ad))
    assert back == ad
    assert loads(dumps(ad)) == ad
    return back


class TestEveryNodeType:
    """One explicit round trip per AST node class — the wire format must
    not lose any construct the language can express."""

    def test_literal_every_kind(self):
        ad = ClassAd({})
        ad["i"] = Literal(42)
        ad["neg"] = Literal(-(2**40))
        ad["r"] = Literal(3.25)
        ad["s"] = Literal('quote " backslash \\ newline \n tab \t')
        ad["t"] = Literal(True)
        ad["f"] = Literal(False)
        ad["u"] = Literal(UNDEFINED)
        _round_trip(ad)

    def test_literal_error_value(self):
        ad = ClassAd({})
        ad.set_expr("e", "error")
        back = _round_trip(ad)
        assert is_error(back.evaluate("e"))

    def test_literal_nonfinite_reals(self):
        # Nonfinite reals ride through ``real("inf")`` source text, so
        # the decoded AST is a FunctionCall, not a Literal — equality is
        # semantic, not structural.
        ad = ClassAd({"pinf": float("inf"), "ninf": float("-inf")})
        back = loads(dumps(ad))
        assert back.evaluate("pinf") == float("inf")
        assert back.evaluate("ninf") == float("-inf")

    def test_literal_nan_survives(self):
        ad = ClassAd({"x": float("nan")})
        back = loads(dumps(ad))
        assert math.isnan(back.evaluate("x"))

    def test_attribute_ref_all_scopes(self):
        ad = ClassAd({})
        ad["plain"] = AttributeRef("Memory", None)
        ad["via_self"] = AttributeRef("Memory", "self")
        ad["via_other"] = AttributeRef("Memory", "other")
        _round_trip(ad)

    def test_unary_op(self):
        ad = ClassAd({})
        for i, op in enumerate(("!", "-", "+")):
            ad[f"u{i}"] = UnaryOp(op, AttributeRef("x", None))
        _round_trip(ad)

    def test_binary_op_every_operator(self):
        ops = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=",
               "==", "!=", "&&", "||", "is", "isnt"]
        ad = ClassAd({})
        for i, op in enumerate(ops):
            ad[f"b{i}"] = BinaryOp(op, AttributeRef("x", None), Literal(2))
        _round_trip(ad)

    def test_conditional(self):
        ad = ClassAd({})
        ad.set_expr("c", 'LoadAvg < 0.3 ? "idle" : "busy"')
        _round_trip(ad)

    def test_list_expr(self):
        # A pure-value list encodes as a JSON array; a list holding a
        # non-literal expression rides each element through its own
        # encoding ({"$expr": ...} inside the array).
        ad = ClassAd({})
        ad["vals"] = ListExpr([Literal(1), Literal("two"), Literal(3.0)])
        ad["exprs"] = ListExpr([Literal(1), BinaryOp("+", Literal(1), Literal(2))])
        ad["nested"] = ListExpr([ListExpr([Literal(1)]), ListExpr([])])
        back = _round_trip(ad)
        assert to_json_obj(ad)["vals"] == [1, "two", 3.0]
        assert back.evaluate("exprs")[1] == 3

    def test_record_expr(self):
        ad = ClassAd({})
        ad["rec"] = RecordExpr([
            ("Kind", Literal("gold")),
            ("Bonus", BinaryOp("*", Literal(2), Literal(3))),
            ("Inner", RecordExpr([("deep", Literal(True))])),
        ])
        _round_trip(ad)

    def test_select(self):
        ad = ClassAd({})
        ad.set_expr("s", "Tier.Kind")
        ad.set_expr("chained", "self.Tier.Inner.deep")
        _round_trip(ad)

    def test_subscript(self):
        ad = ClassAd({})
        ad["sub"] = Subscript(
            ListExpr([Literal(10), Literal(20)]), Literal(1)
        )
        ad.set_expr("dyn", "Groups[i + 1]")
        _round_trip(ad)

    def test_function_call(self):
        ad = ClassAd({})
        ad["fc"] = FunctionCall("member", [Literal("cs"), AttributeRef("Groups", None)])
        ad.set_expr("nullary", "size({})")
        _round_trip(ad)

    def test_deeply_mixed_expression(self):
        ad = ClassAd({})
        ad.set_expr(
            "Rank",
            'member(other.Owner, ResearchGroup) ? {1, 2}[0] * size(Groups)'
            " : -(KFlops / 1E3)",
        )
        _round_trip(ad)


class TestErrors:
    def test_bad_top_level(self):
        with pytest.raises(SerializationError):
            from_json_obj([1, 2])

    def test_bad_expr_payload(self):
        with pytest.raises(SerializationError):
            from_json_obj({"x": {"$expr": 42}})

    def test_unparseable_expr_payload(self):
        # parse failures surface as SerializationError, not ParseError
        with pytest.raises(SerializationError):
            from_json_obj({"x": {"$expr": "1 +"}})

    def test_unlexable_expr_payload(self):
        with pytest.raises(SerializationError):
            from_json_obj({"x": {"$expr": "`"}})

    def test_invalid_json_text(self):
        with pytest.raises(SerializationError):
            loads("{not json")

    def test_loads_rejects_non_string(self):
        with pytest.raises(SerializationError):
            loads(b'{"x": 1}')
        with pytest.raises(SerializationError):
            loads(None)

    def test_non_string_attribute_name(self):
        with pytest.raises(SerializationError):
            from_json_obj({1: "x"})

    def test_non_string_nested_record_field(self):
        with pytest.raises(SerializationError):
            from_json_obj({"rec": {"inner": {2: "x"}}})

    def test_undecodable_value_type(self):
        with pytest.raises(SerializationError):
            from_json_obj({"x": object()})


# -- property: serialization round trip --------------------------------------

_RESERVED = {"true", "false", "undefined", "error", "is", "isnt", "self", "other", "my", "target"}
identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s.lower() not in _RESERVED
)
scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=string.printable, max_size=15),
    st.booleans(),
    st.just(UNDEFINED),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(identifiers, children, max_size=4),
    ),
    max_leaves=20,
)


@pytest.mark.slow
class TestRoundTripProperty:
    @given(st.dictionaries(identifiers, values, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_value_ads_round_trip(self, payload):
        ad = ClassAd(payload)
        assert loads(dumps(ad)) == ad

    @given(st.dictionaries(identifiers, st.sampled_from([
        "other.Memory >= self.Memory",
        "member(other.Owner, ResearchGroup) * 10",
        "a ? b : c",
        "{1, 2, 3}[i]",
        "x is undefined",
    ]), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_expression_ads_round_trip(self, payload):
        ad = ClassAd({name: parse(src) for name, src in payload.items()})
        assert loads(dumps(ad)) == ad


@pytest.mark.slow
class TestEvaluationPreserved:
    """The wire format must be *semantically* lossless: the decoded ad
    evaluates identically to the original under ``values_identical``,
    the language's strictest comparison (distinguishes 3 from 3.0,
    undefined from false, error reasons).  An ad loaded from a dump or
    a snapshot must match exactly as the ad that was written did."""

    @given(expressions(max_leaves=20), classads(depth=4))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_expressions_evaluate_identically(self, expr, other_ad):
        ad = ClassAd([("Probe", expr)])
        back = from_json_obj(to_json_obj(ad))
        assert values_identical(
            ad.evaluate("Probe", other=other_ad),
            back.evaluate("Probe", other=other_ad),
        )

    @given(classads(depth=6), classads(depth=4))
    @settings(max_examples=100, deadline=None)
    def test_whole_ads_evaluate_identically(self, ad, other_ad):
        back = from_json_obj(to_json_obj(ad))
        for name in ad.keys():
            assert values_identical(
                ad.evaluate(name, other=other_ad),
                back.evaluate(name, other=other_ad),
            )
