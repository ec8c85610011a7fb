"""Unit tests for the ClassAd container type."""

import pytest

from repro.classads import ClassAd, Literal, fingerprint, is_undefined, parse


class TestConstruction:
    def test_from_dict(self):
        ad = ClassAd({"Type": "Machine", "Memory": 64})
        assert ad.evaluate("Memory") == 64
        assert ad.evaluate("Type") == "Machine"

    def test_from_pairs(self):
        ad = ClassAd([("a", 1), ("b", 2)])
        assert ad.keys() == ["a", "b"]

    def test_python_values_convert(self):
        ad = ClassAd(
            {
                "i": 3,
                "r": 2.5,
                "s": "text",
                "b": True,
                "l": [1, "two", [3]],
                "nested": {"x": 1},
                "nothing": None,
            }
        )
        assert ad.evaluate("i") == 3
        assert ad.evaluate("r") == 2.5
        assert ad.evaluate("s") == "text"
        assert ad.evaluate("b") is True
        assert ad.evaluate("l") == [1, "two", [3]]
        assert ad.eval_expr("nested.x") == 1
        assert is_undefined(ad.evaluate("nothing"))

    def test_expression_values_pass_through(self):
        expr = parse("1 + 2")
        ad = ClassAd({"x": expr})
        assert ad.lookup("x") is expr

    def test_strings_are_literals_not_parsed(self):
        ad = ClassAd({"x": "1 + 2"})
        assert ad.evaluate("x") == "1 + 2"

    def test_set_expr_parses(self):
        ad = ClassAd()
        ad.set_expr("x", "1 + 2")
        assert ad.evaluate("x") == 3

    def test_unconvertible_value_raises(self):
        with pytest.raises(TypeError):
            ClassAd({"x": object()})


class TestMappingProtocol:
    def test_case_insensitive_lookup(self):
        ad = ClassAd({"KeyboardIdle": 1432})
        assert "keyboardidle" in ad
        assert ad["KEYBOARDIDLE"] == Literal(1432)

    def test_original_spelling_preserved(self):
        ad = ClassAd({"KeyboardIdle": 1})
        assert ad.keys() == ["KeyboardIdle"]

    def test_overwrite_keeps_first_spelling_and_position(self):
        ad = ClassAd({"a": 1, "B": 2})
        ad["A"] = 10
        assert ad.keys() == ["a", "B"]
        assert ad.evaluate("a") == 10

    def test_delete(self):
        ad = ClassAd({"a": 1})
        del ad["A"]
        assert "a" not in ad
        with pytest.raises(KeyError):
            del ad["a"]

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            ClassAd({})["missing"]

    def test_lookup_missing_returns_none(self):
        assert ClassAd({}).lookup("missing") is None

    def test_len_and_iter(self):
        ad = ClassAd({"a": 1, "b": 2})
        assert len(ad) == 2
        assert list(ad) == ["a", "b"]

    def test_update(self):
        ad = ClassAd({"a": 1})
        ad.update({"a": 2, "b": 3})
        assert ad.evaluate("a") == 2
        assert ad.evaluate("b") == 3

    def test_copy_is_independent(self):
        ad = ClassAd({"a": 1})
        dup = ad.copy()
        dup["a"] = 2
        assert ad.evaluate("a") == 1
        assert dup.evaluate("a") == 2

    def test_copy_shares_expressions_keeps_order_and_starts_with_empty_caches(self):
        ad = ClassAd({"Type": "Machine", "ResearchGroup": ["a", "b"], "KeyboardIdle": 5})
        ad["Rank"] = parse("other.Memory / 32")
        ad.evaluate("Rank", other=ClassAd({"Memory": 64}))  # fills _ccache
        fingerprint(ad)  # fills _fpcache
        ad._derived = shape = ("a memoized shape",)
        fpcache = ad._fpcache
        dup = ad.copy()
        assert dup.keys() == ad.keys() == ["Type", "ResearchGroup", "KeyboardIdle", "Rank"]
        assert all(dup.lookup(name) is ad.lookup(name) for name in ad.keys())
        assert dup._ccache is None and dup._fpcache is None and dup._derived is None
        dup["keyboardidle"] = 6
        dup["Memory"] = 64
        del dup["Type"]
        dup.evaluate("Rank", other=ClassAd({"Memory": 32}))
        fingerprint(dup)
        assert dup.keys() == ["ResearchGroup", "KeyboardIdle", "Rank", "Memory"]
        assert ad.keys() == ["Type", "ResearchGroup", "KeyboardIdle", "Rank"]
        assert ad.evaluate("KeyboardIdle") == 5
        assert ad._fpcache is fpcache and ad._derived is shape


class TestEquality:
    def test_order_insensitive(self):
        assert ClassAd({"a": 1, "b": 2}) == ClassAd({"b": 2, "a": 1})

    def test_case_insensitive_names(self):
        assert ClassAd({"A": 1}) == ClassAd({"a": 1})

    def test_different_values_unequal(self):
        assert ClassAd({"a": 1}) != ClassAd({"a": 2})

    def test_extra_attribute_unequal(self):
        assert ClassAd({"a": 1}) != ClassAd({"a": 1, "b": 2})

    def test_not_equal_to_dict(self):
        assert ClassAd({"a": 1}) != {"a": 1}

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(ClassAd({}))


class TestEvaluationApi:
    def test_evaluate_missing_is_undefined(self):
        assert is_undefined(ClassAd({}).evaluate("anything"))

    def test_eval_expr_accepts_text_and_expr(self):
        ad = ClassAd({"Memory": 64})
        assert ad.eval_expr("Memory / 2") == 32
        assert ad.eval_expr(parse("Memory / 2")) == 32

    def test_evaluate_with_other(self):
        machine = ClassAd({"Memory": 64})
        job = ClassAd({})
        job.set_expr("ok", "other.Memory >= 32")
        assert job.evaluate("ok", other=machine) is True


class TestConversionsAndParsing:
    def test_parse_round_trip(self):
        ad = ClassAd.parse('[ a = 1; b = "x"; c = {1, 2} ]')
        again = ClassAd.parse(str(ad))
        assert again == ad

    def test_parse_without_brackets(self):
        ad = ClassAd.parse('Type = "Job"; Memory = 31')
        assert ad.evaluate("Memory") == 31

    def test_to_record_and_back(self):
        ad = ClassAd({"a": 1})
        assert ClassAd.from_record(ad.to_record()) == ad

    def test_nesting_an_ad_inside_another(self):
        inner = ClassAd({"mips": 104})
        outer = ClassAd({"cpu": inner})
        assert outer.eval_expr("cpu.mips") == 104

    def test_repr_is_compact(self):
        ad = ClassAd({c: 0 for c in "abcdef"})
        assert "..." in repr(ad)
        assert "6 attrs" in repr(ad)
