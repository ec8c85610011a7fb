"""Unit + property tests for the provider index (S7).

The crucial property is *soundness*: matching restricted to the index's
candidate set finds exactly the same matches as the naive scan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classads import ClassAd, parse
from repro.matchmaking import (
    Predicate,
    ProviderIndex,
    conjuncts,
    constraints_satisfied,
    extract_predicates,
)


def machine(arch="INTEL", opsys="SOLARIS251", memory=64, disk=100_000):
    return ClassAd(
        {
            "Type": "Machine",
            "Arch": arch,
            "OpSys": opsys,
            "Memory": memory,
            "Disk": disk,
        }
    )


def job(constraint, **attrs):
    ad = ClassAd({"Type": "Job", **attrs})
    ad.set_expr("Constraint", constraint)
    return ad


class TestConjuncts:
    def test_flat_expression(self):
        assert len(conjuncts(parse("a == 1"))) == 1

    def test_and_chain_is_split(self):
        parts = conjuncts(parse("a == 1 && b == 2 && c == 3"))
        assert len(parts) == 3

    def test_or_is_not_split(self):
        parts = conjuncts(parse("a == 1 || b == 2"))
        assert len(parts) == 1

    def test_nested_groups(self):
        parts = conjuncts(parse("(a == 1 && b == 2) && (c || d)"))
        assert len(parts) == 3


class TestExtraction:
    def test_equality_on_other(self):
        j = job('other.Arch == "INTEL"')
        preds = extract_predicates(j["Constraint"], j)
        assert Predicate("arch", "==", "INTEL") in preds

    def test_equality_reversed_operands(self):
        j = job('"INTEL" == other.Arch')
        preds = extract_predicates(j["Constraint"], j)
        assert Predicate("arch", "==", "INTEL") in preds

    def test_bare_name_not_in_customer_is_provider_side(self):
        j = job('Arch == "INTEL"')
        preds = extract_predicates(j["Constraint"], j)
        assert Predicate("arch", "==", "INTEL") in preds

    def test_bare_name_in_customer_is_not_extracted(self):
        j = job('Arch == "INTEL"', Arch="INTEL")  # self-referential: about the job
        assert extract_predicates(j["Constraint"], j) == []

    def test_range_with_customer_expression(self):
        # Figure 2's `other.Memory >= self.Memory`.
        j = job("other.Memory >= self.Memory", Memory=31)
        preds = extract_predicates(j["Constraint"], j)
        assert Predicate("memory", ">=", 31) in preds

    def test_range_flipped(self):
        j = job("10000 <= other.Disk")
        preds = extract_predicates(j["Constraint"], j)
        assert Predicate("disk", ">=", 10000) in preds

    def test_disjunction_not_extracted(self):
        j = job('other.Arch == "INTEL" || other.Arch == "SPARC"')
        assert extract_predicates(j["Constraint"], j) == []

    def test_conjunct_inside_conditional_not_extracted(self):
        j = job('other.Fast ? other.Arch == "INTEL" : true')
        assert extract_predicates(j["Constraint"], j) == []

    def test_figure2_constraint_extracts_everything_useful(self):
        from repro.paper import figure2_job

        j = figure2_job()
        preds = extract_predicates(j["Constraint"], j)
        attrs = {p.attr for p in preds}
        assert {"type", "arch", "opsys", "disk", "memory"} <= attrs


class TestIndexPruning:
    def test_equality_pruning(self):
        providers = [machine(arch="INTEL"), machine(arch="SPARC")]
        index = ProviderIndex(providers)
        j = job('other.Arch == "INTEL"')
        candidates = index.candidates_for(j)
        assert candidates == [providers[0]]

    def test_equality_case_insensitive(self):
        providers = [machine(arch="intel")]
        index = ProviderIndex(providers)
        j = job('other.Arch == "INTEL"')
        assert index.candidates_for(j) == providers

    def test_range_pruning(self):
        providers = [machine(memory=m) for m in (16, 32, 64, 128)]
        index = ProviderIndex(providers)
        j = job("other.Memory >= 64")
        assert index.candidates_for(j) == providers[2:]

    def test_strict_range_bounds(self):
        providers = [machine(memory=m) for m in (32, 64)]
        index = ProviderIndex(providers)
        assert index.candidates_for(job("other.Memory > 32")) == [providers[1]]
        assert index.candidates_for(job("other.Memory < 64")) == [providers[0]]
        assert index.candidates_for(job("other.Memory <= 64")) == providers

    def test_provider_with_non_constant_attr_never_pruned(self):
        dynamic = machine()
        dynamic.set_expr("Memory", "other.Hint * 2")  # needs the other ad
        index = ProviderIndex([dynamic])
        j = job("other.Memory >= 10000")
        assert index.candidates_for(j) == [dynamic]

    def test_provider_missing_attr_not_pruned_by_index(self):
        # Sound superset: the full match still rejects it (undefined).
        bare = ClassAd({"Type": "Machine"})
        index = ProviderIndex([bare])
        j = job("other.Memory >= 64")
        assert index.candidates_for(j) == [bare]
        assert not constraints_satisfied(j, bare)

    def test_unconstrained_customer_gets_all(self):
        providers = [machine(), machine()]
        index = ProviderIndex(providers)
        assert index.candidates_for(ClassAd({})) == providers

    def test_empty_result_possible(self):
        index = ProviderIndex([machine(arch="SPARC")])
        assert index.candidates_for(job('other.Arch == "ALPHA"')) == []


class TestSidesThatReadTheProvider:
    """A comparison side is a constant only if nothing it reaches —
    directly, inside a compound expression, or through a customer
    attribute bound to one — is the provider.  Evaluated against the
    customer alone, ``isUndefined(other.Disk) ? 64 : 16`` reads 64; a
    machine with ``Disk`` defined sees 16."""

    @staticmethod
    def _customers():
        inline = job("other.Memory >= (isUndefined(other.Disk) ? 64 : 16)")
        through_attribute = job("other.Memory >= MinMem")
        through_attribute.set_expr("MinMem", "isUndefined(other.Disk) ? 64 : 16")
        return [inline, through_attribute]

    def test_no_predicate_is_extracted(self):
        for customer in self._customers():
            assert extract_predicates(customer["Constraint"], customer) == []

    def test_indexed_and_unindexed_negotiation_both_assign(self):
        from repro.matchmaking import negotiation_cycle

        for customer in self._customers():
            customer["Owner"] = "alice"
            customer.set_expr("Rank", "0")
            small = machine(memory=32)
            small["Name"] = "m32"
            small["State"] = "Unclaimed"
            small.set_expr("Constraint", "true")
            small.set_expr("Rank", "0")
            for index in (None, ProviderIndex([small])):
                assignments = negotiation_cycle({"alice": [customer]}, [small], index=index)
                assert len(assignments) == 1

    def test_customer_only_closures_still_index(self):
        customer = job("other.Memory >= Need && other.Disk >= Need * 1000", Base=16)
        customer.set_expr("Need", "Base * 2")
        preds = extract_predicates(customer["Constraint"], customer)
        assert set(preds) == {Predicate("memory", ">=", 32), Predicate("disk", ">=", 32000)}


# -- the soundness property ------------------------------------------------

archs = st.sampled_from(["INTEL", "SPARC", "ALPHA", "HPPA"])
opsyses = st.sampled_from(["SOLARIS251", "LINUX", "IRIX65"])
memories = st.sampled_from([16, 32, 64, 128, 256])

provider_ads = st.builds(
    lambda a, o, m: machine(arch=a, opsys=o, memory=m), archs, opsyses, memories
)

constraint_texts = st.sampled_from(
    [
        'other.Arch == "INTEL"',
        'other.Arch == "INTEL" && other.Memory >= 64',
        "other.Memory >= self.Memory",
        "other.Memory > 32 && other.Memory <= 128",
        'other.Arch == "SPARC" || other.Memory >= 128',
        'other.OpSys == "LINUX" && (other.Memory >= 64 || other.Arch == "INTEL")',
        "true",
        'other.Arch != "INTEL"',
    ]
)


class TestIndexSoundness:
    @given(st.lists(provider_ads, max_size=12), constraint_texts, memories)
    @settings(max_examples=150, deadline=None)
    def test_indexed_matching_equals_naive_matching(self, providers, text, mem):
        customer = job(text, Memory=mem)
        index = ProviderIndex(providers)
        candidates = index.candidates_for(customer)
        naive = [p for p in providers if constraints_satisfied(customer, p)]
        via_index = [p for p in candidates if constraints_satisfied(customer, p)]
        assert naive == via_index
