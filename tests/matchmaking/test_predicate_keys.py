"""Predicate self keys: a literal keyed by what its root can tell of it.

A Figure-1 owner's ``LoadAvg``, ``KeyboardIdle`` and ``DayTime`` are read
by the policy only through ``LoadAvg < 0.3``, ``KeyboardIdle > 15*60``,
``DayTime < 8*60*60`` and ``DayTime > 18*60*60``, so the scorer keys each
by the outcomes of those comparisons (its *atoms*) instead of its value:
machines on which every atom comes out alike are one evaluator.  Every
literal read any other way keeps its value in the key.  The class engine
is held to the per-pair oracle (``batch=False``) on pools whose volatile
literals sit on both sides of every atom boundary — and on the shapes
that must not be keyed by atoms at all.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classads import ERROR, UNDEFINED, ClassAd, parse
from repro.classads.builtins import BUILTINS, PURE, register_builtin
from repro.classads.compile import NOT_CONSTANT, compile_expr, constant_value
from repro.condor.workload import FIGURE1_POLICY_CONSTRAINT, FIGURE1_POLICY_RANK
from repro.matchmaking import groups
from repro.matchmaking.match import DEFAULT_POLICY

from tests.matchmaking.test_batch_equivalence import (
    assert_batched_equals_naive,
    assignment_key,
    count_evaluations,
    run_cycle,
    view_machine,
)

#: Values drawn for the volatile literals: both sides of every Figure-1
#: atom boundary, the types a Python ``==`` conflates, and the values the
#: language compares specially.
BOUNDARY_VALUES = [
    899, 900, 900.0, 901,
    0.3, math.nextafter(0.3, 0.0), math.nextafter(0.3, 1.0),
    28800, 64800, 28800.0, 64799,
    0.0, -0.0, True, False, "900", "0.3",
    UNDEFINED, ERROR, math.nan,
]
GROUPS = [["u0", "u1"], ["u2", "u3"]]
OWNERS = ["u0", "u2", "u4", "u5", "u7"]  # members, a friend, a stranger, untrusted


def figure1_machine(name, load, idle, daytime, group=0, state="Unclaimed",
                    current_rank=0.0, constraint=FIGURE1_POLICY_CONSTRAINT):
    ad = ClassAd({
        "Type": "Machine", "Name": name, "State": state, "Arch": "INTEL",
        "OpSys": "SOLARIS251", "Memory": 64, "KFlops": 21000,
        "LoadAvg": load, "KeyboardIdle": idle, "DayTime": daytime,
        "ResearchGroup": GROUPS[group], "Friends": ["u4"], "Untrusted": ["u7"],
    })
    ad.set_expr("Constraint", constraint)
    ad.set_expr("Rank", FIGURE1_POLICY_RANK)
    if state == "Claimed":
        ad["CurrentRank"] = current_rank
        ad["RemoteOwner"] = "u5"
    return ad


def figure1_jobs(owners=OWNERS, per_owner=2):
    from repro.condor.jobs import DEFAULT_JOB_CONSTRAINT, DEFAULT_JOB_RANK

    grouped = {}
    for o, owner in enumerate(owners):
        for i in range(per_owner):
            ad = ClassAd({"Type": "Job", "JobId": 100 * o + i, "Owner": owner,
                          "Memory": 31, "ReqArch": "INTEL", "ReqOpSys": "SOLARIS251"})
            ad.set_expr("Constraint", DEFAULT_JOB_CONSTRAINT)
            ad.set_expr("Rank", DEFAULT_JOB_RANK)
            grouped.setdefault(owner, []).append(ad)
    return grouped


def constraint_literals(ad):
    return dict(groups._shape(ad, DEFAULT_POLICY).constraint.literals)


class TestWhichLiteralsQualify:
    def test_figure1_volatile_literals_are_keyed_by_their_atoms(self):
        literals = constraint_literals(figure1_machine("m", 0.1, 3600, 36000))
        assert literals == {
            "loadavg": (("<", 0.3),),
            "keyboardidle": ((">", 900),),
            "daytime": (("<", 28800), (">", 64800)),
        }

    def test_operand_order_and_scope_spelling(self):
        """An atom states its operator with the attribute on the left, so
        ``10 > self.Limit`` and ``Limit < 10`` are one atom."""
        ad = view_machine("m", {"Limit": 4},
                          constraint="10 > self.Limit && Limit != 7 && LIMIT <= 2 + 2"
                                     " && Limit < 10")
        assert constraint_literals(ad) == {
            "limit": (("<", 10), ("!=", 7), ("<=", 4)),
        }

    @pytest.mark.parametrize("constraint", [
        "LoadAvg is 0.5",
        "LoadAvg isnt undefined",
        "LoadAvg * 2 < 1",
        'string(LoadAvg) == "0.5"',
        "isReal(LoadAvg)",
        "LoadAvg < self.Threshold",
        "LoadAvg < Threshold",
        "LoadAvg < other.Threshold",
        "LoadAvg < KeyboardIdle",
        "[Busy = LoadAvg > 0.3].Busy",
        "{LoadAvg}[0] < 0.3",
        "LoadAvg < 0.3 && LoadAvg + 0 < 0.3",
        "LoadAvg",
    ])
    def test_other_reads_keep_the_value(self, constraint):
        ad = view_machine("m", {"LoadAvg": 0.5, "KeyboardIdle": 9, "Threshold": 1},
                          constraint=constraint)
        assert constraint_literals(ad)["loadavg"] is None

    def test_a_literal_root_is_keyed_by_value(self):
        ad = view_machine("m", constraint="false")
        assert constraint_literals(ad) == {"constraint": None}

    def test_constants_fold_through_pure_builtins(self):
        ad = view_machine("m", {"LoadAvg": 0.5},
                          constraint='LoadAvg < real("0.3") && LoadAvg > -(1)')
        assert constraint_literals(ad)["loadavg"] == (("<", 0.3), (">", -1))

    def test_atoms_are_part_of_the_interned_fixed_part(self):
        a = view_machine("a", {"LoadAvg": 0.1}, constraint="LoadAvg < 0.3")
        b = view_machine("b", {"LoadAvg": 0.1}, constraint="LoadAvg < 0.4")
        c = view_machine("c", {"LoadAvg": 0.2}, constraint="LoadAvg < 0.3")
        keys = [groups._self_keys(ad, DEFAULT_POLICY)[0] for ad in (a, b, c)]
        assert keys[0] == keys[2]
        assert keys[0][0] != keys[1][0]


class TestOutcomes:
    """The key's outcomes are the language's, value for value."""

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "==", "!="])
    @pytest.mark.parametrize("constant, source", [
        (900, "900"), (900.0, "900.0"), (0.3, "0.3"), ("900", '"900"'), ("abc", '"abc"'),
        (True, "true"), (UNDEFINED, "undefined"), (ERROR, "error"), (math.nan, 'real("nan")'),
    ])
    @pytest.mark.parametrize("side", [0, 1])
    def test_outcomes_equal_evaluation(self, op, constant, source, side):
        """The atom is read off the expression, so ``source op X`` also
        checks that flipping the operator onto ``X`` keeps the outcome."""
        expr = f"X {op} {source}" if side == 0 else f"{source} {op} X"
        name, atom = groups._atom(parse(expr))
        assert name == "x"
        for value in BOUNDARY_VALUES + ["ABC", "abd"]:
            evaluated = ClassAd({"X": value}).eval_expr(expr)
            (outcome,) = groups._outcomes(value, (atom,))
            if isinstance(evaluated, bool):
                assert outcome is evaluated, (expr, value)
            else:  # every error is one outcome
                assert outcome is (UNDEFINED if evaluated is UNDEFINED else ERROR), (expr, value)


# -- the oracle ---------------------------------------------------------------

#: Provider policies the differential draws from: Figure 1 itself, and
#: shapes that must stay keyed by value, each reading the same literals.
PROVIDER_POLICIES = [
    FIGURE1_POLICY_CONSTRAINT,
    FIGURE1_POLICY_CONSTRAINT,
    "LoadAvg is 0.3 || KeyboardIdle > 900",
    "LoadAvg * 2 < 1 && DayTime > 18*60*60",
    'string(LoadAvg) == "0.3" || KeyboardIdle >= 900.0',
    "LoadAvg < self.Threshold",
    "[Idle = KeyboardIdle > 15*60].Idle && DayTime != 28800",
    'KeyboardIdle == "900" || LoadAvg <= -0.0 || DayTime >= true',
]

values = st.sampled_from(BOUNDARY_VALUES)
provider_params = st.lists(
    st.tuples(
        values, values, values,
        st.integers(min_value=0, max_value=1),
        st.sampled_from(["Unclaimed", "Unclaimed", "Claimed", "Owner"]),
        st.sampled_from([0.0, 10.0]),
        st.sampled_from(PROVIDER_POLICIES),
    ),
    max_size=14,
)


def build_pool(params):
    providers = []
    for i, (load, idle, daytime, group, state, current, constraint) in enumerate(params):
        ad = figure1_machine(f"m{i}", load, idle, daytime, group, state, current, constraint)
        ad["Threshold"] = 0.3
        providers.append(ad)
    return providers


class TestPredicateKeysEqualTheOracle:
    @given(provider_params, st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_assignments_preemptions_and_event_stream_identical(
        self, params, use_index, allow_preemption
    ):
        providers = build_pool(params)
        assert_batched_equals_naive(providers, figure1_jobs(), use_index, allow_preemption)

    def test_boundary_pool_forms_groups_and_still_equals_the_oracle(self, monkeypatch):
        """The property above is only as good as its pools: here every
        boundary value twice over, so equal outcomes must share."""
        params = [
            (load, idle, daytime, 0, "Unclaimed", 0.0, FIGURE1_POLICY_CONSTRAINT)
            for load, idle, daytime in [
                (0.1, 899, 36000), (0.2, 900, 36000), (0.0, 901, 36000),
                (-0.0, 900.0, 28800), (math.nextafter(0.3, 0.0), 901, 64800),
                (0.3, 5000, 36000), (math.nextafter(0.3, 1.0), 0, 3600),
                (True, "900", 70000), (UNDEFINED, 901, 36000), (ERROR, 901, math.nan),
            ]
            for _ in range(2)
        ]
        providers = build_pool(params)
        made = count_evaluations(monkeypatch)
        stats = assert_batched_equals_naive(providers, figure1_jobs(), use_index=False)
        keys = {groups._self_keys(p, DEFAULT_POLICY)[0] for p in providers}
        assert len(keys) < len(providers) // 2
        assert stats.view_provider_evals_saved > len(providers)
        made.clear()
        run_cycle(providers, figure1_jobs(), batch=True, use_index=False)
        # At most one provider Constraint per (group, Owner) reached.
        assert made["provider", "Constraint"] <= len(keys) * len(OWNERS)


class TestRefreshRekeysWithoutAWalk:
    def test_rebinding_a_volatile_literal_moves_the_key_not_the_shape(self, monkeypatch):
        provider = figure1_machine("m", 0.1, 3600, 36000)
        shape = groups._shape(provider, DEFAULT_POLICY)
        key = groups._self_keys(provider, DEFAULT_POLICY)[0]
        walks = []
        original = groups._walk_shape
        monkeypatch.setattr(groups, "_walk_shape", lambda *a: walks.append(a) or original(*a))
        provider["LoadAvg"] = 0.2  # what a Refresh does, in place
        provider["KeyboardIdle"] = 7200
        assert groups._self_keys(provider, DEFAULT_POLICY)[0] == key
        provider["LoadAvg"] = 0.9
        moved = groups._self_keys(provider, DEFAULT_POLICY)[0]
        assert moved != key and moved[0] == key[0]
        provider["LoadAvg"] = "busy"  # still a literal: still no walk
        assert groups._self_keys(provider, DEFAULT_POLICY)[0] not in (key, moved)
        assert groups._shape(provider, DEFAULT_POLICY) is shape
        assert walks == []
        provider.set_expr("LoadAvg", "other.Load")  # an expression: the shape changes
        assert groups._shape(provider, DEFAULT_POLICY) is not shape
        assert len(walks) == 1

    def test_refreshed_pool_regroups_against_the_oracle(self):
        providers = build_pool([
            (0.1, 3600, 36000, i % 2, "Unclaimed", 0.0, FIGURE1_POLICY_CONSTRAINT)
            for i in range(8)
        ])
        grouped = figure1_jobs()
        first = assert_batched_equals_naive(providers, grouped, use_index=False)
        for i, provider in enumerate(providers):
            provider["LoadAvg"] = [0.29, 0.3, 0.31, 0.0][i % 4]
            provider["KeyboardIdle"] = [899, 900, 901, 900.0][i // 2 % 4]
        second = assert_batched_equals_naive(providers, grouped, use_index=False)
        assert first.request_classes == second.request_classes


# -- what a request shows the pool ---------------------------------------------


class TestWhatARequestShowsThePool:
    """A request class covers everything the pool can read of a request.
    That includes a provider attribute bound to an expression: it is
    evaluated wherever a request reads it and may read the request in
    turn, whether or not the request's own Constraint reads the same
    attribute (through a comparison or otherwise)."""

    def _providers(self, foo):
        return [view_machine(f"m{i}", {"Memory": 64}, constraint="true", Foo=foo)
                for i in range(3)]

    def _requests(self, constraint, **attrs):
        grouped = {}
        for i, values in enumerate(zip(*attrs.values())):
            ad = ClassAd({"Type": "Job", "JobId": i, "Owner": "alice",
                          **dict(zip(attrs, values))})
            ad.set_expr("Constraint", constraint)
            ad.set_expr("Rank", "0")
            grouped.setdefault("alice", []).append(ad)
        return grouped

    @pytest.mark.parametrize("constraint, foo, attrs", [
        ("other.Foo", "other.X == 5", {"X": [5, 6, 5, 6]}),
        ("other.Foo && MyX > 3", "other.MyX == 5", {"MyX": [5, 6, 5, 6]}),
        ("other.Foo", "X == 5", {"X": [5, 6, 5, 6]}),  # bare, the provider lacks X
    ])
    def test_request_classes_cover_what_provider_expressions_read(self, constraint, foo, attrs):
        providers = self._providers(foo)
        grouped = self._requests(constraint, **attrs)
        assert_batched_equals_naive(providers, grouped, use_index=False)
        assignments, _ = run_cycle(providers, grouped, batch=True, use_index=False)
        assert [a.request.evaluate("JobId") for a in assignments] == [0, 2]

    def test_a_shown_literal_is_keyed_by_value_where_also_compared(self):
        # The pool reads X directly, and through Small, which compares it.
        providers = [view_machine(f"m{i}", {"Memory": 64},
                                  constraint="other.X == 1 && other.Small") for i in range(3)]
        grouped = self._requests("true", X=[1, 2, 1, 2])
        for request in grouped["alice"]:
            request.set_expr("Small", "X < 5")
        assert_batched_equals_naive(providers, grouped, use_index=False)
        assignments, _ = run_cycle(providers, grouped, batch=True, use_index=False)
        assert [a.request.evaluate("JobId") for a in assignments] == [0, 2]

    def test_through_a_request_expression_the_pool_reads(self):
        providers = [view_machine(f"m{i}", {"Memory": 64}, constraint="other.S",
                                  Foo="other.N == 5") for i in range(3)]
        grouped = self._requests("true", N=[5, 6, 5])
        for request in grouped["alice"]:
            request.set_expr("S", "other.Foo")
        assert_batched_equals_naive(providers, grouped, use_index=False)
        assignments, _ = run_cycle(providers, grouped, batch=True, use_index=False)
        assert [a.request.evaluate("JobId") for a in assignments] == [0, 2]


# -- purity -------------------------------------------------------------------

#: What the impure test builtin returns: state outside its arguments.
_LIMIT = {"value": 0.5}


@pytest.fixture
def impure_limit():
    register_builtin("testLimit", lambda args: _LIMIT["value"])
    try:
        yield
    finally:
        BUILTINS.pop("testlimit", None)
        PURE.discard("testlimit")


class TestPurityGuard:
    def test_every_shipped_builtin_is_pure(self):
        assert set(BUILTINS) == PURE

    def test_an_impure_call_is_never_folded(self, impure_limit):
        assert constant_value(parse("testLimit()")) is NOT_CONSTANT
        assert constant_value(parse("testLimit() + 1")) is NOT_CONSTANT
        assert constant_value(parse("min(0.5, 0.3) + 1")) == 1.3
        compiled = compile_expr(parse("testLimit() * 2"))
        _LIMIT["value"] = 0.5
        assert compiled.evaluate() == 1.0
        _LIMIT["value"] = 4
        assert compiled.evaluate() == 8

    def test_an_impure_call_never_makes_two_literals_share_a_key(self, impure_limit):
        providers = [
            view_machine(f"m{i}", {"LoadAvg": load, "OpSys": "SOLARIS251", "Memory": 64},
                         constraint="LoadAvg < testLimit()", rank="0")
            for i, load in enumerate([0.1, 0.2, 0.4, 0.1, 0.2, 0.4])
        ]
        assert constraint_literals(providers[0]) == {"loadavg": None}
        assert len({groups._self_keys(p, DEFAULT_POLICY)[0] for p in providers}) == 3
        grouped = figure1_jobs(owners=["u0", "u4"], per_owner=3)
        outcomes = []
        for value in (0.5, 0.15):
            _LIMIT["value"] = value
            assert_batched_equals_naive(providers, grouped, use_index=False)
            assignments, _ = run_cycle(providers, grouped, batch=True, use_index=False)
            outcomes.append(assignment_key(assignments))
        assert len(outcomes[0]) == 6 and len(outcomes[1]) == 2


class TestShapeWalkOrder:
    """The shape walk visits a closure's names in an order fixed by the
    expressions alone — not by set iteration, which over bare
    ``(None, name)`` refs follows ``hash(None)`` and so can change from one
    process to the next."""

    def test_expression_refs_are_a_tuple_in_canonical_order(self):
        expr = parse(
            "other.Memory >= self.Memory && Arch == \"INTEL\" && Disk > other.Disk"
            " && self.Zeta < Alpha"
        )
        assert groups._expr_facts(expr)[2] == (
            (None, "alpha"), (None, "arch"), (None, "disk"),
            ("other", "disk"), ("other", "memory"),
            ("self", "memory"), ("self", "zeta"),
        )

    def test_walk_does_not_follow_the_reference_sets_order(self, monkeypatch):
        from repro.paper import figure1_machine

        ad = figure1_machine()
        real_facts = groups._expr_facts
        real_refs = groups.external_references

        def walk():
            groups._EXPR_FACTS.clear()
            groups._FACTS.clear()
            visited = []

            def recording(expr):
                visited.append(expr)
                return real_facts(expr)

            monkeypatch.setattr(groups, "_expr_facts", recording)
            shape = groups._walk_shape(ad, DEFAULT_POLICY, ())
            monkeypatch.setattr(groups, "_expr_facts", real_facts)
            return visited, shape

        visited, shape = walk()
        monkeypatch.setattr(
            groups, "external_references",
            lambda expr: list(reversed(sorted(real_refs(expr), key=groups._ref_order))),
        )
        reversed_visited, reversed_shape = walk()
        assert len(visited) >= 4  # Constraint, Rank and the lists they read
        assert [id(e) for e in reversed_visited] == [id(e) for e in visited]
        assert reversed_shape == shape
