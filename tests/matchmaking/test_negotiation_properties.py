"""Property-based tests for the negotiation cycle's invariants (S6)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classads import UNDEFINED, ClassAd, parse, rank_value
from repro.matchmaking import Accountant, constraints_satisfied, negotiation_cycle

from tests.matchmaking.test_batch_equivalence import (
    assert_batched_equals_naive,
    view_machine,
    view_request,
)


def machine(name, arch, memory, state="Unclaimed", current_rank=0.0, remote_owner=None):
    ad = ClassAd(
        {
            "Type": "Machine",
            "Name": name,
            "Arch": arch,
            "Memory": memory,
            "State": state,
        }
    )
    ad.set_expr("Constraint", 'other.Type == "Job"')
    ad.set_expr("Rank", 'other.Owner == "vip" ? 5 : 0')
    if state == "Claimed":
        ad["CurrentRank"] = current_rank
        ad["RemoteOwner"] = remote_owner or "someone"
    return ad


def request(owner, job_id, arch, memory):
    ad = ClassAd(
        {"Type": "Job", "JobId": job_id, "Owner": owner, "Memory": memory, "ReqArch": arch}
    )
    ad.set_expr(
        "Constraint",
        'other.Type == "Machine" && other.Arch == self.ReqArch '
        "&& other.Memory >= self.Memory",
    )
    ad.set_expr("Rank", "other.Memory")
    return ad


archs = st.sampled_from(["INTEL", "SPARC"])
memories = st.sampled_from([32, 64, 128])
states = st.sampled_from(["Unclaimed", "Claimed", "Owner"])
owners = st.sampled_from(["alice", "bob", "vip"])

machines_strategy = st.lists(
    st.tuples(archs, memories, states, st.floats(min_value=0, max_value=10)),
    max_size=10,
)
requests_strategy = st.lists(st.tuples(owners, archs, memories), max_size=12)


def build(machine_params, request_params):
    providers = [
        machine(f"m{i}", a, m, state=s, current_rank=r)
        for i, (a, m, s, r) in enumerate(machine_params)
    ]
    grouped = {}
    for i, (owner, arch, memory) in enumerate(request_params):
        grouped.setdefault(owner, []).append(request(owner, i, arch, memory))
    return providers, grouped


class TestNegotiationInvariants:
    @given(machines_strategy, requests_strategy)
    @settings(max_examples=150, deadline=None)
    def test_no_provider_double_booked(self, machine_params, request_params):
        providers, grouped = build(machine_params, request_params)
        assignments = negotiation_cycle(grouped, providers)
        booked = [id(a.provider) for a in assignments]
        assert len(booked) == len(set(booked))

    @given(machines_strategy, requests_strategy)
    @settings(max_examples=150, deadline=None)
    def test_no_request_served_twice(self, machine_params, request_params):
        providers, grouped = build(machine_params, request_params)
        assignments = negotiation_cycle(grouped, providers)
        served = [id(a.request) for a in assignments]
        assert len(served) == len(set(served))

    @given(machines_strategy, requests_strategy)
    @settings(max_examples=150, deadline=None)
    def test_every_assignment_is_a_real_bilateral_match(self, machine_params, request_params):
        providers, grouped = build(machine_params, request_params)
        for a in negotiation_cycle(grouped, providers):
            assert constraints_satisfied(a.request, a.provider)

    @given(machines_strategy, requests_strategy)
    @settings(max_examples=150, deadline=None)
    def test_owner_state_machines_never_assigned(self, machine_params, request_params):
        providers, grouped = build(machine_params, request_params)
        for a in negotiation_cycle(grouped, providers):
            assert a.provider.evaluate("State") != "Owner"

    @given(machines_strategy, requests_strategy)
    @settings(max_examples=150, deadline=None)
    def test_preemption_only_for_strictly_higher_rank(self, machine_params, request_params):
        providers, grouped = build(machine_params, request_params)
        for a in negotiation_cycle(grouped, providers):
            if a.preempts is not None:
                current = rank_value(a.provider.evaluate("CurrentRank"))
                assert a.provider_rank > current

    @given(machines_strategy, requests_strategy)
    @settings(max_examples=100, deadline=None)
    def test_preemption_flag_matches_provider_state(self, machine_params, request_params):
        providers, grouped = build(machine_params, request_params)
        for a in negotiation_cycle(grouped, providers):
            state = a.provider.evaluate("State")
            if state == "Claimed":
                assert a.preempts is not None
            else:
                assert a.preempts is None

    @given(machines_strategy, requests_strategy, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_no_wasted_capacity(self, machine_params, request_params, use_accountant):
        """After a cycle (with or without fair-share pie slices), no
        unserved request may have a compatible, available, un-taken
        provider left — quota cuts are always back-filled by the
        leftovers pass, so fairness never strands capacity."""
        providers, grouped = build(machine_params, request_params)
        acc = Accountant(half_life=100.0) if use_accountant else None
        assignments = negotiation_cycle(grouped, providers, accountant=acc)
        taken = {id(a.provider) for a in assignments}
        served = {id(a.request) for a in assignments}
        for owner, requests in grouped.items():
            for req in requests:
                if id(req) in served:
                    continue
                for provider in providers:
                    if id(provider) in taken:
                        continue
                    if provider.evaluate("State") != "Unclaimed":
                        continue
                    assert not constraints_satisfied(req, provider), (
                        "unserved request had an idle compatible provider"
                    )

    @given(machines_strategy, requests_strategy)
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, machine_params, request_params):
        providers, grouped = build(machine_params, request_params)
        first = negotiation_cycle(grouped, providers)
        second = negotiation_cycle(grouped, providers)
        assert [
            (a.submitter, a.provider.evaluate("Name")) for a in first
        ] == [(a.submitter, a.provider.evaluate("Name")) for a in second]


# -- value-regular pools: the scorer's groups against the per-pair scan ------
#
# Few distinct values, many ads (paper Section 5's "value regularity"), so
# views are shared and providers fall into groups of equal self key — drawn
# from exactly the values and expressions a key could get wrong: type-coarse
# equals (64 / 64.0 / true), absent vs explicitly undefined attributes,
# case-variant names, attributes bound to expressions on either side, bare
# names that fall through, and self attributes (Memory, Quota, Total) the
# providers' own Constraint and Rank read.  Every domain is small: a dozen
# providers drawn from them repeat a (policy, self attributes) combination
# more often than not, which is what makes the property exercise sharing.

MEMORY_BINDINGS = [
    ("Memory", 64), ("Memory", 64.0), ("MEMORY", 64), ("Memory", True),
    ("Memory", 128), ("memory", "64"), ("Memory", UNDEFINED), None,
    ("Memory", parse("Total - 16")), ("Memory", parse("other.Need * 2")),
]
QUOTA_BINDINGS = [
    ("Quota", 32), ("Quota", 32.0), ("QUOTA", 100), None, ("Quota", parse("Total - 48")),
]
PROVIDER_CONSTRAINTS = [
    'other.Owner != "bob"',
    'Owner != "bob" && other.Need <= Memory',  # bare Owner: the request's
    "other.Need is undefined || isInteger(other.NEED)",
    "JobPrio > 1",
    "other.Need <= Quota",  # its own, through a bare name
    "isInteger(self.Quota) || JobPrio > 1",
]
PROVIDER_RANKS = ['other.Owner == "vip" ? Quota : 0', "other.Need", "other.JobPrio"]
REQUEST_CONSTRAINTS = [
    'other.Type == "Machine" && other.Arch == self.ReqArch && other.Memory >= self.Need',
    "other.Memory is 64",
    "isInteger(other.Memory) || isBoolean(other.memory)",
    'Arch == "INTEL" && Memory >= 64',  # bare names: the provider's
    "other.Memory is undefined",
    "isUndefined(other.Disk) && other.MEMORY >= Need",
]
NEED_BINDINGS = [
    ("Need", 32), ("Need", 32.0), ("NEED", 100), None,
    ("Need", parse("ImageSize / 2")), ("Need", parse("other.Memory / 2")),
]

view_machines_strategy = st.lists(
    st.tuples(
        archs,
        st.sampled_from(MEMORY_BINDINGS),
        states,
        st.sampled_from([0.0, 5.0]),
        st.sampled_from(PROVIDER_CONSTRAINTS),
        st.sampled_from(PROVIDER_RANKS),
        st.sampled_from(QUOTA_BINDINGS),
    ),
    max_size=12,
)
view_requests_strategy = st.lists(
    st.tuples(
        owners,
        archs,
        st.sampled_from(NEED_BINDINGS),
        st.sampled_from(REQUEST_CONSTRAINTS),
        st.sampled_from([None, 1, 3]),
    ),
    max_size=14,
)


def build_views(machine_params, request_params):
    providers = []
    for i, (arch, memory, state, current, constraint, rank, quota) in enumerate(machine_params):
        ad = view_machine(
            f"m{i}", {"Arch": arch, "State": state, "Total": 80 + 64 * (i % 2)},
            constraint=constraint, rank=rank,
        )
        for binding in (memory, quota):
            if binding is not None:
                ad[binding[0]] = binding[1]
        if state == "Claimed":
            ad["CurrentRank"] = current
            ad["RemoteOwner"] = "someone"
        providers.append(ad)
    grouped = {}
    for i, (owner, arch, need, constraint, prio) in enumerate(request_params):
        ad = view_request(
            owner, i, constraint, {"ReqArch": arch, "ImageSize": 64 * (1 + i % 2)}
        )
        if need is not None:
            ad[need[0]] = need[1]
        if prio is not None:
            ad["JobPrio"] = prio
        grouped.setdefault(owner, []).append(ad)
    return providers, grouped


class TestViewMemoEqualsPerPairScan:
    def test_the_domains_form_groups(self):
        """The property below is only as good as its pools: one of every
        (Constraint, Quota) combination, twice over, must share
        provider-side evaluations and still equal the oracle."""
        machine_params = [
            ("INTEL", ("Memory", 64), "Unclaimed", 0.0, constraint, PROVIDER_RANKS[0], quota)
            for _ in range(2)
            for constraint in PROVIDER_CONSTRAINTS
            for quota in QUOTA_BINDINGS
        ]
        request_params = [
            (owner, "INTEL", need, REQUEST_CONSTRAINTS[0], 3)
            for owner in ("alice", "bob", "vip")
            for need in NEED_BINDINGS[:3]
        ]
        providers, grouped = build_views(machine_params, request_params)
        stats = assert_batched_equals_naive(providers, grouped, use_index=False)
        assert stats.view_provider_evals_saved > len(providers)

    @given(view_machines_strategy, view_requests_strategy, st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_assignments_and_event_stream_identical(
        self, machine_params, request_params, use_index, allow_preemption
    ):
        providers, grouped = build_views(machine_params, request_params)
        assert_batched_equals_naive(providers, grouped, use_index, allow_preemption)
