"""The machine's key-compared ads: what ``build_ad`` reuses, and when.

``MachineAgent.build_ad`` builds each ad from ``stable_key()`` — the
plain values behind every non-volatile attribute — and, while that key
equals the key of the last full ad sent, copies that ad and rebinds the
three volatile literals.  That is sound only if equal keys mean equal
stable content, and it must leave the wire where it was: a *reference
agent*, whose ``build_ad`` is the from-scratch build as it stood before
the key existed, is driven through the same transition script and must
send the same messages, message for message.  No ad the agent has sent
may change afterwards: the collector stores the very object.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.classads import ClassAd, fingerprint, parse, values_equal
from repro.classads.serialize import dumps
from repro.condor import Job, MachineSpec, MachineState
from repro.condor import machine as machine_module
from repro.condor.machine import MachineAgent, OwnerModel
from repro.protocols import (
    VOLATILE_MACHINE_ATTRS,
    Advertisement,
    ClaimRequest,
    Refresh,
    ResendRequest,
    embed_ticket,
    volatile_values,
)
from repro.sim import Network, RngStream, Simulator

from tests.condor.test_schedd_advertising import fixed_pool

COLLECTOR, SCHEDD = "collector@cm", "schedd@alice"
PERIOD = 60.0


def reference_ad(agent):
    """``MachineAgent.build_ad`` as it was before the stable key existed."""
    spec = agent.spec
    ad = ClassAd(
        {
            "Type": "Machine",
            "Name": spec.name,
            "State": agent.state.value,
            "Activity": "Busy" if agent.claim is not None or agent.owner_active else "Idle",
            "Arch": spec.arch,
            "OpSys": spec.opsys,
            "Memory": spec.memory,
            "Disk": spec.disk,
            "Mips": spec.mips,
            "KFlops": spec.kflops,
            "LoadAvg": agent.load_avg,
            "KeyboardIdle": agent.keyboard_idle,
            "DayTime": agent.day_time,
            "ContactAddress": agent.address,
        }
    )
    for key, value in spec.extra_attrs.items():
        ad[key] = value
    ad["Constraint"] = parse("false" if agent.state is MachineState.OWNER else spec.constraint)
    ad["Rank"] = parse(spec.rank)
    if agent.claim is not None:
        ad["RemoteOwner"] = str(agent.claim.job_ad.evaluate("Owner"))
        ad["CurrentRank"] = agent.claim.rank
    if agent.authority.current is not None:
        embed_ticket(ad, agent.authority.current)
    return ad


def stable_fp(ad):
    """The stable fingerprint, recomputed from a copy with empty caches."""
    return fingerprint(ad.copy(), exclude=VOLATILE_MACHINE_ATTRS)


def last_full_ad(agent):
    """The last full ad the agent sent, None once forgotten: its
    advertising slot's basis is (that ad, its stable key)."""
    basis = agent._slot.basis
    return None if basis is None else basis[0]


def assert_builds_like_reference(agent):
    ad, ref = agent.build_ad(), reference_ad(agent)
    assert ad is not last_full_ad(agent)
    assert stable_fp(ad) == stable_fp(ref)
    assert ad.keys() == ref.keys()
    assert dumps(ad) == dumps(ref)


class NoOwner(OwnerModel):
    """An owner who comes and goes only when the script says so."""

    def active_duration(self, rng):
        return math.inf


def make_spec():
    return MachineSpec(
        name="m0",
        rank='other.Owner == "bob" ? 10 : 1',
        extra_attrs={"ResearchGroup": ["raman", "miron"], "Level": [1]},
    )


class Harness:
    """One agent on its own simulator, with every message it sends
    recorded at send time (the object, and the ad's payload and stable
    fingerprint as they were then)."""

    def __init__(self, reference=False):
        self.sim = Simulator()
        self.net = Network(self.sim, rng=RngStream(1), latency=0.01)
        for address in (COLLECTOR, SCHEDD):
            self.net.register(address, lambda message: None)
        self.sent = []
        send = self.net.send

        def spy(message):
            if isinstance(message, Advertisement):
                self.sent.append((message, dumps(message.ad), stable_fp(message.ad)))
            elif isinstance(message, Refresh):
                self.sent.append((message, None, None))
            send(message)

        self.net.send = spy
        self.agent = MachineAgent(
            self.sim,
            self.net,
            make_spec(),
            collector_address=COLLECTOR,
            rng=RngStream(2),
            owner_model=NoOwner(),
            advertise_interval=PERIOD,
        )
        self.agent.claim_lease = None
        if reference:
            self.agent.build_ad = lambda: reference_ad(self.agent)
        self.agent.start()

    def wire(self):
        """Every advertising message, as the collector would read it."""
        out = []
        for message, payload, fp in self.sent:
            if payload is None:
                out.append(("Refresh", message.sequence, message.fingerprint, message.volatile))
            else:
                out.append(("Advertisement", message.sequence, message.fingerprint, payload, fp))
        return out


def claim(owner, job_id, match_id):
    def act(h):
        job = Job(owner=owner, total_work=50_000.0, job_id=job_id)
        h.net.send(
            ClaimRequest(
                sender=SCHEDD,
                recipient=h.agent.address,
                customer_ad=job.to_classad(SCHEDD, h.sim.now),
                ticket=h.agent.authority.current,
                match_id=match_id,
            )
        )

    return act


def setter(**fields):
    def act(h):
        for name, value in fields.items():
            setattr(h.agent.spec, name, value)

    return act


def resend(h):
    h.net.send(ResendRequest(sender=COLLECTOR, recipient=h.agent.address, name="machine.m0"))


#: (time, label, action): the transition script, one step between
#: advertising periods (every 60 s).
SCRIPT = [
    (130.0, "claimed by alice", claim("alice", 1, 1)),
    (250.0, "preempted by bob, ranked higher", claim("bob", 2, 2)),
    (370.0, "owner arrives: evicted, Owner", lambda h: h.agent._owner_flip()),
    (490.0, "owner leaves: Unclaimed", lambda h: h.agent._owner_flip()),
    (610.0, "ticket minted", lambda h: h.agent.authority.mint()),
    (730.0, "ticket revoked", lambda h: h.agent.authority.revoke()),
    (850.0, "ticket minted again", lambda h: h.agent.authority.mint()),
    (970.0, "memory 64 -> 64.0", setter(memory=64.0)),
    (1090.0, "list mutated in place", lambda h: h.agent.spec.extra_attrs["Level"].append(2)),
    (1210.0, "[1] -> [1.0]", lambda h: h.agent.spec.extra_attrs.update(Level=[1.0])),
    (1330.0, "kflops 0.0", setter(kflops=0.0)),
    (1450.0, "kflops -0.0", setter(kflops=-0.0)),
    (1570.0, "policy text edit", setter(constraint='other.Type == "Job" && other.Memory > 0')),
    (1690.0, "crash", lambda h: h.agent.crash()),
    (1750.0, "restart", lambda h: h.agent.restart()),
    (1870.0, "ResendRequest", resend),
    (1990.0, "a new extra attribute", lambda h: h.agent.spec.extra_attrs.update(Note="n")),
]
END = 2200.0


def run_script(reference):
    h = Harness(reference=reference)
    for at, _label, action in SCRIPT:
        h.sim.schedule_at(at, action, h)
    h.sim.run_until(END)
    return h


class TestSameWireAsTheFromScratchBuild:
    def test_transition_script_sends_the_same_messages(self):
        ours, theirs = run_script(reference=False), run_script(reference=True)
        wire = ours.wire()
        assert wire == theirs.wire()
        kinds = [entry[0] for entry in wire]
        # The script is only a test of anything if both paths ran.
        assert kinds.count("Advertisement") >= len(SCRIPT)
        assert kinds.count("Refresh") >= len(SCRIPT)

    def test_every_state_of_the_script_builds_like_the_reference(self):
        h = Harness()
        for at, _label, action in SCRIPT:
            h.sim.run_until(at)
            action(h)
            h.sim.run_until(at + 30.0)
            assert_builds_like_reference(h.agent)
            h.sim.run_until(at + 61.0)  # a period passed: a reuse, if unchanged
            assert_builds_like_reference(h.agent)

    def test_the_script_visits_every_state(self):
        h = Harness()
        seen = set()
        for at, _label, action in SCRIPT:
            h.sim.run_until(at)
            action(h)
            h.sim.run_until(at + 1.0)
            seen.add(h.agent.state)
        assert seen == {MachineState.CLAIMED, MachineState.OWNER, MachineState.UNCLAIMED}
        assert h.agent.evictions_preempted == 1 and h.agent.evictions_owner == 1

    def test_no_sent_ad_is_ever_mutated_by_its_sender(self):
        h = run_script(reference=False)
        ads = [(m.ad, payload, fp) for m, payload, fp in h.sent if payload is not None]
        assert len(ads) >= len(SCRIPT)
        for ad, payload, fp in ads:
            assert dumps(ad) == payload
            assert stable_fp(ad) == fp


class TestReuse:
    def test_every_call_returns_a_new_ad_sharing_the_stable_expressions(self):
        h = Harness()
        h.sim.run_until(PERIOD + 1.0)
        last = last_full_ad(h.agent)
        a, b = h.agent.build_ad(), h.agent.build_ad()
        assert a is not b and a is not last and b is not last
        for key, expr in last._fields.items():
            if key not in VOLATILE_MACHINE_ATTRS:
                assert a._fields[key] is expr and b._fields[key] is expr
        assert a.keys() == last.keys()

    def test_a_volatile_name_among_the_extras_is_never_reused(self):
        spec = make_spec()
        spec.extra_attrs["KeyboardIdle"] = 5
        h = Harness()
        h.agent.spec = spec
        h.sim.run_until(3 * PERIOD + 1.0)
        assert_builds_like_reference(h.agent)
        assert h.agent.build_ad().evaluate("KeyboardIdle") == 5

    def test_expression_and_record_extras_build_like_the_reference(self):
        h = Harness()
        h.agent.spec.extra_attrs.update(
            Busy=parse("LoadAvg > 0.3"), Where={"Room": 3}, Nested=[[1], "a"]
        )
        h.sim.run_until(3 * PERIOD + 1.0)
        assert_builds_like_reference(h.agent)
        kinds = {entry[0] for entry in h.wire()}
        assert kinds == {"Advertisement", "Refresh"}


# -- a key hit refreshes without comparing the ads ----------------------------


def count_calls(monkeypatch, module, name):
    """Replace *module*.*name* by a wrapper; returns its call list."""
    calls, real = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def record_builds(agent):
    """Wrap *agent*'s build_ad; returns the list of (ad, hit) it built."""
    built, real = [], agent.build_ad

    def recording():
        ad = real()
        built.append((ad, agent._refresh is not None))
        return ad

    agent.build_ad = recording
    return built


def refreshes(h):
    """The Refreshes *h*'s agent sent, once each (not their blind copies)."""
    firsts = {}
    for message, payload, _fp in h.sent:
        if payload is None:
            firsts.setdefault(message.sequence, message)
    return list(firsts.values())


class TestKeyHit:
    def test_idle_periods_build_once_and_never_compare(self, monkeypatch):
        h = Harness()
        h.sim.run_until(PERIOD + 1.0)
        built = record_builds(h.agent)
        compared = count_calls(monkeypatch, machine_module, "stable_equal")
        extracted = count_calls(monkeypatch, machine_module, "volatile_values")
        periods = 10
        h.sim.run_until((periods + 1) * PERIOD + 1.0)
        assert len(built) == periods and all(hit for _ad, hit in built)
        assert compared == [] and extracted == []
        assert len(refreshes(h)) == periods + 1

    def test_an_expression_extra_is_compared_every_period(self, monkeypatch):
        h = Harness()
        h.agent.spec.extra_attrs["Busy"] = parse("LoadAvg > 0.3")
        compared = count_calls(monkeypatch, machine_module, "stable_equal")
        periods = 10
        h.sim.run_until(periods * PERIOD + 1.0)
        # The first ad goes out in full; every later one is a Refresh,
        # each decided by comparing the ads.
        assert len(compared) == periods
        assert len(refreshes(h)) == periods
        assert h.agent._refresh is None

    def test_every_refresh_carries_the_values_of_the_ad_built(self):
        h = Harness()
        built = record_builds(h.agent)
        checked = set()
        send = h.net.send

        def check(message):
            if isinstance(message, Refresh) and message.sequence not in checked:
                checked.add(message.sequence)
                ad, _hit = built[-1]
                assert message.volatile == volatile_values(ad, VOLATILE_MACHINE_ATTRS)
            send(message)

        h.net.send = check
        for at, _label, action in SCRIPT:
            h.sim.schedule_at(at, action, h)
        h.sim.run_until(END)
        assert len(checked) >= len(SCRIPT)
        assert sum(hit for _ad, hit in built) >= len(SCRIPT)

    def test_the_reference_agent_never_takes_the_hit_path(self, monkeypatch):
        compared = count_calls(monkeypatch, machine_module, "stable_equal")
        h = run_script(reference=True)
        assert h.agent._refresh is None
        assert len(compared) >= len(refreshes(h)) >= len(SCRIPT)


class TestIdentityShortcut:
    """``build_ad`` compares the key with the basis key by identity first.
    That is exact except for a NaN, which a basis key holding one turns
    off: values_equal then reads the NaN as a change every period."""

    def test_an_unchanged_key_hits_by_identity(self, monkeypatch):
        h = Harness()
        h.sim.run_until(PERIOD + 1.0)
        identity = count_calls(monkeypatch, machine_module, "is_")
        compared = count_calls(monkeypatch, machine_module, "values_equal")
        h.sim.run_until(11 * PERIOD + 1.0)
        assert len(identity) == 10 * len(h.agent._key) and compared == []
        assert len(refreshes(h)) == 11

    def test_a_nan_mips_sends_a_full_ad_every_period(self, monkeypatch):
        identity = count_calls(monkeypatch, machine_module, "is_")
        compared = count_calls(monkeypatch, machine_module, "values_equal")
        h = Harness()
        h.agent.spec.mips = math.nan
        h.sim.run_until(3000.0)
        periods = int(3000.0 // PERIOD) + 1
        assert {type(message) for message, _payload, _fp in h.sent} == {Advertisement}
        assert len({message.sequence for message, _payload, _fp in h.sent}) == periods
        assert identity == [] and len(compared) == periods - 1
        assert h.agent._slot.basis[2] is True

    def test_the_reference_agent_never_takes_the_shortcut(self, monkeypatch):
        identity = count_calls(monkeypatch, machine_module, "is_")
        run_script(reference=True)
        assert identity == []
        run_script(reference=False)
        assert identity


# -- equal keys mean equal stable content -------------------------------------

numbers = st.sampled_from([0, 1, 64, 0.0, -0.0, 1.0, 64.0, True, False, 2**70, math.nan])
items = st.one_of(numbers, st.sampled_from(["a", "b", ""]))
extras = st.dictionaries(
    st.sampled_from(["ResearchGroup", "Friends", "Level"]),
    st.one_of(items, st.lists(items, max_size=3)),
    max_size=3,
)
specs = st.builds(
    MachineSpec,
    name=st.just("m0"),
    arch=st.sampled_from(["INTEL", "SPARC"]),
    memory=numbers,
    kflops=numbers,
    constraint=st.sampled_from(['other.Type == "Job"', "true"]),
    rank=st.sampled_from(["0", "other.Memory"]),
    extra_attrs=extras,
)


def agent_for(spec):
    sim = Simulator()
    return MachineAgent(sim, Network(sim), spec, collector_address=COLLECTOR)


class TestStableKey:
    @given(specs, specs)
    @settings(max_examples=400, deadline=None)
    def test_equal_keys_mean_equal_stable_fingerprints(self, a, b):
        ka, kb = agent_for(a).stable_key(), agent_for(b).stable_key()
        fa = stable_fp(reference_ad(agent_for(a)))
        fb = stable_fp(reference_ad(agent_for(b)))
        if len(ka) == len(kb) and values_equal(ka, kb):
            assert fa == fb
        elif list(a.extra_attrs) == list(b.extra_attrs) and not any(
            isinstance(v, float) and v != v for v in ka + kb
        ):
            # No spurious full ads either: on these domains every key
            # difference is a content difference — but for NaN, and for
            # extras in another order, which the key (in ad order) tells
            # apart and the fingerprint (sorted) does not.
            assert fa != fb

    def test_list_items_compare_type_exactly(self):
        one, one_real = make_spec(), make_spec()
        one_real.extra_attrs["Level"] = [1.0]
        ka, kb = agent_for(one).stable_key(), agent_for(one_real).stable_key()
        assert ka == kb  # tuple == conflates 1 and 1.0 ...
        assert not values_equal(ka, kb)  # ... the key comparison does not

    def test_the_key_copies_lists(self):
        agent = agent_for(make_spec())
        key = agent.stable_key()
        agent.spec.extra_attrs["ResearchGroup"].append("x")
        assert len(agent.stable_key()) == len(key) + 1


# -- no spurious full ads on a whole pool ------------------------------------


def test_churn_pool_sends_the_same_machine_ads_as_before():
    """8 machines (4 with owners coming and going), 24 jobs, 100 periods:
    counts taken at the parent commit, where every period built the
    machine ad from scratch."""
    obs.reset()
    obs.enable()
    try:
        pool = fixed_pool()
        sent = {}
        send = pool.net.send

        def spy(message):
            if isinstance(message, (Advertisement, Refresh)) and message.sender.startswith(
                "startd@"
            ):
                sent.setdefault(id(message), message)  # held: no id is reused
            send(message)

        pool.net.send = spy
        pool.run_until(6000.0)
        totals = obs.metrics.totals()
    finally:
        obs.disable()
        obs.reset()
    kinds = [type(m).__name__ for m in sent.values()]
    assert kinds.count("Advertisement") == 119
    assert kinds.count("Refresh") == 800
    assert totals["collector.refresh_hits"] == 3180
    assert "collector.resend_requests" not in totals
