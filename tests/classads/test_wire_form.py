"""The wire form is pinned: payloads, fingerprints and wire sizes.

``repro.classads.fingerprint`` writes the common payload shapes directly
instead of running the JSON encoder once per attribute.  The encoder is
the *definition*, so it is kept here as the reference — the derivation
exactly as it stood before the direct forms existed — and every derived
form is asserted byte-identical to it: over a golden corpus of the ads
the pool actually sends (the Figure-1 machine ad in its three states, a
request ad) and over a hypothesis strategy aimed at the places a direct
formatter could diverge (string escapes, big integers, ``True`` / ``1``
/ ``1.0``, signed zeros, exponent forms, non-finite reals on the
``$expr`` route, ``undefined`` / ``error``, nesting, attribute order
and name case).

Also here: the hygiene of the operator-expression payload memo, and the
change detectors (``literal_equal`` / ``values_equal`` /
``payload_equal`` / ``stable_equal``) being exactly as fine as the
fingerprint they vouch for.
"""

import importlib
import json
from enum import IntEnum
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classads import (
    UNDEFINED,
    ClassAd,
    ListExpr,
    Literal,
    RecordExpr,
    ad_wire_size,
    fingerprint,
    parse,
    payload_equal,
    values_equal,
)
from repro.classads.fingerprint import _payload, _payloads, literal_equal
from repro.classads.serialize import _expr_to_json
from repro.classads.values import ErrorValue
from repro.condor import Job, MachineState
from repro.condor.machine import MachineAgent
from repro.condor.workload import generate_policy_pool
from repro.protocols import (
    VOLATILE_JOB_ATTRS,
    VOLATILE_MACHINE_ATTRS,
    ClaimRequest,
    stable_equal,
)
from repro.sim import Network, RngStream, Simulator

# The package attribute ``repro.classads.fingerprint`` is the function.
fp_module = importlib.import_module("repro.classads.fingerprint")


# -- the reference: the derivation as it was, one encoder run per attribute --


def ref_payload(expr):
    return json.dumps(_expr_to_json(expr), separators=(",", ":"))


def ref_fingerprint(ad, exclude=()):
    exclude = frozenset(name.lower() for name in exclude)
    payloads = {key: ref_payload(expr) for key, expr in ad.bindings().items()}
    digest = blake2b(digest_size=16)
    for name in sorted(payloads):
        digest.update(name.encode("utf-8"))
        digest.update(b"=")
        if name in exclude:
            digest.update(b"\x00volatile")
        else:
            digest.update(payloads[name].encode("utf-8"))
        digest.update(b";")
    return digest.hexdigest()


def ref_wire_size(ad):
    return 2 + sum(
        len(name) + len(ref_payload(expr)) + 4 for name, expr in ad.bindings().items()
    )


def assert_pinned(ad, excludes=((),)):
    assert _payloads(ad) == {k: ref_payload(e) for k, e in ad.bindings().items()}
    for exclude in excludes:
        assert fingerprint(ad, exclude=exclude) == ref_fingerprint(ad, exclude)
    assert fingerprint(ad) == ref_fingerprint(ad)
    assert ad_wire_size(ad) == ref_wire_size(ad)


# -- golden corpus -----------------------------------------------------------


def figure1_agent():
    sim = Simulator()
    net = Network(sim, rng=RngStream(1), latency=0.01)
    net.register("collector@cm", lambda message: None)
    net.register("schedd@u0", lambda message: None)
    (spec,) = generate_policy_pool(
        RngStream(3), 1, groups=[["u0", "u1"]], friends=["u4"], untrusted=["u7"]
    )
    agent = MachineAgent(sim, net, spec, "collector@cm", rng=RngStream(2))
    agent.start()
    return sim, net, agent


def job_ad(**fields):
    job = Job(owner="u0", total_work=1800.5, job_id=41, **fields)
    job.submit_time = 1801.25
    return job.to_classad("schedd@u0", 2101.25)


class TestGoldenCorpus:
    def test_machine_ad_in_each_state(self):
        sim, net, agent = figure1_agent()
        sim.run_until(1.0)
        assert agent.state is MachineState.UNCLAIMED
        assert_pinned(agent.build_ad(), [VOLATILE_MACHINE_ATTRS])

        net.send(
            ClaimRequest(
                sender="schedd@u0",
                recipient=agent.address,
                customer_ad=job_ad(req_arch=agent.spec.arch, req_opsys=agent.spec.opsys),
                ticket=agent.authority.current,
                match_id=7,
            )
        )
        sim.run_until(2.0)
        assert agent.state is MachineState.CLAIMED
        claimed = agent.build_ad()
        assert "RemoteOwner" in claimed and "CurrentRank" in claimed
        assert_pinned(claimed, [VOLATILE_MACHINE_ATTRS])

        agent._owner_flip()
        assert agent.state is MachineState.OWNER
        assert_pinned(agent.build_ad(), [VOLATILE_MACHINE_ATTRS])

    def test_job_ad(self):
        assert_pinned(job_ad(), [VOLATILE_JOB_ATTRS])
        assert_pinned(job_ad(priority=-0.0, memory=2**70), [VOLATILE_JOB_ATTRS])

    def test_known_digest(self):
        """Literal values taken at the parent commit, so the reference
        above cannot drift along with the implementation unnoticed."""
        ad = ClassAd({"Type": "Job", "Memory": 31, "AdvertisedAt": 5.0})
        ad["Constraint"] = parse("other.Memory >= self.Memory")
        assert _payloads(ad) == {
            "type": '"Job"',
            "memory": "31",
            "advertisedat": "5.0",
            "constraint": '{"$expr":"other.Memory >= self.Memory"}',
        }
        assert fingerprint(ad, exclude=VOLATILE_JOB_ATTRS) == "4e157b8031360c61f9dfed34a1c5d0a2"
        assert fingerprint(ad) == "fc8a082313228f43ecebfc7a6b9e0dc5"
        assert ad_wire_size(ad) == 99


# -- hypothesis: where a direct formatter could diverge ----------------------

names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True)

tricky_scalars = st.one_of(
    st.sampled_from(
        [
            'é"\\\n',
            "",
            "\x00\x1f ",
            "\U0001f600 surrogate pair",
            2**70,
            -(2**70),
            True,
            False,
            1,
            0,
            1.0,
            0.0,
            -0.0,
            1e22,
            1e16,
            1e-7,
            123456789.123456789,
            float("inf"),
            float("-inf"),
            float("nan"),
            UNDEFINED,
            ErrorValue("boom"),
            ErrorValue('quote " and é'),
        ]
    ),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.booleans(),
)

operator_exprs = st.sampled_from(
    [
        parse("other.Memory >= self.Memory && Arch == \"INTEL\""),
        parse("member(other.Owner, Untrusted) ? 0 : 10"),
        parse('strcat("é\\"", Name)'),
        parse("-x"),
        parse("a.b[3]"),
    ]
)

wire_values = st.recursive(
    st.one_of(tricky_scalars, operator_exprs),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(names, children, max_size=3),
    ),
    max_leaves=6,
)

wire_ads = st.lists(
    st.tuples(names, wire_values),
    min_size=1,
    max_size=6,
    unique_by=lambda kv: kv[0].lower(),
)


class TestPinnedByProperty:
    @given(wire_ads, st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_form_matches_the_reference(self, items, data):
        ad = ClassAd(items)
        exclude = data.draw(st.sets(st.sampled_from([n for n, _ in items])))
        assert_pinned(ad, [exclude, [n.swapcase() for n in exclude]])

    @given(wire_ads)
    @settings(max_examples=100, deadline=None)
    def test_order_and_case_are_not_content(self, items):
        ad = ClassAd(items)
        flipped = ClassAd([(n.swapcase(), v) for n, v in reversed(items)])
        assert fingerprint(flipped) == fingerprint(ad) == ref_fingerprint(flipped)
        assert ad_wire_size(flipped) == ad_wire_size(ad)

    @pytest.mark.parametrize(
        "value, payload",
        [
            ('é"\\\n', '"\\u00e9\\"\\\\\\n"'),
            (2**70, "1180591620717411303424"),
            (True, "true"),
            (1, "1"),
            (1.0, "1.0"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1e22, "1e+22"),
            (1e-7, "1e-07"),
            (float("inf"), '{"$expr":"real(\\"inf\\")"}'),
            (float("nan"), '{"$expr":"real(\\"nan\\")"}'),
            (UNDEFINED, '{"$undefined":true}'),
            (ErrorValue("boom"), '{"$error":"boom"}'),
            ([1, [True, "x"], {"a": -0.0}], '[1,[true,"x"],{"a":-0.0}]'),
        ],
    )
    def test_literal_payloads(self, value, payload):
        ad = ClassAd({"X": value})
        assert _payloads(ad)["x"] == payload == ref_payload(ad["X"])


# -- memo hygiene -------------------------------------------------------------


class TestExpressionPayloadMemo:
    def setup_method(self):
        fp_module._EXPR_PAYLOADS.clear()

    def test_shared_expression_is_unparsed_once(self, monkeypatch):
        calls = []
        real = fp_module.unparse
        monkeypatch.setattr(fp_module, "unparse", lambda e: calls.append(e) or real(e))
        policy = parse("other.Memory >= self.Memory")
        for i in range(5):
            ad = ClassAd({"Name": f"m{i}"})
            ad["Constraint"] = policy
            assert fingerprint(ad) == ref_fingerprint(ad)
        assert calls == [policy]

    def test_bounded(self):
        limit = fp_module._EXPR_PAYLOADS_LIMIT
        for i in range(2 * limit + 7):
            _payload(parse(f"other.Memory >= {i}"))
            assert len(fp_module._EXPR_PAYLOADS) <= limit

    def test_entry_keeps_its_expression_alive(self):
        """A recycled ``id()`` cannot alias: while an entry lives it holds
        its expression, and a hit is validated by identity."""
        seen = {}
        for i in range(200):
            expr = parse(f"x + {i}")
            assert _payload(expr) == ref_payload(expr)
            seen[id(expr)] = seen.get(id(expr), 0) + 1
            del expr  # the memo's reference is now the only one
        assert max(seen.values()) == 1  # no id came round again
        for held, payload in fp_module._EXPR_PAYLOADS.values():
            assert payload == ref_payload(held)

    def test_stale_entry_under_a_reused_id_is_not_served(self):
        a, b = parse("x + 1"), parse("y + 2")
        fp_module._EXPR_PAYLOADS[id(b)] = (a, _payload(a))  # as if id(a) were recycled
        assert _payload(b) == ref_payload(b) != ref_payload(a)

    def test_scalar_subclasses_take_the_general_route(self):
        class Level(IntEnum):
            HIGH = 3

        class Loud(str):
            def __repr__(self):
                return "LOUD"

            __str__ = __repr__

        class Odd(float):
            def __repr__(self):
                return "odd"

        for value in (Level.HIGH, Loud("x"), Odd(2.5)):
            expr = Literal(value)
            assert _payload(expr) == ref_payload(expr)
        assert _payload(Literal(Level.HIGH)) == "3"
        assert _payload(Literal(Loud("x"))) == '"x"'
        assert _payload(Literal(Odd(2.5))) == "2.5"

    def test_containers_and_literals_never_enter_the_memo(self):
        ad = ClassAd({"L": [1, 2], "R": {"a": 1}, "S": "s", "U": UNDEFINED})
        fingerprint(ad)
        assert not fp_module._EXPR_PAYLOADS
        assert isinstance(ad["L"], ListExpr) and isinstance(ad["R"], RecordExpr)


# -- the change detectors are as fine as the fingerprint ---------------------


class TestChangeDetectorFineness:
    def test_signed_zero_repro(self):
        """``CurrentRank`` 0.0 vs -0.0: the fingerprints differ and
        ``string(CurrentRank)`` reads differently, so a skip is wrong."""
        a = ClassAd({"Type": "Machine", "CurrentRank": -0.0, "LoadAvg": 0.05})
        b = ClassAd({"Type": "Machine", "CurrentRank": 0.0, "LoadAvg": 0.05})
        assert fingerprint(a, exclude=VOLATILE_MACHINE_ATTRS) != fingerprint(
            b, exclude=VOLATILE_MACHINE_ATTRS
        )
        assert a.eval_expr("string(CurrentRank)") == "-0.0"
        assert b.eval_expr("string(CurrentRank)") == "0.0"
        assert not stable_equal(a, b, VOLATILE_MACHINE_ATTRS)
        assert not payload_equal(a["CurrentRank"], b["CurrentRank"])
        assert stable_equal(a, a.copy(), VOLATILE_MACHINE_ATTRS)

    PAIRS = [
        (0, 0.0),
        (0, False),
        (1, True),
        (1.0, True),
        (0.0, -0.0),
        (float("nan"), float("nan")),
        ("1", 1),
        (ErrorValue("a"), ErrorValue("b")),
        (UNDEFINED, ErrorValue("a")),
    ]

    @pytest.mark.parametrize("va, vb", PAIRS)
    def test_what_equality_conflates_the_detectors_do_not(self, va, vb):
        assert not literal_equal(va, vb)
        assert not literal_equal(vb, va)
        assert not values_equal(("same", va), ("same", vb))
        assert not payload_equal(Literal(va), Literal(vb))

    def test_an_identical_nan_still_counts_as_changed(self):
        nan = float("nan")
        assert not values_equal((nan,), (nan,))
        assert not literal_equal(nan, nan)

    @given(tricky_scalars, tricky_scalars)
    @settings(max_examples=300, deadline=None)
    def test_equal_means_same_payload(self, va, vb):
        if literal_equal(va, vb):
            assert ref_payload(Literal(va)) == ref_payload(Literal(vb))
        assert values_equal((va,), (vb,)) == literal_equal(va, vb)
        assert payload_equal(Literal(va), Literal(vb)) == literal_equal(va, vb)

    @given(tricky_scalars)
    @settings(max_examples=200, deadline=None)
    def test_equal_to_itself_unless_nan(self, value):
        is_nan = isinstance(value, float) and value != value
        assert literal_equal(value, value) == (not is_nan)
        assert values_equal((value,), (value,)) == (not is_nan)
