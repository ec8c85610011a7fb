"""Unit tests for the deterministic chaos harness (plans + controller)."""

import pytest

from repro.sim import RngStream, Simulator
from repro.sim.chaos import (
    PROFILES,
    ChaosController,
    ChaosPlan,
    CrashWindow,
    DuplicationWindow,
    LossWindow,
    PartitionWindow,
    chaos_profile,
)


class TestPlanValidation:
    def test_empty_plan_is_valid(self):
        ChaosPlan().validate()

    def test_bad_loss_probability_rejected(self):
        plan = ChaosPlan(losses=(LossWindow(0, 10, 1.0),))
        with pytest.raises(ValueError):
            plan.validate()

    def test_empty_window_rejected(self):
        plan = ChaosPlan(losses=(LossWindow(10, 10, 0.5),))
        with pytest.raises(ValueError):
            plan.validate()

    def test_bad_duplication_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan(duplications=(DuplicationWindow(0, 10, 0.5, copies=0),)).validate()

    def test_bad_crash_duration_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan(crashes=(CrashWindow("cm", 5.0, duration=0.0),)).validate()

    def test_controller_validates_on_construction(self):
        with pytest.raises(ValueError):
            ChaosController(ChaosPlan(losses=(LossWindow(0, 10, -0.1),)))


class TestSendVerdict:
    def test_partition_is_one_directional(self):
        plan = ChaosPlan(
            partitions=(PartitionWindow(0, 100, "startd@*", "collector@*"),)
        )
        ctl = ChaosController(plan)
        assert ctl.send_verdict("startd@m0", "collector@cm", 50.0) == ("partition", 0)
        # The reverse direction flows.
        assert ctl.send_verdict("collector@cm", "startd@m0", 50.0) == (None, 0)

    def test_partition_respects_window(self):
        plan = ChaosPlan(partitions=(PartitionWindow(10, 20, "a", "b"),))
        ctl = ChaosController(plan)
        assert ctl.send_verdict("a", "b", 9.9)[0] is None
        assert ctl.send_verdict("a", "b", 10.0)[0] == "partition"
        assert ctl.send_verdict("a", "b", 20.0)[0] is None  # half-open

    def test_loss_window_rate_statistically(self):
        plan = ChaosPlan(seed=7, losses=(LossWindow(0, 100, 0.3),))
        ctl = ChaosController(plan)
        drops = sum(
            1 for _ in range(2000) if ctl.send_verdict("a", "b", 50.0)[0] == "loss"
        )
        assert 0.2 < drops / 2000 < 0.4

    def test_duplication_yields_copies(self):
        plan = ChaosPlan(seed=3, duplications=(DuplicationWindow(0, 100, 1.0, copies=2),))
        ctl = ChaosController(plan)
        assert ctl.send_verdict("a", "b", 1.0) == (None, 2)
        assert ctl.send_verdict("a", "b", 100.0) == (None, 0)  # outside window

    def test_same_seed_same_verdicts(self):
        plan = ChaosPlan(seed=11, losses=(LossWindow(0, 100, 0.5),))

        def run():
            ctl = ChaosController(plan)
            return [ctl.send_verdict("a", "b", 1.0)[0] for _ in range(100)]

        assert run() == run()

    def test_forked_rng_does_not_draw_from_parent(self):
        parent = RngStream(5)
        before = parent.uniform(0, 1)
        parent2 = RngStream(5)
        ChaosController(ChaosPlan(seed=0), rng=parent2).send_verdict("a", "b", 0.0)
        assert parent2.uniform(0, 1) == before


class TestCrashSchedule:
    def test_crash_hooks_fire_on_schedule(self):
        sim = Simulator()
        calls = []

        class FakeNet:
            def install_chaos(self, ctl):
                pass

        plan = ChaosPlan(crashes=(CrashWindow("cm", 10.0, duration=5.0),))
        ctl = ChaosController(plan)
        ctl.arm(
            sim,
            FakeNet(),
            crash_hooks={
                "cm": (lambda: calls.append(("crash", sim.now)),
                       lambda: calls.append(("restart", sim.now)))
            },
        )
        sim.run_until(100.0)
        assert calls == [("crash", 10.0), ("restart", 15.0)]

    def test_pattern_target_matches_multiple_hooks(self):
        sim = Simulator()
        crashed = []

        class FakeNet:
            def install_chaos(self, ctl):
                pass

        plan = ChaosPlan(crashes=(CrashWindow("startd@*", 1.0),))
        ctl = ChaosController(plan)
        ctl.arm(
            sim,
            FakeNet(),
            crash_hooks={
                "startd@m0": (lambda: crashed.append("m0"), lambda: None),
                "startd@m1": (lambda: crashed.append("m1"), lambda: None),
                "cm": (lambda: crashed.append("cm"), lambda: None),
            },
        )
        sim.run_until(2.0)
        assert sorted(crashed) == ["m0", "m1"]

    def test_unknown_target_downs_the_address(self):
        sim = Simulator()
        downed = []

        class FakeNet:
            def install_chaos(self, ctl):
                pass

            def set_down(self, address, down=True):
                downed.append((address, down))

        plan = ChaosPlan(crashes=(CrashWindow("ghost@x", 1.0, duration=2.0),))
        ChaosController(plan).arm(sim, FakeNet())
        sim.run_until(5.0)
        assert downed == [("ghost@x", True), ("ghost@x", False)]


class TestProfiles:
    def test_all_profiles_valid(self):
        for name in PROFILES:
            plan = chaos_profile(name, horizon=1000.0)
            plan.validate()
            assert plan.name == name

    def test_profiles_scale_with_horizon(self):
        small = chaos_profile("cm-crash", horizon=100.0)
        large = chaos_profile("cm-crash", horizon=1000.0)
        assert small.crashes[0].at * 10 == pytest.approx(large.crashes[0].at)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            chaos_profile("mayhem")

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            chaos_profile("lossy", horizon=0.0)
