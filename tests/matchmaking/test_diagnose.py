"""Unit tests for constraint diagnostics (S22)."""

import pytest

from repro.classads import UNDEFINED, ClassAd
from repro.classads.values import literal_key
from repro.matchmaking import diagnose, is_unsatisfiable, pool_attribute_census


def machine(name, arch="INTEL", opsys="SOLARIS251", memory=64, constraint="true"):
    ad = ClassAd(
        {
            "Type": "Machine",
            "Name": name,
            "Arch": arch,
            "OpSys": opsys,
            "Memory": memory,
        }
    )
    ad.set_expr("Constraint", constraint)
    return ad


def pool():
    return (
        [machine(f"i{k}", arch="INTEL", memory=64) for k in range(6)]
        + [machine(f"s{k}", arch="SPARC", memory=128) for k in range(3)]
        + [machine("old0", arch="INTEL", memory=16)]
    )


def job(constraint, owner="raman", job_id=7, **attrs):
    ad = ClassAd({"Type": "Job", "Owner": owner, "JobId": job_id, **attrs})
    ad.set_expr("Constraint", constraint)
    return ad


class TestClauseAnalysis:
    def test_per_clause_counts(self):
        request = job(
            'other.Type == "Machine" && other.Arch == "INTEL" && other.Memory >= 64'
        )
        report = diagnose(request, pool())
        counts = {c.expression: c.satisfied for c in report.clauses}
        assert counts['other.Type == "Machine"'] == 10
        assert counts['other.Arch == "INTEL"'] == 7
        assert counts["other.Memory >= 64"] == 9

    def test_full_constraint_matches(self):
        request = job('other.Arch == "INTEL" && other.Memory >= 64')
        report = diagnose(request, pool())
        assert report.full_constraint_matches == 6
        assert report.bilateral_matches == 6
        assert not report.never_matches

    def test_unsatisfiable_clause_identified(self):
        request = job('other.Arch == "ALPHA" && other.Memory >= 32')
        report = diagnose(request, pool())
        bad = report.unsatisfiable_clauses
        assert len(bad) == 1
        assert 'other.Arch == "ALPHA"' in bad[0].expression
        assert report.never_matches

    def test_suggestion_lists_pool_values(self):
        request = job('other.Arch == "ALPHA"')
        report = diagnose(request, pool())
        suggestion = report.unsatisfiable_clauses[0].suggestion
        assert suggestion is not None
        assert "INTEL" in suggestion and "SPARC" in suggestion

    def test_undefined_reference_counts_as_unsatisfied(self):
        request = job("other.GPUs >= 1")
        report = diagnose(request, pool())
        assert report.clauses[0].satisfied == 0
        assert "<undefined>" in (report.clauses[0].suggestion or "")

    def test_suggestion_counts_boolean_values(self):
        """Regression: the hint counted only strings and numbers, so a
        pool advertising HasGPU = true/false read as all undefined."""
        gpu_pool = [machine(f"g{k}") for k in range(4)]
        for k, ad in enumerate(gpu_pool):
            ad["HasGPU"] = k % 2 == 0
        report = diagnose(job('other.HasGPU == "yes"'), gpu_pool)
        assert report.clauses[0].suggestion == "pool advertises hasgpu ∈ { true×2, false×2 }"

    def test_suggestion_keeps_distinct_literals_apart(self):
        """Regression: the census keyed values by Python equality, so
        true, 1 and 1.0 merged, and a string "<undefined>" counted as a
        missing attribute."""
        odd_pool = [machine(f"x{k}") for k in range(4)]
        for ad, value in zip(odd_pool, (True, 1, 1.0, "<undefined>")):
            ad["X"] = value
        census = pool_attribute_census(odd_pool, ["X"])["X"]
        assert census == {
            literal_key(True): 1,
            literal_key(1): 1,
            literal_key(1.0): 1,
            literal_key("<undefined>"): 1,
        }
        report = diagnose(job('other.X == "yes"'), odd_pool)
        assert report.clauses[0].suggestion == (
            'pool advertises x ∈ { true×1, 1×1, 1.0×1, "<undefined>"×1 }'
        )


class TestProviderSideRejections:
    def test_policy_rejections_counted_separately(self):
        fussy_pool = [
            machine("m0", constraint='other.Owner == "miron"'),
            machine("m1", constraint="true"),
        ]
        request = job('other.Type == "Machine"', owner="raman")
        report = diagnose(request, fussy_pool)
        assert report.full_constraint_matches == 2
        assert report.rejected_by_provider_policy == 1
        assert report.bilateral_matches == 1

    def test_everyone_rejects_the_requester(self):
        hostile = [machine("m0", constraint="false")]
        request = job('other.Type == "Machine"')
        report = diagnose(request, hostile)
        assert report.never_matches
        assert report.unsatisfiable_clauses == []  # the *clauses* are fine
        assert report.rejected_by_provider_policy == 1

    def test_reverse_rejections_name_the_failing_conjunct(self):
        fussy_pool = [
            machine("m0", constraint='other.Type == "Job" && other.Owner == "miron"'),
            machine("m1", constraint='other.Type == "Job" && other.Owner == "miron"'),
            machine("m2", constraint="true"),
        ]
        request = job('other.Type == "Machine"', owner="raman")
        report = diagnose(request, fussy_pool)
        assert len(report.provider_rejections) == 1
        reverse = report.provider_rejections[0]
        assert reverse.expression == 'other.Owner == "miron"'
        assert reverse.value == "false"
        assert reverse.count == 2
        assert set(reverse.examples) == {"m0", "m1"}

    def test_reverse_rejections_surface_undefined(self):
        fussy_pool = [machine("m0", constraint="other.CpuSecondsPaid >= 100")]
        request = job('other.Type == "Machine"')
        report = diagnose(request, fussy_pool)
        assert len(report.provider_rejections) == 1
        assert report.provider_rejections[0].value == "undefined"

    def test_render_shows_provider_side_section(self):
        fussy_pool = [
            machine("m0", constraint='other.Owner == "miron"'),
            machine("m1", constraint="true"),
        ]
        text = diagnose(job('other.Type == "Machine"'), fussy_pool).render()
        assert "provider-side rejections" in text
        assert 'other.Owner == "miron"' in text


class TestUnsatisfiableDetector:
    def test_satisfiable(self):
        assert not is_unsatisfiable(job('other.Arch == "INTEL"'), pool())

    def test_unsatisfiable(self):
        assert is_unsatisfiable(job("other.Memory >= 1024"), pool())

    def test_empty_pool(self):
        assert is_unsatisfiable(job("true"), [])

    def test_unconstrained_request_on_accepting_pool(self):
        request = ClassAd({"Type": "Job", "Owner": "x"})
        assert not is_unsatisfiable(request, pool())


class TestRendering:
    def test_render_mentions_everything(self):
        request = job('other.Arch == "ALPHA" && other.Memory >= 32')
        text = diagnose(request, pool()).render()
        assert "job 7 of raman" in text
        assert "UNSATISFIABLE" in text
        assert "bilateral matches                  : 0" in text

    def test_render_without_problems(self):
        text = diagnose(job('other.Arch == "INTEL"'), pool()).render()
        assert "UNSATISFIABLE" not in text


class TestPoolCensus:
    def test_census(self):
        census = pool_attribute_census(pool(), ["Arch", "Memory", "GPUs"])
        assert census["Arch"][literal_key("INTEL")] == 7
        assert census["Arch"][literal_key("SPARC")] == 3
        assert census["Memory"][literal_key(64)] == 6
        assert census["GPUs"][literal_key(UNDEFINED)] == 10
