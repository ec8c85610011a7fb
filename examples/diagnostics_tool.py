#!/usr/bin/env python3
"""Why won't my job match? — the Section 5 diagnostic tool (experiment E8).

Builds a realistic pool, then analyzes three problem jobs:

  1. a job demanding an architecture the pool does not have,
  2. a job whose memory requirement exceeds every machine,
  3. a job that *is* satisfiable but is rejected by owner policies.

Also prints the pool "hidden characteristics" census.

Run:  python examples/diagnostics_tool.py
"""

from repro.classads import ClassAd
from repro.condor import PoolProfile, generate_pool
from repro.matchmaking import diagnose, is_unsatisfiable, pool_attribute_census
from repro.sim import RngStream


def machine_ads(specs):
    ads = []
    for spec in specs:
        ad = ClassAd(
            {
                "Type": "Machine",
                "Name": spec.name,
                "Arch": spec.arch,
                "OpSys": spec.opsys,
                "Memory": spec.memory,
                "Disk": spec.disk,
                "Mips": spec.mips,
                "KFlops": spec.kflops,
            }
        )
        ad.set_expr("Constraint", spec.constraint)
        research_group = ["raman", "miron"]
        ad["ResearchGroup"] = research_group
        ads.append(ad)
    return ads


def job(owner, constraint, **attrs):
    ad = ClassAd({"Type": "Job", "Owner": owner, "JobId": attrs.pop("job_id", 1), **attrs})
    ad.set_expr("Constraint", constraint)
    return ad


def main():
    rng = RngStream(7)
    specs = generate_pool(rng, 50, PoolProfile())
    pool = machine_ads(specs)

    # Make a third of the pool research-group-only (bilateral policy).
    for ad in pool[::3]:
        ad.set_expr("Constraint", "member(other.Owner, ResearchGroup)")

    print(f"pool: {len(pool)} machines\n")

    print("pool census (the 'hidden characteristics' of Section 5):")
    census = pool_attribute_census(pool, ["Arch", "OpSys", "Memory"])
    for attr, counts in census.items():
        # Keys are (type, value) pairs (``literal_key``).
        rendered = ", ".join(f"{v}×{c}" for (_, v), c in counts.most_common())
        print(f"  {attr:<8}: {rendered}")
    print()

    cases = [
        (
            "wrong architecture",
            job(
                "raman",
                'other.Type == "Machine" && other.Arch == "VAX" && other.Memory >= 32',
                job_id=101,
            ),
        ),
        (
            "impossible memory",
            job(
                "raman",
                'other.Type == "Machine" && other.Memory >= 4096',
                job_id=102,
            ),
        ),
        (
            "policy rejections (stranger)",
            job(
                "outsider",
                'other.Type == "Machine" && other.Arch == "INTEL"',
                job_id=103,
            ),
        ),
    ]

    for title, request in cases:
        print("=" * 72)
        print(f"case: {title}")
        print("=" * 72)
        report = diagnose(request, pool)
        print(report.render())
        print(
            "verdict:",
            "UNSATISFIABLE by this pool"
            if is_unsatisfiable(request, pool)
            else "satisfiable",
        )
        print()


if __name__ == "__main__":
    main()
