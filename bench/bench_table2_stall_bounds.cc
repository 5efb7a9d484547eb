/**
 * @file
 * Table 2 — processor stalling features and their stalling-factor
 * bounds, with engine-measured phi values shown to fall inside the
 * bounds for the Figure 1 machine (8K 2-way 32B cache, D = 4).
 */

#include <cstdio>

#include "common.hh"
#include "cpu/phi_measurement.hh"
#include "exp/scenarios.hh"

using namespace uatm;

int
main()
{
    bench::banner("Table 2",
                  "processor stalling features: phi bounds and "
                  "measured values");

    const double line_over_bus = 32.0 / 4.0;

    // References per profile in every measurement below.
    constexpr std::uint64_t kRefs = 60000;

    // Manifest: the Figure 1 machine the phi measurements below
    // simulate, at mu_m = 8 (the rows vary the feature).
    {
        PhiExperiment exp;
        exp.cycleTime = 8;
        exp.refs = kRefs;
        const PhiMachine machine = phiMachine(exp);
        bench::recordMachine(exp.cache, machine.memory, machine.wbuf,
                             machine.cpu);
        bench::recordWorkload("spec92-six-profile-average",
                              exp.seed, exp.refs);
    }

    bench::section("Table 2 (phi in units of mu_m, L/D = 8)");
    TextTable bounds({"feature", "description", "phi min",
                      "phi max"});
    const struct
    {
        StallFeature feature;
        const char *description;
    } rows[] = {
        {StallFeature::FS, "full stalling"},
        {StallFeature::BL, "bus-locked"},
        {StallFeature::BNL1, "bus-not-locked (whole-line wait)"},
        {StallFeature::BNL2, "bus-not-locked (arrived part ok)"},
        {StallFeature::BNL3, "bus-not-locked (chunk wait)"},
        {StallFeature::NB, "non-blocking"},
    };
    for (const auto &row : rows) {
        const PhiBounds b = phiBounds(row.feature, line_over_bus);
        bounds.addRow({stallFeatureName(row.feature),
                       row.description, TextTable::num(b.min, 1),
                       TextTable::num(b.max, 1)});
    }
    bench::emitTable(bounds);
    bench::exportCsv("table2_bounds", bounds);

    bench::section("measured phi (avg of six SPEC92-like "
                   "profiles, mu_m = 8)");
    TextTable measured({"feature", "phi", "% of L/D",
                        "within Table 2 bounds"});
    for (StallFeature f :
         {StallFeature::BL, StallFeature::BNL1, StallFeature::BNL2,
          StallFeature::BNL3, StallFeature::NB}) {
        PhiExperiment exp;
        exp.feature = f;
        exp.cycleTime = 8;
        exp.refs = kRefs;
        const auto all = exp::measurePhiAllProfilesParallel(exp, 0);
        const auto avg = all.back();
        bench::recordStats(all.front().timing, exp.cycleTime);
        const PhiBounds b = phiBounds(f, line_over_bus);
        const bool ok = avg.phi >= b.min - 1e-9 &&
                        avg.phi <= b.max + 1e-9;
        measured.addRow({stallFeatureName(f),
                         TextTable::num(avg.phi, 3),
                         TextTable::num(avg.percentOfFull, 1),
                         ok ? "yes" : "NO"});
    }
    bench::emitTable(measured);
    bench::exportCsv("table2_measured", measured);
    return 0;
}
