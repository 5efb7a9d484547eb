/**
 * @file
 * Stalling-factor measurement harness (paper Sec. 4.2, Figure 1).
 *
 * Runs the timing engine over one SPEC92-like profile and reports
 * the empirical stalling factor phi; appendPhiAverage averages the
 * six programs exactly as the paper's Figure 1 does.  The six-
 * profile driver is exp::measurePhiAllProfilesParallel
 * (exp/scenarios).
 */

#ifndef UATM_CPU_PHI_MEASUREMENT_HH
#define UATM_CPU_PHI_MEASUREMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "cpu/stall_feature.hh"
#include "cpu/timing_engine.hh"
#include "memory/timing.hh"

namespace uatm {

/** Parameters of one phi measurement. */
struct PhiExperiment
{
    /** Figure 1 setup: 8 KB, 2-way, 32 B lines, write-allocate. */
    CacheConfig cache;

    /** Bus width D (Figure 1 uses 4 bytes). */
    std::uint32_t busWidthBytes = 4;

    /** Memory cycle time mu_m to evaluate. */
    Cycles cycleTime = 8;

    StallFeature feature = StallFeature::BNL1;

    /** References simulated per program. */
    std::uint64_t refs = 200000;

    /** Workload seed. */
    std::uint64_t seed = 42;

    PhiExperiment();
};

/** Result of one phi measurement. */
struct PhiResult
{
    std::string workload;
    double phi = 0.0;
    /** phi as a percentage of its FS ceiling L/D. */
    double percentOfFull = 0.0;
    TimingStats timing;
};

/** The machine a phi measurement simulates around its cache. */
struct PhiMachine
{
    MemoryConfig memory;
    WriteBufferConfig wbuf;
    CpuConfig cpu;
};

/** The memory, write-buffer and CPU configs measurePhi runs
 *  @p experiment on (flush traffic suppressed per Eq. 8). */
PhiMachine phiMachine(const PhiExperiment &experiment);

/**
 * Measure phi on one named SPEC92-like profile: the per-profile
 * reference that exp::measurePhiAllProfilesParallel runs once per
 * profile.
 */
PhiResult measurePhi(const PhiExperiment &experiment,
                     const std::string &profile_name);

/**
 * Append the Figure 1 "average" row — the unweighted mean of phi
 * and of the percent-of-ceiling across the rows already present.
 */
void appendPhiAverage(std::vector<PhiResult> &results);

} // namespace uatm

#endif // UATM_CPU_PHI_MEASUREMENT_HH
