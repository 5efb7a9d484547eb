/**
 * @file
 * Implementation of the phi measurement harness.
 */

#include "cpu/phi_measurement.hh"

#include "trace/generators.hh"
#include "util/logging.hh"

namespace uatm {

PhiExperiment::PhiExperiment()
{
    // Figure 1's cache: 8 Kbytes, two-way set associative,
    // write-allocate (the paper's Eq. 8 assumes write-allocate).
    cache.sizeBytes = 8 * 1024;
    cache.assoc = 2;
    cache.lineBytes = 32;
    cache.writeMiss = WriteMissPolicy::WriteAllocate;
    cache.write = WritePolicy::WriteBack;
    cache.replacement = ReplacementKind::LRU;
}

PhiMachine
phiMachine(const PhiExperiment &experiment)
{
    PhiMachine machine;
    machine.memory.busWidthBytes = experiment.busWidthBytes;
    machine.memory.cycleTime = experiment.cycleTime;
    // Phi isolates the read-miss stall component (Eq. 8 has no
    // flush term), so dirty-victim traffic is suppressed entirely;
    // the paper's Figure 1 likewise reports pure read-miss
    // stalling.
    machine.wbuf.depth = 64;
    machine.wbuf.readBypass = true;
    machine.cpu.feature = experiment.feature;
    machine.cpu.suppressFlushTraffic = true;
    return machine;
}

PhiResult
measurePhi(const PhiExperiment &experiment,
           const std::string &profile_name)
{
    const PhiMachine machine = phiMachine(experiment);
    TimingEngine engine(experiment.cache, machine.memory,
                        machine.wbuf, machine.cpu);
    auto workload = Spec92Profile::make(profile_name,
                                        experiment.seed);

    PhiResult result;
    result.workload = profile_name;
    result.timing = engine.run(*workload, experiment.refs);
    result.phi = result.timing.phi(experiment.cycleTime);
    const double full =
        static_cast<double>(experiment.cache.lineBytes) /
        static_cast<double>(experiment.busWidthBytes);
    result.percentOfFull = 100.0 * result.phi / full;
    return result;
}

void
appendPhiAverage(std::vector<PhiResult> &results)
{
    UATM_ASSERT(!results.empty(), "no phi rows to average");
    double phi_sum = 0.0;
    double pct_sum = 0.0;
    for (const auto &row : results) {
        phi_sum += row.phi;
        pct_sum += row.percentOfFull;
    }
    PhiResult average;
    average.workload = "average";
    const auto n = static_cast<double>(results.size());
    average.phi = phi_sum / n;
    average.percentOfFull = pct_sum / n;
    results.push_back(average);
}

} // namespace uatm
