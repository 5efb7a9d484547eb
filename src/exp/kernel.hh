/**
 * The kernel registry, shared by offline scenarios and the daemon.
 *
 * "cache" prices hit, miss and flush ratio of point.cache over
 * point.workload.  The whole-sweep hook prices all of a scenario's
 * points in one stack-sim pass when they read one stream
 * (sameStream) and planStackSim (cache/sweep.hh) allows; otherwise,
 * and for a geometry that fails validate(), eval runs per point.
 * The pass runs on the first point priced, so an all-hit request to
 * the daemon never pays for it.  Its stream form does the same per
 * stream group, with the pass cut by set count into one shard per
 * lane of the group (GeometryGrid::shard), all reading the group's
 * one stream; a point the planner does not take gets its own
 * cache.
 *
 * "timing" runs each point through the trace-driven TimingEngine
 * (point.cache, memory, writeBuffer, cpu) and reports hit ratio in
 * percent, cycles, CPI and mean memory delay; callers project the
 * columns they show.  It is offline-only: the daemon serves
 * "cache".
 */

#ifndef UATM_EXP_KERNEL_HH
#define UATM_EXP_KERNEL_HH

#include <functional>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "exp/scenario.hh"

namespace uatm::exp {

/** Decimal places of every ratio cell. */
inline constexpr int kRatioPrecision = 6;

struct Kernel
{
    std::string name; ///< request-facing name ("cache")

    /** Point-key id ("cache/v1"): must change whenever the columns
     *  or semantics do, or stale cache entries would alias them. */
    std::string id;

    std::vector<std::string> columns;

    /** Prices one point on its own: the reference. */
    Runner::Kernel eval;

    /** Optional whole-sweep hook: the per-point kernel for one
     *  scenario, pricing every point in one pass on its first
     *  call.  Byte-identical to eval and safe to call from several
     *  runner workers at once. */
    std::function<Runner::Kernel(const Scenario &)> sweep;

    /** The stream-group form (Runner::run with a StreamKernel):
     *  byte-identical to eval, each stream generated once. */
    StreamKernel stream;

    /** The daemon prices this kernel. */
    bool served = false;

    /** The per-point kernel to run @p scenario with. */
    Runner::Kernel
    bind(const Scenario &scenario) const
    {
        return sweep ? sweep(scenario) : eval;
    }

    /** Run @p scenario on @p runner: by stream groups when the
     *  kernel has them, else per point through bind(). */
    ResultTable
    run(Runner &runner, const Scenario &scenario) const
    {
        return stream.open ? runner.run(scenario, columns, stream)
                           : runner.run(scenario, columns,
                                        bind(scenario));
    }
};

/** Kernel by name; nullptr when unknown. */
const Kernel *findKernel(const std::string &name);

/** Registered kernel names, for diagnostics. */
std::vector<std::string> kernelNames();

/** Names of the kernels the daemon serves. */
std::vector<std::string> servedKernelNames();

} // namespace uatm::exp

#endif // UATM_EXP_KERNEL_HH
