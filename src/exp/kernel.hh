/**
 * The kernel registry, shared by offline scenarios and the daemon.
 *
 * Every kernel has two forms that render the same bytes: eval
 * prices one point on its own and is the reference the tests
 * compare against; stream prices the points of a stream group
 * (exp::Runner, DESIGN.md §13), generating each stream once.
 * Kernel::run, offline runs, `uatm_client --offline` and the
 * daemon's cache misses all take the stream form.
 *
 * "cache" prices hit, miss and flush ratio of point.cache over
 * point.workload.  A group with two or more valid geometries that
 * planStackSim (cache/sweep.hh) allows is priced by one stack-sim
 * pass, cut by set count into one shard per lane
 * (GeometryGrid::shard), all reading the group's one stream; every
 * other point gets its own cache, and a geometry that fails
 * validate() fails as eval does.
 *
 * "timing" runs each point through the trace-driven TimingEngine
 * (point.cache, memory, writeBuffer, cpu) and reports hit ratio in
 * percent, cycles, CPI and mean memory delay; callers project the
 * columns they show.  It is offline-only: the daemon serves
 * "cache".
 */

#ifndef UATM_EXP_KERNEL_HH
#define UATM_EXP_KERNEL_HH

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

    /** The stream-group form (Runner::run with a StreamKernel):
     *  byte-identical to eval, each stream generated once. */
    StreamKernel stream;

    /** The daemon prices this kernel. */
    bool served = false;

    /** Run @p scenario on @p runner by stream groups. */
    ResultTable
    run(Runner &runner, const Scenario &scenario) const
    {
        return runner.run(scenario, columns, stream);
    }
};

/** Kernel by name; nullptr when unknown. */
const Kernel *findKernel(const std::string &name);

/** Names of the kernels the daemon serves. */
std::vector<std::string> servedKernelNames();

} // namespace uatm::exp

#endif // UATM_EXP_KERNEL_HH
