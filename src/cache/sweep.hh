/**
 * @file
 * Cache runs and the geometry-sweep planner: runCacheSim prices one
 * configuration, planStackSim decides whether a sweep's points
 * share one stack-sim pass.  The sweeps themselves run through the
 * `cache` kernel (exp/kernel, exp/scenarios), which produces the
 * measured hit-ratio curves that stand in for the paper's
 * trace-driven numbers (Short & Levy sizes in Example 1, Smith
 * MR(L) in Fig. 6).
 */

#ifndef UATM_CACHE_SWEEP_HH
#define UATM_CACHE_SWEEP_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/stack_sim.hh"
#include "trace/fanout.hh"
#include "trace/source.hh"

namespace uatm {

/** Outcome of one simulation run. */
struct CacheRunResult
{
    CacheConfig config;
    CacheStats stats;

    double hitRatio() const { return stats.hitRatio(); }
    double missRatio() const { return stats.missRatio(); }
    double flushRatio() const
    {
        return stats.flushRatio(config.lineBytes);
    }
};

/**
 * Run @p refs references of @p source (reset first) through a fresh
 * cache of @p config.  Optionally skip a warmup prefix from the
 * statistics so compulsory-miss transients don't pollute steady-
 * state hit ratios.  The one-reader case of CacheRun.
 */
CacheRunResult runCacheSim(const CacheConfig &config,
                           TraceSource &source, std::uint64_t refs,
                           std::uint64_t warmup_refs = 0);

/**
 * runCacheSim as a stream reader: a fresh cache fed a stream's
 * blocks in order (trace/fanout), measuring after the first
 * @p warmup_refs references.  The stream's blocks must not
 * straddle that position (BlockFanout's split).
 */
class CacheRun
{
  public:
    /** Throws StatusError when @p config fails validate(). */
    CacheRun(const CacheConfig &config, std::uint64_t warmup_refs);

    void feed(const StreamBlock &block);

    /** The post-warm-up window's result. */
    CacheRunResult finish() const;

  private:
    SetAssocCache cache_;
    std::uint64_t warmupRefs_;
    std::optional<CacheStats> warm_;
};

/** (size or line, hit ratio) sample from a sweep. */
struct SweepPoint
{
    std::uint64_t value;
    double hitRatio;
    double missRatio;
    double flushRatio;
};

/**
 * Process-wide tally of how geometry sweeps were dispatched, so a
 * workload silently losing the single-pass engine is observable.
 * All three counters are cumulative; see resetSweepDispatchStats.
 */
struct SweepDispatchCounters
{
    /** Sweeps served by the single-pass stack engine. */
    std::uint64_t fastPath = 0;

    /** Sweeps that could share one pass but fell back to
     *  per-point simulation — each decline is also logged with
     *  its reason (never a silent fallback). */
    std::uint64_t declined = 0;

    /** Sweeps that are per-point by design: their points differ
     *  in stream, line size or write policy (see planStackSim). */
    std::uint64_t perPoint = 0;
};

/** Snapshot of the global dispatch counters. */
SweepDispatchCounters sweepDispatchCounters();

/** Zero the global dispatch counters (tests, benchmarks). */
void resetSweepDispatchStats();

/** Internal: bump one counter (used by exp/kernel so every
 *  dispatch site shares one tally).  @p reason, when non-empty,
 *  is logged for declined sweeps. */
void noteSweepDispatch(bool fast_path, bool structural,
                       const std::string &reason);

/**
 * The one stack-sim planner: the grid pricing every valid config of
 * @p configs (non-empty, one reference stream) in one runStackSim
 * pass, or nullopt.  Tallies the decision: differing line size or
 * write policy is per-point by design; non-LRU, write-around, no
 * valid config, or stacks over 4 entries per line of the distinct
 * configs (a memory bound) is a logged decline.
 */
std::optional<GeometryGrid>
planStackSim(const std::vector<CacheConfig> &configs);

} // namespace uatm

#endif // UATM_CACHE_SWEEP_HH
