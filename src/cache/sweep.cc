/**
 * @file
 * Implementation of the cache runs and the sweep planner.
 */

#include "cache/sweep.hh"

#include <algorithm>
#include <atomic>
#include <set>
#include <utility>

#include "obs/profile.hh"
#include "util/logging.hh"

namespace uatm {

namespace {

std::atomic<std::uint64_t> g_fastPathSweeps{0};
std::atomic<std::uint64_t> g_declinedSweeps{0};
std::atomic<std::uint64_t> g_perPointSweeps{0};

} // namespace

SweepDispatchCounters
sweepDispatchCounters()
{
    SweepDispatchCounters counters;
    counters.fastPath =
        g_fastPathSweeps.load(std::memory_order_relaxed);
    counters.declined =
        g_declinedSweeps.load(std::memory_order_relaxed);
    counters.perPoint =
        g_perPointSweeps.load(std::memory_order_relaxed);
    return counters;
}

void
resetSweepDispatchStats()
{
    g_fastPathSweeps.store(0, std::memory_order_relaxed);
    g_declinedSweeps.store(0, std::memory_order_relaxed);
    g_perPointSweeps.store(0, std::memory_order_relaxed);
}

void
noteSweepDispatch(bool fast_path, bool structural,
                  const std::string &reason)
{
    if (fast_path) {
        g_fastPathSweeps.fetch_add(1, std::memory_order_relaxed);
    } else if (structural) {
        g_perPointSweeps.fetch_add(1, std::memory_order_relaxed);
    } else {
        g_declinedSweeps.fetch_add(1, std::memory_order_relaxed);
        warn("geometry sweep fell back to per-point simulation: ",
             reason);
    }
}

std::optional<GeometryGrid>
planStackSim(const std::vector<CacheConfig> &configs)
{
    UATM_ASSERT(!configs.empty(), "no geometry to plan");
    const CacheConfig &first = configs.front();
    for (const CacheConfig &config : configs) {
        if (config.lineBytes != first.lineBytes ||
            config.write != first.write ||
            config.writeMiss != first.writeMiss) {
            noteSweepDispatch(false, true, {});
            return std::nullopt;
        }
    }
    GeometryGrid grid;
    grid.lineBytes = first.lineBytes;
    grid.write = first.write;
    std::set<std::pair<std::uint64_t, std::uint32_t>> cells;
    for (const CacheConfig &config : configs) {
        if (const char *reason = stackSimIneligibleReason(config)) {
            noteSweepDispatch(false, false, reason);
            return std::nullopt;
        }
        if (config.validate().ok()) {
            grid.addConfig(config);
            cells.emplace(config.numSets(), config.assoc);
        }
    }
    if (grid.setCounts.empty()) {
        noteSweepDispatch(false, false, "no geometry is valid");
        return std::nullopt;
    }
    // Every set count's stacks are as deep as the widest way count,
    // so one config's many sets next to another's many ways could
    // cost far more memory than the configs (requests reach this).
    const double widest =
        *std::max_element(grid.assocs.begin(), grid.assocs.end());
    double lines = 0.0;
    double entries = 0.0;
    for (const auto &[sets, assoc] : cells)
        lines += double(sets) * assoc;
    for (std::uint64_t sets : grid.setCounts)
        entries += double(sets) * widest;
    if (entries > 4.0 * lines) {
        noteSweepDispatch(false, false,
                          "the LRU stacks would need over 4 entries "
                          "per simulated cache line");
        return std::nullopt;
    }
    noteSweepDispatch(true, false, {});
    return grid;
}

CacheRunResult
runCacheSim(const CacheConfig &config, TraceSource &source,
            std::uint64_t refs, std::uint64_t warmup_refs)
{
    UATM_PROFILE_SCOPE("cache.run_sim");
    UATM_ASSERT(warmup_refs <= refs,
                "warmup longer than the whole run");
    CacheRun run(config, warmup_refs);
    streamTo(source, refs, config.lineBytes, warmup_refs,
             [&run](const StreamBlock &block) { run.feed(block); });
    return run.finish();
}

CacheRun::CacheRun(const CacheConfig &config,
                   std::uint64_t warmup_refs)
    : cache_(config), warmupRefs_(warmup_refs)
{
    // First touches come with the stream's blocks.
    cache_.setColdTracking(false);
}

void
CacheRun::feed(const StreamBlock &block)
{
    if (!warm_ && block.first >= warmupRefs_)
        warm_ = cache_.stats();
    const std::uint8_t *first_touch =
        block.firstTouch(cache_.config().lineBytes);
    for (std::size_t i = 0; i < block.count; ++i)
        cache_.access(block.refs[i], first_touch && first_touch[i]);
}

CacheRunResult
CacheRun::finish() const
{
    // A stream that ran dry inside the warm-up measures nothing.
    const CacheStats warm = warm_ ? *warm_ : cache_.stats();
    CacheStats measured = cache_.stats();
    measured.accesses -= warm.accesses;
    measured.loads -= warm.loads;
    measured.stores -= warm.stores;
    measured.hits -= warm.hits;
    measured.misses -= warm.misses;
    measured.loadMisses -= warm.loadMisses;
    measured.storeMisses -= warm.storeMisses;
    measured.fills -= warm.fills;
    measured.writebacks -= warm.writebacks;
    measured.storesToMemory -= warm.storesToMemory;
    measured.coldMisses -= warm.coldMisses;
    measured.instructions -= warm.instructions;

    return CacheRunResult{cache_.config(), measured};
}

} // namespace uatm
