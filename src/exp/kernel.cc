/**
 * @file
 * Implementation of the kernel registry.
 */

#include "exp/kernel.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "cache/sweep.hh"
#include "cpu/timing_engine.hh"

namespace uatm::exp {

namespace {

std::vector<Cell>
ratioCells(const CacheRunResult &run)
{
    return {Cell::num(run.hitRatio(), kRatioPrecision),
            Cell::num(run.missRatio(), kRatioPrecision),
            Cell::num(run.flushRatio(), kRatioPrecision)};
}

Expected<std::vector<Cell>>
evalCachePoint(const Point &point)
{
    auto source = point.workload.make();
    if (!source.ok())
        return source.status();
    return ratioCells(runCacheSim(point.cache, *source.value(),
                                  point.refs, point.warmupRefs));
}

/** One point's runCacheSim, fed by its group's stream. */
class CacheReader final : public StreamReader
{
  public:
    explicit CacheReader(const Point &point)
        : run_(point.cache, point.warmupRefs)
    {
    }

    void feed(const StreamBlock &block) override { run_.feed(block); }

    std::vector<Expected<std::vector<Cell>>>
    finish() override
    {
        return {ratioCells(run_.finish())};
    }

  private:
    CacheRun run_;
};

/** One stack-sim pass, or one shard of it, pricing several points
 *  of a group. */
class StackReader final : public StreamReader
{
  public:
    StackReader(const GeometryGrid &grid, std::uint64_t warmup_refs,
                std::vector<CacheConfig> configs)
        : sim_(grid, warmup_refs), configs_(std::move(configs))
    {
    }

    void feed(const StreamBlock &block) override { sim_.feed(block); }

    std::vector<Expected<std::vector<Cell>>>
    finish() override
    {
        const GeometryHitSurface surface = sim_.finish();
        std::vector<Expected<std::vector<Cell>>> results;
        for (const CacheConfig &config : configs_) {
            auto stats = surface.statsFor(config);
            if (stats.ok())
                results.push_back(
                    ratioCells({config, std::move(stats).value()}));
            else
                results.push_back(stats.status());
        }
        return results;
    }

  private:
    StackSimulator sim_;
    std::vector<CacheConfig> configs_;
};

/** The points planStackSim takes as one pass cut by set count into
 *  a shard per lane, else one cache per point; an invalid geometry
 *  fails as eval does.  A group with one valid geometry has nothing
 *  to share and is per-point by design; one with none tallies
 *  nothing. */
std::vector<StreamReaderSlot>
openCacheGroup(const std::vector<const Point *> &group, unsigned lanes)
{
    std::vector<CacheConfig> configs;
    for (const Point *point : group)
        configs.push_back(point->cache);
    const auto valid = std::count_if(
        configs.begin(), configs.end(),
        [](const CacheConfig &config) { return config.validate().ok(); });
    if (valid == 1)
        noteSweepDispatch(false, true, {});
    std::vector<StreamReaderSlot> slots;
    const std::optional<GeometryGrid> grid =
        valid > 1 ? planStackSim(configs) : std::nullopt;
    if (grid) {
        for (GeometryGrid &shard : grid->shard(lanes)) {
            StreamReaderSlot slot;
            std::vector<CacheConfig> priced;
            for (std::size_t i = 0; i < configs.size(); ++i) {
                if (configs[i].validate().ok() &&
                    std::find(shard.setCounts.begin(),
                              shard.setCounts.end(),
                              configs[i].numSets()) !=
                        shard.setCounts.end()) {
                    slot.points.push_back(i);
                    priced.push_back(configs[i]);
                }
            }
            slot.firstTouchLine = shard.lineBytes;
            slot.make = [shard = std::move(shard),
                         warmup = group.front()->warmupRefs,
                         priced = std::move(priced)] {
                return std::make_unique<StackReader>(shard, warmup,
                                                     priced);
            };
            slots.push_back(std::move(slot));
        }
    }
    for (std::size_t i = 0; i < group.size(); ++i) {
        if (grid && configs[i].validate().ok())
            continue;
        slots.push_back({{i}, configs[i].lineBytes,
                         [point = group[i]] {
                             return std::make_unique<CacheReader>(
                                 *point);
                         }});
    }
    return slots;
}

std::vector<Cell>
timingCells(const TimingStats &stats, const CacheStats &cache)
{
    return {Cell::num(cache.hitRatio() * 100, 2),
            Cell::integer(static_cast<std::int64_t>(stats.cycles)),
            Cell::num(stats.cpi(), 3),
            Cell::num(stats.meanMemoryDelay(), 3)};
}

Expected<std::vector<Cell>>
evalTimingPoint(const Point &point)
{
    auto source = point.workload.make();
    if (!source.ok())
        return source.status();
    TimingEngine engine(point.cache, point.memory, point.writeBuffer,
                        point.cpu);
    const TimingStats stats = engine.run(*source.value(), point.refs);
    return timingCells(stats, engine.cacheStats());
}

/** One point's TimingEngine, fed by its group's stream. */
class TimingReader final : public StreamReader
{
  public:
    explicit TimingReader(const Point &point)
        : engine_(point.cache, point.memory, point.writeBuffer,
                  point.cpu)
    {
        engine_.begin();
    }

    void feed(const StreamBlock &block) override
    {
        engine_.feed(block);
    }

    std::vector<Expected<std::vector<Cell>>>
    finish() override
    {
        const TimingStats stats = engine_.finish();
        return {timingCells(stats, engine_.cacheStats())};
    }

  private:
    TimingEngine engine_;
};

std::vector<StreamReaderSlot>
openTimingGroup(const std::vector<const Point *> &group, unsigned)
{
    std::vector<StreamReaderSlot> slots;
    for (std::size_t i = 0; i < group.size(); ++i) {
        slots.push_back({{i}, group[i]->cache.lineBytes,
                         [point = group[i]] {
                             return std::make_unique<TimingReader>(
                                 *point);
                         }});
    }
    return slots;
}

const std::vector<Kernel> &
registry()
{
    static const std::vector<Kernel> kKernels = {
        {"cache", "cache/v1",
         {"hit_ratio", "miss_ratio", "flush_ratio"},
         evalCachePoint, {openCacheGroup}, true},
        {"timing", "timing/v1",
         {"hr_pct", "cycles", "cpi", "mem_delay"},
         evalTimingPoint, {openTimingGroup}, false},
    };
    return kKernels;
}

} // namespace

const Kernel *
findKernel(const std::string &name)
{
    for (const Kernel &kernel : registry()) {
        if (kernel.name == name)
            return &kernel;
    }
    return nullptr;
}

std::vector<std::string>
servedKernelNames()
{
    std::vector<std::string> names;
    for (const Kernel &kernel : registry()) {
        if (kernel.served)
            names.push_back(kernel.name);
    }
    return names;
}

} // namespace uatm::exp
