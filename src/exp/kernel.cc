/**
 * @file
 * Implementation of the kernel registry.
 */

#include "exp/kernel.hh"

#include <memory>
#include <mutex>
#include <optional>

#include "cache/sweep.hh"

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

/** Same stream from make().  Custom specs carry an opaque factory;
 *  within one scenario their names tell them apart. */
bool
sameWorkload(const WorkloadSpec &a, const WorkloadSpec &b)
{
    return a.isCustom() == b.isCustom() && a.method == b.method &&
           a.params == b.params && a.seed == b.seed &&
           a.withIFetch == b.withIFetch &&
           a.customName == b.customName;
}

/** The surface pricing all of @p points in one stack-sim pass, or
 *  nullopt; each decision is tallied in sweepDispatchCounters(). */
std::optional<GeometryHitSurface>
priceInOnePass(const std::vector<Point> &points)
{
    const Point &first = points.front();
    std::vector<CacheConfig> configs;
    for (const Point &point : points) {
        if (point.refs != first.refs ||
            point.warmupRefs != first.warmupRefs ||
            !sameWorkload(point.workload, first.workload)) {
            noteSweepDispatch(false, true, {});
            return std::nullopt;
        }
        configs.push_back(point.cache);
    }
    auto source = first.workload.make();
    if (!source.ok()) {
        // eval reproduces the identical error row for every point.
        noteSweepDispatch(false, false,
                          "workload construction failed: " +
                              source.status().message());
        return std::nullopt;
    }
    const std::optional<GeometryGrid> grid = planStackSim(configs);
    if (!grid)
        return std::nullopt;
    return runStackSim(*grid, *source.value(), first.refs,
                       first.warmupRefs);
}

Runner::Kernel
bindCacheSweep(const Scenario &scenario)
{
    struct Sweep
    {
        explicit Sweep(const Scenario &s) : scenario(s) {}

        Scenario scenario;
        std::once_flag once;
        std::optional<GeometryHitSurface> surface;
    };
    auto sweep = std::make_shared<Sweep>(scenario);
    return [sweep](const Point &point) -> Expected<std::vector<Cell>> {
        if (point.cache.validate().ok()) {
            std::call_once(sweep->once, [&sweep] {
                sweep->surface =
                    priceInOnePass(sweep->scenario.expand());
            });
            if (sweep->surface)
                return ratioCells(
                    {point.cache,
                     okOrThrow(sweep->surface->statsFor(point.cache))});
        }
        return evalCachePoint(point);
    };
}

const std::vector<Kernel> &
registry()
{
    static const std::vector<Kernel> kKernels = {
        {"cache", "cache/v1",
         {"hit_ratio", "miss_ratio", "flush_ratio"},
         evalCachePoint, bindCacheSweep},
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
kernelNames()
{
    std::vector<std::string> names;
    for (const Kernel &kernel : registry())
        names.push_back(kernel.name);
    return names;
}

} // namespace uatm::exp
