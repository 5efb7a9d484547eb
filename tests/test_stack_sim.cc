/**
 * @file
 * Unit tests for the single-pass stack-distance engine
 * (cache/stack_sim): grid validation, exact agreement with
 * SetAssocCache on individual geometries under both write
 * policies, warmup-window equality with runCacheSim, exhausted
 * sources, the dispatch eligibility predicate, and the `cache`
 * kernel's sweeps against per-point runCacheSim.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/stack_sim.hh"
#include "cache/sweep.hh"
#include "exp/scenarios.hh"
#include "trace/generators.hh"

namespace uatm {
namespace {

void
expectStatsEqual(const CacheStats &got, const CacheStats &want,
                 const std::string &label)
{
    EXPECT_EQ(got.accesses, want.accesses) << label;
    EXPECT_EQ(got.loads, want.loads) << label;
    EXPECT_EQ(got.stores, want.stores) << label;
    EXPECT_EQ(got.hits, want.hits) << label;
    EXPECT_EQ(got.misses, want.misses) << label;
    EXPECT_EQ(got.loadMisses, want.loadMisses) << label;
    EXPECT_EQ(got.storeMisses, want.storeMisses) << label;
    EXPECT_EQ(got.fills, want.fills) << label;
    EXPECT_EQ(got.writebacks, want.writebacks) << label;
    EXPECT_EQ(got.storesToMemory, want.storesToMemory) << label;
    EXPECT_EQ(got.storesToMemoryBytes, want.storesToMemoryBytes)
        << label;
    EXPECT_EQ(got.coldMisses, want.coldMisses) << label;
    EXPECT_EQ(got.prefetchInserts, want.prefetchInserts) << label;
    EXPECT_EQ(got.instructions, want.instructions) << label;
}

std::unique_ptr<TraceSource>
workingSetSource(std::uint64_t seed)
{
    WorkingSetGenerator::Config ws;
    ws.stackDepth = 200;
    ws.decay = 0.97;
    ws.coldFraction = 0.04;
    ws.storeFraction = 0.35;
    return std::make_unique<WorkingSetGenerator>(ws, Rng(seed));
}

TEST(GeometryGridTest, ValidateRejectsBadShapes)
{
    GeometryGrid grid;
    grid.setCounts = {64};
    grid.assocs = {2};
    EXPECT_TRUE(grid.validate().ok());

    GeometryGrid empty;
    EXPECT_FALSE(empty.validate().ok());

    GeometryGrid bad_line = grid;
    bad_line.lineBytes = 48;
    EXPECT_FALSE(bad_line.validate().ok());

    GeometryGrid bad_sets = grid;
    bad_sets.setCounts = {64, 96};
    EXPECT_FALSE(bad_sets.validate().ok());

    GeometryGrid bad_assoc = grid;
    bad_assoc.assocs = {2, 0};
    EXPECT_FALSE(bad_assoc.validate().ok());

    GeometryGrid around = grid;
    around.writeMiss = WriteMissPolicy::WriteAround;
    EXPECT_FALSE(around.validate().ok());
}

TEST(GeometryGridTest, AddConfigDeduplicates)
{
    GeometryGrid grid;
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 2;
    config.lineBytes = 32;
    grid.addConfig(config);
    grid.addConfig(config);
    config.sizeBytes = 16 * 1024; // same set count at 4-way
    config.assoc = 4;
    grid.addConfig(config);
    EXPECT_EQ(grid.setCounts.size(), 1u);
    EXPECT_EQ(grid.assocs.size(), 2u);
}

TEST(GeometryGridTest, ShardDealsSetCountsRoundRobin)
{
    GeometryGrid grid;
    grid.lineBytes = 64;
    grid.write = WritePolicy::WriteThrough;
    grid.setCounts = {64, 128, 256, 512, 1024};
    grid.assocs = {4, 1};
    const std::vector<GeometryGrid> shards = grid.shard(3);
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0].setCounts,
              (std::vector<std::uint64_t>{64, 512}));
    EXPECT_EQ(shards[1].setCounts,
              (std::vector<std::uint64_t>{128, 1024}));
    EXPECT_EQ(shards[2].setCounts, (std::vector<std::uint64_t>{256}));
    for (const GeometryGrid &shard : shards) {
        EXPECT_EQ(shard.lineBytes, 64u);
        EXPECT_EQ(shard.write, WritePolicy::WriteThrough);
        EXPECT_EQ(shard.assocs, grid.assocs);
    }
    // Never more shards than set counts, never none.
    EXPECT_EQ(grid.shard(9).size(), 5u);
    EXPECT_EQ(grid.shard(0).size(), 1u);
    EXPECT_EQ(grid.shard(1)[0].setCounts, grid.setCounts);
}

TEST(StackSimulatorTest, ShardsFedOneStreamMatchTheWholeGrid)
{
    // Set counts never interact, so every shard's cells equal the
    // one-pass surface's, geometry-independent counters included.
    GeometryGrid grid;
    grid.lineBytes = 32;
    for (std::uint64_t size : {1024ull, 4096ull, 16384ull, 65536ull}) {
        for (std::uint32_t assoc : {1u, 2u, 8u}) {
            CacheConfig config;
            config.sizeBytes = size;
            config.assoc = assoc;
            config.lineBytes = 32;
            grid.addConfig(config);
        }
    }
    constexpr std::uint64_t kRefs = 7000;
    auto source = workingSetSource(23);
    const GeometryHitSurface whole =
        runStackSim(grid, *source, kRefs, 1000);
    for (const GeometryGrid &shard : grid.shard(4)) {
        const GeometryHitSurface part =
            runStackSim(shard, *source, kRefs, 1000);
        for (std::uint64_t sets : shard.setCounts) {
            for (std::uint32_t assoc : shard.assocs) {
                CacheConfig config;
                config.lineBytes = 32;
                config.assoc = assoc;
                config.sizeBytes = sets * assoc * 32;
                expectStatsEqual(okOrThrow(part.statsFor(config)),
                                 okOrThrow(whole.statsFor(config)),
                                 config.describe());
            }
        }
    }
}

TEST(StackSimulatorTest, RejectsInvalidGrid)
{
    GeometryGrid grid; // no cells
    EXPECT_THROW(StackSimulator{grid}, StatusError);
}

TEST(StackSimulatorTest, MatchesSetAssocCachePerGeometry)
{
    std::vector<CacheConfig> configs;
    for (std::uint64_t size : {1024ull, 4096ull, 16384ull}) {
        for (std::uint32_t assoc : {1u, 2u, 8u}) {
            CacheConfig config;
            config.sizeBytes = size;
            config.assoc = assoc;
            config.lineBytes = 32;
            ASSERT_TRUE(config.validate().ok());
            configs.push_back(config);
        }
    }
    // Fully associative: one set holding every line.
    CacheConfig full;
    full.sizeBytes = 1024;
    full.lineBytes = 32;
    full.assoc = 32;
    ASSERT_EQ(full.numSets(), 1u);
    configs.push_back(full);

    GeometryGrid grid;
    for (const CacheConfig &config : configs)
        grid.addConfig(config);

    // The caches track first touches themselves; the simulator
    // reads them from the stream's flags.
    StackSimulator sim(grid);
    std::vector<SetAssocCache> caches;
    caches.reserve(configs.size());
    for (const CacheConfig &config : configs)
        caches.emplace_back(config);

    auto source = workingSetSource(17);
    streamTo(*source, 6000, grid.lineBytes, 0,
             [&](const StreamBlock &block) {
                 sim.feed(block);
                 for (SetAssocCache &cache : caches)
                     for (std::size_t i = 0; i < block.count; ++i)
                         cache.access(block.refs[i]);
             });

    const GeometryHitSurface surface = sim.finish();
    ASSERT_EQ(caches.front().stats().accesses, 6000u);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto stats = surface.statsFor(configs[i]);
        ASSERT_TRUE(stats.ok()) << configs[i].describe();
        expectStatsEqual(stats.value(), caches[i].stats(),
                         configs[i].describe());
    }
}

TEST(StackSimulatorTest, MatchesWriteThroughCache)
{
    CacheConfig config;
    config.sizeBytes = 4096;
    config.assoc = 2;
    config.lineBytes = 32;
    config.write = WritePolicy::WriteThrough;

    GeometryGrid grid;
    grid.write = WritePolicy::WriteThrough;
    grid.addConfig(config);

    StackSimulator sim(grid);
    SetAssocCache cache(config);
    auto source = workingSetSource(23);
    streamTo(*source, 5000, grid.lineBytes, 0,
             [&](const StreamBlock &block) {
                 sim.feed(block);
                 for (std::size_t i = 0; i < block.count; ++i)
                     cache.access(block.refs[i]);
             });
    ASSERT_EQ(cache.stats().accesses, 5000u);
    const auto stats = sim.finish().statsFor(config);
    ASSERT_TRUE(stats.ok());
    expectStatsEqual(stats.value(), cache.stats(),
                     "write-through");
    EXPECT_EQ(stats.value().writebacks, 0u);
}

TEST(RunStackSimTest, WarmupWindowMatchesRunCacheSim)
{
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 4;
    config.lineBytes = 32;
    GeometryGrid grid;
    grid.addConfig(config);

    auto a = workingSetSource(31);
    auto b = workingSetSource(31);
    const GeometryHitSurface surface =
        runStackSim(grid, *a, 9000, 1500);
    const CacheRunResult run = runCacheSim(config, *b, 9000, 1500);
    const auto stats = surface.statsFor(config);
    ASSERT_TRUE(stats.ok());
    expectStatsEqual(stats.value(), run.stats, "warmup window");
}

TEST(RunStackSimTest, ExhaustedSourceMatchesPerGeometryRun)
{
    // A finite Trace shorter than the requested window.
    std::vector<MemoryReference> refs;
    Rng rng(5);
    for (int i = 0; i < 700; ++i) {
        MemoryReference ref;
        ref.addr = rng.nextBelow(1 << 14) & ~3ull;
        ref.size = 4;
        ref.kind =
            rng.nextBool(0.4) ? RefKind::Store : RefKind::Load;
        ref.gap = static_cast<std::uint32_t>(rng.nextBelow(4));
        refs.push_back(ref);
    }
    CacheConfig config;
    config.sizeBytes = 2048;
    config.assoc = 2;
    config.lineBytes = 16;
    GeometryGrid grid;
    grid.lineBytes = 16;
    grid.addConfig(config);

    Trace a(refs);
    Trace b(refs);
    const GeometryHitSurface surface =
        runStackSim(grid, a, 5000, 100);
    const CacheRunResult run = runCacheSim(config, b, 5000, 100);
    const auto stats = surface.statsFor(config);
    ASSERT_TRUE(stats.ok());
    expectStatsEqual(stats.value(), run.stats, "exhausted trace");
}

TEST(GeometryHitSurfaceTest, StatsForRejectsForeignConfigs)
{
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.assoc = 2;
    config.lineBytes = 32;
    GeometryGrid grid;
    grid.addConfig(config);
    auto source = workingSetSource(3);
    const GeometryHitSurface surface =
        runStackSim(grid, *source, 500);

    CacheConfig other_line = config;
    other_line.lineBytes = 64;
    other_line.assoc = 2;
    EXPECT_FALSE(surface.statsFor(other_line).ok());

    CacheConfig other_cell = config;
    other_cell.assoc = 4; // cell not in the grid
    EXPECT_FALSE(surface.statsFor(other_cell).ok());

    CacheConfig fifo = config;
    fifo.replacement = ReplacementKind::FIFO;
    EXPECT_FALSE(surface.statsFor(fifo).ok());

    CacheConfig invalid = config;
    invalid.sizeBytes = 5000;
    EXPECT_FALSE(surface.statsFor(invalid).ok());
}

TEST(StackSimEligibilityTest, ReportsTheDisqualifyingProperty)
{
    CacheConfig config;
    EXPECT_EQ(stackSimIneligibleReason(config), nullptr);

    config.write = WritePolicy::WriteThrough;
    EXPECT_EQ(stackSimIneligibleReason(config), nullptr);

    CacheConfig fifo;
    fifo.replacement = ReplacementKind::FIFO;
    EXPECT_NE(stackSimIneligibleReason(fifo), nullptr);

    CacheConfig around;
    around.writeMiss = WriteMissPolicy::WriteAround;
    EXPECT_NE(stackSimIneligibleReason(around), nullptr);
}

TEST(SweepDispatchTest, PlanSkipsInvalidGeometriesAndTalliesDeclines)
{
    CacheConfig base;
    base.lineBytes = 32;
    base.assoc = 2;
    std::vector<CacheConfig> configs(3, base);
    configs[0].sizeBytes = 4096;
    configs[1].sizeBytes = 5000; // not a power of two
    configs[2].sizeBytes = 8192;

    resetSweepDispatchStats();
    const auto grid = planStackSim(configs);
    ASSERT_TRUE(grid.has_value());
    EXPECT_EQ(grid->setCounts.size(), 2u);
    EXPECT_TRUE(grid->validate().ok());
    EXPECT_EQ(sweepDispatchCounters().fastPath, 1u);

    // Different line sizes cannot share a pass: per-point by
    // design, not a decline.
    std::vector<CacheConfig> lines = configs;
    lines[2].lineBytes = 64;
    EXPECT_FALSE(planStackSim(lines).has_value());
    EXPECT_EQ(sweepDispatchCounters().perPoint, 1u);
    EXPECT_EQ(sweepDispatchCounters().declined, 0u);

    std::vector<CacheConfig> fifo = configs;
    fifo[0].replacement = ReplacementKind::FIFO;
    EXPECT_FALSE(planStackSim(fifo).has_value());
    EXPECT_FALSE(planStackSim({configs[1]}).has_value());

    // 256 one-way sets next to one 256-way set: the pass would keep
    // 256-deep stacks for all 257 sets, 128 entries per cache line.
    std::vector<CacheConfig> wide(2, base);
    wide[0].assoc = 1;
    wide[1].assoc = 256;
    EXPECT_FALSE(planStackSim(wide).has_value());
    EXPECT_EQ(sweepDispatchCounters().declined, 3u);
    resetSweepDispatchStats();
}

TEST(SweepDispatchTest, CountersTrackFastAndDeclinedSweeps)
{
    resetSweepDispatchStats();
    CacheConfig base;
    base.lineBytes = 32;
    exp::GeometrySweep spec;
    spec.base = base;
    spec.workload = exp::WorkloadSpec::custom(
        "working-set", [] { return workingSetSource(11); });
    spec.values = {4096, 8192};
    spec.refs = 2000;
    exp::Runner runner(exp::RunnerOptions{1});

    exp::runGeometrySweep(spec, runner);
    SweepDispatchCounters counters = sweepDispatchCounters();
    EXPECT_EQ(counters.fastPath, 1u);
    EXPECT_EQ(counters.declined, 0u);

    spec.base.replacement = ReplacementKind::FIFO;
    exp::runGeometrySweep(spec, runner);
    counters = sweepDispatchCounters();
    EXPECT_EQ(counters.fastPath, 1u);
    EXPECT_EQ(counters.declined, 1u);

    spec.base = base;
    spec.axis = exp::GeometrySweep::Axis::Line;
    spec.values = {16, 32};
    exp::runGeometrySweep(spec, runner);
    counters = sweepDispatchCounters();
    EXPECT_EQ(counters.perPoint, 1u);
    resetSweepDispatchStats();
}

TEST(SweepFastPathTest, SweepCacheSizeMatchesBruteForce)
{
    CacheConfig base;
    base.assoc = 2;
    base.lineBytes = 32;
    const std::vector<std::uint64_t> sizes = {1024, 4096, 16384,
                                              65536};
    resetSweepDispatchStats();
    const auto fast = exp::sweepCacheSizeParallel(
        base,
        exp::WorkloadSpec::custom("working-set",
                                  [] { return workingSetSource(41); }),
        sizes, 8000, 800, 2);
    EXPECT_EQ(sweepDispatchCounters().fastPath, 1u);
    resetSweepDispatchStats();

    // Brute force: rerun each point directly.
    ASSERT_EQ(fast.size(), sizes.size());
    auto brute_source = workingSetSource(41);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        CacheConfig config = base;
        config.sizeBytes = sizes[i];
        const CacheRunResult run =
            runCacheSim(config, *brute_source, 8000, 800);
        EXPECT_EQ(fast[i].value, sizes[i]);
        EXPECT_EQ(fast[i].hitRatio, run.hitRatio()) << sizes[i];
        EXPECT_EQ(fast[i].missRatio, run.missRatio()) << sizes[i];
        EXPECT_EQ(fast[i].flushRatio, run.flushRatio()) << sizes[i];
    }
}

} // namespace
} // namespace uatm
