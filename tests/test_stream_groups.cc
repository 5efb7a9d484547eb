/**
 * @file
 * Differential suite for stream groups: points that read one stream
 * priced in lockstep from one shared, bounded ring (Runner::run with
 * a StreamKernel) against the per-point `eval` reference.  Tables
 * must be byte-identical at every thread count, and the shared
 * first-touch sets must reproduce every CacheStats field a cache
 * tracking its own cold misses counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/stack_sim.hh"
#include "cache/sweep.hh"
#include "exp/kernel.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "trace/fanout.hh"
#include "trace/generators.hh"
#include "trace/io.hh"

namespace uatm::exp {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 3, 4, 7};

std::string
perPointCsv(const Kernel &kernel, const Scenario &scenario)
{
    Runner runner(RunnerOptions{1});
    return runner.run(scenario, kernel.columns, kernel.eval)
        .renderCsv();
}

/** The stream form at every thread count must match eval. */
void
expectGroupsMatchEval(const Kernel &kernel, const Scenario &scenario)
{
    const std::string reference = perPointCsv(kernel, scenario);
    for (unsigned threads : kThreadCounts) {
        Runner runner(RunnerOptions{threads});
        EXPECT_EQ(runner.run(scenario, kernel.columns, kernel.stream)
                      .renderCsv(),
                  reference)
            << scenario.name() << " at " << threads << " threads";
    }
}

AxisValue
num(double value)
{
    return AxisValue::ofNumber(value);
}

/** A random scenario over @p kernel: a few axes drawn from line
 *  size, write policy, size, seed, refs and warm-up (the last three
 *  split the points into several stream groups). */
Scenario
randomScenario(std::mt19937 &rng, bool timing, int trial)
{
    const auto pick = [&rng](auto values) {
        std::uniform_int_distribution<std::size_t> d(
            0, values.size() - 1);
        return values[d(rng)];
    };
    Scenario scenario("random_" + std::to_string(trial));
    scenario.workload = pick(std::vector<WorkloadSpec>{
        WorkloadSpec::spec92("nasa7", 3),
        WorkloadSpec::spec92("doduc", 5),
        WorkloadSpec::of("ycsb-a", {}, 7),
        WorkloadSpec::of("reuse-dist", {}, 9)});
    scenario.refs = pick(std::vector<std::uint64_t>{
        1500, 2048, 4097, 6000});
    scenario.warmupRefs = timing ? 0 : scenario.refs / 8;
    scenario.cache.sizeBytes = pick(std::vector<std::uint64_t>{
        2048, 4096, 8192});
    scenario.cache.assoc = pick(std::vector<std::uint32_t>{1, 2, 4});
    scenario.cache.lineBytes =
        pick(std::vector<std::uint32_t>{16, 32});
    scenario.cache.replacement = pick(std::vector<ReplacementKind>{
        ReplacementKind::LRU, ReplacementKind::LRU,
        ReplacementKind::FIFO});
    if (timing) {
        scenario.memory.cycleTime =
            pick(std::vector<Cycles>{4, 8, 12});
        scenario.writeBuffer.depth =
            pick(std::vector<std::uint32_t>{0, 4});
    }

    std::vector<int> axes = {0, 1, 2, 3, 4, 5};
    std::shuffle(axes.begin(), axes.end(), rng);
    axes.resize(2 + rng() % 2);
    for (int axis : axes) {
        switch (axis) {
          case 0:
            scenario.sweep("line", {8, 16, 32, 64},
                           [](Point &p, const AxisValue &v) {
                               p.cache.lineBytes =
                                   static_cast<std::uint32_t>(v.value);
                           });
            break;
          case 1:
            scenario.sweepLabeled(
                "write", {{"wb-alloc", 0}, {"wt-around", 1},
                          {"wb-around", 2}},
                [](Point &p, const AxisValue &v) {
                    const int policy = static_cast<int>(v.value);
                    p.cache.write = policy == 1
                                        ? WritePolicy::WriteThrough
                                        : WritePolicy::WriteBack;
                    p.cache.writeMiss =
                        policy == 0 ? WriteMissPolicy::WriteAllocate
                                    : WriteMissPolicy::WriteAround;
                });
            break;
          case 2:
            scenario.sweep("size", {1024, 4096, 16384, 3000},
                           [](Point &p, const AxisValue &v) {
                               p.cache.sizeBytes =
                                   static_cast<std::uint64_t>(v.value);
                           });
            break;
          case 3:
            scenario.sweepLabeled("seed", {num(1), num(2)},
                                  [](Point &p, const AxisValue &v) {
                                      p.workload.seed =
                                          static_cast<std::uint64_t>(
                                              v.value);
                                  });
            break;
          case 4:
            scenario.sweepLabeled("refs", {num(1000), num(2500)},
                                  [](Point &p, const AxisValue &v) {
                                      p.refs =
                                          static_cast<std::uint64_t>(
                                              v.value);
                                      p.warmupRefs =
                                          std::min(p.warmupRefs,
                                                   p.refs);
                                  });
            break;
          case 5:
            scenario.sweepLabeled("warmup", {num(0), num(700)},
                                  [](Point &p, const AxisValue &v) {
                                      p.warmupRefs =
                                          static_cast<std::uint64_t>(
                                              v.value);
                                  });
            break;
        }
    }
    if (timing) {
        scenario.sweepLabeled(
            "feature", {{"FS", 0}, {"BNL3", 1}},
            [](Point &p, const AxisValue &v) {
                p.cpu.feature = v.value == 0 ? StallFeature::FS
                                             : StallFeature::BNL3;
            });
    }
    return scenario;
}

TEST(StreamGroups, RandomCacheScenariosMatchPerPointEval)
{
    std::mt19937 rng(20261018);
    const Kernel &kernel = *findKernel("cache");
    for (int trial = 0; trial < 12; ++trial) {
        const Scenario scenario = randomScenario(rng, false, trial);
        SCOPED_TRACE(scenario.name());
        expectGroupsMatchEval(kernel, scenario);
    }
}

TEST(StreamGroups, RandomTimingScenariosMatchPerPointEval)
{
    std::mt19937 rng(7);
    const Kernel &kernel = *findKernel("timing");
    for (int trial = 0; trial < 8; ++trial) {
        const Scenario scenario = randomScenario(rng, true, trial);
        SCOPED_TRACE(scenario.name());
        expectGroupsMatchEval(kernel, scenario);
    }
}

TEST(StreamGroups, DifferingStreamsSplitGroups)
{
    Point a;
    a.workload = WorkloadSpec::spec92("ear", 3);
    a.refs = 1000;
    Point b = a;
    EXPECT_TRUE(sameStream(a, b));
    b.cache.lineBytes = 64; // simulator, not stream
    EXPECT_TRUE(sameStream(a, b));
    for (auto change : {+[](Point &p) { p.refs = 999; },
                        +[](Point &p) { p.warmupRefs = 1; },
                        +[](Point &p) { p.workload.seed = 4; },
                        +[](Point &p) { p.workload.withIFetch = true; },
                        +[](Point &p) {
                            p.workload = WorkloadSpec::spec92("doduc", 3);
                        }}) {
        Point c = a;
        change(c);
        EXPECT_FALSE(sameStream(a, c));
    }
}

TEST(StreamGroups, ShortTraceFileRunsDryMidBlock)
{
    // 3001 references: the stream ends inside the second block,
    // well before the points' refs.
    auto source = Spec92Profile::make("hydro2d", 4);
    const Trace trace(source->drain(3001));
    const std::string path = testing::TempDir() + "stream_groups.trc";
    ASSERT_TRUE(TextTraceFormat::writeFile(trace, path).ok());
    const WorkloadSpec spec = okOrThrow(
        WorkloadSpec::parse("trace:format=text,path=" + path));

    for (const char *name : {"cache", "timing"}) {
        SCOPED_TRACE(name);
        Scenario scenario("short_trace");
        scenario.workload = spec;
        scenario.refs = 10000;
        scenario.warmupRefs = std::string(name) == "cache" ? 2500 : 0;
        scenario.sweep("line", {16, 32, 64},
                       [](Point &p, const AxisValue &v) {
                           p.cache.lineBytes =
                               static_cast<std::uint32_t>(v.value);
                       });
        scenario.sweep("size", {4096, 8192},
                       [](Point &p, const AxisValue &v) {
                           p.cache.sizeBytes =
                               static_cast<std::uint64_t>(v.value);
                       });
        expectGroupsMatchEval(*findKernel(name), scenario);
    }
    // A warm-up longer than the trace measures nothing, as eval.
    Scenario late("late_warmup");
    late.workload = spec;
    late.refs = 10000;
    late.warmupRefs = 5000;
    late.sweep("size", {4096, 8192}, [](Point &p, const AxisValue &v) {
        p.cache.sizeBytes = static_cast<std::uint64_t>(v.value);
    });
    expectGroupsMatchEval(*findKernel("cache"), late);
    std::remove(path.c_str());
}

TEST(StreamGroups, FailedWorkloadFailsOnlyItsGroup)
{
    for (const char *name : {"cache", "timing"}) {
        SCOPED_TRACE(name);
        Scenario scenario("bad_workload");
        scenario.refs = 3000;
        scenario.sweepWorkloadSpecs(
            {WorkloadSpec::spec92("nasa7", 2),
             okOrThrow(WorkloadSpec::parse(
                 "trace:path=/nonexistent/stream_groups.trc")),
             WorkloadSpec::spec92("wave5", 2)});
        scenario.sweep("size", {4096, 16384},
                       [](Point &p, const AxisValue &v) {
                           p.cache.sizeBytes =
                               static_cast<std::uint64_t>(v.value);
                       });
        expectGroupsMatchEval(*findKernel(name), scenario);
        Runner runner(RunnerOptions{3});
        findKernel(name)->run(runner, scenario);
        EXPECT_EQ(runner.lastStats().pointsFailed, 2u);
        ASSERT_EQ(runner.lastFailures().size(), 2u);
        EXPECT_EQ(runner.lastFailures()[0].index, 2u);
        EXPECT_EQ(runner.lastFailures()[1].index, 3u);
    }
}

TEST(StreamGroups, MoreWorkersThanSimulators)
{
    Scenario scenario("two_points");
    scenario.workload = WorkloadSpec::spec92("swm256", 5);
    scenario.refs = 9000;
    scenario.sweep("line", {16, 64}, [](Point &p, const AxisValue &v) {
        p.cache.lineBytes = static_cast<std::uint32_t>(v.value);
    });
    for (const char *name : {"cache", "timing"}) {
        SCOPED_TRACE(name);
        expectGroupsMatchEval(*findKernel(name), scenario);
        Runner runner(RunnerOptions{7});
        findKernel(name)->run(runner, scenario);
        EXPECT_LE(runner.lastStats().threadsUsed, 2u);
    }
    // A whole size sweep is one stack-sim pass, cut into a shard
    // per lane.
    Scenario sizes("one_reader");
    sizes.workload = WorkloadSpec::spec92("ear", 5);
    sizes.refs = 9000;
    sizes.sweep("size", {2048, 4096, 8192, 16384},
                [](Point &p, const AxisValue &v) {
                    p.cache.sizeBytes =
                        static_cast<std::uint64_t>(v.value);
                });
    expectGroupsMatchEval(*findKernel("cache"), sizes);
}

TEST(StreamGroups, FailFastStopsEveryLane)
{
    // One invalid geometry among valid ones in a multi-lane group:
    // fail-fast must rethrow without a lane waiting forever on a
    // sibling that never starts.
    Scenario scenario("fail_fast");
    scenario.workload = WorkloadSpec::spec92("doduc", 1);
    scenario.refs = 50000;
    scenario.sweep("size", {4096, 3000, 8192, 16384, 32768, 65536},
                   [](Point &p, const AxisValue &v) {
                       p.cache.sizeBytes =
                           static_cast<std::uint64_t>(v.value);
                   });
    for (unsigned threads : kThreadCounts) {
        RunnerOptions options{threads};
        options.failFast = true;
        Runner runner(options);
        EXPECT_THROW(findKernel("timing")->run(runner, scenario),
                     StatusError);
        EXPECT_GE(runner.lastStats().pointsFailed, 1u);
    }
}

TEST(StreamGroups, ReaderExceptionFailsOnlyItsPoints)
{
    /** Throws on its second block. */
    class Flaky final : public StreamReader
    {
      public:
        void
        feed(const StreamBlock &) override
        {
            if (++blocks_ == 2)
                throw std::runtime_error("flaky reader");
        }
        std::vector<Expected<std::vector<Cell>>>
        finish() override
        {
            return {std::vector<Cell>{Cell::integer(blocks_)}};
        }

      private:
        int blocks_ = 0;
    };
    Scenario scenario("flaky");
    scenario.workload = WorkloadSpec::spec92("ear", 2);
    scenario.refs = 3 * BlockFanout::kSharedBlockRefs;
    scenario.sweep("k", {0, 1, 2, 3}, [](Point &, const AxisValue &) {});
    const StreamKernel kernel{[](const std::vector<const Point *> &g,
                                 unsigned) {
        std::vector<StreamReaderSlot> slots;
        for (std::size_t i = 0; i < g.size(); ++i) {
            slots.push_back(
                {{i}, 32, [i]() -> std::unique_ptr<StreamReader> {
                     if (i != 2)
                         throw StatusError(
                             Status::invalidArgument("no reader"));
                     return std::make_unique<Flaky>();
                 }});
        }
        return slots;
    }};
    for (unsigned threads : kThreadCounts) {
        Runner runner(RunnerOptions{threads});
        runner.run(scenario, {"n"}, kernel);
        ASSERT_EQ(runner.lastFailures().size(), 4u);
        EXPECT_EQ(runner.lastFailures()[2].status.message(),
                  "flaky reader");
        EXPECT_EQ(runner.lastFailures()[3].status.message(),
                  "no reader");
    }
}

/** The sharded stack-sim pass at 1..8 threads must match eval and
 *  the one-lane pass (one shard). */
void
expectShardsMatch(const Scenario &scenario)
{
    const Kernel &cache = *findKernel("cache");
    const std::string reference = perPointCsv(cache, scenario);
    Runner one_lane(RunnerOptions{1});
    EXPECT_EQ(one_lane.run(scenario, cache.columns, cache.stream)
                  .renderCsv(),
              reference)
        << scenario.name() << " in one lane";
    for (unsigned threads = 2; threads <= 8; ++threads) {
        Runner runner(RunnerOptions{threads});
        EXPECT_EQ(runner.run(scenario, cache.columns, cache.stream)
                      .renderCsv(),
                  reference)
            << scenario.name() << " at " << threads << " threads";
    }
}

std::vector<std::string>
csvLines(const std::string &csv)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < csv.size()) {
        const std::size_t end = csv.find('\n', start);
        lines.push_back(csv.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

void
sweepSizes(Scenario &scenario, std::vector<double> sizes)
{
    scenario.sweep("size", std::move(sizes),
                   [](Point &p, const AxisValue &v) {
                       p.cache.sizeBytes =
                           static_cast<std::uint64_t>(v.value);
                   });
}

void
sweepAssocs(Scenario &scenario, std::vector<double> assocs)
{
    scenario.sweep("assoc", std::move(assocs),
                   [](Point &p, const AxisValue &v) {
                       p.cache.assoc =
                           static_cast<std::uint32_t>(v.value);
                   });
}

/** The stack-sim slots open() deals for @p scenario's one group at
 *  @p lanes lanes: each covers the points of its set counts. */
std::vector<StreamReaderSlot>
openStackSlots(const Scenario &scenario, unsigned lanes,
               std::vector<const Point *> *members,
               std::vector<Point> *points)
{
    *points = scenario.expand();
    members->clear();
    for (const Point &point : *points)
        members->push_back(&point);
    std::vector<StreamReaderSlot> stack;
    for (StreamReaderSlot &slot :
         findKernel("cache")->stream.open(*members, lanes)) {
        // A per-point cache slot prices exactly one point.
        if (slot.points.size() > 1 ||
            (*points)[slot.points.front()].cache.validate().ok())
            stack.push_back(std::move(slot));
    }
    return stack;
}

TEST(StackShards, OneShardPerLaneCappedBySetCounts)
{
    Scenario scenario("shards");
    scenario.workload = WorkloadSpec::spec92("nasa7", 4);
    scenario.refs = 5000;
    sweepSizes(scenario, {4096, 8192, 16384, 32768, 65536, 3000});
    sweepAssocs(scenario, {1, 2});
    std::vector<const Point *> members;
    std::vector<Point> points;
    for (unsigned lanes : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(lanes);
        const auto slots =
            openStackSlots(scenario, lanes, &members, &points);
        // Six valid set counts, 32..2048.
        ASSERT_EQ(slots.size(), std::min(lanes, 6u));
        std::vector<std::uint64_t> seen;
        std::size_t priced = 0;
        for (const StreamReaderSlot &slot : slots) {
            std::vector<std::uint64_t> sets;
            for (std::size_t position : slot.points) {
                const std::uint64_t s =
                    points[position].cache.numSets();
                if (std::find(sets.begin(), sets.end(), s) ==
                    sets.end())
                    sets.push_back(s);
            }
            // No set count is split between shards.
            for (std::uint64_t s : sets) {
                EXPECT_EQ(std::find(seen.begin(), seen.end(), s),
                          seen.end());
                seen.push_back(s);
            }
            priced += slot.points.size();
        }
        EXPECT_EQ(priced, 10u); // every valid geometry
    }
}

TEST(StackShards, FewerSetCountsThanLanes)
{
    // Three set counts over four points: at 4..8 threads some lanes
    // have no shard and only drain the stream.
    Scenario scenario("few_sets");
    scenario.workload = WorkloadSpec::spec92("swm256", 2);
    scenario.refs = 3 * BlockFanout::kSharedBlockRefs + 11;
    scenario.warmupRefs = 1000;
    sweepSizes(scenario, {4096, 8192});
    sweepAssocs(scenario, {1, 2});
    expectShardsMatch(scenario);
}

TEST(StackShards, ExactlyOneSetCount)
{
    // 4K 1-way, 8K 2-way and 16K 4-way all have 128 sets: one shard
    // however many lanes.
    Scenario scenario("one_set_count");
    scenario.workload = WorkloadSpec::spec92("ear", 3);
    scenario.refs = 7000;
    scenario.warmupRefs = 700;
    scenario.sweep("ways", {0, 1, 2},
                   [](Point &p, const AxisValue &v) {
                       const auto shift = static_cast<int>(v.value);
                       p.cache.sizeBytes = std::uint64_t{4096} << shift;
                       p.cache.assoc = 1u << shift;
                   });
    std::vector<const Point *> members;
    std::vector<Point> points;
    EXPECT_EQ(openStackSlots(scenario, 8, &members, &points).size(), 1u);
    expectShardsMatch(scenario);
}

TEST(StackShards, InvalidGeometriesAndBothWritePolicies)
{
    for (WritePolicy write :
         {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
        Scenario scenario(write == WritePolicy::WriteBack ? "wb"
                                                          : "wt");
        scenario.workload = WorkloadSpec::spec92("doduc", 6);
        scenario.refs = 9000;
        scenario.warmupRefs = 900;
        scenario.cache.write = write;
        sweepSizes(scenario,
                   {1024, 3000, 4096, 16384, 65536, 262144, 6144});
        sweepAssocs(scenario, {1, 2, 4});
        expectShardsMatch(scenario);
        Runner runner(RunnerOptions{4});
        findKernel("cache")->run(runner, scenario);
        // 3000 and 6144 are no geometry at any associativity.
        EXPECT_EQ(runner.lastStats().pointsFailed, 6u);
    }
}

TEST(StackShards, TraceRunsDryInsideTheWarmUp)
{
    auto source = Spec92Profile::make("hydro2d", 8);
    const Trace trace(source->drain(2500));
    const std::string path = testing::TempDir() + "stack_shards.trc";
    ASSERT_TRUE(TextTraceFormat::writeFile(trace, path).ok());
    Scenario scenario("dry_warmup");
    scenario.workload = okOrThrow(
        WorkloadSpec::parse("trace:format=text,path=" + path));
    scenario.refs = 10000;
    scenario.warmupRefs = 4000;
    sweepSizes(scenario, {1024, 2048, 4096, 8192, 16384});
    expectShardsMatch(scenario);
    std::remove(path.c_str());
}

TEST(StackShards, ThrowingShardFailsOnlyItsPoints)
{
    /** The wrapped shard, throwing on its second block. */
    class Throwing final : public StreamReader
    {
      public:
        explicit Throwing(std::unique_ptr<StreamReader> inner)
            : inner_(std::move(inner))
        {
        }
        void
        feed(const StreamBlock &block) override
        {
            if (++blocks_ == 2)
                throw std::runtime_error("shard lost");
            inner_->feed(block);
        }
        std::vector<Expected<std::vector<Cell>>>
        finish() override
        {
            return inner_->finish();
        }

      private:
        std::unique_ptr<StreamReader> inner_;
        int blocks_ = 0;
    };
    Scenario scenario("throwing_shard");
    scenario.workload = WorkloadSpec::spec92("wave5", 3);
    scenario.refs = 3 * BlockFanout::kSharedBlockRefs;
    sweepSizes(scenario, {2048, 4096, 8192, 16384, 32768});
    const Kernel &cache = *findKernel("cache");
    // The first slot of every group throws; the rest is the cache
    // kernel's own.
    const StreamKernel kernel{[&cache](
                                  const std::vector<const Point *> &g,
                                  unsigned lanes) {
        auto slots = cache.stream.open(g, lanes);
        auto make = std::move(slots.front().make);
        slots.front().make = [make] {
            return std::make_unique<Throwing>(make());
        };
        return slots;
    }};
    const std::vector<std::string> good =
        csvLines(perPointCsv(cache, scenario));
    for (unsigned threads = 1; threads <= 8; ++threads) {
        SCOPED_TRACE(threads);
        Runner runner(RunnerOptions{threads});
        const std::vector<std::string> rows = csvLines(
            runner.run(scenario, cache.columns, kernel).renderCsv());
        // The first shard deals set counts 0, k, 2k, ... of five,
        // k the shard count: ceil(5 / k) points fail, the rest
        // match eval line for line.
        const std::size_t shards = std::min(threads, 5u);
        const std::size_t failed = (5 + shards - 1) / shards;
        ASSERT_EQ(runner.lastFailures().size(), failed);
        for (const PointFailure &failure : runner.lastFailures()) {
            EXPECT_EQ(failure.index % shards, 0u);
            EXPECT_EQ(failure.status.message(), "shard lost");
        }
        ASSERT_EQ(rows.size(), good.size());
        // Line 0 is the header; point i is line i + 1.
        for (std::size_t line = 0; line < rows.size(); ++line) {
            if (line == 0 || (line - 1) % shards != 0) {
                EXPECT_EQ(rows[line], good[line]);
            }
        }
    }
}

/** A cache tracking its own cold misses: the reference. */
CacheStats
ownTracking(const CacheConfig &config,
            const std::vector<MemoryReference> &refs)
{
    SetAssocCache cache(config);
    for (const MemoryReference &ref : refs)
        cache.access(ref);
    return cache.stats();
}

void
expectSameStats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.loadMisses, b.loadMisses);
    EXPECT_EQ(a.storeMisses, b.storeMisses);
    EXPECT_EQ(a.fills, b.fills);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.storesToMemory, b.storesToMemory);
    EXPECT_EQ(a.storesToMemoryBytes, b.storesToMemoryBytes);
    EXPECT_EQ(a.coldMisses, b.coldMisses);
    EXPECT_EQ(a.prefetchInserts, b.prefetchInserts);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(StreamGroups, SharedFirstTouchSetsMatchOwnTracking)
{
    // Readers of mixed line sizes on their own threads, sharing one
    // first-touch set per line size, count every CacheStats field
    // (coldMisses included) exactly as caches tracking their own.
    constexpr std::uint64_t kRefs =
        5 * BlockFanout::kSharedBlockRefs + 77;
    auto generator = Spec92Profile::make("nasa7", 11);
    const std::vector<MemoryReference> refs =
        generator->drain(kRefs);
    std::vector<CacheConfig> configs;
    for (std::uint32_t line : {8u, 16u, 32u, 32u, 64u, 128u}) {
        CacheConfig config;
        config.sizeBytes = 4096;
        config.assoc = 2;
        config.lineBytes = line;
        config.write = line == 16 ? WritePolicy::WriteThrough
                                  : WritePolicy::WriteBack;
        configs.push_back(config);
    }
    GeometryGrid grid;
    grid.lineBytes = 32;
    CacheConfig big = configs[2];
    big.sizeBytes = 16384;
    grid.addConfig(configs[2]);
    grid.addConfig(big);

    Trace stream(refs);
    std::vector<std::uint32_t> lines;
    for (const CacheConfig &config : configs)
        lines.push_back(config.lineBytes);
    BlockFanout fanout(stream, kRefs,
                       static_cast<unsigned>(configs.size() + 1),
                       lines);
    std::vector<CacheRun> runs;
    for (const CacheConfig &config : configs)
        runs.emplace_back(config, 0);
    StackSimulator sim(grid);
    std::vector<std::thread> readers;
    for (unsigned r = 0; r < configs.size(); ++r) {
        readers.emplace_back([&, r] {
            while (const StreamBlock *block = fanout.next(r))
                runs[r].feed(*block);
        });
    }
    readers.emplace_back([&] {
        while (const StreamBlock *block =
                   fanout.next(static_cast<unsigned>(configs.size())))
            sim.feed(*block);
    });
    for (auto &reader : readers)
        reader.join();

    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(configs[i].describe());
        const CacheStats expected = ownTracking(configs[i], refs);
        EXPECT_GT(expected.coldMisses, 0u);
        expectSameStats(runs[i].finish().stats, expected);
    }
    const GeometryHitSurface surface = sim.finish();
    expectSameStats(okOrThrow(surface.statsFor(big)),
                    ownTracking(big, refs));
}

/** runCacheSim's window, by hand: no fan-out, no shared sets. */
CacheStats
handWindow(const CacheConfig &config,
           const std::vector<MemoryReference> &refs,
           std::uint64_t warmup)
{
    SetAssocCache cache(config);
    CacheStats warm;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        if (i == warmup)
            warm = cache.stats();
        cache.access(refs[i]);
    }
    if (warmup >= refs.size())
        warm = cache.stats();
    CacheStats m = cache.stats();
    m.accesses -= warm.accesses;
    m.loads -= warm.loads;
    m.stores -= warm.stores;
    m.hits -= warm.hits;
    m.misses -= warm.misses;
    m.loadMisses -= warm.loadMisses;
    m.storeMisses -= warm.storeMisses;
    m.fills -= warm.fills;
    m.writebacks -= warm.writebacks;
    m.storesToMemory -= warm.storesToMemory;
    m.coldMisses -= warm.coldMisses;
    m.instructions -= warm.instructions;
    return m;
}

TEST(StreamGroups, OneReaderPathsMatchAHandLoop)
{
    // The per-point reference itself runs on the fan-out, so check
    // it against a plain loop, around every block boundary and for
    // a source that runs dry before refs or inside the warm-up.
    constexpr std::uint64_t kBlock = BlockFanout::kBlockRefs;
    auto generator = Spec92Profile::make("wave5", 6);
    const std::vector<MemoryReference> all =
        generator->drain(3 * kBlock + 5);
    CacheConfig config;
    config.sizeBytes = 4096;
    config.assoc = 2;
    config.lineBytes = 32;
    GeometryGrid grid;
    grid.addConfig(config);
    for (std::uint64_t available : {3 * kBlock + 5, kBlock + 1}) {
        const std::vector<MemoryReference> refs(
            all.begin(), all.begin() + available);
        for (std::uint64_t run : {kBlock - 1, kBlock, 2 * kBlock + 3,
                                  3 * kBlock + 5}) {
            for (std::uint64_t warmup :
                 {std::uint64_t{0}, kBlock - 1, kBlock, kBlock + 1,
                  run}) {
                if (warmup > run)
                    continue;
                SCOPED_TRACE(std::to_string(available) + " " +
                             std::to_string(run) + " " +
                             std::to_string(warmup));
                const std::vector<MemoryReference> window(
                    refs.begin(),
                    refs.begin() + std::min(run, available));
                const CacheStats expected =
                    handWindow(config, window, warmup);
                Trace trace(refs);
                expectSameStats(
                    runCacheSim(config, trace, run, warmup).stats,
                    expected);
                expectSameStats(
                    okOrThrow(runStackSim(grid, trace, run, warmup)
                                  .statsFor(config)),
                    expected);
            }
        }
    }
}

TEST(StreamGroups, RingIsSizedToTheStream)
{
    // A 100-reference stream is one short block, delivered once.
    auto generator = Spec92Profile::make("ear", 1);
    BlockFanout fanout(*generator, 100, 3, {32});
    for (unsigned r = 0; r < 3; ++r) {
        const StreamBlock *block = fanout.next(r);
        ASSERT_NE(block, nullptr);
        EXPECT_EQ(block->count, 100u);
        EXPECT_EQ(block->first, 0u);
        EXPECT_NE(block->firstTouch(32), nullptr);
        EXPECT_EQ(block->firstTouch(64), nullptr);
        EXPECT_EQ(fanout.next(r), nullptr);
    }
}

} // namespace
} // namespace uatm::exp
