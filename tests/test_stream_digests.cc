/**
 * @file
 * Golden stream digests.
 *
 * Pins the exact reference stream of every registered workload
 * method at its defaults (seeds 1 and 7), of every SPEC92-like
 * profile, and of a deep reuse-distance stack whose long ranks
 * stress the recency stack, as FNV-1a digests of the first 200k
 * references.  Also pins the histogram ReuseProfile::measure()
 * reports on two streams.  Any change to a generator's RNG draw
 * order, sampling arithmetic or stack maintenance shows up here
 * as a digest mismatch, so generator speedups can be checked for
 * byte-identity rather than statistical plausibility.
 *
 * A last case builds YCSB sources from several threads at once
 * and checks each stream against a serial build, so the
 * sanitizer jobs (ctest -L diff) see the process-wide zipfian
 * zeta memo under contention.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/workload_registry.hh"
#include "exp/workload_spec.hh"
#include "trace/reuse_distance.hh"
#include "trace/source.hh"

namespace uatm {
namespace {

using exp::WorkloadRegistry;
using exp::WorkloadSpec;

constexpr std::uint64_t kStreamRefs = 200000;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/** Fold the low @p bytes bytes of @p value, little-endian. */
std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t value, int bytes)
{
    for (int i = 0; i < bytes; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 1099511628211ull;
    }
    return hash;
}

/** FNV-1a over (addr, size, kind, gap) of the next @p refs refs. */
std::uint64_t
streamDigest(TraceSource &source, std::uint64_t refs)
{
    std::uint64_t hash = kFnvOffset;
    for (std::uint64_t i = 0; i < refs; ++i) {
        const auto ref = source.next();
        if (!ref)
            break;
        hash = fnvMix(hash, ref->addr, 8);
        hash = fnvMix(hash, ref->size, 1);
        hash = fnvMix(hash, static_cast<std::uint8_t>(ref->kind), 1);
        hash = fnvMix(hash, ref->gap, 4);
    }
    return hash;
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** FNV-1a over the exact bits of a profile's cold and weights. */
std::uint64_t
profileDigest(const ReuseProfile &profile)
{
    std::uint64_t hash = fnvMix(kFnvOffset,
                                doubleBits(profile.coldWeight), 8);
    for (double w : profile.weights)
        hash = fnvMix(hash, doubleBits(w), 8);
    return hash;
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << "0x" << std::hex << std::setw(16) << std::setfill('0')
        << value;
    return out.str();
}

std::uint64_t
specDigest(const std::string &arg, std::uint64_t seed,
           std::uint64_t refs = kStreamRefs)
{
    const auto spec = WorkloadSpec::parse(arg, seed);
    EXPECT_TRUE(spec.ok()) << arg;
    if (!spec.ok())
        return 0;
    auto source = spec.value().make();
    EXPECT_TRUE(source.ok()) << arg;
    if (!source.ok())
        return 0;
    return streamDigest(*source.value(), refs);
}

struct GoldenStream
{
    const char *spec;   ///< WorkloadSpec::parse() argument
    std::uint64_t seed;
    std::uint64_t digest;
};

// Recorded from the generators as they stood before the LRU-stack
// primitive, the cached truncated-geometric sampler and the zeta
// memo went in; those changes must keep every stream bit-exact.
const GoldenStream kGoldenStreams[] = {
    {"reuse-dist", 1, 0x2fc164f473885231},
    {"reuse-dist", 7, 0x1c34ca5ff53c65cf},
    {"reuse-dist:depth=4000,decay=0.999", 1, 0xb35ef3a5a450f873},
    {"reuse-dist:depth=4000,decay=0.999", 7, 0x3cd4e5686826d4e6},
    {"short-levy", 1, 0xfd0496a1dfdea1f1},
    {"short-levy", 7, 0xff82932bdc6b7705},
    {"spec92", 1, 0x5ef6ad4f36d14778},
    {"spec92", 7, 0x180a098dbe7d837c},
    {"spec92:profile=swm256", 1, 0x60e8f039a407c0ca},
    {"spec92:profile=swm256", 7, 0x6e13bd4d02022eba},
    {"spec92:profile=wave5", 1, 0x26ae40d0e87a70ad},
    {"spec92:profile=wave5", 7, 0x1a4b13ef239c10b4},
    {"spec92:profile=ear", 1, 0xac078576b0656e00},
    {"spec92:profile=ear", 7, 0x70cebe3ab4e10849},
    {"spec92:profile=doduc", 1, 0x27d5d509f0fb10ec},
    {"spec92:profile=doduc", 7, 0x23056fe4cdc14afc},
    {"spec92:profile=hydro2d", 1, 0xef864ddcd34f6ca7},
    {"spec92:profile=hydro2d", 7, 0xd6bf4810987b1828},
    {"ycsb", 1, 0xa5cd8c6d28b8377c},
    {"ycsb", 7, 0x092bac0bca6fa343},
    {"ycsb-a", 1, 0xa5cd8c6d28b8377c},
    {"ycsb-a", 7, 0x092bac0bca6fa343},
    {"ycsb-b", 1, 0xf3df8216900a4334},
    {"ycsb-b", 7, 0x2940087f3faabe5f},
    {"ycsb-c", 1, 0x8d968c8e9284fdcc},
    {"ycsb-c", 7, 0x2500e295483ad2b7},
    {"ycsb-d", 1, 0xc39c8fd477778307},
    {"ycsb-d", 7, 0xde35d37748ababae},
    {"ycsb-e", 1, 0x2177b0a5d4e4d326},
    {"ycsb-e", 7, 0xda1bf78f60ad4c62},
    {"ycsb-f", 1, 0xeb0b53c25e8df6fe},
    {"ycsb-f", 7, 0x068900eee6cc71af},
};

TEST(StreamDigests, GeneratorStreamsMatchTheGoldenDigests)
{
    for (const GoldenStream &golden : kGoldenStreams) {
        const std::uint64_t digest =
            specDigest(golden.spec, golden.seed);
        EXPECT_EQ(hex(digest), hex(golden.digest))
            << golden.spec << " seed " << golden.seed;
    }
}

TEST(StreamDigests, EveryBuildableMethodIsPinnedAtItsDefaults)
{
    // A newly registered method must add its goldens here; methods
    // that cannot build at their defaults ("none", "trace" without
    // a path) are exempt.
    std::set<std::pair<std::string, std::uint64_t>> pinned;
    for (const GoldenStream &golden : kGoldenStreams)
        pinned.emplace(golden.spec, golden.seed);
    for (const std::string &name :
         WorkloadRegistry::instance().names()) {
        for (std::uint64_t seed : {1ull, 7ull}) {
            if (!WorkloadSpec::of(name, {}, seed).make().ok())
                continue;
            EXPECT_TRUE(pinned.count({name, seed}))
                << name << " seed " << seed << " has no golden";
        }
    }
}

TEST(StreamDigests, MeasuredReuseProfilesMatchTheGoldenDigests)
{
    struct GoldenProfile
    {
        const char *spec;
        std::size_t maxDepth;
        std::uint64_t digest;
    };
    // nasa7 mixes loop-nest sweeps (deep, folding reuse) with a
    // hot working set; the deep reuse-dist stream overflows the
    // measuring stack, so its bottom is evicted constantly.
    const GoldenProfile goldens[] = {
        {"spec92", 512, 0x8ef03e359d151f09},
        {"reuse-dist:depth=4000,decay=0.999", 1024,
         0x4db0bc3870deef24},
    };
    for (const GoldenProfile &golden : goldens) {
        auto spec = WorkloadSpec::parse(golden.spec, 1);
        ASSERT_TRUE(spec.ok()) << golden.spec;
        auto source = spec.value().make();
        ASSERT_TRUE(source.ok()) << golden.spec;
        const auto profile = ReuseProfile::measure(
            *source.value(), kStreamRefs, 32, golden.maxDepth);
        ASSERT_TRUE(profile.ok()) << golden.spec;
        EXPECT_EQ(hex(profileDigest(profile.value())),
                  hex(golden.digest))
            << golden.spec;
    }
}

TEST(StreamDigests, ConcurrentYcsbBuildsMatchSerialBuilds)
{
    // More distinct (records, theta) keys than a small memo holds,
    // so concurrent builds insert and evict, not just look up.
    std::vector<std::string> specs;
    for (int records : {1000, 1500, 2000, 3000, 5000, 8000}) {
        for (const char *theta : {"0.5", "0.8", "0.9", "0.99"}) {
            specs.push_back("ycsb-a:records=" +
                            std::to_string(records) +
                            ",theta=" + theta);
        }
    }
    constexpr std::uint64_t kRefs = 4000;
    std::vector<std::uint64_t> serial;
    for (const std::string &spec : specs)
        serial.push_back(specDigest(spec, 3, kRefs));

    constexpr unsigned kThreads = 4;
    std::vector<std::vector<std::uint64_t>> seen(
        kThreads, std::vector<std::uint64_t>(specs.size()));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            // Each thread walks the specs from its own offset, so
            // different keys are in flight at the same moment.
            for (std::size_t k = 0; k < specs.size(); ++k) {
                const std::size_t i =
                    (k + t * specs.size() / kThreads) % specs.size();
                seen[t][i] = specDigest(specs[i], 3, kRefs);
            }
        });
    }
    for (auto &thread : pool)
        thread.join();
    for (unsigned t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(seen[t][i], serial[i])
                << specs[i] << " on thread " << t;
    }
}

} // namespace
} // namespace uatm
