/**
 * @file
 * Single-pass multi-geometry cache simulation (Mattson et al.'s
 * stack algorithm, specialised to LRU + write-allocate).
 *
 * One traversal of a reference stream yields the exact hit/miss
 * (and write-back) counts of *every* cache in a set-count x
 * associativity grid that shares the line size and write policies.
 * The reduction: for true LRU with allocate-on-miss, the contents
 * of an (S sets, A ways) cache are exactly the A most recently
 * touched distinct lines of each set — so an access whose per-set
 * LRU stack distance is d hits in every geometry with A > d and
 * misses in every geometry with A <= d.  A histogram of distances
 * per set count therefore prices the whole associativity axis at
 * once, and one per-set stack per *distinct* set count prices the
 * size axis.
 *
 * Dirty state rides along with a single small integer per stack
 * entry: under write-back, "dirty in (S, A)" is monotone in A (a
 * larger A means the line was filled earlier, so it has seen every
 * store a smaller A has), so the minimum associativity at which the
 * line is dirty fully describes all grid geometries.
 *
 * Set counts never interact: each has its own stacks and
 * histograms, and only the geometry-independent counters (accesses,
 * stores, cold misses, ...) span them, which every pass over the
 * same stream counts alike.  So a grid cut by set count
 * (GeometryGrid::shard) into several simulators fed the same blocks
 * prices each cell bit-equal to one pass over the whole grid; the
 * `cache` kernel's stream form runs one such shard per lane.
 *
 * The engine's results are bit-equal to running SetAssocCache per
 * geometry (see tests/test_random_validation.cc).  Its caller,
 * the `cache` kernel (exp/kernel.hh), plans the grid through
 * planStackSim() (cache/sweep).
 */

#ifndef UATM_CACHE_STACK_SIM_HH
#define UATM_CACHE_STACK_SIM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "trace/fanout.hh"
#include "trace/source.hh"
#include "util/status.hh"

namespace uatm {

/**
 * The geometry cross product one pass prices: every (setCount x
 * assoc) pair, all sharing one line size and one write policy.
 * Replacement is implicitly LRU — that is what makes the stack
 * reduction exact.
 */
struct GeometryGrid
{
    std::uint32_t lineBytes = 32;

    /** Distinct set counts (each a power of two, deduplicated). */
    std::vector<std::uint64_t> setCounts;

    /** Distinct associativities (deduplicated; any order). */
    std::vector<std::uint32_t> assocs;

    WritePolicy write = WritePolicy::WriteBack;

    /** Must be WriteAllocate: write-around store misses do not
     *  touch LRU state, which breaks the inclusion property the
     *  engine relies on. */
    WriteMissPolicy writeMiss = WriteMissPolicy::WriteAllocate;

    /** Add the (numSets, assoc) cell of @p config, deduplicating.
     *  The config's line size and policies must match the grid. */
    void addConfig(const CacheConfig &config);

    /** OK when every field is simulatable (powers of two, at
     *  least one cell, write-allocate). */
    Status validate() const;

    /**
     * At most @p parts sub-grids (at least one) that split the set
     * counts between them, dealt round-robin in order; each keeps
     * this grid's line size, associativities and write policies.
     */
    std::vector<GeometryGrid> shard(std::size_t parts) const;
};

/**
 * The per-geometry statistics produced by one pass.  Each cell
 * reconstructs a full CacheStats bit-equal to what SetAssocCache
 * would have counted for that geometry over the same stream.
 */
class GeometryHitSurface
{
  public:
    GeometryHitSurface() = default;
    GeometryHitSurface(const GeometryGrid &grid,
                       std::vector<CacheStats> cells);

    const GeometryGrid &grid() const { return grid_; }

    /** Stats of @p config's geometry; InvalidArgument when the
     *  config is invalid, mismatches the grid's line size or
     *  policies, or its cell is not in the grid. */
    Expected<CacheStats> statsFor(const CacheConfig &config) const;

    /**
     * The post-warmup window: this surface's counters minus
     * @p warm's, field for field, mirroring runCacheSim's
     * subtraction exactly (including its quirk of leaving
     * storesToMemoryBytes cumulative).
     */
    GeometryHitSurface minus(const GeometryHitSurface &warm) const;

  private:
    GeometryGrid grid_;
    std::vector<CacheStats> cells_; ///< [space * assocs + assocIdx]

    std::size_t cellIndex(std::uint64_t sets,
                          std::uint32_t assoc) const;
};

/**
 * The engine proper.  Feed it a stream's blocks (trace/fanout) and
 * finish(); runStackSim() below wraps the one-reader case.
 */
class StackSimulator
{
  public:
    /**
     * finish() measures after the first @p warmup_refs references.
     * Throws StatusError when the grid fails validate().
     */
    explicit StackSimulator(const GeometryGrid &grid,
                            std::uint64_t warmup_refs = 0);

    /** Apply @p block's references in order, taking first touches
     *  from its flags after the block's stack work, so simulators
     *  sharing the flags rarely wait on the one computing them.
     *  Blocks must not straddle the warm-up end (BlockFanout's
     *  split). */
    void feed(const StreamBlock &block);

    /** The post-warm-up window of the blocks fed so far. */
    GeometryHitSurface finish() const;

    const GeometryGrid &grid() const { return grid_; }

  private:
    /** One line of a per-set recency stack.  minDirtyAssoc is the
     *  smallest grid associativity at which the line is dirty
     *  (maxAssoc_+1 = clean in every geometry); dirtiness is
     *  monotone non-decreasing in A, so one threshold suffices. */
    struct StackEntry
    {
        Addr line;
        std::uint32_t minDirtyAssoc;
    };

    /** The state for one distinct set count. */
    struct SetSpace
    {
        std::uint64_t sets = 0;
        std::uint64_t setMask = 0;
        /** MRU-first truncated stacks: [set * maxAssoc_ + depth]. */
        std::vector<StackEntry> entries;
        /** Valid entries per set. */
        std::vector<std::uint32_t> filled;
        /** Distance histograms, one slot per distance 0..maxAssoc_
         *  (the last slot pools every distance >= maxAssoc_, which
         *  misses in all grid geometries). */
        std::vector<std::uint64_t> loadHist;
        std::vector<std::uint64_t> storeHist;
        /** Write-backs per grid associativity (ascending order). */
        std::vector<std::uint64_t> writebacks;
    };

    GeometryGrid grid_;
    std::uint32_t lineShift_ = 0;
    std::uint32_t maxAssoc_ = 0;
    /** Grid associativities sorted ascending (for early exit). */
    std::vector<std::uint32_t> ascAssocs_;
    std::vector<SetSpace> spaces_;

    // Geometry-independent counters (identical in every cell).
    std::uint64_t accesses_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t storeBytes_ = 0;
    std::uint64_t coldMisses_ = 0;

    std::uint64_t warmupRefs_ = 0;
    std::optional<GeometryHitSurface> warm_;

    /** Current cumulative per-geometry statistics. */
    GeometryHitSurface surface() const;

    /** The geometry-independent counters of @p n references. */
    void count(const MemoryReference *refs, std::size_t n);

    /** Price @p ref in every set count: record its stack distance
     *  and the write-backs it causes, then move it to the top. */
    void walk(const MemoryReference &ref);
};

/**
 * Run @p refs references of @p source (reset first) through one
 * stack-simulation pass — the single-pass counterpart of calling
 * runCacheSim once per grid cell, with identical warmup-window and
 * cold-tracking semantics.  The one-reader case of feed().
 */
GeometryHitSurface runStackSim(const GeometryGrid &grid,
                               TraceSource &source,
                               std::uint64_t refs,
                               std::uint64_t warmup_refs = 0);

/**
 * nullptr when @p base qualifies for the single-pass engine on a
 * size sweep (LRU replacement, write-allocate); otherwise a static
 * string naming the first disqualifying property.
 */
const char *stackSimIneligibleReason(const CacheConfig &base);

} // namespace uatm

#endif // UATM_CACHE_STACK_SIM_HH
