/**
 * @file
 * Content-addressed result cache over experiment points.
 *
 * The cache maps a canonical point key (exp/point_key.hh — the
 * full JSON description of everything a point's evaluation depends
 * on) to the value cells its kernel produced.  Because the key is
 * the complete content address and point evaluation is pure, a hit
 * is guaranteed byte-identical to recomputation: cells round-trip
 * through Cell::fromParts with their exact rendered text.
 *
 * Storage is an in-memory LRU bounded by entry count, optionally
 * backed by an on-disk store (one JSON file per entry, named by
 * the 64-bit key digest).  The digest is only a filename — the
 * full key is stored inside the file and verified on load, so a
 * digest collision degrades to a miss, never a wrong result.
 *
 * All methods are thread-safe (one mutex; the protected work is
 * map/list surgery and small string copies, which is far cheaper
 * than the kernels the cache is skipping).
 */

#ifndef UATM_SERVE_POINT_CACHE_HH
#define UATM_SERVE_POINT_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exp/result_table.hh"

namespace uatm::obs {
class StatGroup;
}

namespace uatm::serve {

/** Bumped whenever the on-disk entry layout changes shape. */
constexpr int kPointCacheSchemaVersion = 1;

struct PointCacheOptions
{
    /** In-memory entry cap; least-recently-used beyond it. */
    std::size_t capacity = 1 << 16;

    /** On-disk store directory; empty = memory only.  Created on
     *  first write when missing. */
    std::string dir;
};

struct PointCacheCounters
{
    std::uint64_t hits = 0;       ///< in-memory lookup hits
    std::uint64_t misses = 0;     ///< complete misses
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;  ///< LRU evictions (memory only)
    std::uint64_t diskHits = 0;   ///< misses served from disk
    std::uint64_t diskWrites = 0;
    std::uint64_t diskErrors = 0; ///< unreadable/mismatched files
};

class PointCache
{
  public:
    explicit PointCache(PointCacheOptions options = {});

    /**
     * Cells cached under @p key, refreshing its LRU position; a
     * disk-backed cache faults missing entries in from disk (and
     * promotes them to memory).  std::nullopt on a miss.
     */
    std::optional<std::vector<exp::Cell>>
    lookup(const std::string &key);

    /** Store @p cells under @p key (and on disk when backed).
     *  Re-inserting an existing key refreshes its value. */
    void insert(const std::string &key,
                const std::vector<exp::Cell> &cells);

    /** Drop every in-memory entry (disk files are kept — they are
     *  the persistence layer, not the working set). */
    void clear();

    std::size_t size() const;

    /** Approximate resident bytes (keys + cell text). */
    std::size_t residentBytes() const;

    PointCacheCounters counters() const;

    /**
     * Register hit/miss/size stats as formulas under @p group
     * (e.g. "cache.hits").  The formulas read this cache at dump
     * time, so the cache must outlive the registry dumps.
     */
    void registerStats(const obs::StatGroup &group) const;

  private:
    struct Entry
    {
        std::string key;
        std::vector<exp::Cell> cells;
        std::size_t bytes = 0;
    };

    using LruList = std::list<Entry>;

    PointCacheOptions options_;
    mutable std::mutex mutex_;
    LruList lru_; ///< front = most recently used
    /** Views of each entry's own key (list nodes never move). */
    std::unordered_map<std::string_view, LruList::iterator> index_;
    std::size_t residentBytes_ = 0;
    PointCacheCounters counters_;

    std::string filePath(const std::string &key) const;
    void insertLocked(const std::string &key,
                      const std::vector<exp::Cell> &cells,
                      bool write_disk);
    std::optional<std::vector<exp::Cell>>
    loadFromDisk(const std::string &key);
    void writeToDisk(const std::string &key,
                     const std::vector<exp::Cell> &cells);
};

} // namespace uatm::serve

#endif // UATM_SERVE_POINT_CACHE_HH
