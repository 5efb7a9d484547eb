/**
 * @file
 * Implementation of the content-addressed point cache.
 */

#include "serve/point_cache.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "exp/point_key.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "util/logging.hh"

namespace uatm::serve {

namespace {

std::size_t
entryBytes(const std::string &key,
           const std::vector<exp::Cell> &cells)
{
    std::size_t bytes = key.size();
    for (const exp::Cell &cell : cells)
        bytes += cell.str().size() + sizeof(exp::Cell);
    return bytes;
}

/** Exact textual round-trip for a double ("%a" hex float; strtod
 *  reads it back bit-identically).  %.12g would lose the last
 *  digits and break the byte-identity contract on the JSON path. */
std::string
exactDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

} // namespace

PointCache::PointCache(PointCacheOptions options)
    : options_(std::move(options))
{
    UATM_ASSERT(options_.capacity > 0,
                "a zero-capacity point cache caches nothing");
}

std::string
PointCache::filePath(const std::string &key) const
{
    return options_.dir + "/" + exp::pointKeyDigest(key) + ".json";
}

std::optional<std::vector<exp::Cell>>
PointCache::lookup(const std::string &key)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++counters_.hits;
            return it->second->cells;
        }
    }
    if (!options_.dir.empty()) {
        // Disk faulting happens outside the lock: file IO must not
        // serialize the in-memory fast path of other workers.
        auto cells = loadFromDisk(key);
        if (cells) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++counters_.diskHits;
            insertLocked(key, *cells, /*write_disk=*/false);
            return cells;
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.misses;
    return std::nullopt;
}

void
PointCache::insert(const std::string &key,
                   const std::vector<exp::Cell> &cells)
{
    if (!options_.dir.empty())
        writeToDisk(key, cells);
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.inserts;
    insertLocked(key, cells, /*write_disk=*/false);
}

void
PointCache::insertLocked(const std::string &key,
                         const std::vector<exp::Cell> &cells,
                         bool write_disk)
{
    (void)write_disk;
    auto it = index_.find(key);
    if (it != index_.end()) {
        residentBytes_ -= it->second->bytes;
        it->second->cells = cells;
        it->second->bytes = entryBytes(key, cells);
        residentBytes_ += it->second->bytes;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(Entry{key, cells, entryBytes(key, cells)});
    residentBytes_ += lru_.front().bytes;
    index_[lru_.front().key] = lru_.begin();
    while (lru_.size() > options_.capacity) {
        const Entry &victim = lru_.back();
        residentBytes_ -= victim.bytes;
        index_.erase(victim.key);
        lru_.pop_back();
        ++counters_.evictions;
    }
}

void
PointCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
    residentBytes_ = 0;
}

std::size_t
PointCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

std::size_t
PointCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return residentBytes_;
}

PointCacheCounters
PointCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
PointCache::registerStats(const obs::StatGroup &group) const
{
    group.addFormula(
        "hits", [this] { return double(counters().hits); },
        "point lookups served from memory", "count");
    group.addFormula(
        "misses", [this] { return double(counters().misses); },
        "point lookups that required computation", "count");
    group.addFormula(
        "inserts", [this] { return double(counters().inserts); },
        "computed points stored", "count");
    group.addFormula(
        "evictions",
        [this] { return double(counters().evictions); },
        "entries dropped by the LRU bound", "count");
    group.addFormula(
        "disk_hits",
        [this] { return double(counters().diskHits); },
        "misses faulted in from the on-disk store", "count");
    group.addFormula(
        "disk_errors",
        [this] { return double(counters().diskErrors); },
        "unreadable or mismatched on-disk entries", "count");
    group.addFormula(
        "entries", [this] { return double(size()); },
        "resident entries", "count");
    group.addFormula(
        "resident_bytes",
        [this] { return double(residentBytes()); },
        "approximate resident size", "bytes");
}

std::optional<std::vector<exp::Cell>>
PointCache::loadFromDisk(const std::string &key)
{
    std::ifstream in(filePath(key));
    if (!in)
        return std::nullopt;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto parsed = obs::parseJson(buffer.str());
    const auto fail = [this](const char *why,
                             const std::string &detail) {
        warn("point cache: dropping disk entry (", why,
             detail.empty() ? "" : ": ", detail, ")");
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.diskErrors;
        return std::nullopt;
    };
    if (!parsed || !parsed.value.isObject())
        return fail("bad JSON", parsed.error);
    const obs::JsonValue &root = parsed.value;
    if (root.numberOr("v", 0) != kPointCacheSchemaVersion)
        return fail("schema version mismatch", "");
    // The digest in the filename is not trusted: the stored key
    // must match exactly, so a 64-bit digest collision is a miss
    // rather than a silently wrong result.
    if (root.stringOr("key", "") != key)
        return std::nullopt;
    const obs::JsonValue *cells_json = root.find("cells");
    if (!cells_json || !cells_json->isArray())
        return fail("missing cells array", "");

    std::vector<exp::Cell> cells;
    cells.reserve(cells_json->size());
    for (const obs::JsonValue &cell : cells_json->items()) {
        if (!cell.isObject())
            return fail("cell is not an object", "");
        const obs::JsonValue *text = cell.find("text");
        if (!text || !text->isString())
            return fail("cell has no text", "");
        const std::string value_text =
            cell.stringOr("value", "0x0p+0");
        const double value =
            std::strtod(value_text.c_str(), nullptr);
        const obs::JsonValue *numeric = cell.find("numeric");
        const obs::JsonValue *error = cell.find("error");
        cells.push_back(exp::Cell::fromParts(
            text->asString(), value,
            numeric && numeric->isBool() && numeric->asBool(),
            error && error->isBool() && error->asBool()));
    }
    return cells;
}

void
PointCache::writeToDisk(const std::string &key,
                        const std::vector<exp::Cell> &cells)
{
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);

    obs::JsonWriter json;
    json.beginObject();
    json.keyValue("v", kPointCacheSchemaVersion);
    json.keyValue("key", key);
    json.key("cells").beginArray();
    for (const exp::Cell &cell : cells) {
        json.beginObject();
        json.keyValue("text", cell.str());
        // Hex float: exact textual round-trip of the double.
        json.keyValue("value", exactDouble(cell.value()));
        json.keyValue("numeric", cell.numeric());
        json.keyValue("error", cell.isError());
        json.endObject();
    }
    json.endArray();
    json.endObject();

    const std::string path = filePath(key);
    // Thread-unique temp name: concurrent workers inserting the
    // same point must not interleave into one temp file.
    const std::string tmp =
        path + ".tmp." +
        std::to_string(std::hash<std::thread::id>{}(
            std::this_thread::get_id()));
    {
        std::ofstream out(tmp,
                          std::ios::binary | std::ios::trunc);
        if (!out || !(out << json.str()) || !out.flush()) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++counters_.diskErrors;
            return;
        }
    }
    // rename() makes the entry appear atomically: a concurrent
    // reader sees the old file, the new file, or no file — never
    // a torn one.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.diskErrors;
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.diskWrites;
}

} // namespace uatm::serve
