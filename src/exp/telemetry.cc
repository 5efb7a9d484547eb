/**
 * @file
 * RunnerTelemetry serialization, parsing, and derived metrics.
 */

#include "exp/telemetry.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.hh"

namespace uatm::exp {

obs::LatencyHistogram
makePointLatencyHistogram()
{
    // 1 ns first edge, x2 growth, 64 buckets: covers sub-ns noise
    // through multi-hour points without reconfiguration.
    return obs::LatencyHistogram(1.0, 2.0, 64);
}

double
WorkerTelemetry::utilization() const
{
    if (lifetimeNs == 0)
        return 0.0;
    return static_cast<double>(kernelNs) /
           static_cast<double>(lifetimeNs);
}

std::uint64_t
RunnerTelemetry::kernelNsTotal() const
{
    std::uint64_t total = 0;
    for (const auto &w : workers)
        total += w.kernelNs;
    return total;
}

double
RunnerTelemetry::loadImbalance() const
{
    if (workers.empty())
        return 0.0;
    std::uint64_t maxNs = 0;
    std::uint64_t sumNs = 0;
    for (const auto &w : workers) {
        maxNs = std::max(maxNs, w.kernelNs);
        sumNs += w.kernelNs;
    }
    if (sumNs == 0)
        return 0.0;
    const double mean = static_cast<double>(sumNs) /
                        static_cast<double>(workers.size());
    return static_cast<double>(maxNs) / mean;
}

double
RunnerTelemetry::parallelEfficiency() const
{
    if (wallNs == 0 || workers.empty())
        return 0.0;
    const double capacity =
        static_cast<double>(wallNs) *
        static_cast<double>(workers.size());
    return static_cast<double>(kernelNsTotal()) / capacity;
}

std::string
RunnerTelemetry::toJson() const
{
    obs::JsonWriter w;
    w.beginObject()
        .keyValue("schema_version", kTelemetrySchemaVersion)
        .keyValue("kind", "runner_telemetry")
        .keyValue("armed", armed)
        .keyValue("scenario", scenario)
        .keyValue("threads_requested", threadsRequested)
        .keyValue("threads_used", threadsUsed)
        .keyValue("points", pointCount)
        .keyValue("points_failed", pointsFailed)
        .keyValue("wall_ns", wallNs)
        .keyValue("expand_ns", expandNs)
        .keyValue("merge_ns", mergeNs);

    w.key("workers").beginArray();
    for (const auto &worker : workers) {
        w.beginObject()
            .keyValue("worker", worker.worker)
            .keyValue("points", worker.points)
            .keyValue("kernel_ns", worker.kernelNs)
            .keyValue("acquire_ns", worker.acquireNs)
            .keyValue("idle_ns", worker.idleNs)
            .keyValue("lifetime_ns", worker.lifetimeNs);
        w.key("counters");
        worker.counters.writeJson(w);
        w.endObject();
    }
    w.endArray();

    w.key("point_durations").beginArray();
    for (const auto &point : points) {
        w.beginObject()
            .keyValue("index", point.index)
            .keyValue("worker", point.worker)
            .keyValue("start_ns", point.startNs)
            .keyValue("ns", point.durationNs)
            .keyValue("label", point.label)
            .endObject();
    }
    w.endArray();

    w.key("point_latency").beginObject()
        .keyValue("count", pointLatency.count())
        .keyValue("sum_ns", pointLatency.sum())
        .keyValue("min_ns", pointLatency.min())
        .keyValue("max_ns", pointLatency.max())
        .keyValue("p50_ns", pointLatency.p50())
        .keyValue("p95_ns", pointLatency.p95())
        .keyValue("p99_ns", pointLatency.p99())
        .endObject();

    w.endObject();
    return w.str();
}

Status
RunnerTelemetry::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return Status::ioError("cannot write telemetry file '",
                               path, "'");
    out << toJson() << "\n";
    if (!out)
        return Status::ioError("short write to telemetry file '",
                               path, "'");
    return Status();
}

namespace {

/**
 * Read the optional unsigned field @p key of @p object into @p out
 * (left alone when absent): an integer in [0, max], checked before
 * any cast, or a ParseError.
 */
template <typename T>
Status
readUnsigned(const obs::JsonValue &object, const std::string &key,
             T &out)
{
    const obs::JsonValue *value = object.find(key);
    if (!value)
        return Status();
    const Expected<std::uint64_t> read =
        value->asUnsigned(key, std::numeric_limits<T>::max());
    if (!read.ok())
        return Status::parseError("telemetry: ",
                                  read.status().message());
    out = static_cast<T>(read.value());
    return Status();
}

} // namespace

Expected<RunnerTelemetry>
RunnerTelemetry::fromJson(const obs::JsonValue &doc)
{
    if (!doc.isObject())
        return Status::parseError(
            "telemetry document is not a JSON object");
    if (doc.stringOr("kind", "") != "runner_telemetry")
        return Status::parseError(
            "not a runner_telemetry document (kind='",
            doc.stringOr("kind", "<missing>"), "')");
    // A small bounded integer: a missing or absurd version reads
    // as unsupported, never as a wrapped cast.
    std::uint16_t version = 0;
    if (Status status = readUnsigned(doc, "schema_version", version);
        !status.ok())
        return status;
    // v1 documents lack the per-worker counters object and parse
    // with counters unavailable; anything newer than us is an
    // error rather than a silent partial read.
    if (version < 1 || version > kTelemetrySchemaVersion)
        return Status::parseError(
            "unsupported telemetry schema_version ", version,
            " (expected 1..", kTelemetrySchemaVersion, ")");

    RunnerTelemetry t;
    const obs::JsonValue *armed = doc.find("armed");
    t.armed = armed && armed->isBool() ? armed->asBool() : true;
    t.scenario = doc.stringOr("scenario", "");
    for (Status status :
         {readUnsigned(doc, "threads_requested", t.threadsRequested),
          readUnsigned(doc, "threads_used", t.threadsUsed),
          readUnsigned(doc, "points", t.pointCount),
          readUnsigned(doc, "points_failed", t.pointsFailed),
          readUnsigned(doc, "wall_ns", t.wallNs),
          readUnsigned(doc, "expand_ns", t.expandNs),
          readUnsigned(doc, "merge_ns", t.mergeNs)}) {
        if (!status.ok())
            return status;
    }

    const obs::JsonValue *workers = doc.find("workers");
    if (!workers || !workers->isArray())
        return Status::parseError(
            "telemetry document lacks a 'workers' array");
    for (const auto &item : workers->items()) {
        if (!item.isObject())
            return Status::parseError(
                "'workers' entry is not an object");
        WorkerTelemetry w;
        for (Status status :
             {readUnsigned(item, "worker", w.worker),
              readUnsigned(item, "points", w.points),
              readUnsigned(item, "kernel_ns", w.kernelNs),
              readUnsigned(item, "acquire_ns", w.acquireNs),
              readUnsigned(item, "idle_ns", w.idleNs),
              readUnsigned(item, "lifetime_ns", w.lifetimeNs)}) {
            if (!status.ok())
                return status;
        }
        if (const obs::JsonValue *counters =
                item.find("counters")) {
            w.counters =
                obs::PerfCounterValues::fromJson(*counters);
        }
        t.workers.push_back(w);
    }

    if (const obs::JsonValue *durations =
            doc.find("point_durations");
        durations && durations->isArray()) {
        for (const auto &item : durations->items()) {
            if (!item.isObject())
                return Status::parseError(
                    "'point_durations' entry is not an object");
            PointTiming p;
            for (Status status :
                 {readUnsigned(item, "index", p.index),
                  readUnsigned(item, "worker", p.worker),
                  readUnsigned(item, "start_ns", p.startNs),
                  readUnsigned(item, "ns", p.durationNs)}) {
                if (!status.ok())
                    return status;
            }
            p.label = item.stringOr("label", "");
            t.points.push_back(std::move(p));
        }
    }

    // The histogram buckets are not serialized (the quantile
    // summary is); rebuild from the per-point durations so a
    // loaded document still answers quantile queries.
    for (const auto &point : t.points)
        t.pointLatency.add(
            static_cast<double>(point.durationNs));

    return t;
}

Expected<RunnerTelemetry>
RunnerTelemetry::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot open telemetry file '",
                               path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    const obs::JsonParseResult parsed = obs::parseJson(text.str());
    if (!parsed)
        return Status::parseError("telemetry file '", path,
                                  "': ", parsed.error);
    return fromJson(parsed.value);
}

void
RunnerTelemetry::registerStats(obs::StatRegistry &registry,
                               const std::string &prefix) const
{
    obs::StatGroup group(registry, prefix);
    group.addScalar("threads_requested", threadsRequested,
                    "worker threads requested");
    group.addScalar("threads_used", threadsUsed,
                    "worker threads spawned (0 = inline)");
    group.addScalar("points", static_cast<double>(pointCount),
                    "points executed");
    group.addScalar("points_failed",
                    static_cast<double>(pointsFailed),
                    "points that produced an error row");
    group.addScalar("wall_ns", static_cast<double>(wallNs),
                    "pool wall-clock time", "ns");
    group.addScalar("expand_ns", static_cast<double>(expandNs),
                    "scenario expansion time", "ns");
    group.addScalar("merge_ns", static_cast<double>(mergeNs),
                    "deterministic slot-merge time", "ns");
    group.addScalar("load_imbalance", loadImbalance(),
                    "max/mean per-worker kernel time");
    group.addScalar("parallel_efficiency", parallelEfficiency(),
                    "kernel time / pool wall-clock capacity");
    group.addLatencyHistogram("point_ns", pointLatency,
                              "per-point kernel latency", "ns");
    for (const auto &worker : workers) {
        obs::StatGroup wg = group.group(
            "worker" + std::to_string(worker.worker));
        wg.addScalar("utilization", worker.utilization(),
                     "kernel time / worker lifetime");
        if (!worker.counters.available)
            continue;
        using obs::PerfEvent;
        if (worker.counters.has(PerfEvent::Instructions) &&
            worker.counters.has(PerfEvent::Cycles)) {
            wg.addScalar("ipc", worker.counters.ipc(),
                         "instructions per cycle");
        }
        if (worker.counters.has(PerfEvent::CacheMisses) &&
            worker.counters.has(PerfEvent::CacheReferences)) {
            wg.addScalar("cache_miss_rate",
                         worker.counters.cacheMissRate(),
                         "cache misses / cache references");
        }
        if (worker.counters.has(PerfEvent::CpuMigrations)) {
            wg.addScalar(
                "cpu_migrations",
                worker.counters.get(PerfEvent::CpuMigrations),
                "cpu migrations over the worker's lifetime");
        }
    }
}

} // namespace uatm::exp
