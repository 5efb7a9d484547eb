/**
 * @file
 * Per-worker runner telemetry.
 *
 * When RunnerOptions::telemetry is armed (or the global event
 * tracer is enabled), each Runner worker records what it did — points
 * executed, kernel time, work-acquisition time, idle time, and one
 * timing record per point — into thread-local storage, and the
 * runner merges the per-worker records into a RunnerTelemetry at
 * join.  Nothing is shared while the pool runs, so recording is
 * lock-free and the merged ResultTable stays byte-identical.
 *
 * The merged telemetry serialises to a versioned JSON document
 * (RUNNER_*.json) that tools/run_report consumes for the scaling
 * diagnosis (per-worker utilization, load-imbalance index, top-K
 * slowest points, Amdahl serial-fraction fit — see exp/report.hh),
 * and registers into a StatRegistry like any other stat source,
 * including a log-bucketed per-point latency histogram.
 */

#ifndef UATM_EXP_TELEMETRY_HH
#define UATM_EXP_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/perf_counters.hh"
#include "obs/registry.hh"
#include "util/status.hh"

namespace uatm::obs {
class JsonValue;
}

namespace uatm::exp {

/**
 * Bumped whenever the RUNNER_*.json layout changes shape.
 * v2 added the per-worker "counters" object (hardware counter
 * deltas); v1 documents still parse, with counters unavailable.
 */
constexpr int kTelemetrySchemaVersion = 2;

/** Shape of the per-point latency histogram (1 ns, x2, 64). */
obs::LatencyHistogram makePointLatencyHistogram();

/** One evaluated point, as timed by the worker that ran it. */
struct PointTiming
{
    std::size_t index = 0;       ///< position in expansion order
    unsigned worker = 0;         ///< worker that evaluated it
    std::uint64_t startNs = 0;   ///< offset from the run's start
    std::uint64_t durationNs = 0;
    std::string label;           ///< Point::label() coordinates
};

/** What one worker did across the whole run. */
struct WorkerTelemetry
{
    unsigned worker = 0;
    std::uint64_t points = 0;     ///< points this worker executed
    std::uint64_t kernelNs = 0;   ///< time inside point kernels
    std::uint64_t acquireNs = 0;  ///< claiming work-queue indices
    std::uint64_t idleNs = 0;     ///< lifetime - kernel - acquire
    std::uint64_t lifetimeNs = 0; ///< spawn to exit

    /**
     * Hardware counter deltas over the worker's lifetime (schema
     * v2).  available == false when the host forbids perf, the
     * run was serial-inline, or the document predates v2.
     */
    obs::PerfCounterValues counters;

    /** Fraction of the worker's lifetime spent in kernels. */
    double utilization() const;
};

/** Everything one instrumented run recorded. */
struct RunnerTelemetry
{
    /** False when the run executed with telemetry disarmed (the
     *  other fields are then all empty/zero). */
    bool armed = false;

    std::string scenario;
    unsigned threadsRequested = 0;
    /** Worker threads actually spawned; 0 = inline serial run. */
    unsigned threadsUsed = 0;
    std::uint64_t pointCount = 0;
    std::uint64_t pointsFailed = 0;

    std::uint64_t wallNs = 0;    ///< pool spawn to last join
    std::uint64_t expandNs = 0;  ///< Scenario::expand()
    std::uint64_t mergeNs = 0;   ///< slot merge into ResultTable

    /** One entry per worker (a serial run has exactly one). */
    std::vector<WorkerTelemetry> workers;

    /** One entry per point, sorted by point index. */
    std::vector<PointTiming> points;

    /** Per-point kernel latency, log-bucketed in nanoseconds. */
    obs::LatencyHistogram pointLatency = makePointLatencyHistogram();

    /** Sum of kernelNs over the workers. */
    std::uint64_t kernelNsTotal() const;

    /**
     * max/mean of the per-worker kernel time: 1.0 is a perfectly
     * balanced pool, 2.0 means the slowest worker carried twice
     * the average.  0 when no worker ran anything.
     */
    double loadImbalance() const;

    /**
     * kernelNsTotal / (wallNs * workers): the fraction of the
     * pool's wall-clock capacity spent inside kernels.
     */
    double parallelEfficiency() const;

    /** The versioned RUNNER_*.json document. */
    std::string toJson() const;

    /** Write toJson() to @p path; error Status when unwritable. */
    Status writeJson(const std::string &path) const;

    /** Parse a document produced by toJson(). */
    static Expected<RunnerTelemetry>
    fromJson(const obs::JsonValue &doc);

    /** Read and parse one RUNNER_*.json file. */
    static Expected<RunnerTelemetry>
    load(const std::string &path);

    /**
     * Register the run's telemetry under @p prefix: the scalar
     * run facts, the point-latency histogram, and one utilization
     * scalar per worker.
     */
    void registerStats(obs::StatRegistry &registry,
                       const std::string &prefix =
                           "runner.telemetry") const;
};

} // namespace uatm::exp

#endif // UATM_EXP_TELEMETRY_HH
