/**
 * @file
 * Sharded parallel scenario runner.
 *
 * Runner::run expands a Scenario into its flat point list and
 * evaluates the points on a fixed-size worker pool.  Each worker
 * pulls the next un-evaluated point (atomic work-stealing index),
 * builds its own trace source from the point's WorkloadSpec, and
 * writes its cells into a slot pre-sized by point index — so the
 * merged ResultTable is byte-identical whether one thread ran the
 * whole grid or eight shared it.
 *
 * Failures are isolated per point: a kernel that throws or returns
 * an error Status marks only its own point as failed.  The other
 * points still run, the failed point's row is emitted with typed
 * error cells ("!invalid_argument"-style), and the failure is
 * counted in RunnerStats::pointsFailed and recorded in
 * lastFailures().  Set RunnerOptions::failFast to restore the old
 * first-failure-aborts-the-run behaviour.
 *
 * Stream kernels (run() with a StreamKernel) price points that
 * read the same reference stream (sameStream) as one group: the
 * stream is generated once into a bounded ring (trace/fanout) and
 * every point's simulator reads it in lockstep.  A group's
 * simulators are dealt over lanes, at most one per worker, that
 * run at the same time, so generating block k + 1 overlaps
 * simulating block k.  The kernel learns the group's lane count
 * when it opens the group, so it can split one simulator into a
 * reader per lane.  A group of one point is the plain per-point
 * path.  Results still land by point index, so tables stay
 * byte-identical at any thread count.
 *
 * Point kernels must be self-contained: no shared mutable state
 * beyond what the Point carries.  The process-wide event tracer
 * (UATM_TRACE) is not thread-safe; a multi-threaded run suspends
 * it while the pool is alive and, after the join, emits one span
 * per point onto a per-worker track from the calling thread — so
 * UATM_TRACE on a parallel sweep yields a per-worker timeline
 * instead of corrupting the ring.  Serial (inline) runs leave the
 * tracer live, preserving the deep engine-internal traces.
 *
 * With RunnerOptions::telemetry armed (automatic when the tracer
 * is enabled) each worker also
 * records what it did — points, kernel/acquire/idle time, one
 * timing per point — lock-free into per-worker slots, merged into
 * lastTelemetry() at join.  Disarmed runs skip all of it.  Armed
 * runs additionally open a per-worker hardware counter group
 * (obs/perf_counters.hh) and record lifetime counter deltas into
 * each worker lane; on hosts that forbid perf_event_open the
 * lanes carry counters.available == false and nothing else
 * changes.
 *
 * UATM_PROGRESS=1 (or RunnerOptions::progressEvery) adds a
 * stderr heartbeat — done/total, points/s, ETA — that never
 * touches the merged table, so output stays byte-identical.
 */

#ifndef UATM_EXP_RUNNER_HH
#define UATM_EXP_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/result_table.hh"
#include "exp/scenario.hh"
#include "exp/telemetry.hh"
#include "trace/fanout.hh"
#include "util/status.hh"

namespace uatm::obs {
class StatRegistry;
}

namespace uatm::exp {

struct RunnerOptions
{
    /** Worker count; 0 means std::thread::hardware_concurrency(). */
    unsigned threads = 1;

    /**
     * Abort the run on the first failed point instead of isolating
     * it: the first kernel exception is rethrown (after the pool
     * winds down and the stats are updated), and a kernel error
     * Status is rethrown as StatusError.
     */
    bool failFast = false;

    /**
     * Record per-worker telemetry (see lastTelemetry()).  Armed
     * automatically when the global event tracer is enabled;
     * costs two extra clock reads per point plus one timing
     * record.
     */
    bool telemetry = false;

    /**
     * Progress heartbeat to stderr every N completed points.
     * 0 = off (default), 1 = auto-sized interval (~5% of the
     * grid), N > 1 = every N points.  UATM_PROGRESS supplies the
     * same values from the environment when this is 0.  The
     * heartbeat writes only to stderr — merged results stay
     * byte-identical with it on or off.
     */
    std::size_t progressEvery = 0;
};

/** One failed point of the most recent run. */
struct PointFailure
{
    std::size_t index = 0; ///< position among the points run
    std::string label;     ///< Point::label() of the failed point
    Status status;         ///< why it failed (never OK)
};

/** What one run did, for manifests and the observability layer. */
struct RunnerStats
{
    std::size_t points = 0;
    /** Points whose kernel threw or returned an error Status. */
    std::size_t pointsFailed = 0;
    unsigned threadsRequested = 0;
    /** Worker threads actually spawned; 0 when the run was inline
     *  on the calling thread. */
    unsigned threadsUsed = 0;
    double wallSeconds = 0.0;
    /** Sum of per-point kernel time across all workers. */
    double pointSecondsTotal = 0.0;

    void registerStats(obs::StatRegistry &registry,
                       const std::string &prefix = "runner") const;
};

/**
 * One simulator of a stream group: fed the group's shared stream
 * block by block, it prices one or more of the group's points.
 */
class StreamReader
{
  public:
    virtual ~StreamReader() = default;

    /** The stream's next block. */
    virtual void feed(const StreamBlock &block) = 0;

    /** One result per point of the reader's slot, in slot order. */
    virtual std::vector<Expected<std::vector<Cell>>> finish() = 0;
};

/** One reader of a group: the group positions of the points it
 *  prices and how to build it. */
struct StreamReaderSlot
{
    std::vector<std::size_t> points;

    /** Line size whose first-touch flags the reader reads. */
    std::uint32_t firstTouchLine = 0;

    /** Builds the reader on the worker that feeds it, so a group's
     *  readers are built in parallel; what it throws fails the
     *  slot's points. */
    std::function<std::unique_ptr<StreamReader>()> make;
};

/**
 * A kernel over stream groups.  open() gets the points of one group
 * (in expansion order) and the number of lanes the group runs on,
 * and returns slots covering each position exactly once.  Slot s
 * runs on lane s % lanes, so a kernel can cut one simulator's work
 * into as many readers as there are lanes.
 */
struct StreamKernel
{
    std::function<std::vector<StreamReaderSlot>(
        const std::vector<const Point *> &group, unsigned lanes)>
        open;
};

/** @p point's table row: its coordinate labels, then @p cells, or
 *  one error cell per value column when @p cells failed. */
std::vector<Cell> pointRow(const Point &point,
                           Expected<std::vector<Cell>> cells,
                           std::size_t value_columns);

class Runner
{
  public:
    /**
     * Evaluates one point into the value columns' cells.  Plain
     * std::vector<Cell> lambdas still fit (implicit conversion);
     * returning an error Status marks the point failed without
     * the cost of an exception.
     */
    using Kernel =
        std::function<Expected<std::vector<Cell>>(const Point &)>;

    explicit Runner(RunnerOptions options = {});

    /**
     * Evaluate every point of @p scenario.  The returned table's
     * columns are the scenario's axis names followed by
     * @p value_columns; each row is the point's coordinate labels
     * followed by the kernel's cells, in expansion order.  Failed
     * points keep their coordinate labels and get one error cell
     * per value column.
     */
    ResultTable run(const Scenario &scenario,
                    const std::vector<std::string> &value_columns,
                    const Kernel &kernel);

    /**
     * The same table, with the points grouped by stream and each
     * group priced by @p kernel's readers in lockstep.  A workload
     * whose make() fails fails every point of its group.
     */
    ResultTable run(const Scenario &scenario,
                    const std::vector<std::string> &value_columns,
                    const StreamKernel &kernel);

    /** The same, over @p points only: a subset of
     *  scenario.expand() in expansion order (the daemon's misses). */
    ResultTable run(const Scenario &scenario,
                    const std::vector<Point> &points,
                    const std::vector<std::string> &value_columns,
                    const StreamKernel &kernel);

    /** Stats from the most recent run(). */
    const RunnerStats &lastStats() const { return stats_; }

    /** Failed points of the most recent run, in point order. */
    const std::vector<PointFailure> &lastFailures() const
    {
        return failures_;
    }

    /**
     * Telemetry from the most recent run().  armed == false (and
     * everything else empty) when the run executed disarmed.
     */
    const RunnerTelemetry &lastTelemetry() const
    {
        return telemetry_;
    }

    /** Threads run() would actually use right now. */
    unsigned effectiveThreads(std::size_t points) const;

    /** Where a lane reports its points (runner.cc). */
    class LaneSink;

  private:
    /** Prices lane @p lane, reporting each of its points to the
     *  sink. */
    using LaneBody = std::function<void(std::size_t lane, LaneSink &)>;

    /** @p scenario's points, timing the expansion into expandNs_. */
    std::vector<Point> expand(const Scenario &scenario);

    /** The one scheduler: runs @p lanes lanes of @p points on the
     *  pool and merges the table. */
    ResultTable runLanes(const Scenario &scenario,
                         const std::vector<Point> &points,
                         const std::vector<std::string> &value_columns,
                         std::size_t lanes, const LaneBody &body);

    RunnerOptions options_;
    /** expand()'s time, taken by the next runLanes (0 if none). */
    std::uint64_t expandNs_ = 0;
    RunnerStats stats_;
    std::vector<PointFailure> failures_;
    RunnerTelemetry telemetry_;
};

} // namespace uatm::exp

#endif // UATM_EXP_RUNNER_HH
