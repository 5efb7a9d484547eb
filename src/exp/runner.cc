/**
 * @file
 * Implementation of the sharded parallel runner.
 */

#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/registry.hh"
#include "obs/trace_event.hh"
#include "util/logging.hh"

namespace uatm::exp {

void
RunnerStats::registerStats(obs::StatRegistry &registry,
                           const std::string &prefix) const
{
    registry.addScalar(prefix + ".points",
                       static_cast<double>(points),
                       "scenario points evaluated");
    registry.addScalar(prefix + ".points_failed",
                       static_cast<double>(pointsFailed),
                       "points whose kernel failed");
    registry.addScalar(prefix + ".threads_requested",
                       threadsRequested,
                       "worker threads requested");
    registry.addScalar(prefix + ".threads_used", threadsUsed,
                       "worker threads actually spawned");
    registry.addScalar(prefix + ".wall_seconds", wallSeconds,
                       "wall-clock time of the run", "s");
    registry.addScalar(prefix + ".point_seconds_total",
                       pointSecondsTotal,
                       "summed per-point kernel time", "s");
}

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            to - from)
            .count());
}

/** UATM_PROGRESS: 0/unset = off, numeric N = every N points,
 *  any other non-"0" value = auto interval. */
std::size_t
envProgressEvery()
{
    const char *env = std::getenv("UATM_PROGRESS");
    if (!env || !*env || std::string_view(env) == "0")
        return 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(env, &end, 10);
    if (end && *end == '\0' && value > 0)
        return static_cast<std::size_t>(value);
    return 1;
}

/**
 * Replay the merged telemetry into the (single-threaded) tracer
 * as one track per worker: point spans named by their coordinate
 * label, idle gaps between them, all timestamps in microseconds
 * relative to the pool start.
 */
void
emitWorkerSpans(obs::EventTracer &tracer,
                const RunnerTelemetry &telemetry,
                const std::vector<std::uint64_t> &workerStartNs)
{
    const char *idleName = tracer.intern("idle");
    const char *startName = tracer.intern("worker start");
    for (const auto &worker : telemetry.workers) {
        const char *track = tracer.intern(
            "runner worker " + std::to_string(worker.worker));
        std::uint64_t cursorNs =
            worker.worker < workerStartNs.size()
                ? workerStartNs[worker.worker]
                : 0;
        // Instant marker so every worker gets a named track even
        // when it never won a point (short grids, few cores).
        tracer.record(startName, track, cursorNs / 1000, 0,
                      worker.worker);
        for (const auto &point : telemetry.points) {
            if (point.worker != worker.worker)
                continue;
            if (point.startNs > cursorNs) {
                const std::uint64_t gapUs =
                    (point.startNs - cursorNs) / 1000;
                if (gapUs > 0)
                    tracer.record(idleName, track,
                                  cursorNs / 1000, gapUs);
            }
            tracer.record(tracer.intern(point.label), track,
                          point.startNs / 1000,
                          std::max<std::uint64_t>(
                              point.durationNs / 1000, 1),
                          point.index);
            cursorNs = std::max(cursorNs,
                                point.startNs + point.durationNs);
        }
        const std::uint64_t workerEndNs =
            (worker.worker < workerStartNs.size()
                 ? workerStartNs[worker.worker]
                 : 0) +
            worker.lifetimeNs;
        if (workerEndNs > cursorNs) {
            const std::uint64_t gapUs =
                (workerEndNs - cursorNs) / 1000;
            if (gapUs > 0)
                tracer.record(idleName, track, cursorNs / 1000,
                              gapUs);
        }
    }
}

} // namespace

std::vector<Cell>
pointRow(const Point &point, Expected<std::vector<Cell>> cells,
         std::size_t value_columns)
{
    std::vector<Cell> row;
    for (const auto &coord : point.coords)
        row.push_back(Cell::text(coord.label));
    if (!cells.ok()) {
        row.insert(row.end(), value_columns,
                   Cell::error(cells.status()));
        return row;
    }
    UATM_ASSERT(cells.value().size() == value_columns,
                "kernel returned ", cells.value().size(),
                " cells for point ", point.label(), ", expected ",
                value_columns);
    row.insert(row.end(), std::make_move_iterator(cells.value().begin()),
               std::make_move_iterator(cells.value().end()));
    return row;
}

Runner::Runner(RunnerOptions options) : options_(options) {}

unsigned
Runner::effectiveThreads(std::size_t points) const
{
    unsigned threads = options_.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (points < threads)
        threads = points ? static_cast<unsigned>(points) : 1;
    return threads;
}

/**
 * Where a lane reports its points.  One sink per worker; the
 * outcome slots it writes are pre-sized by point index, so workers
 * never share one.
 */
class Runner::LaneSink
{
  public:
    struct Shared
    {
        std::vector<std::vector<Cell>> &slots;
        std::vector<std::optional<Status>> &errors;
        std::atomic<bool> &aborted;
        std::exception_ptr &firstError;
        std::mutex &errorMutex;
        bool failFast;
    };

    LaneSink(Shared &shared, std::vector<PointTiming> *timings,
             unsigned worker)
        : shared_(shared), timings_(timings), worker_(worker)
    {
    }

    /** Point @p index priced in @p ns of this lane's time. */
    void
    succeed(std::size_t index, std::vector<Cell> cells,
            std::uint64_t ns)
    {
        shared_.slots[index] = std::move(cells);
        record(index, ns);
    }

    /** Point @p index failed with @p status; @p thrown is what the
     *  kernel threw, if it threw. */
    void
    fail(std::size_t index, Status status, std::exception_ptr thrown,
         std::uint64_t ns)
    {
        shared_.errors[index] = status;
        record(index, ns);
        if (!shared_.failFast)
            return;
        std::lock_guard<std::mutex> lock(shared_.errorMutex);
        if (!shared_.firstError) {
            // Rethrow what the kernel actually threw; wrap
            // status-return failures so they still escape as an
            // exception.
            shared_.firstError =
                thrown ? thrown
                       : std::make_exception_ptr(StatusError(status));
        }
        // Every later lane returns at once, so the pool winds
        // down fast.
        shared_.aborted.store(true, std::memory_order_relaxed);
    }

    /** A fail-fast run is winding down: price nothing more (a
     *  stream lane still leaves its ring). */
    bool
    aborted() const
    {
        return shared_.aborted.load(std::memory_order_relaxed);
    }

    /** Telemetry is armed: time each point. */
    bool timed() const { return timings_ != nullptr; }

    /** Lay this lane's points end to end from @p ns. */
    void startLane(std::uint64_t ns) { cursorNs_ = ns; }

    /** Points reported so far (progress). */
    std::size_t reported() const { return reported_; }

  private:
    void
    record(std::size_t index, std::uint64_t ns)
    {
        ++reported_;
        if (!timings_)
            return;
        PointTiming timing;
        timing.index = index;
        timing.worker = worker_;
        timing.startNs = cursorNs_;
        timing.durationNs = ns;
        cursorNs_ += ns;
        timings_->push_back(std::move(timing));
    }

    Shared &shared_;
    std::vector<PointTiming> *timings_;
    unsigned worker_;
    std::uint64_t cursorNs_ = 0;
    std::size_t reported_ = 0;
};

namespace {

/** The status a kernel failure maps to. */
Status
statusOf(std::exception_ptr thrown)
{
    try {
        std::rethrow_exception(thrown);
    } catch (const StatusError &e) {
        return e.status();
    } catch (const std::exception &e) {
        return Status::error(ErrorCode::KernelError, e.what());
    } catch (...) {
        return Status::error(ErrorCode::KernelError,
                             "unknown exception");
    }
}

/** One stream group: its points, its lanes and, once the first
 *  lane opens it, its source, readers and ring. */
struct StreamGroup
{
    std::vector<std::size_t> points;
    unsigned lanes = 1;

    std::once_flag opened;
    Status status;            ///< make() or open() failed
    std::exception_ptr thrown; ///< what open() threw
    std::unique_ptr<TraceSource> source;
    std::vector<StreamReaderSlot> slots;
    std::vector<std::vector<std::size_t>> laneSlots;
    std::unique_ptr<BlockFanout> fanout;
    /** Lanes still running; the last one frees the group. */
    std::atomic<unsigned> running{0};
};

void
openGroup(StreamGroup &group, const std::vector<Point> &points,
          const StreamKernel &kernel)
{
    const Point &first = points[group.points.front()];
    auto source = first.workload.make();
    if (!source.ok()) {
        group.status = source.status();
        return;
    }
    std::vector<const Point *> members;
    members.reserve(group.points.size());
    for (std::size_t index : group.points)
        members.push_back(&points[index]);
    try {
        group.slots = kernel.open(members, group.lanes);
    } catch (...) {
        group.thrown = std::current_exception();
        group.status = statusOf(group.thrown);
        return;
    }
    std::vector<bool> covered(members.size(), false);
    std::vector<std::uint32_t> lines;
    group.laneSlots.resize(group.lanes);
    for (std::size_t s = 0; s < group.slots.size(); ++s) {
        const StreamReaderSlot &slot = group.slots[s];
        UATM_ASSERT(slot.make != nullptr, "a stream slot needs a make");
        for (std::size_t position : slot.points) {
            UATM_ASSERT(position < covered.size() &&
                            !covered[position],
                        "stream slots must cover each point once");
            covered[position] = true;
        }
        lines.push_back(slot.firstTouchLine);
        group.laneSlots[s % group.lanes].push_back(s);
    }
    UATM_ASSERT(std::find(covered.begin(), covered.end(), false) ==
                    covered.end(),
                "stream slots must cover every point");
    group.fanout = std::make_unique<BlockFanout>(
        *source.value(), first.refs, group.lanes, std::move(lines),
        first.warmupRefs);
    group.source = std::move(source).value();
}

/** Lane @p lane of @p group: feed its readers every block, then
 *  report their points. */
void
runStreamLane(StreamGroup &group, unsigned lane,
              const std::vector<Point> &points,
              const StreamKernel &kernel, Runner::LaneSink &sink)
{
    const bool timed = sink.timed();
    std::call_once(group.opened,
                   [&] { openGroup(group, points, kernel); });
    const auto since = [](Clock::time_point from) {
        return nsBetween(from, Clock::now());
    };

    if (!group.status.ok()) {
        if (lane == 0) {
            for (std::size_t index : group.points)
                sink.fail(index, group.status, group.thrown, 0);
        }
    } else {
        struct Live
        {
            const StreamReaderSlot *slot;
            std::unique_ptr<StreamReader> reader;
            std::uint64_t ns = 0;
        };
        std::vector<Live> live;
        const auto failSlot = [&](const StreamReaderSlot &slot,
                                  const Status &status,
                                  std::exception_ptr thrown,
                                  std::uint64_t ns) {
            for (std::size_t position : slot.points)
                sink.fail(group.points[position], status, thrown,
                          ns / slot.points.size());
        };
        for (std::size_t s : group.laneSlots[lane]) {
            const StreamReaderSlot &slot = group.slots[s];
            const auto start =
                timed ? Clock::now() : Clock::time_point{};
            try {
                live.push_back(Live{&slot, slot.make()});
            } catch (...) {
                const auto thrown = std::current_exception();
                failSlot(slot, statusOf(thrown), thrown, 0);
                continue;
            }
            if (timed)
                live.back().ns = since(start);
        }
        try {
            while (!live.empty() && !sink.aborted()) {
                const StreamBlock *block = group.fanout->next(lane);
                if (!block)
                    break;
                for (std::size_t r = 0; r < live.size();) {
                    const auto start =
                        timed ? Clock::now() : Clock::time_point{};
                    try {
                        live[r].reader->feed(*block);
                    } catch (...) {
                        const auto thrown = std::current_exception();
                        failSlot(*live[r].slot, statusOf(thrown),
                                 thrown, live[r].ns);
                        live.erase(live.begin() +
                                   static_cast<std::ptrdiff_t>(r));
                        continue;
                    }
                    if (timed)
                        live[r].ns += since(start);
                    ++r;
                }
            }
        } catch (...) {
            // The source itself failed: so does every live point.
            const auto thrown = std::current_exception();
            for (const Live &reader : live)
                failSlot(*reader.slot, statusOf(thrown), thrown,
                         reader.ns);
            live.clear();
        }
        group.fanout->leave(lane);
        for (Live &reader : live) {
            if (sink.aborted())
                break;
            const StreamReaderSlot &slot = *reader.slot;
            const auto start =
                timed ? Clock::now() : Clock::time_point{};
            std::vector<Expected<std::vector<Cell>>> results;
            try {
                results = reader.reader->finish();
            } catch (...) {
                const auto thrown = std::current_exception();
                failSlot(slot, statusOf(thrown), thrown, reader.ns);
                continue;
            }
            UATM_ASSERT(results.size() == slot.points.size(),
                        "a stream reader priced ", results.size(),
                        " of its ", slot.points.size(), " points");
            if (timed)
                reader.ns += since(start);
            const std::uint64_t share =
                reader.ns / slot.points.size();
            for (std::size_t j = 0; j < results.size(); ++j) {
                const std::size_t index =
                    group.points[slot.points[j]];
                if (results[j].ok())
                    sink.succeed(index,
                                 std::move(results[j]).value(),
                                 share);
                else
                    sink.fail(index, results[j].status(), nullptr,
                              share);
            }
        }
    }
    if (group.running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        group.fanout.reset();
        group.slots.clear();
        group.source.reset();
    }
}

} // namespace

std::vector<Point>
Runner::expand(const Scenario &scenario)
{
    const auto start = Clock::now();
    std::vector<Point> points = scenario.expand();
    expandNs_ = nsBetween(start, Clock::now());
    return points;
}

ResultTable
Runner::run(const Scenario &scenario,
            const std::vector<std::string> &value_columns,
            const Kernel &kernel)
{
    UATM_ASSERT(kernel != nullptr, "runner needs a kernel");

    const std::vector<Point> points = expand(scenario);

    // One lane per point.
    return runLanes(
        scenario, points, value_columns, points.size(),
        [&](std::size_t i, LaneSink &sink) {
            if (sink.aborted())
                return;
            std::exception_ptr thrown;
            std::optional<Expected<std::vector<Cell>>> cells;
            try {
                cells = kernel(points[i]);
            } catch (...) {
                thrown = std::current_exception();
            }
            // The scheduler times a one-point lane.
            if (thrown)
                sink.fail(i, statusOf(thrown), thrown, 0);
            else if (cells->ok())
                sink.succeed(i, std::move(*cells).value(), 0);
            else
                sink.fail(i, cells->status(), nullptr, 0);
        });
}

ResultTable
Runner::run(const Scenario &scenario,
            const std::vector<std::string> &value_columns,
            const StreamKernel &kernel)
{
    return run(scenario, expand(scenario), value_columns, kernel);
}

ResultTable
Runner::run(const Scenario &scenario, const std::vector<Point> &points,
            const std::vector<std::string> &value_columns,
            const StreamKernel &kernel)
{
    UATM_ASSERT(kernel.open != nullptr, "runner needs a kernel");

    std::vector<std::unique_ptr<StreamGroup>> groups;
    for (std::size_t i = 0; i < points.size(); ++i) {
        auto same = std::find_if(
            groups.begin(), groups.end(), [&](const auto &group) {
                return sameStream(points[group->points.front()],
                                  points[i]);
            });
        if (same == groups.end()) {
            groups.push_back(std::make_unique<StreamGroup>());
            same = groups.end() - 1;
        }
        (*same)->points.push_back(i);
    }

    // A group gets lanes in proportion to its share of the points,
    // at most one per point and per thread.  Its lanes are
    // consecutive and no more than the pool, so once a worker
    // claims a group's first lane the others get workers too (a
    // lane can wait on a sibling that has not started yet).
    const unsigned threads = effectiveThreads(points.size());
    struct LaneRef
    {
        StreamGroup *group;
        unsigned lane;
    };
    std::vector<LaneRef> lanes;
    for (const auto &group : groups) {
        const std::size_t size = group->points.size();
        const std::size_t share =
            (threads * size + points.size() - 1) / points.size();
        group->lanes = static_cast<unsigned>(std::max<std::size_t>(
            1, std::min({share, size, std::size_t{threads}})));
        group->running.store(group->lanes);
        for (unsigned l = 0; l < group->lanes; ++l)
            lanes.push_back(LaneRef{group.get(), l});
    }

    return runLanes(scenario, points, value_columns, lanes.size(),
                    [&](std::size_t i, LaneSink &sink) {
                        runStreamLane(*lanes[i].group, lanes[i].lane,
                                      points, kernel, sink);
                    });
}

ResultTable
Runner::runLanes(const Scenario &scenario,
                 const std::vector<Point> &points,
                 const std::vector<std::string> &value_columns,
                 std::size_t lanes, const LaneBody &body)
{
    const std::uint64_t expandNs = std::exchange(expandNs_, 0);
    std::vector<std::string> columns = scenario.axisNames();
    columns.insert(columns.end(), value_columns.begin(),
                   value_columns.end());
    ResultTable table(scenario.name(), columns);

    unsigned requested =
        options_.threads ? options_.threads
                         : std::thread::hardware_concurrency();
    if (requested == 0)
        requested = 1;
    const unsigned threads = effectiveThreads(lanes);

    obs::EventTracer &tracer = obs::globalTracer();
    const bool traceArmed = tracer.enabled();
    const bool telemetryArmed = options_.telemetry || traceArmed;

    std::vector<std::vector<Cell>> slots(points.size());
    // One failure slot per point keeps the merge deterministic:
    // failures land by index, not by completion order.
    std::vector<std::optional<Status>> errors(points.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> aborted{false};
    std::atomic<double> kernelSeconds{0.0};
    std::exception_ptr firstError;
    std::mutex errorMutex;
    LaneSink::Shared shared{slots, errors, aborted, firstError,
                            errorMutex, options_.failFast};

    // Progress heartbeat: 1 means auto-size the interval to ~5%
    // of the grid so big sweeps print ~20 lines, small ones one.
    std::size_t progressEvery = options_.progressEvery
                                    ? options_.progressEvery
                                    : envProgressEvery();
    if (progressEvery == 1)
        progressEvery =
            std::max<std::size_t>(1, points.size() / 20);
    std::atomic<std::size_t> completed{0};
    std::mutex progressMutex;

    const unsigned workers = std::max(threads, 1u);

    // Telemetry lands in per-worker slots sized before the pool
    // spawns: workers write only their own slot, so recording is
    // lock-free and needs no synchronisation beyond the join.
    std::vector<WorkerTelemetry> laneTelemetry(
        telemetryArmed ? workers : 0);
    std::vector<std::vector<PointTiming>> lanePoints(
        telemetryArmed ? workers : 0);
    std::vector<std::uint64_t> laneStartNs(
        telemetryArmed ? workers : 0, 0);

    const auto wallStart = Clock::now();

    auto worker = [&](unsigned id) {
        double localSeconds = 0.0;
        WorkerTelemetry tel;
        tel.worker = id;
        std::vector<PointTiming> localPoints;
        LaneSink sink(shared, telemetryArmed ? &localPoints : nullptr,
                      id);
        // Per-worker hardware counters: opened on the worker's
        // own thread so the group counts exactly this worker.
        // Unavailability (paranoid, seccomp, no PMU) is recorded,
        // never fatal.
        std::optional<obs::PerfCounterGroup> counters;
        obs::PerfReading counterBegin;
        const auto lifeStart = Clock::now();
        if (telemetryArmed) {
            laneStartNs[id] = nsBetween(wallStart, lifeStart);
            localPoints.reserve(points.size() / workers + 1);
            counters.emplace();
            if (counters->available()) {
                counters->start();
                counterBegin = counters->read();
            }
        }
        while (true) {
            Clock::time_point acquireStart;
            if (telemetryArmed)
                acquireStart = Clock::now();
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= lanes)
                break;
            const auto start = Clock::now();
            if (telemetryArmed)
                tel.acquireNs += nsBetween(acquireStart, start);
            const std::size_t before = sink.reported();
            sink.startLane(nsBetween(wallStart, start));
            body(i, sink);
            const auto end = Clock::now();
            localSeconds +=
                std::chrono::duration<double>(end - start).count();
            if (telemetryArmed) {
                const std::uint64_t ns = nsBetween(start, end);
                tel.kernelNs += ns;
                tel.points += sink.reported() - before;
                // A lane of one point: the point took the lane.
                if (sink.reported() - before == 1)
                    localPoints.back().durationNs = ns;
            }
            if (progressEvery) {
                const std::size_t count = sink.reported() - before;
                const std::size_t done =
                    completed.fetch_add(count,
                                        std::memory_order_relaxed) +
                    count;
                if (count && (done / progressEvery !=
                                  (done - count) / progressEvery ||
                              done == points.size())) {
                    const double elapsed =
                        static_cast<double>(nsBetween(
                            wallStart, Clock::now())) /
                        1e9;
                    const double rate =
                        elapsed > 0.0
                            ? static_cast<double>(done) / elapsed
                            : 0.0;
                    const double eta =
                        rate > 0.0
                            ? static_cast<double>(points.size() -
                                                  done) /
                                  rate
                            : 0.0;
                    std::lock_guard<std::mutex> lock(
                        progressMutex);
                    std::fprintf(
                        stderr,
                        "uatm runner [%s]: %zu/%zu points, "
                        "%.0f points/s, ETA %.1fs\n",
                        scenario.name().c_str(), done,
                        points.size(), rate, eta);
                }
            }
        }
        double expected =
            kernelSeconds.load(std::memory_order_relaxed);
        while (!kernelSeconds.compare_exchange_weak(
            expected, expected + localSeconds,
            std::memory_order_relaxed))
            ;
        if (telemetryArmed) {
            tel.lifetimeNs = nsBetween(lifeStart, Clock::now());
            const std::uint64_t busy = tel.kernelNs + tel.acquireNs;
            tel.idleNs =
                tel.lifetimeNs > busy ? tel.lifetimeNs - busy : 0;
            if (counters && counters->available()) {
                tel.counters = obs::scaleDelta(counterBegin,
                                               counters->read());
            }
            laneTelemetry[id] = tel;
            lanePoints[id] = std::move(localPoints);
        }
    };

    unsigned spawned = 0;
    if (threads <= 1) {
        worker(0);
    } else {
        // The tracer's ring is not synchronised.  Suspend it while
        // the pool is alive (kernel-internal record() calls become
        // inline no-ops) and replay the per-worker telemetry as
        // spans from this thread after the join.
        if (traceArmed)
            tracer.setEnabled(false);
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker, t);
        for (auto &thread : pool)
            thread.join();
        if (traceArmed)
            tracer.setEnabled(true);
        spawned = threads;
    }
    const std::uint64_t wallNs =
        nsBetween(wallStart, Clock::now());
    const double wallSeconds =
        static_cast<double>(wallNs) / 1e9;

    failures_.clear();
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (errors[i]) {
            failures_.push_back(
                PointFailure{i, points[i].label(), *errors[i]});
        }
    }

    // Stats first, rethrow second: a fail-fast abort must not leave
    // lastStats() describing the previous run.
    stats_.points = points.size();
    stats_.pointsFailed = failures_.size();
    stats_.threadsRequested = requested;
    stats_.threadsUsed = spawned;
    stats_.wallSeconds = wallSeconds;
    stats_.pointSecondsTotal =
        kernelSeconds.load(std::memory_order_relaxed);

    telemetry_ = RunnerTelemetry{};
    telemetry_.armed = telemetryArmed;
    if (telemetryArmed) {
        telemetry_.scenario = scenario.name();
        telemetry_.threadsRequested = requested;
        telemetry_.threadsUsed = spawned;
        telemetry_.pointCount = points.size();
        telemetry_.pointsFailed = failures_.size();
        telemetry_.wallNs = wallNs;
        telemetry_.expandNs = expandNs;
        telemetry_.workers = laneTelemetry;
        std::size_t total = 0;
        for (const auto &lane : lanePoints)
            total += lane.size();
        telemetry_.points.reserve(total);
        for (auto &lane : lanePoints)
            for (auto &timing : lane)
                telemetry_.points.push_back(std::move(timing));
        std::sort(telemetry_.points.begin(),
                  telemetry_.points.end(),
                  [](const PointTiming &a, const PointTiming &b) {
                      return a.index < b.index;
                  });
        for (auto &timing : telemetry_.points) {
            timing.label = points[timing.index].label();
            telemetry_.pointLatency.add(
                static_cast<double>(timing.durationNs));
        }
        if (traceArmed)
            emitWorkerSpans(tracer, telemetry_, laneStartNs);
    }

    // Log after the join, from one thread, so warn() lines do not
    // interleave.
    for (const auto &failure : failures_) {
        warn("point ", points[failure.index].index, " (", failure.label,
             ") failed: ", failure.status.toString());
    }

    if (options_.failFast && firstError)
        std::rethrow_exception(firstError);

    const auto mergeStart = Clock::now();
    for (std::size_t i = 0; i < points.size(); ++i) {
        table.addRow(pointRow(
            points[i],
            errors[i] ? Expected<std::vector<Cell>>(*errors[i])
                      : std::move(slots[i]),
            value_columns.size()));
    }
    if (telemetryArmed)
        telemetry_.mergeNs = nsBetween(mergeStart, Clock::now());

    return table;
}

} // namespace uatm::exp
