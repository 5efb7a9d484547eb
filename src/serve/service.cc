/**
 * @file
 * Implementation of the sweep service.
 */

#include "serve/service.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "cache/sweep.hh"
#include "exp/point_key.hh"
#include "exp/runner.hh"

namespace uatm::serve {

namespace {

double
nanosSince(std::chrono::steady_clock::time_point start)
{
    return double(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

} // namespace

SweepService::SweepService(ServiceOptions options)
    : options_(std::move(options)), cache_(options_.cache)
{
    if (options_.threads == 0) {
        options_.threads =
            std::max(1u, std::thread::hardware_concurrency());
    }
    registerStats();
}

void
SweepService::registerStats()
{
    obs::StatGroup serve(registry_, "serve");
    serve.addFormula(
        "inflight",
        [this] { return double(inflight_.load()); },
        "requests admitted and not yet answered", "count");
    serve.addFormula(
        "requests", [this] { return double(requests_.load()); },
        "sweep requests accepted for execution", "count");
    serve.addFormula(
        "requests_rejected",
        [this] { return double(requestsRejected_.load()); },
        "sweep requests bounced by admission control", "count");
    serve.addFormula(
        "requests_failed",
        [this] { return double(requestsFailed_.load()); },
        "sweep requests refused before execution", "count");
    serve.addFormula(
        "points", [this] { return double(pointsTotal_.load()); },
        "experiment points requested", "count");
    serve.addFormula(
        "points_computed",
        [this] { return double(pointsComputed_.load()); },
        "points priced by a kernel (cache misses)", "count");
    serve.addFormula(
        "points_failed",
        [this] { return double(pointsFailed_.load()); },
        "points degraded to typed error cells", "count");
    cache_.registerStats(serve.group("cache"));
    // Which engine priced each stream group (process-wide tallies).
    obs::StatGroup dispatch = serve.group("dispatch");
    dispatch.addFormula(
        "fast_path",
        [] { return double(sweepDispatchCounters().fastPath); },
        "stream groups priced by one stack-sim pass", "count");
    dispatch.addFormula(
        "declined",
        [] { return double(sweepDispatchCounters().declined); },
        "stream groups that fell back to per-point simulation", "count");
    dispatch.addFormula(
        "per_point",
        [] { return double(sweepDispatchCounters().perPoint); },
        "stream groups per-point by design", "count");

    // Histograms go last: the returned references live inside the
    // registry's entry table, which may reallocate on the next
    // registration.  Nothing registers after this constructor.
    // The exposition layer appends the "_ns" unit suffix itself,
    // so the registered names stay unit-free.
    serve.addLatencyHistogram(
        "point", obs::LatencyHistogram(),
        "per-point time: a hit's lookup, a miss's share of its run",
        "ns");
    serve.addLatencyHistogram(
        "request", obs::LatencyHistogram(),
        "end-to-end sweep request latency", "ns");
    pointNanos_ =
        &registry_.findMutable("serve.point")->histogram;
    requestNanos_ =
        &registry_.findMutable("serve.request")->histogram;
}

Expected<SweepOutcome>
SweepService::runSweep(const SweepRequest &request)
{
    const auto start = std::chrono::steady_clock::now();

    const std::size_t points = request.scenario.pointCount();
    if (points > options_.maxPointsPerRequest) {
        ++requestsFailed_;
        return Status::outOfRange(
            "request sweeps ", points, " points, limit ",
            options_.maxPointsPerRequest,
            " (split the sweep into smaller requests)");
    }

    // Admission: the slot is taken optimistically and returned on
    // every exit path.  fetch_add keeps the check race-free — two
    // requests racing for the last slot cannot both win it.
    if (inflight_.fetch_add(1) >= options_.maxQueueDepth) {
        inflight_.fetch_sub(1);
        ++requestsRejected_;
        return Status::unavailable(
            "sweep queue is full (", options_.maxQueueDepth,
            " requests already admitted); retry later");
    }
    struct Slot
    {
        std::atomic<std::size_t> &counter;
        ~Slot() { counter.fetch_sub(1); }
    } slot{inflight_};

    const exp::Kernel *kernel = exp::findKernel(request.kernel);
    if (!kernel) {
        ++requestsFailed_;
        return Status::notFound("unknown kernel '", request.kernel,
                                "'");
    }

    // Look up every point on this thread; only the misses are
    // priced, so a request where every point hits never takes the
    // pool, the mutex or a workload.
    const exp::Scenario &scenario = request.scenario;
    const std::vector<exp::Point> expanded = scenario.expand();
    const std::size_t width = kernel->columns.size();
    std::vector<std::vector<exp::Cell>> rows(points);
    std::vector<exp::Point> misses;
    std::vector<std::pair<std::size_t, std::string>> missed; // row, key
    std::size_t hits = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < points; ++i) {
        const auto point_start = std::chrono::steady_clock::now();
        auto key = exp::canonicalPointKey(expanded[i], kernel->id);
        if (!key.ok()) {
            // A point the cache cannot address (custom workload
            // spec) is refused, never silently cached or priced.
            rows[i] = exp::pointRow(expanded[i], key.status(), width);
            ++failed;
        } else if (auto cells = cache_.lookup(key.value())) {
            rows[i] = exp::pointRow(expanded[i], std::move(*cells),
                                    width);
            ++hits;
        } else {
            misses.push_back(expanded[i]);
            missed.emplace_back(i, std::move(key).value());
            continue;
        }
        pointNanos_->add(nanosSince(point_start));
    }

    std::size_t computed = 0;
    if (!misses.empty()) {
        exp::RunnerOptions runner_options;
        runner_options.threads =
            request.threads
                ? std::min(request.threads, options_.threads)
                : options_.threads;
        // One sweep at a time on the pool; the rest of the admitted
        // queue (inflight_) waits here.
        std::unique_lock<std::mutex> run_lock(runMutex_);
        const auto run_start = std::chrono::steady_clock::now();
        exp::Runner runner(runner_options);
        const exp::ResultTable priced =
            runner.run(scenario, misses, kernel->columns,
                       kernel->stream);
        const double share =
            nanosSince(run_start) / double(misses.size());
        run_lock.unlock();
        const std::vector<exp::PointFailure> &failures =
            runner.lastFailures();

        failed += failures.size();
        computed = misses.size() - failures.size();
        auto failure = failures.begin();
        for (std::size_t j = 0; j < misses.size(); ++j) {
            const std::vector<exp::Cell> &row = priced.row(j);
            if (failure != failures.end() && failure->index == j)
                ++failure; // failures are not cached
            else
                cache_.insert(missed[j].second,
                              {row.end() - width, row.end()});
            rows[missed[j].first] = row;
            pointNanos_->add(share);
        }
    }

    std::vector<std::string> columns = scenario.axisNames();
    columns.insert(columns.end(), kernel->columns.begin(),
                   kernel->columns.end());
    exp::ResultTable table(scenario.name(), std::move(columns));
    for (std::vector<exp::Cell> &row : rows)
        table.addRow(std::move(row));

    ++requests_;
    pointsTotal_ += points;
    pointsComputed_ += computed;
    pointsFailed_ += failed;
    requestNanos_->add(nanosSince(start));

    return SweepOutcome{std::move(table), points, computed, hits,
                        failed};
}

std::string
SweepService::metricsText() const
{
    return registry_.dumpPrometheus("uatm");
}

} // namespace uatm::serve
