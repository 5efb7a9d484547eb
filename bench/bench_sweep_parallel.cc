/**
 * @file
 * Scaling benchmark for the exp::Runner worker pool, on the
 * obs::BenchSuite harness, over two scenarios at 1, 2, 4 and 8
 * threads:
 *
 *  - sweep/geometry: a cache-size sweep over eight set counts,
 *    priced by one stack-sim pass cut by set count into a shard
 *    per worker, all reading one generated stream (at one thread,
 *    the whole pass);
 *  - sweep/timing: 24 timing-engine designs on one stream, shaped
 *    like design_space_explorer — one generated stream, the
 *    engines split over the workers (work that parallelises).
 *
 * Writes BENCH_sweep_parallel.json for tools/perf_diff, and
 * reports the wall-clock speedup of each thread count over the
 * serial run.  Before timing anything, it asserts each merged CSV
 * is byte-identical at every thread count — both disarmed and with
 * telemetry armed — and to per-point evaluation, the runner's core
 * determinism contract.
 *
 * After the timed reps, one telemetry-armed run of each family per
 * thread count writes RUNNER_sweep_parallel_<family>_t<n>.json
 * next to the BENCH json, and each family's scaling diagnosis
 * (per-worker utilization, load imbalance, Amdahl serial-fraction
 * fit) prints inline; feed one family's files to tools/run_report
 * for the standalone report.  With UATM_TRACE set, the runner
 * additionally emits one Chrome-trace track per worker.
 *
 *   bench_sweep_parallel [--filter=<substr>] [--list] [--reps=<n>]
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hh"
#include "exp/kernel.hh"
#include "exp/report.hh"
#include "exp/scenarios.hh"
#include "obs/bench.hh"

namespace uatm {
namespace {

constexpr std::uint64_t kRefs = 20000;

exp::GeometrySweep
benchSweep()
{
    exp::GeometrySweep spec;
    spec.axis = exp::GeometrySweep::Axis::Size;
    spec.base.assoc = 2;
    spec.base.lineBytes = 32;
    spec.workload = exp::WorkloadSpec::spec92("nasa7", 9);
    spec.values = {4096,  8192,   16384,  32768,
                   65536, 131072, 262144, 524288};
    spec.refs = kRefs;
    spec.warmupRefs = kRefs / 10;
    return spec;
}

exp::ResultTable
geometrySweep(exp::Runner &runner)
{
    return exp::runGeometrySweep(benchSweep(), runner);
}

std::string
sweepCsv(unsigned threads, bool telemetry = false)
{
    exp::RunnerOptions options;
    options.threads = threads;
    options.telemetry = telemetry;
    exp::Runner runner(options);
    return geometrySweep(runner).renderCsv();
}

/** design_space_explorer's grid: cache x bus x feature x write
 *  buffer, 24 timing-engine points on one stream. */
exp::Scenario
timingScenario()
{
    exp::Scenario scenario("timing_grid",
                           "24 timing-engine designs, one stream");
    scenario.refs = kRefs;
    scenario.workload = exp::WorkloadSpec::spec92("nasa7", 9);
    scenario.cache.assoc = 2;
    scenario.memory.cycleTime = 8;
    scenario.writeBuffer.readBypass = true;
    scenario.sweep("cache", {8192, 32768, 131072},
                   [](exp::Point &p, const exp::AxisValue &v) {
                       p.cache.sizeBytes =
                           static_cast<std::uint64_t>(v.value);
                   });
    scenario.sweep("bus", {4, 8},
                   [](exp::Point &p, const exp::AxisValue &v) {
                       p.memory.busWidthBytes =
                           static_cast<std::uint32_t>(v.value);
                   });
    scenario.sweepLabeled(
        "feature", {{"FS", 0}, {"BNL3", 1}},
        [](exp::Point &p, const exp::AxisValue &v) {
            p.cpu.feature = v.value == 0 ? StallFeature::FS
                                         : StallFeature::BNL3;
        });
    scenario.sweep("wbuf", {0, 8},
                   [](exp::Point &p, const exp::AxisValue &v) {
                       p.writeBuffer.depth =
                           static_cast<std::uint32_t>(v.value);
                   });
    return scenario;
}

exp::ResultTable
timingSweep(exp::Runner &runner)
{
    return exp::findKernel("timing")->run(runner, timingScenario());
}

std::string
timingCsv(unsigned threads, bool telemetry = false)
{
    exp::RunnerOptions options;
    options.threads = threads;
    options.telemetry = telemetry;
    exp::Runner runner(options);
    return timingSweep(runner).renderCsv();
}

/** The brute-force reference: the `cache` kernel's per-point eval
 *  alone, one simulation per grid point. */
exp::ResultTable
bruteSweep(exp::Runner &runner)
{
    const exp::Scenario scenario =
        exp::makeGeometryScenario(benchSweep());
    const exp::Kernel &kernel = *exp::findKernel("cache");
    return runner.run(scenario, kernel.columns, kernel.eval);
}

/**
 * One telemetry-armed run of @p family per thread count: write the
 * RUNNER_sweep_parallel_<family>_t<n>.json artifacts, print each
 * diagnosis, and return the (threads, wall ns) samples for the
 * Amdahl fit.
 */
std::vector<std::pair<unsigned, double>>
runTelemetrySweeps(const unsigned (&threadCounts)[4],
                   const std::string &family,
                   exp::ResultTable (*sweep)(exp::Runner &))
{
    const std::filesystem::path dir = obs::benchOutDir();
    std::vector<std::pair<unsigned, double>> samples;
    for (unsigned threads : threadCounts) {
        exp::RunnerOptions options;
        options.threads = threads;
        options.telemetry = true;
        exp::Runner runner(options);
        const auto table = sweep(runner);
        obs::doNotOptimize(table.rows());
        const exp::RunnerTelemetry &telemetry =
            runner.lastTelemetry();

        const std::filesystem::path path =
            (dir / ("RUNNER_sweep_parallel_" + family + "_t" +
                    std::to_string(threads) + ".json"))
                .lexically_normal();
        okOrFatal(telemetry.writeJson(path.string()));
        std::printf("[runner-json] wrote %s\n",
                    path.string().c_str());

        std::fputs(
            exp::formatDiagnosis(exp::diagnoseRun(telemetry, 3))
                .c_str(),
            stdout);
        if (telemetry.wallNs > 0)
            samples.emplace_back(
                telemetry.threadsUsed,
                static_cast<double>(telemetry.wallNs));
    }
    return samples;
}

} // namespace
} // namespace uatm

static int
run(int argc, char **argv)
{
    using namespace uatm;

    const bench::BenchArgs args = bench::parseArgs(argc, argv);
    const unsigned threadCounts[] = {1, 2, 4, 8};

    if (!args.listOnly) {
        // Determinism gate first: a timing table for a runner
        // that merges differently per thread count would be
        // meaningless.  Telemetry-armed runs are held to the
        // same contract — instrumentation must not perturb the
        // merge.
        const std::string serial = sweepCsv(1);
        for (unsigned threads : threadCounts) {
            if (sweepCsv(threads) != serial) {
                std::fprintf(stderr,
                             "FAIL: sweep output at %u threads "
                             "differs from the serial run\n",
                             threads);
                return EXIT_FAILURE;
            }
            if (sweepCsv(threads, true) != serial) {
                std::fprintf(stderr,
                             "FAIL: telemetry-armed sweep output "
                             "at %u threads differs from the "
                             "serial run\n",
                             threads);
                return EXIT_FAILURE;
            }
            // Cross-engine gate: the single-pass stack engine
            // must merge byte-identically to brute-force
            // per-point simulation at every thread count.
            exp::Runner brute_runner(exp::RunnerOptions{threads});
            if (bruteSweep(brute_runner).renderCsv() != serial) {
                std::fprintf(stderr,
                             "FAIL: per-point sweep output at %u "
                             "threads differs from the "
                             "single-pass engine\n",
                             threads);
                return EXIT_FAILURE;
            }
        }
        // The timing-engine grid: one stream for 24 engines,
        // held to the same contract against per-point eval.
        const exp::Kernel &timing = *exp::findKernel("timing");
        exp::Runner per_point(exp::RunnerOptions{1});
        const std::string timing_serial =
            per_point
                .run(timingScenario(), timing.columns, timing.eval)
                .renderCsv();
        for (unsigned threads : threadCounts) {
            if (timingCsv(threads) != timing_serial ||
                timingCsv(threads, true) != timing_serial) {
                std::fprintf(stderr,
                             "FAIL: timing grid output at %u "
                             "threads differs from per-point "
                             "evaluation\n",
                             threads);
                return EXIT_FAILURE;
            }
        }
        // The timing table below is only meaningful if the sweep
        // really took the fast path: refuse to benchmark a silent
        // fallback.
        resetSweepDispatchStats();
        sweepCsv(1);
        if (sweepDispatchCounters().fastPath == 0) {
            std::fprintf(stderr,
                         "FAIL: geometry sweep did not dispatch "
                         "to the single-pass stack engine "
                         "(declined=%llu per-point=%llu)\n",
                         static_cast<unsigned long long>(
                             sweepDispatchCounters().declined),
                         static_cast<unsigned long long>(
                             sweepDispatchCounters().perPoint));
            return EXIT_FAILURE;
        }
        resetSweepDispatchStats();
        std::printf("sweep and timing-grid output byte-identical "
                    "at 1/2/4/8 threads (disarmed, telemetry-armed "
                    "and per-point); timing the pool...\n");
    }

    obs::BenchSuite suite("sweep_parallel");
    for (unsigned threads : threadCounts) {
        const std::string name =
            "sweep/geometry/t" + std::to_string(threads);
        suite.add(name, [threads](obs::BenchState &state) {
            const exp::GeometrySweep spec = benchSweep();
            state.setItems(spec.values.size() * spec.refs);
            exp::Runner runner(exp::RunnerOptions{threads});
            const auto table = geometrySweep(runner);
            obs::doNotOptimize(table.rows());
            state.setThreads(threads,
                             runner.lastStats().threadsUsed);
        });
    }
    for (unsigned threads : threadCounts) {
        const std::string name =
            "sweep/timing/t" + std::to_string(threads);
        suite.add(name, [threads](obs::BenchState &state) {
            state.setItems(timingScenario().pointCount() * kRefs);
            exp::Runner runner(exp::RunnerOptions{threads});
            const auto table = timingSweep(runner);
            obs::doNotOptimize(table.rows());
            state.setThreads(threads,
                             runner.lastStats().threadsUsed);
        });
    }
    // Brute-force reference: one simulation per grid point, same
    // scenario, one thread.  Recorded in the same JSON so
    // tools/perf_diff can gate the single-pass speedup
    // (--require-speedup) against it.
    suite.add("sweep/geometry/brute/t1",
              [](obs::BenchState &state) {
                  const exp::GeometrySweep spec = benchSweep();
                  state.setItems(spec.values.size() * spec.refs);
                  exp::Runner runner(exp::RunnerOptions{1});
                  const auto table = bruteSweep(runner);
                  obs::doNotOptimize(table.rows());
                  state.setThreads(1,
                                   runner.lastStats().threadsUsed);
              });

    obs::BenchSuite::RunOptions options;
    options.filter = args.filter;
    options.listOnly = args.listOnly;
    options.reps = args.reps;

    suite.run(options);

    if (!args.listOnly && args.filter.empty() &&
        suite.results().size() == 9) {
        std::printf("\nspeedup over 1 thread (wall clock, "
                    "%u-core host):\n",
                    std::thread::hardware_concurrency());
        double serial = 0;
        double brute = 0;
        double geometry = 0;
        for (const auto &result : suite.results()) {
            if (result.name == "sweep/geometry/brute/t1") {
                brute = result.nsPerRepMedian;
                continue;
            }
            // Each family's t1 comes first.
            if (result.name.ends_with("/t1"))
                serial = result.nsPerRepMedian;
            if (result.name == "sweep/geometry/t1")
                geometry = serial;
            std::printf("  %-24s %6.2fx\n", result.name.c_str(),
                        serial / result.nsPerRepMedian);
        }
        if (brute > 0) {
            std::printf("\nsingle-pass stack engine vs "
                        "brute-force per-point at 1 thread: "
                        "%.2fx\n",
                        brute / geometry);
        }

        for (const auto &[family, sweep] :
             {std::pair{"geometry", &geometrySweep},
              std::pair{"timing", &timingSweep}}) {
            std::printf("\n%s scaling diagnosis (one "
                        "telemetry-armed run per thread count):\n",
                        family);
            const auto samples =
                runTelemetrySweeps(threadCounts, family, sweep);
            std::fputs(exp::formatAmdahlFit(exp::fitAmdahl(samples),
                                            samples)
                           .c_str(),
                       stdout);
        }
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return uatm::bench::guardedMain(
        [&] { return run(argc, argv); });
}
