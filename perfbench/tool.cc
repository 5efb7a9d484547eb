/**
 * @file
 * perfbench_tool: the benchmark's load generator, offline reference
 * and layer probe.  run.py builds it next to the daemon and the
 * example CLIs and drives it; see README.md in this directory.
 *
 *   perfbench_tool load --port=<n> --requests=<file> --clients=<n>
 *       [--schedule=<file> | --first=<n>] [--seconds=<s> | --once]
 *       [--expect-dir=<dir> | --save-dir=<dir>] [--trace-out=<file>]
 *       [--cpu-pid=<pid> --window=<s>] [--healthz=<n>] --out=<file>
 *
 *     Closed loop over loopback: each of --clients threads POSTs
 *     the next scheduled request body to /sweep and waits for the
 *     reply before sending again.  Op k sends request schedule[k]
 *     (the schedule wraps); without --schedule it sends request
 *     first + k and the run stops when the list is used up.  Every
 *     reply is compared byte for byte with
 *     --expect-dir/<index>.ndjson, or with the first reply to the
 *     same request, whose body is saved to --save-dir for run.py to
 *     check.  With --cpu-pid the process's CPU time is sampled every
 *     --window seconds from the start of the loop.  With --healthz
 *     the loop is followed by that many GET /healthz round trips,
 *     timed one at a time on fresh connections as the sweeps are.
 *
 *   perfbench_tool reference --requests=<file> [--first=<n>]
 *       [--count=<n>] --threads=<n> --out-dir=<dir> [--compare]
 *
 *     The offline reference for requests [first, first + count), all
 *     in one process: parseSweepRequest -> exp::Runner with the same
 *     serve kernel, the calls `uatm_client --offline` makes.  Writes
 *     <index>.ndjson, or with --compare checks the replies saved
 *     there against it.
 *
 *   perfbench_tool layers --workload=<served_cold|served_warm|
 *       offline_sweep> --requests=<file> [--schedule=<file>]
 *       --threads=<n> --clients=<n> --seconds=<s> --work-dir=<dir>
 *       --trace-out=<file> --out=<file>
 *
 *     The traced run: replays the workload's inputs through each
 *     layer's public functions, timing every call, and writes the
 *     per-layer metrics as JSON plus the phase spans as a Chrome
 *     trace.  It then replays a prefix again with span recording
 *     off and on, for the tracing overhead.  For offline_sweep the
 *     "requests" are the CLI invocations, one JSON object per line
 *     ({"cli", "workload", "seed", "refs"}), and the JSON also holds
 *     the replay's simulated outputs for run.py to compare with the
 *     CLIs' own.
 *
 * Input files hold one JSON document per line.  Exit status: 0 when
 * every output matched, 1 on a mismatch or failed request, 2 on bad
 * usage or unreadable input.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/stack_sim.hh"
#include "cache/sweep.hh"
#include "core/equivalence.hh"
#include "core/size_model.hh"
#include "core/tradeoff.hh"
#include "cpu/timing_engine.hh"
#include "exp/point_key.hh"
#include "exp/runner.hh"
#include "exp/scenarios.hh"
#include "exp/workload_spec.hh"
#include "linesize/cost_model.hh"
#include "linesize/delay_model.hh"
#include "linesize/line_tradeoff.hh"
#include "linesize/miss_table.hh"
#include "obs/json.hh"
#include "serve/http.hh"
#include "serve/point_cache.hh"
#include "serve/service.hh"
#include "serve/sweep_request.hh"
#include "trace/generators.hh"
#include "util/options.hh"

namespace fs = std::filesystem;
using namespace uatm;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

/** Nanoseconds since the tool started. */
std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - kOrigin)
            .count());
}

// ---------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace events at exit.
// ---------------------------------------------------------------

struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t request = 0;
    unsigned tid = 0;
};

unsigned
threadTag()
{
    static std::atomic<unsigned> next{1};
    thread_local const unsigned tag = next.fetch_add(1);
    return tag;
}

class SpanLog
{
  public:
    /** A log made with @p recording false drops every span, so the
     *  same replay can run untraced (obs.trace_overhead_frac). */
    explicit SpanLog(bool recording = true) : recording_(recording) {}

    std::uint64_t newId() { return nextId_.fetch_add(1); }

    void
    add(std::string name, std::uint64_t start, std::uint64_t end,
        std::uint64_t id, std::uint64_t parent, std::uint64_t request)
    {
        if (!recording_)
            return;
        Span span{std::move(name), start, end, id, parent, request,
                  threadTag()};
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    /** Record a span with a fresh id; returns the id. */
    std::uint64_t
    record(std::string name, std::uint64_t start, std::uint64_t end,
           std::uint64_t parent, std::uint64_t request)
    {
        const std::uint64_t id = newId();
        add(std::move(name), start, end, id, parent, request);
        return id;
    }

    Status
    writeChrome(const std::string &path, int pid) const
    {
        obs::JsonWriter out;
        out.beginObject().key("traceEvents").beginArray();
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Span &span : spans_) {
            out.beginObject()
                .keyValue("name", span.name)
                .keyValue("ph", "X")
                .keyValue("ts", double(span.startNs) / 1e3)
                .keyValue("dur",
                          double(span.endNs - span.startNs) / 1e3)
                .keyValue("pid", pid)
                .keyValue("tid", span.tid)
                .key("args")
                .beginObject()
                .keyValue("id", span.id)
                .keyValue("parent", span.parent)
                .keyValue("request", span.request)
                .endObject()
                .endObject();
        }
        out.endArray().endObject();
        std::ofstream file(path, std::ios::trunc);
        if (!(file << out.str() << "\n"))
            return Status::ioError("cannot write '", path, "'");
        return Status();
    }

  private:
    const bool recording_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<std::uint64_t> nextId_{1};
};

// ---------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------

Expected<std::vector<std::string>>
readLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot read '", path, "'");
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

Expected<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::ioError("cannot read '", path, "'");
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

Status
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!(out << text))
        return Status::ioError("cannot write '", path, "'");
    return Status();
}

Expected<std::vector<std::size_t>>
readSchedule(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot read '", path, "'");
    std::vector<std::size_t> schedule;
    std::size_t index = 0;
    while (in >> index)
        schedule.push_back(index);
    return schedule;
}

/** utime + stime of process @p pid in seconds; 0 when unreadable. */
double
processCpuSeconds(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto paren = text.rfind(')');
    if (paren == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(paren + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    // Fields 3..13 precede utime (14) and stime (15).
    for (int i = 3; i <= 13 && fields >> field; ++i) {
    }
    fields >> utime >> stime;
    return double(utime + stime) / double(sysconf(_SC_CLK_TCK));
}

/** Host-wide (steal, total) jiffies from the "cpu" line of
 *  /proc/stat: steal is time the hypervisor gave to someone else
 *  while this machine wanted the CPU. */
std::pair<std::uint64_t, std::uint64_t>
hostStealJiffies()
{
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
    std::uint64_t value = 0;
    for (int field = 0; field < 10 && in >> value; ++field) {
        total += value;
        if (field == 7)
            steal = value;
    }
    return {steal, total};
}

std::string
outputPath(const std::string &dir, std::size_t index)
{
    return dir + "/" + std::to_string(index) + ".ndjson";
}

double
mean(const std::vector<double> &values)
{
    double total = 0.0;
    for (double value : values)
        total += value;
    return values.empty() ? 0.0 : total / double(values.size());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------
// load: the closed-loop client.
// ---------------------------------------------------------------

struct Op
{
    std::size_t request = 0;
    unsigned client = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int status = 0;
    std::size_t rows = 0;
    bool ok = false;
};

int
cmdLoad(int argc, char **argv)
{
    OptionParser options("perfbench_tool load",
                         "Closed-loop sweep load over loopback.");
    options.addInt("port", 0, "daemon port");
    options.addString("requests", "", "request bodies, one per line");
    options.addString("schedule", "", "request index per op");
    options.addInt("first", 0, "without --schedule, op k sends request "
                               "first + k");
    options.addInt("clients", 1, "client threads (one connection each)");
    options.addDouble("seconds", 1.0, "measured duration");
    options.addFlag("once", "send every scheduled op exactly once");
    options.addString("expect-dir", "", "expected reply per request");
    options.addString("save-dir", "", "save the first reply per request");
    options.addString("trace-out", "", "write http spans here");
    options.addInt("cpu-pid", 0, "sample this process's CPU time");
    options.addDouble("window", 1.0, "CPU sampling interval in seconds");
    options.addInt("healthz", 0, "GET /healthz round trips after the loop");
    options.addString("out", "", "result JSON");
    bool helped = false;
    const Status parsed = options.tryParse(argc, argv, &helped);
    if (!parsed.ok() || options.getString("requests").empty() ||
        options.getString("out").empty()) {
        std::fprintf(stderr, "perfbench_tool load: %s\n%s",
                     parsed.message().c_str(),
                     options.usage().c_str());
        return 2;
    }
    if (helped)
        return 0;

    auto bodies = readLines(options.getString("requests"));
    if (!bodies.ok()) {
        std::fprintf(stderr, "%s\n", bodies.status().message().c_str());
        return 2;
    }
    std::vector<std::size_t> schedule;
    const bool wrap = !options.getString("schedule").empty();
    if (wrap) {
        auto read = readSchedule(options.getString("schedule"));
        if (!read.ok() || read.value().empty()) {
            std::fprintf(stderr, "bad schedule\n");
            return 2;
        }
        schedule = std::move(read).value();
    } else {
        for (auto i = std::size_t(std::max<std::int64_t>(
                 0, options.getInt("first")));
             i < bodies.value().size(); ++i)
            schedule.push_back(i);
    }
    for (std::size_t index : schedule) {
        if (index >= bodies.value().size()) {
            std::fprintf(stderr, "schedule index out of range\n");
            return 2;
        }
    }

    const std::string expect_dir = options.getString("expect-dir");
    const std::string save_dir = options.getString("save-dir");
    std::map<std::size_t, std::string> expected;
    if (!expect_dir.empty()) {
        for (std::size_t index : schedule) {
            if (expected.count(index))
                continue;
            auto text = readFile(outputPath(expect_dir, index));
            if (!text.ok()) {
                std::fprintf(stderr, "%s\n",
                             text.status().message().c_str());
                return 2;
            }
            expected[index] = std::move(text).value();
        }
    }

    const std::string host = "127.0.0.1";
    const auto port = std::uint16_t(options.getInt("port"));
    const bool once = options.getFlag("once");
    const auto clients =
        unsigned(std::max<std::int64_t>(1, options.getInt("clients")));
    const std::uint64_t budget_ns =
        std::uint64_t(options.getDouble("seconds") * 1e9);
    const bool tracing = !options.getString("trace-out").empty();

    SpanLog spans;
    std::mutex mutex; // guards ops, first, errors
    std::vector<Op> ops;
    std::map<std::size_t, std::string> first;
    std::vector<std::string> errors;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> exhausted{false};

    // The daemon's CPU time and the host's steal at every window
    // boundary, so run.py can report per-window CPU per op and set
    // aside windows the hypervisor took from.
    const auto cpu_pid = int(options.getInt("cpu-pid"));
    const auto window_ns =
        std::uint64_t(std::max(0.01, options.getDouble("window")) * 1e9);
    struct CpuSample
    {
        std::uint64_t atNs;
        double cpuSeconds;
        std::pair<std::uint64_t, std::uint64_t> steal;
    };
    std::vector<CpuSample> cpu_samples;
    std::atomic<bool> running{true};
    std::mutex sampler_mutex;
    std::condition_variable sampler_wake;

    const std::uint64_t start_ns = nowNs();
    const auto sample = [&] {
        cpu_samples.push_back(CpuSample{nowNs() - start_ns,
                                        processCpuSeconds(cpu_pid),
                                        hostStealJiffies()});
    };
    std::thread sampler;
    if (cpu_pid > 0) {
        sampler = std::thread([&] {
            std::unique_lock<std::mutex> lock(sampler_mutex);
            for (std::uint64_t k = 0;; ++k) {
                const auto due = kOrigin + std::chrono::nanoseconds(
                                               start_ns + k * window_ns);
                sampler_wake.wait_until(lock, due,
                                        [&] { return !running.load(); });
                if (!running)
                    return;
                sample();
            }
        });
    }
    const auto client = [&](unsigned id) {
        for (;;) {
            if (!once && nowNs() - start_ns >= budget_ns)
                return;
            const std::size_t k = next.fetch_add(1);
            if (k >= schedule.size() && (once || !wrap)) {
                if (!once)
                    exhausted = true;
                return;
            }
            Op op;
            op.request = schedule[k % schedule.size()];
            op.client = id;
            op.startNs = nowNs();
            auto reply = serve::httpFetch(
                host, port, "POST", "/sweep",
                bodies.value()[op.request]);
            op.endNs = nowNs();
            if (tracing)
                spans.record("http", op.startNs, op.endNs, 0, k);
            std::string error;
            if (!reply.ok()) {
                error = reply.status().message();
            } else {
                op.status = reply.value().status;
                const std::string &body = reply.value().body;
                op.rows = std::size_t(
                    std::count(body.begin(), body.end(), '\n'));
                if (op.status != 200) {
                    error = "HTTP " + std::to_string(op.status) +
                            ": " + body.substr(0, 200);
                } else if (!expect_dir.empty()) {
                    op.ok = body == expected.at(op.request);
                    if (!op.ok)
                        error = "reply differs from the reference";
                } else {
                    std::lock_guard<std::mutex> lock(mutex);
                    auto [it, inserted] =
                        first.emplace(op.request, body);
                    op.ok = inserted || it->second == body;
                    if (!op.ok)
                        error = "reply differs from an earlier one";
                }
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (!error.empty() && errors.size() < 5) {
                errors.push_back("request " +
                                 std::to_string(op.request) + ": " +
                                 error);
            }
            ops.push_back(op);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned id = 0; id < clients; ++id)
        threads.emplace_back(client, id);
    for (std::thread &thread : threads)
        thread.join();
    const double wall_s = double(nowNs() - start_ns) / 1e9;
    if (sampler.joinable()) {
        {
            std::lock_guard<std::mutex> lock(sampler_mutex);
            running = false;
        }
        sampler_wake.notify_all();
        sampler.join();
        sample();
    }
    std::vector<double> healthz_ms;
    for (std::int64_t i = 0; i < options.getInt("healthz"); ++i) {
        const std::uint64_t begin = nowNs();
        auto reply = serve::httpFetch(host, port, "GET", "/healthz");
        if (!reply.ok() || reply.value().status != 200) {
            std::fprintf(stderr, "GET /healthz failed\n");
            return 2;
        }
        healthz_ms.push_back(double(nowNs() - begin) / 1e6);
    }

    bool saved = true;
    if (!save_dir.empty()) {
        for (const auto &[index, body] : first)
            saved = saved &&
                    writeFile(outputPath(save_dir, index), body).ok();
    }
    if (tracing)
        (void)spans.writeChrome(options.getString("trace-out"), 2);

    std::sort(ops.begin(), ops.end(), [](const Op &a, const Op &b) {
        return a.startNs < b.startNs;
    });
    obs::JsonWriter out;
    out.beginObject()
        .keyValue("wall_s", wall_s)
        .keyValue("exhausted", exhausted.load())
        .keyValue("saved", saved);
    out.key("errors").beginArray();
    for (const std::string &error : errors)
        out.value(error);
    out.endArray();
    out.key("healthz_ms").beginArray();
    for (double ms : healthz_ms)
        out.value(ms);
    out.endArray();
    out.key("cpu_samples").beginArray();
    for (const CpuSample &at : cpu_samples) {
        out.beginArray()
            .value(at.atNs)
            .value(at.cpuSeconds)
            .value(at.steal.first)
            .value(at.steal.second)
            .endArray();
    }
    out.endArray();
    out.key("ops").beginArray();
    std::size_t failed = 0;
    for (const Op &op : ops) {
        failed += op.ok ? 0 : 1;
        out.beginArray()
            .value(op.request)
            .value(op.client)
            .value(op.startNs - start_ns)
            .value(op.endNs - start_ns)
            .value(op.status)
            .value(op.rows)
            .value(op.ok)
            .endArray();
    }
    out.endArray().endObject();
    if (!writeFile(options.getString("out"), out.str() + "\n").ok())
        return 2;
    return failed || !saved || (!once && exhausted) ? 1 : 0;
}

// ---------------------------------------------------------------
// reference: the offline reference outputs, in one process.
// ---------------------------------------------------------------

/** @p body's NDJSON as `uatm_client --offline` renders it:
 *  parseSweepRequest -> exp::Runner with the same serve kernel.  Run
 *  in one process because a cold run checks ~750 replies, and each
 *  uatm_client process would pay the ~27 ms first-Runner set-up. */
Expected<std::string>
offlineReference(const std::string &body, unsigned threads)
{
    auto request = serve::parseSweepRequest(body);
    if (!request.ok())
        return request.status();
    const serve::ServeKernel *kernel =
        serve::findServeKernel(request.value().kernel);
    if (!kernel) {
        return Status::notFound("unknown kernel '",
                                request.value().kernel, "'");
    }
    exp::RunnerOptions options;
    options.threads = threads;
    exp::Runner runner(options);
    return runner
        .run(request.value().scenario, kernel->columns, kernel->eval)
        .renderNdjson();
}

int
cmdReference(int argc, char **argv)
{
    OptionParser options("perfbench_tool reference",
                         "Offline reference sweep outputs.");
    options.addString("requests", "", "request bodies, one per line");
    options.addInt("first", 0, "first request index");
    options.addInt("count", -1, "requests from --first on (-1 = all)");
    options.addInt("threads", 1, "runner threads");
    options.addString("out-dir", "", "one <index>.ndjson per request");
    options.addFlag("compare", "compare with the replies saved in "
                               "--out-dir instead of writing");
    bool helped = false;
    const Status parsed = options.tryParse(argc, argv, &helped);
    if (!parsed.ok() || options.getString("out-dir").empty()) {
        std::fprintf(stderr, "perfbench_tool reference: %s\n%s",
                     parsed.message().c_str(),
                     options.usage().c_str());
        return 2;
    }
    if (helped)
        return 0;
    auto bodies = readLines(options.getString("requests"));
    if (!bodies.ok()) {
        std::fprintf(stderr, "%s\n", bodies.status().message().c_str());
        return 2;
    }
    const std::size_t first = std::min(
        bodies.value().size(),
        std::size_t(std::max<std::int64_t>(0, options.getInt("first"))));
    std::size_t end = bodies.value().size();
    if (options.getInt("count") >= 0)
        end = std::min(end, first + std::size_t(options.getInt("count")));
    const std::string dir = options.getString("out-dir");
    const bool compare = options.getFlag("compare");
    const auto threads =
        unsigned(std::max<std::int64_t>(1, options.getInt("threads")));
    std::size_t checked = 0;
    std::size_t mismatches = 0;
    for (std::size_t index = first; index < end; ++index) {
        const std::string path = outputPath(dir, index);
        // A reply that was never saved belongs to an op that already
        // failed; there is nothing to compare.
        if (compare && !fs::exists(path))
            continue;
        auto output = offlineReference(bodies.value()[index], threads);
        if (!output.ok()) {
            std::fprintf(stderr, "request %zu: %s\n", index,
                         output.status().message().c_str());
            return 2;
        }
        ++checked;
        if (!compare) {
            if (!writeFile(path, output.value()).ok())
                return 2;
        } else if (readFile(path).value() != output.value()) {
            std::fprintf(stderr,
                         "request %zu: served reply differs from the "
                         "offline reference\n",
                         index);
            ++mismatches;
        }
    }
    std::printf("{\"checked\": %zu, \"mismatches\": %zu}\n", checked,
                mismatches);
    return mismatches ? 1 : 0;
}

// ---------------------------------------------------------------
// layers: the traced per-layer replay.
// ---------------------------------------------------------------

/** A failure of the layer replay itself. */
template <typename... Args>
Status
replayFailure(Args &&...args)
{
    return Status::error(ErrorCode::KernelError,
                         std::forward<Args>(args)...);
}

/** Accumulates one layer's work: nanoseconds over a unit count. */
struct Layer
{
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> units{0};
    std::atomic<std::uint64_t> calls{0};

    void
    add(std::uint64_t nanos, std::uint64_t count = 1)
    {
        ns += nanos;
        units += count;
        ++calls;
    }
    double perUnit() const { return ratio(double(ns), double(units)); }
    double perCall() const { return ratio(double(ns), double(calls)); }
};

/** Every layer the probe times, named as in BENCHMARK.json. */
struct Layers
{
    Layer generate;    // trace.generate_ns_per_ref (units = refs)
    Layer simulate;    // cache.simulate_ns_per_ref
    Layer stacksim;    // cache.stacksim_ns_per_ref
    Layer engine;      // cpu.engine_ns_per_ref
    Layer coreEval;    // core.eval_ns (per call)
    Layer linesizeEval; // linesize.eval_ns (per call)
    Layer expand;      // exp.expand_ns_per_point (units = points)
    Layer pointKey;    // exp.point_key_ns
    Layer runnerNoop;  // exp.runner_overhead_ns_per_point
    Layer emit;        // exp.emit_ns_per_row (units = rows)
    Layer parse;       // serve.parse_ns_per_request
    Layer lookup;      // serve.cache_lookup_ns
    Layer insert;      // serve.cache_insert_ns
    Layer diskLoad;    // serve.cache_disk_load_ns
    Layer diskWrite;   // serve.cache_disk_write_ns
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> busyNs{0};     // runner kernel time
    std::atomic<std::uint64_t> capacityNs{0}; // wall x workers
    std::vector<double> serviceMs;
    std::vector<double> pathMs;  // blocking-path layer sum per op
    std::vector<double> parseMs; // served: the server's parse per op
    std::vector<double> emitMs;  // served: the server's emit per op
    double traceOverhead = 0.0;  // obs.trace_overhead_frac
};

/** RAII span + layer timer. */
class Timed
{
  public:
    Timed(SpanLog &spans, const char *name, std::uint64_t parent,
          std::uint64_t request)
        : spans_(spans), name_(name), parent_(parent),
          request_(request), id_(spans.newId()), start_(nowNs())
    {
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    std::uint64_t id() const { return id_; }

    /** Close the span; returns its duration. */
    std::uint64_t
    stop()
    {
        if (!done_) {
            end_ = nowNs();
            spans_.add(name_, start_, end_, id_, parent_, request_);
            done_ = true;
        }
        return end_ - start_;
    }
    ~Timed() { stop(); }

  private:
    SpanLog &spans_;
    const char *name_;
    std::uint64_t parent_;
    std::uint64_t request_;
    std::uint64_t id_;
    std::uint64_t start_;
    std::uint64_t end_ = 0;
    bool done_ = false;
};

/** Pull exactly @p refs references into a materialized trace. */
Trace
materialize(TraceSource &source, std::uint64_t refs)
{
    std::vector<MemoryReference> buffer(refs);
    std::size_t filled = 0;
    while (filled < refs) {
        const std::size_t got =
            source.fillBatch(buffer.data() + filled, refs - filled);
        if (got == 0)
            break;
        filled += got;
    }
    buffer.resize(filled);
    return Trace(std::move(buffer));
}

/** Generate the point's trace, timed as the generate layer. */
Trace
generateTrace(const exp::WorkloadSpec &spec, std::uint64_t refs,
              Layers &layers, SpanLog &spans, std::uint64_t parent,
              std::uint64_t request, double *path_ns = nullptr)
{
    Timed timed(spans, "generate", parent, request);
    auto source = okOrThrow(spec.make());
    Trace trace = materialize(*source, refs);
    const auto ns = timed.stop();
    layers.generate.add(ns, refs);
    if (path_ns)
        *path_ns += double(ns);
    return trace;
}

void
addTelemetry(Layers &layers, const exp::Runner &runner)
{
    const exp::RunnerTelemetry &telemetry = runner.lastTelemetry();
    const unsigned workers = std::max(1u, telemetry.threadsUsed);
    layers.busyNs += telemetry.kernelNsTotal();
    layers.capacityNs += telemetry.wallNs * workers;
}

unsigned
workersFor(unsigned threads, std::size_t points)
{
    return unsigned(std::max<std::size_t>(
        1, std::min<std::size_t>(threads, points)));
}

// --- served workloads ------------------------------------------

/** Digits of a ratio cell, as serve/sweep_request.cc and
 *  exp/scenarios.cc render them (the output checks compare them). */
constexpr int kRatioPrecision = 6;

/** Cells of the serve "cache" kernel. */
std::vector<exp::Cell>
cacheCells(const CacheRunResult &run)
{
    return {exp::Cell::num(run.hitRatio(), kRatioPrecision),
            exp::Cell::num(run.missRatio(), kRatioPrecision),
            exp::Cell::num(run.flushRatio(), kRatioPrecision)};
}

struct ServedReplay
{
    std::vector<std::string> bodies;
    std::vector<std::size_t> schedule;
    unsigned threads = 1;
    unsigned clients = 1;
    double seconds = 1.0;
    bool warm = false;
    std::string workDir;
};

/** Blocking-path layer times of one replayed op, in ns. */
struct OpPath
{
    /** parseSweepRequest: the server's, outside serve.request. */
    double parse = 0.0;
    /** Point kernels over the workers used; serve.request also
     *  holds the runner's own overhead, added from runnerOverhead. */
    double points = 0.0;
    /** renderNdjson: the server's, outside serve.request. */
    double emit = 0.0;
};

/** One request through the service path, phase by phase.  Returns
 *  the rendered NDJSON and sets @p path. */
std::string
replayRequest(const std::string &body, std::uint64_t request_id,
              unsigned threads, serve::PointCache &cache,
              std::mutex &run_mutex, Layers &layers, SpanLog &spans,
              std::vector<std::pair<std::string,
                                    std::vector<exp::Cell>>> *computed,
              std::mutex &computed_mutex, OpPath &path)
{
    Timed root(spans, "request", 0, request_id);

    std::optional<serve::SweepRequest> request;
    {
        Timed timed(spans, "parse", root.id(), request_id);
        request = okOrThrow(serve::parseSweepRequest(body));
        const auto ns = timed.stop();
        layers.parse.add(ns);
        path.parse = double(ns);
    }
    const serve::ServeKernel *kernel =
        serve::findServeKernel(request->kernel);
    const std::size_t points = request->scenario.pointCount();
    {
        // Timed alone for exp.expand_ns_per_point; not on the path,
        // because Runner::run expands again inside runnerOverhead.
        Timed timed(spans, "expand", root.id(), request_id);
        const auto expanded = request->scenario.expand();
        layers.expand.add(timed.stop(), expanded.size());
    }

    std::atomic<std::uint64_t> point_ns{0};
    Timed queue(spans, "queue", root.id(), request_id);
    std::unique_lock<std::mutex> lock(run_mutex);
    queue.stop();
    Timed sweep(spans, "sweep", root.id(), request_id);
    const std::uint64_t sweep_id = sweep.id();
    const exp::Runner::Kernel kernel_fn =
        [&](const exp::Point &point)
        -> Expected<std::vector<exp::Cell>> {
        Timed span(spans, "point", sweep_id, request_id);
        std::string key;
        std::optional<std::vector<exp::Cell>> hit;
        {
            Timed timed(spans, "cache_lookup", span.id(), request_id);
            const auto key_start = nowNs();
            key = okOrThrow(exp::canonicalPointKey(point, kernel->id));
            layers.pointKey.add(nowNs() - key_start);
            const auto lookup_start = nowNs();
            hit = cache.lookup(key);
            layers.lookup.add(nowNs() - lookup_start);
            timed.stop();
        }
        if (hit) {
            point_ns += span.stop();
            return *hit;
        }
        Trace trace = generateTrace(point.workload, point.refs, layers,
                                    spans, span.id(), request_id);
        CacheRunResult run;
        {
            Timed timed(spans, "simulate", span.id(), request_id);
            run = runCacheSim(point.cache, trace, point.refs,
                              point.warmupRefs);
            layers.simulate.add(timed.stop(), point.refs);
        }
        std::vector<exp::Cell> cells;
        {
            Timed timed(spans, "reduce", span.id(), request_id);
            cells = cacheCells(run);
            const auto insert_start = nowNs();
            cache.insert(key, cells);
            layers.insert.add(nowNs() - insert_start);
            timed.stop();
        }
        if (computed) {
            std::lock_guard<std::mutex> guard(computed_mutex);
            if (computed->size() < 256)
                computed->emplace_back(key, cells);
        }
        point_ns += span.stop();
        return cells;
    };
    exp::RunnerOptions runner_options;
    runner_options.threads = threads;
    runner_options.telemetry = true;
    exp::Runner runner(runner_options);
    const exp::ResultTable table =
        runner.run(request->scenario, kernel->columns, kernel_fn);
    sweep.stop();
    lock.unlock();
    addTelemetry(layers, runner);
    path.points =
        double(point_ns.load()) / double(workersFor(threads, points));

    std::string rendered;
    {
        Timed timed(spans, "emit", root.id(), request_id);
        rendered = table.renderNdjson();
        const auto ns = timed.stop();
        layers.emit.add(ns, table.rows());
        path.emit = double(ns);
    }
    return rendered;
}

/** Runner bookkeeping for @p body with a no-op kernel: thread
 *  start-up, work claiming, expand and the merge.  Returns ns. */
double
runnerOverhead(const std::string &body, unsigned threads, Layers &layers)
{
    auto request = okOrThrow(serve::parseSweepRequest(body));
    const serve::ServeKernel *kernel =
        serve::findServeKernel(request.kernel);
    const std::vector<exp::Cell> dummy(kernel->columns.size(),
                                       exp::Cell::integer(0));
    exp::Runner noop(exp::RunnerOptions{threads});
    const auto start = nowNs();
    (void)noop.run(request.scenario, kernel->columns,
                   [&](const exp::Point &) { return dummy; });
    const auto ns = nowNs() - start;
    layers.runnerNoop.add(ns, request.scenario.pointCount());
    return double(ns);
}

/** Populate @p cache with every request's points, untimed. */
void
prewarm(const std::vector<std::string> &bodies, unsigned threads,
        serve::PointCache &cache)
{
    for (const std::string &body : bodies) {
        auto request = okOrThrow(serve::parseSweepRequest(body));
        const serve::ServeKernel *kernel =
            serve::findServeKernel(request.kernel);
        exp::Runner runner(exp::RunnerOptions{threads});
        (void)runner.run(
            request.scenario, kernel->columns,
            [&](const exp::Point &point)
                -> Expected<std::vector<exp::Cell>> {
                auto cells = kernel->eval(point);
                if (cells.ok()) {
                    cache.insert(
                        okOrThrow(exp::canonicalPointKey(point,
                                                         kernel->id)),
                        cells.value());
                }
                return cells;
            });
    }
}

/** Stack-sim pass per geometry request, over the request's trace. */
void
replayStackSim(const std::string &body, Layers &layers, SpanLog &spans,
               std::uint64_t request_id)
{
    auto request = okOrThrow(serve::parseSweepRequest(body));
    const auto points = request.scenario.expand();
    if (points.empty() || request.scenario.axisNames().front() ==
                              "workload")
        return;
    GeometryGrid grid;
    grid.lineBytes = points.front().cache.lineBytes;
    for (const exp::Point &point : points) {
        if (point.cache.lineBytes != grid.lineBytes ||
            stackSimIneligibleReason(point.cache))
            return;
        grid.addConfig(point.cache);
    }
    const exp::Point &first = points.front();
    Trace trace = materialize(*okOrThrow(first.workload.make()), first.refs);
    Timed timed(spans, "simulate", 0, request_id);
    (void)runStackSim(grid, trace, first.refs, first.warmupRefs);
    layers.stacksim.add(timed.stop(), first.refs);
}

/** One replayed op: the request index, its path and its reply. */
struct ReplayedOp
{
    std::size_t index = 0;
    OpPath path;
    std::string output;
};

/** Replays the op stream from `clients` threads that share one run
 *  mutex, as the daemon's SweepService does: ops [0, count), or
 *  while @p seconds last when count is 0 (at least one op per
 *  client).  Returns the ops in completion order; sets @p wall_ns. */
std::vector<ReplayedOp>
replayOps(const ServedReplay &replay, std::size_t count, double seconds,
          serve::PointCache &cache, Layers &layers, SpanLog &spans,
          std::vector<std::pair<std::string, std::vector<exp::Cell>>>
              *computed,
          std::uint64_t &wall_ns)
{
    const std::size_t limit =
        count ? std::min(count, replay.schedule.size())
              : replay.schedule.size();
    std::mutex run_mutex;
    std::mutex shared; // guards ops, computed, failure
    std::vector<ReplayedOp> ops;
    std::atomic<std::size_t> next{0};
    const std::uint64_t start = nowNs();
    const std::uint64_t budget = std::uint64_t(seconds * 1e9);
    std::vector<std::thread> threads;
    std::string failure;
    for (unsigned c = 0; c < replay.clients; ++c) {
        threads.emplace_back([&] {
            try {
                for (;;) {
                    const std::size_t k = next.fetch_add(1);
                    if (k >= limit ||
                        (!count && k >= replay.clients &&
                         nowNs() - start >= budget))
                        return;
                    ReplayedOp op;
                    op.index = replay.schedule[k];
                    op.output = replayRequest(
                        replay.bodies[op.index], k + 1, replay.threads,
                        cache, run_mutex, layers, spans, computed,
                        shared, op.path);
                    std::lock_guard<std::mutex> lock(shared);
                    ops.push_back(std::move(op));
                }
            } catch (const std::exception &error) {
                std::lock_guard<std::mutex> lock(shared);
                failure = error.what();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    wall_ns = nowNs() - start;
    if (!failure.empty())
        throw StatusError(replayFailure("layer replay failed: ", failure));
    return ops;
}

/** obs.trace_overhead_frac: 1 - untraced/traced wall time of the
 *  same replay, made @p pairs times each way in alternating order
 *  (UT, TU, UT, ...); the median pair decides, so one disturbed pass
 *  does not.  @p pass makes the replay once, with span recording on
 *  or off, and returns its wall ns. */
double
traceOverhead(int pairs,
              const std::function<std::uint64_t(bool tracing)> &pass)
{
    std::vector<double> ratios;
    for (int pair = 0; pair < pairs; ++pair) {
        std::uint64_t wall[2] = {0, 0}; // untraced, traced
        for (int i = 0; i < 2; ++i) {
            const bool tracing = (i == 1) != (pair % 2 == 1);
            wall[tracing ? 1 : 0] = pass(tracing);
        }
        ratios.push_back(ratio(double(wall[0]), double(wall[1])));
    }
    std::sort(ratios.begin(), ratios.end());
    return 1.0 - ratios[ratios.size() / 2];
}

/** The served replay's trace overhead: an op prefix, fixed by the
 *  first pass's time budget, on a fresh cache each pass. */
double
servedTraceOverhead(const ServedReplay &replay)
{
    constexpr double kPassSeconds = 0.3;
    std::size_t count = 0;
    return traceOverhead(5, [&](bool tracing) {
        serve::PointCache cache;
        if (replay.warm)
            prewarm(replay.bodies, replay.threads, cache);
        Layers discarded;
        SpanLog spans(tracing);
        std::uint64_t wall = 0;
        count = replayOps(replay, count, kPassSeconds, cache, discarded,
                          spans, nullptr, wall)
                    .size();
        return wall;
    });
}

Status
runServedLayers(const ServedReplay &replay, Layers &layers,
                SpanLog &spans)
{
    serve::PointCache cache;
    if (replay.warm)
        prewarm(replay.bodies, replay.threads, cache);

    std::vector<std::pair<std::string, std::vector<exp::Cell>>> computed;
    std::vector<ReplayedOp> ops;
    try {
        std::uint64_t wall = 0;
        ops = replayOps(replay, 0, replay.seconds, cache, layers, spans,
                        replay.warm ? nullptr : &computed, wall);
        layers.traceOverhead = servedTraceOverhead(replay);
    } catch (const StatusError &error) {
        return error.status();
    }
    std::map<std::size_t, std::string> outputs;
    for (const ReplayedOp &op : ops)
        outputs.emplace(op.index, op.output);

    // Runner overhead (expand included), measured alone: it would
    // otherwise compete with the other replay clients' sweeps.
    std::map<std::size_t, double> overhead;
    for (const auto &[index, output] : outputs) {
        (void)output;
        overhead[index] =
            runnerOverhead(replay.bodies[index], replay.threads, layers);
    }
    for (const ReplayedOp &op : ops) {
        layers.parseMs.push_back(op.path.parse / 1e6);
        layers.pathMs.push_back(
            (op.path.points + overhead[op.index]) / 1e6);
        layers.emitMs.push_back(op.path.emit / 1e6);
    }

    // The in-process service on the same requests, one at a time.
    serve::ServiceOptions service_options;
    service_options.threads = replay.threads;
    service_options.maxQueueDepth = 1;
    serve::SweepService service(service_options);
    if (replay.warm) {
        for (const std::string &body : replay.bodies)
            (void)service.runSweep(
                okOrThrow(serve::parseSweepRequest(body)));
    }
    std::map<std::size_t, double> service_ms;
    for (const auto &[index, output] : outputs) {
        auto request =
            okOrThrow(serve::parseSweepRequest(replay.bodies[index]));
        const auto start_ns = nowNs();
        auto outcome = service.runSweep(request);
        const auto ns = nowNs() - start_ns;
        if (!outcome.ok())
            return outcome.status();
        service_ms[index] = double(ns) / 1e6;
        if (outcome.value().table.renderNdjson() != output) {
            return replayFailure("layer replay of request ", index,
                                 " differs from SweepService::runSweep");
        }
        if (!replay.warm)
            replayStackSim(replay.bodies[index], layers, spans,
                           index + 1);
    }

    // Weighted like the op stream, so it compares with the daemon.
    for (const ReplayedOp &op : ops)
        layers.serviceMs.push_back(service_ms[op.index]);

    // The on-disk store: write the computed (or cached) entries, then
    // fault them back in through a fresh cache on the same directory.
    if (replay.warm) {
        for (const auto &[index, output] : outputs) {
            (void)output;
            auto request = okOrThrow(
                serve::parseSweepRequest(replay.bodies[index]));
            const serve::ServeKernel *kernel =
                serve::findServeKernel(request.kernel);
            for (const exp::Point &point : request.scenario.expand()) {
                if (computed.size() >= 256)
                    break;
                std::string key = okOrThrow(
                    exp::canonicalPointKey(point, kernel->id));
                if (auto cells = cache.lookup(key))
                    computed.emplace_back(std::move(key), *cells);
            }
        }
    }
    const std::string dir = replay.workDir + "/disk_cache";
    std::error_code ignored;
    fs::remove_all(dir, ignored);
    {
        serve::PointCache disk(serve::PointCacheOptions{1 << 16, dir});
        for (const auto &[key, cells] : computed) {
            const auto start_ns = nowNs();
            disk.insert(key, cells);
            layers.diskWrite.add(nowNs() - start_ns);
        }
    }
    {
        serve::PointCache disk(serve::PointCacheOptions{1 << 16, dir});
        for (const auto &[key, cells] : computed) {
            const auto start_ns = nowNs();
            const auto loaded = disk.lookup(key);
            layers.diskLoad.add(nowNs() - start_ns);
            if (!loaded || loaded->size() != cells.size())
                return replayFailure("disk cache lost an entry");
        }
    }
    fs::remove_all(dir, ignored);
    return Status();
}

// --- offline CLIs ----------------------------------------------

/** One CLI invocation: the arguments run.py passes the CLI.  Every
 *  other input is the CLI's own default, mirrored as a constant in
 *  replayInvocation; the check against the CLI's output catches any
 *  drift between the two. */
struct Invocation
{
    std::string cli;
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t refs = 0;
};

/** What a replayed invocation must reproduce of the CLI's output:
 *  result-table columns (its CSV) and narrative lines (its stdout). */
struct InvocationCheck
{
    std::vector<std::pair<std::string, std::vector<std::string>>>
        columns;
    std::vector<std::string> lines;
};

Expected<Invocation>
parseInvocation(const std::string &line)
{
    const auto parsed = obs::parseJson(line);
    if (!parsed || !parsed.value.isObject())
        return Status::parseError("bad invocation: ", line);
    const obs::JsonValue &doc = parsed.value;
    const obs::JsonValue *cli = doc.find("cli");
    const obs::JsonValue *workload = doc.find("workload");
    const double seed = doc.numberOr("seed", -1);
    const double refs = doc.numberOr("refs", -1);
    if (!cli || !cli->isString() || !workload || !workload->isString() ||
        seed < 0 || refs < 1)
        return Status::parseError(
            "invocation needs cli, workload, seed and refs: ", line);
    return Invocation{cli->asString(), workload->asString(),
                      std::uint64_t(seed), std::uint64_t(refs)};
}

/** @p name's cells, rendered, one per row. */
std::vector<std::string>
columnText(const exp::ResultTable &table, const std::string &name)
{
    const auto &columns = table.columns();
    const auto col = std::size_t(
        std::find(columns.begin(), columns.end(), name) -
        columns.begin());
    std::vector<std::string> text;
    for (std::size_t row = 0; row < table.rows(); ++row)
        text.push_back(col < columns.size() ? table.at(row, col).str()
                                            : "<no column " + name + ">");
    return text;
}

/** printf into a std::string (the CLIs' narrative lines). */
template <typename... Args>
std::string
formatted(const char *format, Args... args)
{
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, format, args...);
    return buffer;
}

/** A timing-engine point's cells, made as the CLI's kernel makes
 *  them. */
using EngineCells = std::function<std::vector<exp::Cell>(
    const exp::Point &, const TimingEngine &, const TimingStats &)>;

/** Shards @p scenario's points over the runner like the CLIs do;
 *  each point generates its trace and runs the timing engine.  Adds
 *  the blocking-path share (kernel time / workers) to @p path_ns. */
exp::ResultTable
runEnginePoints(const exp::Scenario &scenario,
                const std::vector<std::string> &columns,
                const EngineCells &cells, unsigned threads,
                Layers &layers, SpanLog &spans, std::uint64_t parent,
                std::uint64_t request, double &path_ns)
{
    std::atomic<std::uint64_t> point_ns{0};
    exp::RunnerOptions options;
    options.threads = threads;
    options.telemetry = true;
    exp::Runner runner(options);
    exp::ResultTable table = runner.run(
        scenario, columns,
        [&](const exp::Point &point)
            -> Expected<std::vector<exp::Cell>> {
            Timed span(spans, "point", parent, request);
            Trace trace = generateTrace(point.workload, point.refs,
                                        layers, spans, span.id(),
                                        request);
            Timed timed(spans, "simulate", span.id(), request);
            TimingEngine engine(point.cache, point.memory,
                                point.writeBuffer, point.cpu);
            const TimingStats stats = engine.run(trace, point.refs);
            layers.engine.add(timed.stop(), point.refs);
            layers.cycles += stats.cycles;
            point_ns += span.stop();
            return cells(point, engine, stats);
        });
    addTelemetry(layers, runner);
    path_ns += double(point_ns.load()) /
               double(workersFor(threads, scenario.pointCount()));
    return table;
}

/** The design-space and planner CLIs' kernel cells. */
std::vector<exp::Cell>
cyclesCpiDelay(const TimingStats &stats)
{
    return {exp::Cell::integer(std::int64_t(stats.cycles)),
            exp::Cell::num(stats.cpi(), 3),
            exp::Cell::num(stats.meanMemoryDelay(), 3)};
}

constexpr std::uint32_t kBaseLine = 8; // LineTradeoff::baseLine

/** runLineTradeoff's MR(L) sweep (per-point runCacheSim, as
 *  runGeometrySweep runs a line axis).  Adds the blocking-path ns
 *  to @p path_ns; the caller times the selectors. */
MissRatioTable
runLineSweep(const CacheConfig &base, const exp::WorkloadSpec &spec,
             std::uint64_t refs, unsigned threads, Layers &layers,
             SpanLog &spans, std::uint64_t parent, std::uint64_t request,
             double &path_ns)
{
    const std::vector<std::uint32_t> lines = {8, 16, 32, 64, 128};
    std::vector<SweepPoint> sweep(lines.size());
    std::atomic<std::uint64_t> point_ns{0};
    exp::Scenario scenario("line_sweep");
    scenario.cache = base;
    scenario.workload = spec;
    scenario.refs = refs;
    scenario.warmupRefs = refs / 10;
    std::vector<double> values(lines.begin(), lines.end());
    scenario.sweep("line", values,
                   [](exp::Point &point, const exp::AxisValue &v) {
                       point.cache.lineBytes = std::uint32_t(v.value);
                   });
    exp::RunnerOptions options;
    options.threads = threads;
    options.telemetry = true;
    exp::Runner runner(options);
    (void)runner.run(
        scenario, {"miss_ratio"},
        [&](const exp::Point &point)
            -> Expected<std::vector<exp::Cell>> {
            Timed span(spans, "point", parent, request);
            Trace trace = generateTrace(point.workload, point.refs,
                                        layers, spans, span.id(),
                                        request);
            Timed timed(spans, "simulate", span.id(), request);
            const CacheRunResult run = runCacheSim(
                point.cache, trace, point.refs, point.warmupRefs);
            layers.simulate.add(timed.stop(), point.refs);
            sweep[point.index] = SweepPoint{point.cache.lineBytes,
                                            run.hitRatio(), run.missRatio(),
                                            run.flushRatio()};
            point_ns += span.stop();
            return std::vector<exp::Cell>{
                exp::Cell::num(run.missRatio(), kRatioPrecision)};
        });
    addTelemetry(layers, runner);
    path_ns += double(point_ns.load()) /
               double(workersFor(threads, lines.size()));
    return MissRatioTable::fromSweep("measured", sweep);
}

/** runLineTradeoff's choice over a measured MR(L) table. */
struct LineChoice
{
    std::uint32_t recommended = 0;
    std::uint32_t smith = 0;
    std::vector<std::string> missRatios; ///< its miss_ratio cells
};

/** runLineTradeoff's table cells and selectors over @p table. */
LineChoice
selectLine(const MissRatioTable &table, const LineDelayModel &delay)
{
    LineChoice choice;
    volatile double sink = 0.0;
    for (const LinePoint &entry : table.points()) {
        sink = sink + delay.smithObjective(entry.missRatio,
                                           double(entry.lineBytes));
        if (entry.lineBytes > kBaseLine)
            sink = sink + reducedDelay(table, delay, kBaseLine,
                                       entry.lineBytes);
        choice.missRatios.push_back(
            exp::Cell::num(entry.missRatio, kRatioPrecision).str());
    }
    choice.recommended = tradeoffOptimalLine(table, delay, kBaseLine);
    choice.smith = smithOptimalLine(table, delay);
    return choice;
}

/** Replay one CLI invocation with the CLI's own defaults; returns
 *  its blocking-path ns and fills @p check. */
double
replayInvocation(const Invocation &inv, unsigned threads,
                 std::uint64_t request, Layers &layers, SpanLog &spans,
                 InvocationCheck &check)
{
    Timed root(spans, "invocation", 0, request);
    const exp::WorkloadSpec spec =
        okOrThrow(exp::WorkloadSpec::parse(inv.workload, inv.seed));
    double path = 0.0;

    if (inv.cli == "design_space_explorer") {
        // --mu 8 --line 32, not --pipelined.
        exp::Scenario scenario("design_space");
        scenario.refs = inv.refs;
        scenario.workload = spec;
        scenario.cache.assoc = 2;
        scenario.cache.lineBytes = 32;
        scenario.memory.cycleTime = 8;
        scenario.memory.pipelined = false;
        scenario.memory.pipelineInterval = 2;
        scenario.writeBuffer.readBypass = true;
        scenario.sweep("cache", {8192, 32768, 131072},
                       [](exp::Point &p, const exp::AxisValue &v) {
                           p.cache.sizeBytes = std::uint64_t(v.value);
                       });
        scenario.sweep("bus", {4, 8},
                       [](exp::Point &p, const exp::AxisValue &v) {
                           p.memory.busWidthBytes =
                               std::uint32_t(v.value);
                       });
        scenario.sweep(
            "feature",
            {double(StallFeature::FS), double(StallFeature::BNL3)},
            [](exp::Point &p, const exp::AxisValue &v) {
                p.cpu.feature = StallFeature(int(v.value));
            });
        scenario.sweep("wbuf", {0, 8},
                       [](exp::Point &p, const exp::AxisValue &v) {
                           p.writeBuffer.depth = std::uint32_t(v.value);
                       });
        const exp::ResultTable table = runEnginePoints(
            scenario, {"hr_pct", "cycles", "cpi", "mem_delay"},
            [](const exp::Point &, const TimingEngine &engine,
               const TimingStats &stats) {
                std::vector<exp::Cell> cells = cyclesCpiDelay(stats);
                cells.insert(cells.begin(),
                             exp::Cell::num(
                                 engine.cacheStats().hitRatio() * 100,
                                 2));
                return cells;
            },
            threads, layers, spans, root.id(), request, path);
        for (const char *column : {"hr_pct", "cycles", "cpi", "mem_delay"})
            check.columns.emplace_back(column, columnText(table, column));
    } else if (inv.cli == "memory_system_planner") {
        // --mu 12 --line 32 --q 2 on a 32-bit bus.
        const double mu = 12, q = 2;
        TradeoffContext ctx;
        ctx.machine.busWidth = 4;
        ctx.machine.lineBytes = 32;
        ctx.machine.cycleTime = mu;
        ctx.alpha = 0.5;
        {
            Timed timed(spans, "reduce", root.id(), request);
            volatile double sink = 0.0;
            for (const auto &score : rankFeatures(ctx, 0.95, 6.5, q))
                sink = sink + score.missFactor;
            const auto crossover = crossoverCycleTime(
                ctx, TradeFeature::PipelinedMemory,
                TradeFeature::DoubleBus, q, 1.0, std::max(2.0, q),
                400.0);
            const auto ns = timed.stop();
            layers.coreEval.add(ns);
            path += double(ns);
            check.lines.push_back(
                crossover ? formatted("pipelined memory overtakes bus "
                                      "doubling at mu_m = %.2f cycles",
                                      *crossover)
                          : std::string("pipelined memory never "
                                        "overtakes bus doubling"));
        }
        exp::Scenario scenario("memory_system_candidates");
        scenario.refs = inv.refs;
        scenario.workload = spec;
        scenario.cache.sizeBytes = 8 * 1024;
        scenario.cache.assoc = 2;
        scenario.cache.lineBytes = 32;
        scenario.memory.cycleTime = Cycles(mu);
        scenario.memory.pipelineInterval = Cycles(q);
        scenario.cpu.feature = StallFeature::FS;
        scenario.writeBuffer.readBypass = true;
        scenario.sweep("system", {0, 1, 2, 3},
                       [](exp::Point &p, const exp::AxisValue &v) {
                           switch (int(v.value)) {
                             case 1: p.writeBuffer.depth = 8; break;
                             case 2: p.memory.busWidthBytes = 8; break;
                             case 3: p.memory.pipelined = true; break;
                             default: break;
                           }
                       });
        const exp::ResultTable table = runEnginePoints(
            scenario, {"cycles", "cpi", "mem_delay"},
            [](const exp::Point &, const TimingEngine &,
               const TimingStats &stats) {
                return cyclesCpiDelay(stats);
            },
            threads, layers, spans, root.id(), request, path);
        for (const char *column : {"cycles", "cpi", "mem_delay"})
            check.columns.emplace_back(column, columnText(table, column));
    } else if (inv.cli == "pin_budget_planner") {
        // --mu 12.  sweepCacheSizeParallel takes the single-pass
        // engine here: one trace, one stack-sim pass over every size.
        const double mu = 12;
        const std::vector<std::uint64_t> sizes = {
            4096, 8192, 16384, 32768, 65536, 131072, 262144};
        CacheConfig base;
        base.assoc = 2;
        base.lineBytes = 32;
        GeometryGrid grid;
        grid.lineBytes = base.lineBytes;
        grid.write = base.write;
        grid.writeMiss = base.writeMiss;
        for (std::uint64_t size : sizes) {
            CacheConfig config = base;
            config.sizeBytes = size;
            grid.addConfig(config);
        }
        Trace trace = generateTrace(spec, inv.refs, layers, spans,
                                    root.id(), request, &path);
        GeometryHitSurface surface;
        {
            Timed timed(spans, "simulate", root.id(), request);
            surface = runStackSim(grid, trace, inv.refs, inv.refs / 10);
            const auto ns = timed.stop();
            layers.stacksim.add(ns, inv.refs);
            path += double(ns);
        }
        Timed timed(spans, "reduce", root.id(), request);
        std::vector<SizePoint> anchors;
        for (std::uint64_t size : sizes) {
            CacheConfig config = base;
            config.sizeBytes = size;
            const double hr =
                okOrThrow(surface.statsFor(config)).hitRatio();
            anchors.push_back(SizePoint{
                size, anchors.empty()
                          ? hr
                          : std::max(hr, anchors.back().hitRatio)});
        }
        const CacheSizeModel curve(anchors);
        std::vector<std::string> hr_pct;
        volatile double sink = 0.0;
        for (std::size_t i = 0; i + 1 < anchors.size(); ++i) {
            DesignPoint wide;
            wide.machine.busWidth = 8;
            wide.machine.lineBytes = 32;
            wide.machine.cycleTime = mu;
            wide.hitRatio = anchors[i].hitRatio;
            const DesignPoint narrow =
                equivalentNarrowBusDesign(wide, 0.5);
            sink = sink + curve.sizeForHitRatio(narrow.hitRatio);
            hr_pct.push_back(
                exp::Cell::num(anchors[i].hitRatio * 100, 2).str());
        }
        const auto ns = timed.stop();
        layers.coreEval.add(ns);
        path += double(ns);
        check.columns.emplace_back("hr_pct", std::move(hr_pct));
    } else if (inv.cli == "linesize_advisor") {
        // --cache-kb 16 --latency-ns 360 --ns-per-byte 15
        // --cycle-ns 60 --bus 8.
        const LineDelayModel delay =
            LineDelayModel::fromNanoseconds(360.0, 15.0, 60.0, 8.0);
        CacheConfig base;
        base.sizeBytes = 16 * 1024;
        base.assoc = 2;
        const MissRatioTable table =
            runLineSweep(base, spec, inv.refs, threads, layers, spans,
                         root.id(), request, path);
        Timed timed(spans, "reduce", root.id(), request);
        LineChoice choice = selectLine(table, delay);
        if (choice.recommended != kBaseLine)
            (void)beneficialBetaRange(table, delay, kBaseLine,
                                      choice.recommended, 0.25, 16.0);
        const auto ns = timed.stop();
        layers.linesizeEval.add(ns);
        path += double(ns);
        check.columns.emplace_back("miss_ratio",
                                   std::move(choice.missRatios));
        check.lines.push_back(formatted(
            "recommended line size: %u bytes (Smith's criterion picks %u",
            choice.recommended, choice.smith));
    } else if (inv.cli == "unified_report") {
        // --mu 10 --line 32 --bus 4 --hit-ratio 0.95 --alpha 0.5 --q 2.
        const double mu = 10, line = 32, bus = 4, hr = 0.95, q = 2;
        TradeoffContext ctx;
        ctx.machine.busWidth = bus;
        ctx.machine.lineBytes = line;
        ctx.machine.cycleTime = mu;
        ctx.alpha = 0.5;

        // [1] BNL3 phi over the six profiles, as
        // measurePhiAllProfilesParallel runs it, then the prices.
        PhiExperiment phi_exp;
        phi_exp.feature = StallFeature::BNL3;
        phi_exp.cycleTime = Cycles(mu);
        phi_exp.cache.lineBytes = std::uint32_t(line);
        phi_exp.refs = inv.refs / 2;
        exp::Scenario phi = exp::makePhiScenario(phi_exp);
        phi.workload.seed = phi_exp.seed; // the workload axis keeps it
        phi.memory.busWidthBytes = phi_exp.busWidthBytes;
        phi.memory.cycleTime = phi_exp.cycleTime;
        phi.writeBuffer.depth = 64;
        phi.writeBuffer.readBypass = true;
        phi.cpu.feature = phi_exp.feature;
        phi.cpu.suppressFlushTraffic = true;
        std::vector<double> phis(phi.pointCount());
        (void)runEnginePoints(
            phi, {"phi"},
            [&](const exp::Point &point, const TimingEngine &,
                const TimingStats &stats) {
                const double value = stats.phi(phi_exp.cycleTime);
                phis[point.index] = value;
                return std::vector<exp::Cell>{exp::Cell::num(value, 3)};
            },
            threads, layers, spans, root.id(), request, path);
        {
            Timed timed(spans, "reduce", root.id(), request);
            double sum = 0.0;
            for (double value : phis)
                sum += value;
            const double phi_avg = std::min(
                sum / double(phis.size()), ctx.machine.lineOverBus());
            std::vector<std::string> r, dhr, equiv;
            for (double factor :
                 {missFactorDoubleBus(ctx), missFactorWriteBuffers(ctx),
                  missFactorPartialStall(ctx, phi_avg),
                  missFactorPipelined(ctx, q),
                  missFactorVictim(ctx, 0.5, 2.0)}) {
                r.push_back(exp::Cell::num(factor, 3).str());
                dhr.push_back(
                    exp::Cell::num(hitRatioTraded(factor, hr) * 100, 2)
                        .str());
                equiv.push_back(
                    exp::Cell::num(equivalentHitRatio(factor, hr) * 100,
                                   2)
                        .str());
            }
            check.columns.emplace_back("r", std::move(r));
            check.columns.emplace_back("dhr_pct", std::move(dhr));
            check.columns.emplace_back("equiv_hr_pct", std::move(equiv));
            // [2] the crossover.
            if (ctx.machine.lineOverBus() > 2.0) {
                if (const auto crossover = crossoverCycleTime(
                        ctx, TradeFeature::PipelinedMemory,
                        TradeFeature::DoubleBus, q, 1.0,
                        std::max(2.0, q), 400.0))
                    check.lines.push_back(formatted(
                        "pipelining beats a wider bus from mu_m = %.2f",
                        *crossover));
            }
            const auto ns = timed.stop();
            layers.coreEval.add(ns);
            path += double(ns);
        }

        // [3] + [4] the line size at 8 KB, and its cost view.
        LineDelayModel delay;
        delay.c = mu + 1.0;
        delay.beta = mu;
        delay.busWidth = bus;
        CacheConfig geometry;
        geometry.sizeBytes = 8 * 1024;
        geometry.assoc = 2;
        const MissRatioTable table =
            runLineSweep(geometry, spec, inv.refs, threads, layers,
                         spans, root.id(), request, path);
        {
            Timed timed(spans, "reduce", root.id(), request);
            const LineChoice choice = selectLine(table, delay);
            const std::uint32_t cost =
                costEffectiveLine(table, delay, CacheAreaModel(), geometry);
            const auto ns = timed.stop();
            layers.linesizeEval.add(ns);
            path += double(ns);
            check.lines.push_back(formatted(
                "measured MR(L) recommends %u-byte lines (Smith agrees: %u)",
                choice.recommended, choice.smith));
            check.lines.push_back(formatted(
                "cost view: delay-area optimum is %u bytes", cost));
        }

        // [5] the serial end-to-end check at seed + 1: the baseline,
        // then the suggested configuration.
        exp::WorkloadSpec check_spec = spec;
        check_spec.seed = spec.seed + 1;
        const auto end_to_end = [&](std::uint32_t bus_bytes,
                                    bool pipelined, std::uint32_t wbuf) {
            Trace trace = generateTrace(check_spec, inv.refs, layers,
                                        spans, root.id(), request, &path);
            Timed timed(spans, "simulate", root.id(), request);
            CacheConfig cache;
            cache.sizeBytes = 8 * 1024;
            cache.assoc = 2;
            cache.lineBytes = std::uint32_t(line);
            MemoryConfig mem;
            mem.busWidthBytes = bus_bytes;
            mem.cycleTime = Cycles(mu);
            mem.pipelined = pipelined;
            mem.pipelineInterval = Cycles(q);
            CpuConfig cpu;
            cpu.feature = StallFeature::FS;
            TimingEngine engine(cache, mem, WriteBufferConfig{wbuf, true},
                                cpu);
            const TimingStats stats = engine.run(trace, inv.refs);
            layers.cycles += stats.cycles;
            const auto ns = timed.stop();
            layers.engine.add(ns, inv.refs);
            path += double(ns);
            return stats;
        };
        const TimingStats baseline =
            end_to_end(std::uint32_t(bus), false, 0);
        const TimingStats best =
            mu >= 5.0 && ctx.machine.lineOverBus() > 2.0
                ? end_to_end(std::uint32_t(bus), true, 8)
                : end_to_end(std::uint32_t(bus * 2), false, 8);
        check.lines.push_back(formatted(
            "baseline: %llu cycles (CPI %.3f)",
            static_cast<unsigned long long>(baseline.cycles),
            baseline.cpi()));
        check.lines.push_back(formatted(
            "suggested config: %llu cycles (CPI %.3f, %.1f %% faster)",
            static_cast<unsigned long long>(best.cycles), best.cpi(),
            100.0 * (1.0 - double(best.cycles) / double(baseline.cycles))));
    } else {
        throw StatusError(
            Status::notFound("unknown CLI '", inv.cli, "'"));
    }
    return path;
}

/** Replays invocations from the first while @p seconds last, at
 *  least @p count of them (all when count is 0 and time is left);
 *  returns how many ran and sets @p wall_ns.  Fills @p checks for
 *  the first pass over the list when given. */
std::size_t
replayInvocations(const std::vector<Invocation> &invocations,
                  unsigned threads, std::size_t count, double seconds,
                  Layers &layers, SpanLog &spans,
                  std::vector<InvocationCheck> *checks,
                  std::uint64_t &wall_ns)
{
    const std::uint64_t start = nowNs();
    const std::uint64_t budget = std::uint64_t(seconds * 1e9);
    std::size_t k = 0;
    for (; k < count || (!count && nowNs() - start < budget); ++k) {
        InvocationCheck check;
        const double path =
            replayInvocation(invocations[k % invocations.size()],
                             threads, k + 1, layers, spans, check);
        layers.pathMs.push_back(path / 1e6);
        if (checks && k < invocations.size())
            checks->push_back(std::move(check));
    }
    wall_ns = nowNs() - start;
    return k;
}

/** The offline replay's trace overhead over the first CLI pass (one
 *  invocation of each CLI, @p count of them). */
double
offlineTraceOverhead(const std::vector<Invocation> &invocations,
                     unsigned threads, std::size_t count)
{
    return traceOverhead(3, [&](bool tracing) {
        Layers discarded;
        SpanLog spans(tracing);
        std::uint64_t wall = 0;
        (void)replayInvocations(invocations, threads, count, 0.0,
                                discarded, spans, nullptr, wall);
        return wall;
    });
}

Status
runOfflineLayers(const std::vector<Invocation> &invocations,
                 unsigned threads, double seconds, std::size_t cycle,
                 Layers &layers, SpanLog &spans,
                 std::vector<InvocationCheck> &checks)
{
    try {
        // At least one full pass, so every invocation is checked.
        std::uint64_t wall = 0;
        (void)replayInvocations(invocations, threads, invocations.size(),
                                0.0, layers, spans, &checks, wall);
        const double left = seconds - double(wall) / 1e9;
        if (left > 0)
            (void)replayInvocations(invocations, threads, 0, left,
                                    layers, spans, nullptr, wall);
        layers.traceOverhead =
            offlineTraceOverhead(invocations, threads, cycle);
    } catch (const std::exception &error) {
        return replayFailure("layer replay failed: ", error.what());
    }
    return Status();
}

int
cmdLayers(int argc, char **argv)
{
    OptionParser options("perfbench_tool layers",
                         "Traced per-layer replay of a workload.");
    options.addString("workload", "", "served_cold | served_warm | "
                                      "offline_sweep");
    options.addString("requests", "", "inputs, one JSON per line");
    options.addString("schedule", "", "request index per op");
    options.addInt("threads", 1, "runner threads");
    options.addInt("clients", 1, "replay client threads");
    options.addDouble("seconds", 1.0, "replay budget");
    options.addString("work-dir", "", "directory for temporary files");
    options.addString("trace-out", "", "Chrome trace of the spans");
    options.addString("out", "", "per-layer metrics JSON");
    bool helped = false;
    const Status parsed = options.tryParse(argc, argv, &helped);
    const std::string workload = options.getString("workload");
    if (!parsed.ok() || options.getString("out").empty() ||
        options.getString("work-dir").empty() ||
        (workload != "served_cold" && workload != "served_warm" &&
         workload != "offline_sweep")) {
        std::fprintf(stderr, "perfbench_tool layers: %s\n%s",
                     parsed.message().c_str(),
                     options.usage().c_str());
        return 2;
    }
    if (helped)
        return 0;
    auto lines = readLines(options.getString("requests"));
    if (!lines.ok() || lines.value().empty()) {
        std::fprintf(stderr, "no inputs\n");
        return 2;
    }
    const auto threads =
        unsigned(std::max<std::int64_t>(1, options.getInt("threads")));

    Layers layers;
    SpanLog spans;
    Status status;
    std::vector<InvocationCheck> checks;
    if (workload == "offline_sweep") {
        std::vector<Invocation> invocations;
        for (const std::string &line : lines.value()) {
            auto inv = parseInvocation(line);
            if (!inv.ok()) {
                std::fprintf(stderr, "%s\n",
                             inv.status().message().c_str());
                return 2;
            }
            invocations.push_back(std::move(inv).value());
        }
        std::vector<std::string> clis;
        for (const Invocation &inv : invocations) {
            if (std::find(clis.begin(), clis.end(), inv.cli) == clis.end())
                clis.push_back(inv.cli);
        }
        status = runOfflineLayers(invocations, threads,
                                  options.getDouble("seconds"),
                                  clis.size(), layers, spans, checks);
    } else {
        ServedReplay replay;
        replay.bodies = std::move(lines).value();
        if (!options.getString("schedule").empty()) {
            auto schedule = readSchedule(options.getString("schedule"));
            if (!schedule.ok()) {
                std::fprintf(stderr, "bad schedule\n");
                return 2;
            }
            replay.schedule = std::move(schedule).value();
        } else {
            for (std::size_t i = 0; i < replay.bodies.size(); ++i)
                replay.schedule.push_back(i);
        }
        replay.threads = threads;
        replay.clients = unsigned(
            std::max<std::int64_t>(1, options.getInt("clients")));
        replay.seconds = options.getDouble("seconds");
        replay.warm = workload == "served_warm";
        replay.workDir = options.getString("work-dir");
        status = runServedLayers(replay, layers, spans);
    }
    if (!status.ok()) {
        std::fprintf(stderr, "perfbench_tool layers: %s\n",
                     status.message().c_str());
        return 1;
    }
    if (!options.getString("trace-out").empty())
        (void)spans.writeChrome(options.getString("trace-out"), 1);

    obs::JsonWriter out;
    out.beginObject()
        .keyValue("trace.generate_ns_per_ref", layers.generate.perUnit())
        .keyValue("trace.refs_generated",
                  std::uint64_t(layers.generate.units))
        .keyValue("cache.simulate_ns_per_ref", layers.simulate.perUnit())
        .keyValue("cache.stacksim_ns_per_ref", layers.stacksim.perUnit())
        .keyValue("cpu.engine_ns_per_ref", layers.engine.perUnit())
        .keyValue("cpu.simulated_cycles", std::uint64_t(layers.cycles))
        .keyValue("core.eval_ns", layers.coreEval.perCall())
        .keyValue("linesize.eval_ns", layers.linesizeEval.perCall())
        .keyValue("exp.expand_ns_per_point", layers.expand.perUnit())
        .keyValue("exp.point_key_ns", layers.pointKey.perCall())
        .keyValue("exp.runner_overhead_ns_per_point",
                  layers.runnerNoop.perUnit())
        .keyValue("exp.emit_ns_per_row", layers.emit.perUnit())
        .keyValue("exp.worker_busy_frac",
                  ratio(double(layers.busyNs), double(layers.capacityNs)))
        .keyValue("serve.parse_ns_per_request", layers.parse.perCall())
        .keyValue("serve.cache_lookup_ns", layers.lookup.perCall())
        .keyValue("serve.cache_insert_ns", layers.insert.perCall())
        .keyValue("serve.cache_disk_load_ns", layers.diskLoad.perCall())
        .keyValue("serve.cache_disk_write_ns", layers.diskWrite.perCall())
        .keyValue("service_ms_mean", mean(layers.serviceMs))
        .keyValue("path_ms_mean", mean(layers.pathMs))
        .keyValue("parse_ms_mean", mean(layers.parseMs))
        .keyValue("emit_ms_mean", mean(layers.emitMs))
        .keyValue("trace_overhead_frac", layers.traceOverhead)
        .keyValue("replayed_ops", layers.pathMs.size());
    out.key("checks").beginArray();
    for (const InvocationCheck &check : checks) {
        out.beginObject().key("columns").beginObject();
        for (const auto &[name, cells] : check.columns) {
            out.key(name).beginArray();
            for (const std::string &cell : cells)
                out.value(cell);
            out.endArray();
        }
        out.endObject().key("lines").beginArray();
        for (const std::string &line : check.lines)
            out.value(line);
        out.endArray().endObject();
    }
    out.endArray().endObject();
    if (!writeFile(options.getString("out"), out.str() + "\n").ok())
        return 2;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "load")
        return cmdLoad(argc - 1, argv + 1);
    if (command == "reference")
        return cmdReference(argc - 1, argv + 1);
    if (command == "layers")
        return cmdLayers(argc - 1, argv + 1);
    std::fprintf(stderr,
                 "usage: perfbench_tool load|reference|layers "
                 "[options]  (see the file comment in tool.cc)\n");
    return 2;
}
