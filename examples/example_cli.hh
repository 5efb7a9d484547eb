/**
 * @file
 * Shared command-line plumbing for the example binaries: the
 * --threads / --format / --out triple every scenario-driven
 * example exposes, parsed into a Runner and an emission target.
 *
 * The examples are the CLI boundary of the error contract: library
 * errors arrive here as Status values or StatusError exceptions
 * and become fatal() exits (guardedMain, okOrFatal, valueOrFatal).
 */

#ifndef UATM_EXAMPLES_EXAMPLE_CLI_HH
#define UATM_EXAMPLES_EXAMPLE_CLI_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "exp/result_table.hh"
#include "exp/runner.hh"
#include "exp/workload_spec.hh"
#include "util/options.hh"
#include "util/status.hh"

namespace uatm::examples {

/**
 * Declare the shared --workload / --seed pair.  The value syntax
 * is "<method>[:k=v,...]" against the workload registry ("ycsb-a",
 * "ycsb-a:theta=0.9,records=1e6", "reuse-dist:depth=128", bare
 * Spec92 profile names like "doduc") — see trace_tool
 * --list-workloads for the method catalogue.
 */
inline void
addWorkloadOptions(OptionParser &options,
                   const std::string &default_workload,
                   std::int64_t default_seed)
{
    options.addString("workload", default_workload,
                      "workload method "
                      "\"<method>[:k=v,...]\" (see trace_tool "
                      "--list-workloads)");
    options.addInt("seed", default_seed, "workload seed");
}

/**
 * Integer option @p name as a count in [@p min, @p max] of type T;
 * a sign, a fraction or a value out of range is a usage error
 * (fatal()), never a cast.
 */
template <typename T = std::uint64_t>
T
countOption(const OptionParser &options, const std::string &name,
            std::uint64_t min = 1,
            std::uint64_t max = std::numeric_limits<T>::max())
{
    return static_cast<T>(
        valueOrFatal(options.getUnsigned(name, min, max)));
}

/** Parse --workload/--seed; a bad method or param is fatal(). */
inline exp::WorkloadSpec
parseWorkloadOptions(const OptionParser &options)
{
    return valueOrFatal(exp::WorkloadSpec::parse(
        options.getString("workload"),
        countOption(options, "seed", 0)));
}

/** Declare --threads, --format, --out and --fail-fast. */
inline void
addRunnerOptions(OptionParser &options)
{
    options.addInt("threads", 1,
                   "worker threads (0 = all hardware threads)");
    options.addString("format", "text",
                      "result table format: text | csv | json");
    options.addString("out", "",
                      "write the result table here instead of "
                      "stdout");
    options.addFlag("fail-fast",
                    "abort on the first failed point instead of "
                    "emitting an error row for it");
}

/** The parsed --threads / --format / --out triple. */
struct RunnerCli
{
    unsigned threads = 1;
    bool failFast = false;
    exp::TableFormat format = exp::TableFormat::Text;
    std::string out;

    /** True when narrative printf output won't corrupt the table
     *  stream (table is a file, or it renders as text). */
    bool narrate() const
    {
        return !out.empty() ||
               format == exp::TableFormat::Text;
    }

    exp::Runner makeRunner() const
    {
        return exp::Runner(exp::RunnerOptions{threads, failFast});
    }

    /** Emit @p table per the parsed flags; fatal() when the output
     *  file cannot be written. */
    void emit(const exp::ResultTable &table) const
    {
        okOrFatal(table.emit(format, out));
    }
};

inline RunnerCli
parseRunnerOptions(const OptionParser &options)
{
    RunnerCli cli;
    cli.threads =
        countOption<unsigned>(options, "threads", 0, kMaxThreads);
    cli.failFast = options.getFlag("fail-fast");
    cli.format =
        valueOrFatal(exp::parseTableFormat(options.getString("format")));
    cli.out = options.getString("out");
    return cli;
}

/**
 * Run @p body, converting an escaping StatusError into a clean
 * fatal() exit.  Every example main routes through this so a
 * recoverable library error never surfaces as an uncaught
 * exception (std::terminate / abort).
 */
template <typename Fn>
int
guardedMain(Fn &&body)
{
    try {
        return std::forward<Fn>(body)();
    } catch (const StatusError &e) {
        fatal(e.status().message());
    }
}

} // namespace uatm::examples

#endif // UATM_EXAMPLES_EXAMPLE_CLI_HH
