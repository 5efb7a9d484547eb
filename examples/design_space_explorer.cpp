/**
 * @file
 * Design-space explorer: sweep (cache size x bus width x stalling
 * feature x write buffer) through the trace-driven timing engine
 * on a chosen SPEC92-like workload and report execution time, CPI
 * and mean memory delay for each design — the experiment a
 * microprocessor architect would run with this library when
 * deciding where to spend pins and chip area (Sec. 5.2).
 *
 * The 24-point grid is a declarative scenario priced by the
 * registered `timing` kernel: one shared stream, the engines split
 * over --threads workers; the merged table is identical at any
 * thread count.
 *
 * Example:
 *   ./build/examples/design_space_explorer --workload doduc \
 *       --mu 8 --refs 100000 --threads 4 --format csv
 */

#include <cstdio>
#include <string>
#include <vector>

#include "exp/kernel.hh"
#include "util/options.hh"
#include "util/table.hh"

#include "example_cli.hh"

using namespace uatm;

static int
run(int argc, char **argv)
{
    OptionParser options(
        "design_space_explorer",
        "Sweep cache size, bus width and stalling features "
        "through the timing engine.");
    examples::addWorkloadOptions(options, "doduc", 1);
    options.addInt("mu", 8, "memory cycle time per bus transfer");
    options.addInt("refs", 100000, "references to simulate");
    options.addInt("line", 32, "cache line size in bytes");
    options.addFlag("pipelined", "use a pipelined memory (q=2)");
    examples::addRunnerOptions(options);
    if (!options.parse(argc, argv))
        return 0;
    const auto cli = examples::parseRunnerOptions(options);

    const auto workload = examples::parseWorkloadOptions(options);
    const auto mu = examples::countOption<Cycles>(options, "mu");
    const auto line =
        examples::countOption<std::uint32_t>(options, "line");

    exp::Scenario scenario(
        "design_space",
        "cache size x bus width x stall feature x write buffer");
    scenario.refs = examples::countOption(options, "refs");
    scenario.workload = workload;
    scenario.cache.assoc = 2;
    scenario.cache.lineBytes = line;
    scenario.memory.cycleTime = mu;
    scenario.memory.pipelined = options.getFlag("pipelined");
    scenario.memory.pipelineInterval = 2;
    scenario.writeBuffer.readBypass = true;

    scenario.sweepLabeled(
        "cache", {{"8K", 8192}, {"32K", 32768}, {"128K", 131072}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.cache.sizeBytes =
                static_cast<std::uint64_t>(v.value);
        });
    scenario.sweepLabeled(
        "bus", {{"32-bit", 4}, {"64-bit", 8}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.memory.busWidthBytes =
                static_cast<std::uint32_t>(v.value);
        });
    scenario.sweepLabeled(
        "feature",
        {{stallFeatureName(StallFeature::FS),
          static_cast<double>(StallFeature::FS)},
         {stallFeatureName(StallFeature::BNL3),
          static_cast<double>(StallFeature::BNL3)}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.cpu.feature = static_cast<StallFeature>(
                static_cast<int>(v.value));
        });
    scenario.sweepLabeled(
        "wbuf", {{"-", 0}, {"8", 8}},
        [](exp::Point &point, const exp::AxisValue &v) {
            point.writeBuffer.depth =
                static_cast<std::uint32_t>(v.value);
        });

    if (cli.narrate())
        std::printf(
            "workload %s, mu_m = %llu, %llu refs, L = %u\n\n",
            workload.describe().c_str(),
            static_cast<unsigned long long>(mu),
            static_cast<unsigned long long>(scenario.refs), line);

    // Every design reads the same stream: the timing kernel
    // generates it once and runs the 24 engines in lockstep.
    exp::Runner runner = cli.makeRunner();
    cli.emit(exp::findKernel("timing")->run(runner, scenario));

    if (cli.narrate())
        std::printf(
            "\nReading the table: designs with equal cycle "
            "counts are equal-performance design points in "
            "the sense of Sec. 4.5 — e.g. compare a wide-bus "
            "small cache against a narrow-bus larger cache "
            "(Example 1).\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return examples::guardedMain(
        [&] { return run(argc, argv); });
}
