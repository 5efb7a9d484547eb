/**
 * @file
 * Line-size advisor (Sec. 5.4): given the physical memory timing
 * (latency + per-byte transfer time, as in Figure 6's "Delay =
 * 360ns + 15ns/byte") and a workload, measure the miss ratio per
 * candidate line size with the cache simulator and recommend the
 * line size that minimises mean memory delay — showing that the
 * tradeoff criterion (Eq. 19) and Smith's criterion (Eq. 16)
 * agree, plus the range of bus speeds where the choice holds.
 *
 * The per-line simulations are independent, so they shard across
 * --threads workers through the scenario runner.
 *
 * Example:
 *   ./build/examples/linesize_advisor --cache-kb 16 \
 *       --latency-ns 360 --ns-per-byte 15 --cycle-ns 60 --bus 8 \
 *       --threads 4
 */

#include <cstdio>
#include <string>

#include "exp/scenarios.hh"
#include "util/options.hh"

#include "example_cli.hh"

using namespace uatm;

static int
run(int argc, char **argv)
{
    OptionParser options(
        "linesize_advisor",
        "Recommend a cache line size from measured miss ratios "
        "and the memory's delay function.");
    examples::addWorkloadOptions(options, "nasa7", 11);
    options.addInt("cache-kb", 16, "cache capacity in KB");
    options.addDouble("latency-ns", 360.0, "memory access latency");
    options.addDouble("ns-per-byte", 15.0, "transfer time per byte");
    options.addDouble("cycle-ns", 60.0, "CPU cycle time");
    options.addInt("bus", 8, "bus width in bytes");
    options.addInt("refs", 150000, "references to simulate");
    examples::addRunnerOptions(options);
    if (!options.parse(argc, argv))
        return 0;
    const auto cli = examples::parseRunnerOptions(options);

    exp::LineTradeoff spec;
    spec.delay = LineDelayModel::fromNanoseconds(
        options.getDouble("latency-ns"),
        options.getDouble("ns-per-byte"),
        options.getDouble("cycle-ns"),
        static_cast<double>(examples::countOption(options, "bus")));
    if (cli.narrate())
        std::printf("delay model: %s\n\n",
                    spec.delay.describe().c_str());

    // Measure MR(L) for the candidate lines with the simulator.
    spec.base.sizeBytes =
        examples::countOption(options, "cache-kb", 1,
                              std::uint64_t{1} << 44) *
        1024;
    spec.base.assoc = 2;
    spec.workload = examples::parseWorkloadOptions(options);
    spec.lineSizes = {8, 16, 32, 64, 128};
    spec.baseLine = 8;
    spec.refs = examples::countOption(options, "refs");
    spec.warmupRefs = spec.refs / 10;

    exp::Runner runner = cli.makeRunner();
    const auto result = exp::runLineTradeoff(spec, runner);
    cli.emit(result.table);

    if (!cli.narrate())
        return 0;

    std::printf("\nrecommended line size: %u bytes "
                "(Smith's criterion picks %u — Sec. 5.4 proves "
                "the two always agree)\n",
                result.recommended, result.smith);

    if (result.recommended != spec.baseLine) {
        if (const auto range = beneficialBetaRange(
                result.missRatios, spec.delay, spec.baseLine,
                result.recommended, 0.25, 16.0)) {
            std::printf("the %uB line stays beneficial for "
                        "normalised bus speeds beta in "
                        "[%.2f, %.2f] (yours: %.2f)\n",
                        result.recommended, range->first,
                        range->second, spec.delay.beta);
        }
    } else {
        std::printf("no larger line pays for itself at this bus "
                    "speed (Sec. 5.4.2: the bus is too slow for "
                    "a larger line's higher hit ratio to win)\n");
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return examples::guardedMain(
        [&] { return run(argc, argv); });
}
