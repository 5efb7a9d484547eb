/**
 * @file
 * The flagship example: a one-page design report for a machine you
 * describe on the command line, produced with every arm of the
 * methodology —
 *
 *   1. what each architectural feature is worth in hit ratio
 *      (Eqs. 3/6, Table 3), including victim-cache pricing;
 *   2. where the pipelined-memory crossover falls (Sec. 5.3);
 *   3. the recommended line size for a measured workload and the
 *      bus speeds it remains optimal for (Sec. 5.4);
 *   4. the cost-effectiveness view (Alpert & Flynn) and the bus
 *      traffic (Goodman) of that choice;
 *   5. an end-to-end simulation of the suggested configuration
 *      against the baseline.
 *
 * The measured parts (the phi average, the line-size sweep and
 * the end-to-end pair) run through the scenario layer, so
 * --threads shards them.
 *
 * Example:
 *   ./build/examples/unified_report --mu 10 --line 32 \
 *       --workload hydro2d --hit-ratio 0.95 --threads 4
 */

#include <cstdio>
#include <string>

#include "uatm.hh"

#include "example_cli.hh"

using namespace uatm;

static int
run(int argc, char **argv)
{
    OptionParser options("unified_report",
                         "One-page architectural tradeoff report "
                         "for a described machine.");
    options.addInt("mu", 10, "memory cycle time per bus transfer");
    options.addInt("line", 32, "cache line size in bytes");
    options.addInt("bus", 4, "bus width in bytes");
    options.addDouble("hit-ratio", 0.95, "base data-cache hit "
                      "ratio");
    options.addDouble("alpha", 0.5, "flush ratio");
    options.addInt("q", 2, "pipelined issue interval");
    examples::addWorkloadOptions(options, "hydro2d", 1);
    options.addInt("refs", 80000, "references to simulate");
    examples::addRunnerOptions(options);
    if (!options.parse(argc, argv))
        return 0;
    const auto cli = examples::parseRunnerOptions(options);

    TradeoffContext ctx;
    ctx.machine.busWidth =
        static_cast<double>(examples::countOption(options, "bus"));
    ctx.machine.lineBytes =
        static_cast<double>(examples::countOption(options, "line"));
    ctx.machine.cycleTime =
        static_cast<double>(examples::countOption(options, "mu"));
    ctx.alpha = options.getDouble("alpha");
    const double hr = options.getDouble("hit-ratio");
    const double q =
        static_cast<double>(examples::countOption(options, "q"));
    const auto refs = examples::countOption(options, "refs");
    const auto workload = examples::parseWorkloadOptions(options);

    if (cli.narrate())
        std::printf(
            "==============================================\n"
            "uatm design report — %s @ HR %.1f %%\n"
            "==============================================\n\n",
            ctx.machine.describe().c_str(), hr * 100);

    // ---- 1. feature pricing --------------------------------------
    if (cli.narrate())
        std::printf("[1] what each feature is worth (Eq. 6)\n");
    {
        // Measure the BNL3 stalling factor for this machine, one
        // profile per runner shard.
        PhiExperiment phi_exp;
        phi_exp.feature = StallFeature::BNL3;
        phi_exp.cycleTime =
            static_cast<Cycles>(ctx.machine.cycleTime);
        phi_exp.cache.lineBytes =
            static_cast<std::uint32_t>(ctx.machine.lineBytes);
        phi_exp.refs = refs / 2;
        const double phi =
            std::min(exp::measurePhiAllProfilesParallel(
                         phi_exp, cli.threads)
                         .back()
                         .phi,
                     ctx.machine.lineOverBus());

        exp::ResultTable table(
            "feature_pricing",
            {"feature", "r", "dhr_pct", "equiv_hr_pct"});
        auto row = [&](const char *name, double r) {
            table.addRow(
                {exp::Cell::text(name), exp::Cell::num(r, 3),
                 exp::Cell::num(hitRatioTraded(r, hr) * 100, 2),
                 exp::Cell::num(
                     equivalentHitRatio(r, hr) * 100, 2)});
        };
        row("double the bus", missFactorDoubleBus(ctx));
        row("write buffers", missFactorWriteBuffers(ctx));
        row("BNL3 cache (measured phi)",
            missFactorPartialStall(ctx, phi));
        row("pipelined memory", missFactorPipelined(ctx, q));
        row("victim cache (f=0.5, 2cy)",
            missFactorVictim(ctx, 0.5, 2.0));
        cli.emit(table);
    }
    if (!cli.narrate())
        return 0;

    // ---- 2. crossover --------------------------------------------
    std::printf("\n[2] pipelined-memory crossover (Sec. 5.3)\n");
    if (ctx.machine.lineOverBus() > 2.0) {
        const auto crossover = crossoverCycleTime(
            ctx, TradeFeature::PipelinedMemory,
            TradeFeature::DoubleBus, q, 1.0, std::max(2.0, q),
            400.0);
        if (crossover) {
            std::printf("    pipelining beats a wider bus from "
                        "mu_m = %.2f; your mu_m = %.0f is %s it\n",
                        *crossover, ctx.machine.cycleTime,
                        ctx.machine.cycleTime > *crossover
                            ? "past"
                            : "below");
        }
    } else {
        std::printf("    L/D = 2: pipelining never beats "
                    "doubling the bus (Fig. 3)\n");
    }

    // ---- 3. line size ---------------------------------------------
    std::printf("\n[3] line size for '%s' (Sec. 5.4)\n",
                workload.shortLabel().c_str());
    LineDelayModel delay;
    delay.c = ctx.machine.cycleTime + 1.0;
    delay.beta = ctx.machine.cycleTime;
    delay.busWidth = ctx.machine.busWidth;
    {
        exp::LineTradeoff spec;
        spec.base.sizeBytes = 8 * 1024;
        spec.base.assoc = 2;
        spec.workload = workload;
        spec.lineSizes = {8, 16, 32, 64, 128};
        spec.baseLine = 8;
        spec.delay = delay;
        spec.refs = refs;
        spec.warmupRefs = refs / 10;
        exp::Runner runner = cli.makeRunner();
        const auto result = exp::runLineTradeoff(spec, runner);
        std::printf("    measured MR(L) recommends %u-byte "
                    "lines (Smith agrees: %u)\n",
                    result.recommended, result.smith);

        // 4. cost + traffic view for the same table.
        CacheAreaModel area;
        CacheConfig geometry;
        geometry.sizeBytes = 8 * 1024;
        geometry.assoc = 2;
        const auto cost = costEffectiveLine(result.missRatios,
                                            delay, area, geometry);
        std::printf("\n[4] cost view: delay-area optimum is %u "
                    "bytes (Alpert & Flynn); traffic rises with "
                    "line size (Goodman) — see "
                    "bench_ablation_traffic\n",
                    cost);
    }

    // ---- 5. end-to-end --------------------------------------------
    std::printf("\n[5] end-to-end check (%llu refs)\n",
                static_cast<unsigned long long>(refs));
    {
        // The baseline and the suggested configuration: one
        // two-point scenario on a fresh stream (a seed distinct
        // from the sweeps above), generated once for both.
        const bool pipeline = ctx.machine.cycleTime >= 5.0 &&
                              ctx.machine.lineOverBus() > 2.0;
        exp::Scenario scenario("end_to_end",
                               "baseline vs suggested configuration");
        scenario.refs = refs;
        scenario.workload = workload;
        if (scenario.workload.serializable())
            scenario.workload.seed = workload.seed + 1;
        scenario.cache.sizeBytes = 8 * 1024;
        scenario.cache.assoc = 2;
        scenario.cache.lineBytes =
            static_cast<std::uint32_t>(ctx.machine.lineBytes);
        scenario.memory.busWidthBytes =
            static_cast<std::uint32_t>(ctx.machine.busWidth);
        scenario.memory.cycleTime =
            static_cast<Cycles>(ctx.machine.cycleTime);
        scenario.memory.pipelineInterval = static_cast<Cycles>(q);
        scenario.cpu.feature = StallFeature::FS;
        scenario.sweepLabeled(
            "system", {{"baseline", 0}, {"suggested", 1}},
            [pipeline](exp::Point &point, const exp::AxisValue &v) {
                if (v.value == 0)
                    return;
                point.writeBuffer.depth = 8;
                if (pipeline)
                    point.memory.pipelined = true;
                else
                    point.memory.busWidthBytes *= 2;
            });
        exp::Runner runner = cli.makeRunner();
        const exp::ResultTable table =
            exp::findKernel("timing")->run(runner, scenario);
        if (!runner.lastFailures().empty())
            throw StatusError(runner.lastFailures().front().status);
        const std::size_t cycles_col =
            okOrThrow(table.columnIndex("cycles"));
        const std::size_t cpi_col = okOrThrow(table.columnIndex("cpi"));
        const double base_cycles = table.at(0, cycles_col).value();
        const double best_cycles = table.at(1, cycles_col).value();
        std::printf("    baseline: %llu cycles (CPI %.3f)\n",
                    static_cast<unsigned long long>(base_cycles),
                    table.at(0, cpi_col).value());
        std::printf("    suggested config: %llu cycles "
                    "(CPI %.3f, %.1f %% faster)\n",
                    static_cast<unsigned long long>(best_cycles),
                    table.at(1, cpi_col).value(),
                    100.0 * (1.0 - best_cycles / base_cycles));
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return examples::guardedMain(
        [&] { return run(argc, argv); });
}
