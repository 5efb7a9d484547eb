/**
 * @file
 * Implementation of the standing scenario builders.
 */

#include "exp/scenarios.hh"

#include <utility>

#include "exp/kernel.hh"
#include "trace/generators.hh"
#include "util/logging.hh"

namespace uatm::exp {

Scenario
makeGeometryScenario(const GeometrySweep &spec)
{
    UATM_ASSERT(!spec.values.empty(), "geometry sweep has no values");
    const bool size_axis = spec.axis == GeometrySweep::Axis::Size;
    const char *axis = size_axis ? "size" : "line";
    Scenario scenario(
        size_axis ? "cache_size_sweep" : "line_size_sweep",
        "cache geometry sweep over the " + std::string(axis) +
            " axis");
    scenario.cache = spec.base;
    scenario.workload = spec.workload;
    scenario.refs = spec.refs;
    scenario.warmupRefs = spec.warmupRefs;

    std::vector<double> values;
    values.reserve(spec.values.size());
    for (std::uint64_t value : spec.values)
        values.push_back(static_cast<double>(value));

    scenario.sweep(axis, values,
                   [size_axis](Point &point, const AxisValue &v) {
                       if (size_axis)
                           point.cache.sizeBytes =
                               static_cast<std::uint64_t>(v.value);
                       else
                           point.cache.lineBytes =
                               static_cast<std::uint32_t>(v.value);
                   });
    return scenario;
}

ResultTable
runGeometrySweep(const GeometrySweep &spec, Runner &runner,
                 std::vector<SweepPoint> *points)
{
    const Scenario scenario = makeGeometryScenario(spec);
    ResultTable table = findKernel("cache")->run(runner, scenario);
    if (points) {
        // Cell::value() is the exact, unrounded ratio.
        points->assign(table.rows(), SweepPoint{});
        for (std::size_t row = 0; row < table.rows(); ++row) {
            if (table.at(row, 1).isError())
                continue;
            (*points)[row] = SweepPoint{spec.values[row],
                                        table.at(row, 1).value(),
                                        table.at(row, 2).value(),
                                        table.at(row, 3).value()};
        }
    }
    return table;
}

std::vector<SweepPoint>
sweepCacheSizeParallel(const CacheConfig &base,
                       const WorkloadSpec &workload,
                       const std::vector<std::uint64_t> &sizes,
                       std::uint64_t refs, std::uint64_t warmup_refs,
                       unsigned threads)
{
    GeometrySweep spec;
    spec.axis = GeometrySweep::Axis::Size;
    spec.base = base;
    spec.workload = workload;
    spec.values = sizes;
    spec.refs = refs;
    spec.warmupRefs = warmup_refs;
    Runner runner(RunnerOptions{threads});
    std::vector<SweepPoint> points;
    runGeometrySweep(spec, runner, &points);
    return points;
}

Scenario
makePhiScenario(const PhiExperiment &experiment)
{
    Scenario scenario("phi_measurement",
                      "stalling factor phi over the six profiles "
                      "(Figure 1)");
    scenario.cache = experiment.cache;
    scenario.refs = experiment.refs;
    scenario.workload = WorkloadSpec::none();
    scenario.sweepWorkloads(Spec92Profile::names());
    return scenario;
}

std::vector<PhiResult>
measurePhiAllProfilesParallel(const PhiExperiment &experiment,
                              unsigned threads)
{
    const Scenario scenario = makePhiScenario(experiment);
    std::vector<PhiResult> results(scenario.pointCount());
    Runner runner(RunnerOptions{threads});
    runner.run(scenario, {"phi", "pct_of_full"},
               [&experiment, &results](const Point &point) {
                   PhiResult result = measurePhi(
                       experiment,
                       okOrThrow(point.coordLabel("workload")));
                   results[point.index] = result;
                   return std::vector<Cell>{
                       Cell::num(result.phi, 3),
                       Cell::num(result.percentOfFull, 1)};
               });
    appendPhiAverage(results);
    return results;
}

Scenario
makeFeatureGridScenario(const FeatureGrid &grid)
{
    UATM_ASSERT(!grid.cycleTimes.empty(),
                "feature grid has no cycle times");
    UATM_ASSERT(!grid.features.empty(),
                "feature grid has no features");
    Scenario scenario("feature_grid",
                      "Sec. 5.3 unified feature comparison");
    scenario.workload = WorkloadSpec::none();

    // Analytic scenario: the coordinates are the whole state, so
    // both appliers leave the point's configs untouched.
    scenario.sweep("mu_m", grid.cycleTimes,
                   [](Point &, const AxisValue &) {});

    std::vector<AxisValue> features;
    features.reserve(grid.features.size());
    for (TradeFeature feature : grid.features)
        features.push_back(
            AxisValue{tradeFeatureName(feature),
                      static_cast<double>(
                          static_cast<int>(feature))});
    scenario.sweepLabeled("feature", std::move(features),
                          [](Point &, const AxisValue &) {});
    return scenario;
}

ResultTable
runFeatureGrid(const FeatureGrid &grid, Runner &runner)
{
    Scenario scenario = makeFeatureGridScenario(grid);
    return runner.run(
        scenario, {"miss_factor", "dhr", "equiv_hr"},
        [&grid](const Point &point) {
            TradeoffContext ctx = grid.ctx;
            ctx.machine = grid.ctx.machine.withCycleTime(
                okOrThrow(point.coord("mu_m")));
            const auto feature = static_cast<TradeFeature>(
                static_cast<int>(okOrThrow(point.coord("feature"))));
            const double r = featureMissFactor(ctx, feature, grid.q,
                                               grid.phiPartial);
            const double dhr =
                hitRatioTraded(r, grid.baseHitRatio);
            return std::vector<Cell>{
                Cell::num(r, 3), Cell::num(dhr, 4),
                Cell::num(grid.baseHitRatio - dhr, 4)};
        });
}

LineTradeoffResult
runLineTradeoff(const LineTradeoff &spec, Runner &runner)
{
    UATM_ASSERT(!spec.lineSizes.empty(),
                "line tradeoff has no line sizes");

    GeometrySweep sweep;
    sweep.axis = GeometrySweep::Axis::Line;
    sweep.base = spec.base;
    sweep.workload = spec.workload;
    sweep.values.assign(spec.lineSizes.begin(),
                        spec.lineSizes.end());
    sweep.refs = spec.refs;
    sweep.warmupRefs = spec.warmupRefs;

    std::vector<SweepPoint> points;
    runGeometrySweep(sweep, runner, &points);

    MissRatioTable missRatios =
        MissRatioTable::fromSweep("measured", points);

    LineTradeoffResult result{
        std::move(missRatios),
        ResultTable("line_tradeoff",
                    {"line", "miss_ratio", "smith_objective",
                     "reduced_delay"}),
        0, 0};
    result.recommended = tradeoffOptimalLine(
        result.missRatios, spec.delay, spec.baseLine);
    result.smith = smithOptimalLine(result.missRatios, spec.delay);

    for (const auto &entry : result.missRatios.points()) {
        const double objective = spec.delay.smithObjective(
            entry.missRatio, static_cast<double>(entry.lineBytes));
        Cell reduction = Cell::text("-");
        if (entry.lineBytes > spec.baseLine)
            reduction = Cell::num(
                reducedDelay(result.missRatios, spec.delay,
                             spec.baseLine, entry.lineBytes),
                kRatioPrecision);
        result.table.addRow(
            {Cell::integer(entry.lineBytes),
             Cell::num(entry.missRatio, kRatioPrecision),
             Cell::num(objective, 4), std::move(reduction)});
    }
    return result;
}

} // namespace uatm::exp
