/**
 * @file
 * Scenario expansion: cross the declared axes into a flat,
 * deterministically ordered point list.
 */

#include "exp/scenario.hh"

#include <cmath>
#include <cstdio>
#include <memory>

#include "util/logging.hh"

namespace uatm::exp {

AxisValue
AxisValue::ofNumber(double value)
{
    char buf[48];
    if (value == std::floor(value) && std::abs(value) < 1e15)
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
    else
        std::snprintf(buf, sizeof(buf), "%g", value);
    return AxisValue{buf, value};
}

Expected<double>
Point::coord(const std::string &axis) const
{
    for (const auto &coord : coords)
        if (coord.axis == axis)
            return coord.value;
    return Status::notFound("point has no axis '", axis, "'");
}

Expected<std::string>
Point::coordLabel(const std::string &axis) const
{
    for (const auto &coord : coords)
        if (coord.axis == axis)
            return coord.label;
    return Status::notFound("point has no axis '", axis, "'");
}

std::string
Point::label() const
{
    std::string out;
    for (const auto &coord : coords) {
        if (!out.empty())
            out += ' ';
        out += coord.axis;
        out += '=';
        out += coord.label;
    }
    if (out.empty())
        out = "point";
    return out;
}

bool
sameStream(const Point &a, const Point &b)
{
    const WorkloadSpec &x = a.workload;
    const WorkloadSpec &y = b.workload;
    return a.refs == b.refs && a.warmupRefs == b.warmupRefs &&
           x.isCustom() == y.isCustom() && x.method == y.method &&
           x.params == y.params && x.seed == y.seed &&
           x.withIFetch == y.withIFetch &&
           x.customName == y.customName;
}

Scenario::Scenario(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description))
{
}

Scenario &
Scenario::sweep(const std::string &axis,
                const std::vector<double> &values, Applier apply)
{
    std::vector<AxisValue> labelled;
    labelled.reserve(values.size());
    for (double value : values)
        labelled.push_back(AxisValue::ofNumber(value));
    return sweepLabeled(axis, std::move(labelled), std::move(apply));
}

Scenario &
Scenario::sweepLabeled(const std::string &axis,
                       std::vector<AxisValue> values, Applier apply)
{
    UATM_ASSERT(!values.empty(), "axis '", axis, "' has no values");
    UATM_ASSERT(apply != nullptr, "axis '", axis,
                "' has no applier");
    for (const auto &existing : axes_)
        UATM_ASSERT(existing.name != axis, "axis '", axis,
                    "' declared twice");
    axes_.push_back(
        Axis{axis, std::move(values), std::move(apply)});
    return *this;
}

Scenario &
Scenario::sweepWorkloads(const std::vector<std::string> &profiles)
{
    std::vector<AxisValue> values;
    values.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i)
        values.push_back(
            AxisValue{profiles[i], static_cast<double>(i)});
    return sweepLabeled(
        "workload", std::move(values),
        [](Point &point, const AxisValue &value) {
            const std::uint64_t seed = point.workload.seed;
            const bool ifetch = point.workload.withIFetch;
            point.workload =
                WorkloadSpec::spec92(value.label, seed);
            point.workload.withIFetch = ifetch;
        });
}

Scenario &
Scenario::sweepWorkloadSpecs(std::vector<WorkloadSpec> specs)
{
    UATM_ASSERT(!specs.empty(),
                "workload axis has no specs");
    std::vector<AxisValue> values;
    values.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        values.push_back(AxisValue{specs[i].shortLabel(),
                                   static_cast<double>(i)});
    auto shared = std::make_shared<std::vector<WorkloadSpec>>(
        std::move(specs));
    return sweepLabeled(
        "workload", std::move(values),
        [shared](Point &point, const AxisValue &value) {
            point.workload =
                (*shared)[static_cast<std::size_t>(value.value)];
        });
}

std::vector<std::string>
Scenario::axisNames() const
{
    std::vector<std::string> names;
    names.reserve(axes_.size());
    for (const auto &axis : axes_)
        names.push_back(axis.name);
    return names;
}

std::size_t
Scenario::pointCount() const
{
    std::size_t count = 1;
    for (const auto &axis : axes_)
        count *= axis.values.size();
    return count;
}

std::vector<Point>
Scenario::expand() const
{
    std::vector<Point> points;
    points.reserve(pointCount());

    // Odometer over the axes: indices[0] (first declared axis)
    // turns slowest, matching the nested loops this replaces.
    std::vector<std::size_t> indices(axes_.size(), 0);
    while (true) {
        Point point;
        point.index = points.size();
        point.cache = cache;
        point.memory = memory;
        point.writeBuffer = writeBuffer;
        point.cpu = cpu;
        point.workload = workload;
        point.refs = refs;
        point.warmupRefs = warmupRefs;
        point.coords.reserve(axes_.size());
        for (std::size_t a = 0; a < axes_.size(); ++a) {
            const AxisValue &value = axes_[a].values[indices[a]];
            point.coords.push_back(
                Coord{axes_[a].name, value.label, value.value});
            axes_[a].apply(point, value);
        }
        points.push_back(std::move(point));

        std::size_t a = axes_.size();
        while (a > 0) {
            --a;
            if (++indices[a] < axes_[a].values.size())
                break;
            indices[a] = 0;
            if (a == 0)
                return points;
        }
        if (axes_.empty())
            return points;
    }
}

} // namespace uatm::exp
