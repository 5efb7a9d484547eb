/**
 * @file
 * Implementation of the sweep-request schema.
 */

#include "serve/sweep_request.hh"

#include <algorithm>
#include <limits>

#include "exp/point_fields.hh"
#include "obs/json.hh"

namespace uatm::serve {

namespace {

/** @p names as "a, b, c", for error messages. */
std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names)
        out += (out.empty() ? "" : ", ") + name;
    return out;
}

Status
typeError(const std::string &field, const char *want)
{
    return Status::parseError("sweep request: \"", field,
                              "\" must be ", want);
}

/** True for "cache", "memory", "wbuf" and "cpu". */
bool
isConfigObject(const std::string &name)
{
    for (const exp::PointField &field : exp::pointFields()) {
        if (field.object == name)
            return true;
    }
    return false;
}

/** Read the base config object @p object onto @p base. */
Status
parseConfig(const std::string &object, const obs::JsonValue &json,
            exp::Point &base)
{
    if (!json.isObject())
        return typeError(object, "an object");
    for (const auto &[name, value] : json.members()) {
        const exp::PointField *field =
            exp::findPointField(object, name);
        if (!field) {
            return Status::parseError("sweep request: unknown ",
                                      object, " field \"", name,
                                      "\"");
        }
        auto parsed = field->parse(value);
        if (!parsed.ok())
            return parsed.status();
        field->set(base, parsed.value());
    }
    return Status();
}

Status
parseAxis(const obs::JsonValue &json, exp::Scenario &scenario)
{
    if (!json.isObject())
        return Status::parseError(
            "sweep request: each axis must be an object");
    const obs::JsonValue *name_json = json.find("axis");
    if (!name_json || !name_json->isString())
        return Status::parseError(
            "sweep request: axis needs a string \"axis\" name");
    const std::string &name = name_json->asString();

    for (const auto &[field, value] : json.members()) {
        (void)value;
        if (field != "axis" && field != "values" &&
            field != "specs") {
            return Status::parseError(
                "sweep request: unknown axis field \"", field,
                "\"");
        }
    }

    if (name == "workload") {
        const obs::JsonValue *specs_json = json.find("specs");
        if (!specs_json || !specs_json->isArray() ||
            specs_json->size() == 0) {
            return Status::parseError(
                "sweep request: the workload axis needs a "
                "non-empty \"specs\" array");
        }
        if (json.find("values")) {
            return Status::parseError(
                "sweep request: the workload axis takes "
                "\"specs\", not \"values\"");
        }
        std::vector<exp::WorkloadSpec> specs;
        specs.reserve(specs_json->size());
        for (const obs::JsonValue &spec_json :
             specs_json->items()) {
            auto spec = exp::WorkloadSpec::fromJson(spec_json);
            if (!spec.ok())
                return spec.status();
            specs.push_back(std::move(spec).value());
        }
        scenario.sweepWorkloadSpecs(std::move(specs));
        return Status();
    }

    const auto dot = name.find('.');
    const exp::PointField *field =
        dot == std::string::npos
            ? nullptr
            : exp::findPointField(name.substr(0, dot),
                                  name.substr(dot + 1));
    if (!field || !field->axis) {
        return Status::notFound("sweep request: unknown axis \"",
                                name, "\" (known: ",
                                joined(serveAxisNames()), ")");
    }
    if (json.find("specs")) {
        return Status::parseError(
            "sweep request: only the workload axis takes "
            "\"specs\"");
    }
    const obs::JsonValue *values_json = json.find("values");
    if (!values_json || !values_json->isArray() ||
        values_json->size() == 0) {
        return Status::parseError("sweep request: axis \"", name,
                                  "\" needs a non-empty "
                                  "\"values\" array");
    }
    std::vector<double> values;
    values.reserve(values_json->size());
    for (const obs::JsonValue &value : values_json->items()) {
        // Checked here because an Applier cannot fail.
        auto parsed = field->parse(value);
        if (!parsed.ok())
            return parsed.status();
        values.push_back(value.asNumber());
    }
    scenario.sweep(name, values,
                   [field](exp::Point &p, const exp::AxisValue &v) {
                       field->set(p,
                                  static_cast<std::uint64_t>(v.value));
                   });
    return Status();
}

} // namespace

std::vector<std::string>
serveAxisNames()
{
    std::vector<std::string> names;
    for (const exp::PointField &field : exp::pointFields()) {
        if (field.axis)
            names.push_back(field.label);
    }
    std::sort(names.begin(), names.end());
    names.push_back("workload");
    return names;
}

Expected<SweepRequest>
parseSweepRequest(std::string_view json)
{
    const auto parsed = obs::parseJson(json);
    if (!parsed)
        return Status::parseError("sweep request: ", parsed.error);
    const obs::JsonValue &root = parsed.value;
    if (!root.isObject())
        return Status::parseError(
            "sweep request must be a JSON object");

    SweepRequest request;
    std::string name = "sweep";
    std::string description;
    exp::Point base;
    const obs::JsonValue *axes = nullptr;

    for (const auto &[field, value] : root.members()) {
        if (field == "name") {
            if (!value.isString())
                return typeError(field, "a string");
            if (value.asString().empty())
                return Status::parseError(
                    "sweep request: \"name\" must not be empty");
            name = value.asString();
        } else if (field == "description") {
            if (!value.isString())
                return typeError(field, "a string");
            description = value.asString();
        } else if (field == "kernel") {
            if (!value.isString())
                return typeError(field, "a string");
            request.kernel = value.asString();
        } else if (field == "refs") {
            auto v = value.asUnsigned(field);
            if (!v.ok())
                return v.status();
            if (v.value() == 0)
                return Status::parseError(
                    "sweep request: \"refs\" must be positive");
            request.scenario.refs = v.value();
        } else if (field == "warmup") {
            auto v = value.asUnsigned(field);
            if (!v.ok())
                return v.status();
            request.scenario.warmupRefs = v.value();
        } else if (field == "threads") {
            auto v = value.asUnsigned(
                field, std::numeric_limits<unsigned>::max());
            if (!v.ok())
                return v.status();
            request.threads = static_cast<unsigned>(v.value());
        } else if (field == "workload") {
            auto spec = exp::WorkloadSpec::fromJson(value);
            if (!spec.ok())
                return spec.status();
            request.scenario.workload = std::move(spec).value();
        } else if (isConfigObject(field)) {
            const Status status = parseConfig(field, value, base);
            if (!status.ok())
                return status;
        } else if (field == "axes") {
            if (!value.isArray())
                return typeError(field, "an array");
            axes = &value;
        } else {
            return Status::parseError(
                "sweep request: unknown field \"", field, "\"");
        }
    }

    if (const exp::Kernel *kernel = exp::findKernel(request.kernel);
        !kernel || !kernel->served) {
        return Status::notFound(
            "sweep request: unknown kernel \"", request.kernel,
            "\" (known: ", joined(exp::servedKernelNames()), ")");
    }

    // The scenario was default-constructed before name/description
    // were known; rebuild it around them, keeping the parsed
    // configuration.
    exp::Scenario scenario(name, description);
    scenario.cache = base.cache;
    scenario.memory = base.memory;
    scenario.writeBuffer = base.writeBuffer;
    scenario.cpu = base.cpu;
    scenario.workload = request.scenario.workload;
    scenario.refs = request.scenario.refs;
    scenario.warmupRefs = request.scenario.warmupRefs;
    request.scenario = std::move(scenario);

    if (axes) {
        for (const obs::JsonValue &axis : axes->items()) {
            const Status status =
                parseAxis(axis, request.scenario);
            if (!status.ok())
                return status;
        }
    }
    return request;
}

} // namespace uatm::serve
