/**
 * @file
 * The machine-config field table.
 */

#include "exp/point_fields.hh"

#include <limits>
#include <type_traits>
#include <utility>

#include "cpu/stall_feature.hh"
#include "exp/point_key.hh"

namespace uatm::exp {

// The table names every field of the four config structs.  These
// guards fire when a field is added, so the table (and with it the
// point key and its schema version) cannot silently go stale and
// alias two configurations that now differ.
static_assert(sizeof(CacheConfig) == 32,
              "CacheConfig changed shape: extend pointFields() "
              "and bump kPointKeySchemaVersion");
static_assert(sizeof(MemoryConfig) == 32,
              "MemoryConfig changed shape: extend pointFields() "
              "and bump kPointKeySchemaVersion");
static_assert(sizeof(WriteBufferConfig) == 8,
              "WriteBufferConfig changed shape: extend "
              "pointFields() and bump kPointKeySchemaVersion");
static_assert(sizeof(CpuConfig) == 12,
              "CpuConfig changed shape: extend pointFields() and "
              "bump kPointKeySchemaVersion");

namespace {

/** The type of Point's @p Config member's @p Member field. */
template <auto Config, auto Member>
using FieldType = std::remove_cvref_t<
    decltype(std::declval<Point &>().*Config.*Member)>;

template <auto Config, auto Member>
std::uint64_t
getField(const Point &point)
{
    return static_cast<std::uint64_t>(point.*Config.*Member);
}

template <auto Config, auto Member>
void
setField(Point &point, std::uint64_t value)
{
    point.*Config.*Member =
        static_cast<FieldType<Config, Member>>(value);
}

constexpr bool kAxis = true;

/**
 * The entry for Point's @p Config . @p Member, a u32, u64, bool or
 * enum; an enum passes its @p enumerators' names, by value.
 */
template <auto Config, auto Member>
PointField
field(std::string_view object, std::string_view name, bool axis,
      std::vector<std::string> enumerators = {})
{
    using T = FieldType<Config, Member>;
    static_assert(std::is_enum_v<T> || std::is_same_v<T, bool> ||
                  std::is_same_v<T, std::uint32_t> ||
                  std::is_same_v<T, std::uint64_t>);
    const PointField::Type type =
        std::is_enum_v<T>                  ? PointField::Type::Enum
        : std::is_same_v<T, bool>          ? PointField::Type::Bool
        : std::is_same_v<T, std::uint32_t> ? PointField::Type::U32
                                           : PointField::Type::U64;
    return {object,
            name,
            std::string(object) + "." + std::string(name),
            type,
            axis,
            std::move(enumerators),
            &getField<Config, Member>,
            &setField<Config, Member>};
}

/** The names @p label gives an enum's first @p count values. */
template <typename Enum>
std::vector<std::string>
names(const char *(*label)(Enum), std::size_t count)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < count; ++i)
        out.emplace_back(label(static_cast<Enum>(i)));
    return out;
}

} // namespace

const std::vector<PointField> &
pointFields()
{
    static const std::vector<PointField> kFields = {
        field<&Point::cache, &CacheConfig::sizeBytes>("cache", "size",
                                                      kAxis),
        field<&Point::cache, &CacheConfig::assoc>("cache", "assoc",
                                                  kAxis),
        field<&Point::cache, &CacheConfig::lineBytes>("cache", "line",
                                                      kAxis),
        field<&Point::cache, &CacheConfig::writeMiss>(
            "cache", "write_miss", false,
            names(writeMissPolicyName, 2)),
        field<&Point::cache, &CacheConfig::write>(
            "cache", "write", false, names(writePolicyName, 2)),
        field<&Point::cache, &CacheConfig::replacement>(
            "cache", "replacement", false,
            names(replacementKindName, 4)),
        field<&Point::cache, &CacheConfig::replacementSeed>(
            "cache", "replacement_seed", false),
        field<&Point::memory, &MemoryConfig::busWidthBytes>(
            "memory", "bus_width", kAxis),
        field<&Point::memory, &MemoryConfig::cycleTime>(
            "memory", "cycle_time", kAxis),
        field<&Point::memory, &MemoryConfig::pipelined>(
            "memory", "pipelined", false),
        field<&Point::memory, &MemoryConfig::pipelineInterval>(
            "memory", "pipeline_interval", kAxis),
        field<&Point::writeBuffer, &WriteBufferConfig::depth>(
            "wbuf", "depth", kAxis),
        field<&Point::writeBuffer, &WriteBufferConfig::readBypass>(
            "wbuf", "read_bypass", false),
        field<&Point::cpu, &CpuConfig::feature>(
            "cpu", "feature", false, names(stallFeatureName, 6)),
        field<&Point::cpu, &CpuConfig::mshrs>("cpu", "mshrs", kAxis),
        field<&Point::cpu, &CpuConfig::suppressFlushTraffic>(
            "cpu", "suppress_flush", false),
        field<&Point::cpu, &CpuConfig::prefetch>(
            "cpu", "prefetch", false, names(prefetchPolicyName, 3)),
    };
    return kFields;
}

const PointField *
findPointField(std::string_view object, std::string_view name)
{
    for (const PointField &entry : pointFields()) {
        if (entry.object == object && entry.name == name)
            return &entry;
    }
    return nullptr;
}

Expected<std::uint64_t>
PointField::parse(const obs::JsonValue &value) const
{
    switch (type) {
      case Type::U32:
        return value.asUnsigned(
            label, std::numeric_limits<std::uint32_t>::max());
      case Type::U64:
        return value.asUnsigned(label);
      case Type::Bool:
        if (!value.isBool())
            return Status::parseError("\"", label,
                                      "\" must be a bool");
        return std::uint64_t{value.asBool()};
      case Type::Enum:
        break;
    }
    if (value.isString()) {
        for (std::size_t i = 0; i < enumerators.size(); ++i) {
            if (value.asString() == enumerators[i])
                return std::uint64_t{i};
        }
    }
    std::string known;
    for (const std::string &enumerator : enumerators)
        known += (known.empty() ? "" : ", ") + enumerator;
    return Status::parseError(
        "\"", label, "\" must be one of ", known,
        value.isString() ? " (got \"" + value.asString() + "\")"
                         : "");
}

void
PointField::write(obs::JsonWriter &writer, const Point &point) const
{
    const std::uint64_t value = get(point);
    writer.key(name);
    switch (type) {
      case Type::U32:
      case Type::U64:
        writer.value(value);
        return;
      case Type::Bool:
        writer.value(value != 0);
        return;
      case Type::Enum:
        writer.value(enumerators[value]);
        return;
    }
}

} // namespace uatm::exp
