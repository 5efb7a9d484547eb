/**
 * @file
 * The wire schema of a Point's machine configuration, as one table.
 *
 * Each entry is one field of the four configs a Point carries
 * (cache, memory, wbuf, cpu): its wire name, its type, whether it
 * is a sweep axis, a checked conversion from an untrusted JSON
 * value, and its writer for the canonical point key.  The sweep
 * request's base configs and axes, the served axis catalogue and
 * canonicalPointKey all read this table, so a field is named in
 * exactly one place.
 *
 * Values travel as one std::uint64_t: the number itself for u32
 * and u64 fields, 0/1 for bools, and the enumerator's index for
 * enums (every config enum counts up from 0).
 */

#ifndef UATM_EXP_POINT_FIELDS_HH
#define UATM_EXP_POINT_FIELDS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/scenario.hh"
#include "obs/json.hh"
#include "util/status.hh"

namespace uatm::exp {

/** One config field of a Point, as the wire and the key name it. */
struct PointField
{
    enum class Type : std::uint8_t
    {
        U32,
        U64,
        Bool,
        Enum,
    };

    std::string_view object;  ///< "cache", "memory", "wbuf", "cpu"
    std::string_view name;    ///< "size", "bus_width", ...
    std::string label;        ///< "cache.size": the axis name
    Type type;
    bool axis;                ///< sweepable under @ref label
    std::vector<std::string> enumerators;  ///< Enum: names by index

    std::uint64_t (*get)(const Point &);

    /** Store a value parse() accepted. */
    void (*set)(Point &, std::uint64_t);

    /** Checked conversion of an untrusted value: an integer that
     *  fits the field, a bool, or an enumerator name; ParseError
     *  naming @ref label otherwise. */
    Expected<std::uint64_t> parse(const obs::JsonValue &value) const;

    /** Emit "<name>": <value> into the writer's open object. */
    void write(obs::JsonWriter &writer, const Point &point) const;
};

/** Every field, grouped by object in canonical-key order. */
const std::vector<PointField> &pointFields();

/** The field @p object.@p name; nullptr when there is none. */
const PointField *findPointField(std::string_view object,
                                 std::string_view name);

} // namespace uatm::exp

#endif // UATM_EXP_POINT_FIELDS_HH
