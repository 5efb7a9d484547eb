/**
 * @file
 * Implementation of the canonical point key.
 */

#include "exp/point_key.hh"

#include "exp/point_fields.hh"
#include "obs/json.hh"

namespace uatm::exp {

Expected<std::string>
canonicalPointKey(const Point &point, std::string_view kernel_id)
{
    if (kernel_id.empty()) {
        return Status::invalidArgument(
            "a point key needs a non-empty kernel id");
    }
    auto workload = point.workload.toJson();
    if (!workload.ok()) {
        return Status::error(
            workload.status().code(),
            "point is not cacheable: ", workload.status().message());
    }

    obs::JsonWriter w;
    w.beginObject();
    w.keyValue("v", kPointKeySchemaVersion);
    w.keyValue("kernel", kernel_id);

    std::string_view open;
    for (const PointField &field : pointFields()) {
        if (field.object != open) {
            if (!open.empty())
                w.endObject();
            w.key(field.object).beginObject();
            open = field.object;
        }
        field.write(w, point);
    }
    w.endObject();

    w.key("workload").rawValue(workload.value());
    w.keyValue("refs", point.refs);
    w.keyValue("warmup", point.warmupRefs);
    w.endObject();
    return w.str();
}

std::string
pointKeyDigest(std::string_view canonical_key)
{
    // FNV-1a, 64-bit.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : canonical_key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

} // namespace uatm::exp
