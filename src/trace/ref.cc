/**
 * @file
 * Implementation of reference-record helpers.
 */

#include "trace/ref.hh"

#include "util/logging.hh"

namespace uatm {

const char *
refKindName(RefKind kind)
{
    switch (kind) {
      case RefKind::Load:
        return "load";
      case RefKind::Store:
        return "store";
      case RefKind::IFetch:
        return "ifetch";
    }
    panic("unknown RefKind value ", static_cast<int>(kind));
}

Addr
alignDown(Addr addr, std::uint64_t alignment)
{
    UATM_ASSERT(alignment != 0 && (alignment & (alignment - 1)) == 0,
                "alignment must be a power of two, got ", alignment);
    return addr & ~(alignment - 1);
}

} // namespace uatm
