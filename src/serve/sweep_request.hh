/**
 * @file
 * The wire schema of a sweep request: a JSON scenario description
 * parsed onto the existing exp::Scenario machinery.
 *
 * A request names a base machine (cache/memory/write-buffer/CPU
 * configs, every field optional over the library defaults), a
 * workload spec (the registered-method JSON from exp/workload_spec),
 * the swept axes, and the registered kernel (exp/kernel.hh) that
 * prices each point.  Axes are
 * addressed by registered name ("cache.size", "memory.bus_width",
 * ...) so the server never evaluates caller-supplied code — the
 * applier is looked up, the values come from the request.  The
 * special axis "workload" sweeps whole workload specs.
 *
 * The base-config fields and the numeric axes are the entries of
 * exp/point_fields.hh, the table the point key is written from.
 *
 * Parsing is strict: unknown fields, unknown axis or kernel names,
 * mistyped values and integers that do not fit their field are
 * typed ParseError/NotFound Statuses (the daemon maps them to HTTP
 * 400), never aborts — request bodies are untrusted input.
 *
 * Example:
 * {
 *   "name": "geometry_small",
 *   "kernel": "cache",
 *   "refs": 100000,
 *   "workload": {"method": "spec92",
 *                "params": {"profile": "nasa7"}, "seed": 1},
 *   "cache": {"size": 8192, "assoc": 2, "line": 32},
 *   "axes": [{"axis": "cache.size",
 *             "values": [4096, 8192, 16384]}],
 *   "threads": 2
 * }
 */

#ifndef UATM_SERVE_SWEEP_REQUEST_HH
#define UATM_SERVE_SWEEP_REQUEST_HH

#include <string>
#include <string_view>
#include <vector>

#include "exp/kernel.hh"
#include "exp/scenario.hh"
#include "util/status.hh"

namespace uatm::serve {

/** Former serve-layer names of exp::Kernel, for perfbench/tool.cc. */
using ServeKernel = exp::Kernel;
inline constexpr auto &findServeKernel = exp::findKernel;

/** Registered axis names ("cache.size", ..., "workload"). */
std::vector<std::string> serveAxisNames();

/** A parsed request, ready for SweepService::runSweep. */
struct SweepRequest
{
    exp::Scenario scenario{"sweep"};
    std::string kernel = "cache";

    /** Requested worker threads; 0 = the server's default.  The
     *  service clamps it to its own pool size. */
    unsigned threads = 0;
};

/** Parse one request document (see the schema above). */
Expected<SweepRequest> parseSweepRequest(std::string_view json);

} // namespace uatm::serve

#endif // UATM_SERVE_SWEEP_REQUEST_HH
