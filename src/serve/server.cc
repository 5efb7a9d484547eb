/**
 * @file
 * Implementation of the uatm-served route dispatch.
 */

#include "serve/server.hh"

#include <memory>
#include <utility>

#include "exp/workload_registry.hh"
#include "obs/json.hh"

namespace uatm::serve {

int
httpStatusForError(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:
        return 200;
      case ErrorCode::InvalidArgument:
      case ErrorCode::ParseError:
      case ErrorCode::NotFound:
        return 400;
      case ErrorCode::OutOfRange:
        return 413;
      case ErrorCode::Unavailable:
        return 429;
      case ErrorCode::IoError:
      case ErrorCode::KernelError:
        return 500;
    }
    return 500;
}

namespace {

HttpResponse
errorResponse(const Status &status)
{
    obs::JsonWriter json;
    json.beginObject()
        .keyValue("error", errorCodeName(status.code()))
        .keyValue("message", status.message())
        .endObject();
    HttpResponse response;
    response.status = httpStatusForError(status.code());
    response.contentType = "application/json";
    response.body = json.str() + "\n";
    return response;
}

HttpResponse
methodNotAllowed(const std::string &allow)
{
    HttpResponse response;
    response.status = 405;
    response.contentType = "text/plain; charset=utf-8";
    response.headers.emplace_back("Allow", allow);
    response.body = "method not allowed\n";
    return response;
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(std::make_unique<SweepService>(options_.service))
{
}

Server::~Server()
{
    stop();
}

Status
Server::start()
{
    return http_.start(options_.http,
                       [this](const HttpRequest &request) {
                           return handle(request);
                       });
}

void
Server::stop()
{
    http_.stop();
}

HttpResponse
Server::handle(const HttpRequest &request)
{
    if (request.target == "/sweep") {
        if (request.method != "POST")
            return methodNotAllowed("POST");
        return handleSweep(request);
    }
    if (request.target == "/metrics") {
        if (request.method != "GET")
            return methodNotAllowed("GET");
        return handleMetrics();
    }
    if (request.target == "/healthz") {
        if (request.method != "GET")
            return methodNotAllowed("GET");
        HttpResponse response;
        response.body = "ok\n";
        return response;
    }
    if (request.target == "/workloads") {
        if (request.method != "GET")
            return methodNotAllowed("GET");
        return handleWorkloads();
    }
    // Route misses are an HTTP-level 404, not the 400 a NotFound
    // Status inside a known endpoint maps to (an unknown axis
    // name is the caller's scenario being wrong, not a bad URL).
    HttpResponse response = errorResponse(Status::notFound(
        "no route for '", request.target,
        "' (have /sweep, /metrics, /healthz, /workloads)"));
    response.status = 404;
    return response;
}

HttpResponse
Server::handleSweep(const HttpRequest &request)
{
    auto parsed = parseSweepRequest(request.body);
    if (!parsed.ok())
        return errorResponse(parsed.status());

    auto outcome = service_->runSweep(parsed.value());
    if (!outcome.ok())
        return errorResponse(outcome.status());

    // The streamer outlives this frame (it runs on the connection
    // thread after the headers go out), so the outcome moves into
    // shared ownership with the lambda.
    auto result = std::make_shared<SweepOutcome>(
        std::move(outcome).value());

    HttpResponse response;
    response.contentType = "application/x-ndjson";
    response.headers.emplace_back(
        "X-Uatm-Points", std::to_string(result->points));
    response.headers.emplace_back(
        "X-Uatm-Points-Computed",
        std::to_string(result->computed));
    response.headers.emplace_back(
        "X-Uatm-Cache-Hits", std::to_string(result->cacheHits));
    response.headers.emplace_back(
        "X-Uatm-Points-Failed", std::to_string(result->failed));
    response.streamer = [result](const HttpSink &sink) {
        const exp::ResultTable &table = result->table;
        for (std::size_t row = 0; row < table.rows(); ++row) {
            if (!sink(table.renderNdjsonRow(row)) || !sink("\n"))
                return; // client hung up; stop producing
        }
    };
    return response;
}

HttpResponse
Server::handleMetrics()
{
    HttpResponse response;
    // The versioned content type Prometheus scrapers expect for
    // the 0.0.4 text exposition format.
    response.contentType = "text/plain; version=0.0.4";
    response.body = service_->metricsText();
    return response;
}

HttpResponse
Server::handleWorkloads()
{
    const exp::WorkloadRegistry &registry =
        exp::WorkloadRegistry::instance();
    obs::JsonWriter json;
    json.beginObject();
    json.key("workloads").beginArray();
    for (const std::string &name : registry.names()) {
        json.beginObject().keyValue("name", name);
        auto described = registry.describe(name);
        json.keyValue("description",
                      described.ok() ? described.value() : "");
        json.endObject();
    }
    json.endArray();
    json.key("kernels").beginArray();
    for (const std::string &name : exp::servedKernelNames())
        json.value(name);
    json.endArray();
    json.key("axes").beginArray();
    for (const std::string &name : serveAxisNames())
        json.value(name);
    json.endArray();
    json.endObject();

    HttpResponse response;
    response.contentType = "application/json";
    response.body = json.str() + "\n";
    return response;
}

} // namespace uatm::serve
