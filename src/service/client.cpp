#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include <unistd.h>

#include "service/socket_util.hpp"

namespace redqaoa {
namespace service {

// ---------------------------------------------------------------------
// Typed request serialization
// ---------------------------------------------------------------------

json::Value
EvaluateRequest::toParams() const
{
    json::Value params = json::Value::object();
    params["graph"] = graphToJson(graph);
    if (!spec.isNull())
        params["spec"] = spec;
    params["points"] = pointsToJson(points);
    return params;
}

json::Value
ReduceRequest::toParams() const
{
    json::Value params = json::Value::object();
    params["graph"] = graphToJson(graph);
    params["seed"] = static_cast<std::size_t>(seed);
    if (!reducer.isNull())
        params["reducer"] = reducer;
    return params;
}

json::Value
OptimizeRequest::toParams() const
{
    json::Value params = json::Value::object();
    params["graph"] = graphToJson(graph);
    if (!spec.isNull())
        params["spec"] = spec;
    params["restarts"] = restarts;
    params["max_evaluations"] = maxEvaluations;
    if (initialStep > 0.0)
        params["initial_step"] = initialStep;
    params["seed"] = static_cast<std::size_t>(seed);
    return params;
}

json::Value
PipelineRequest::toParams() const
{
    json::Value params = json::Value::object();
    params["graph"] = graphToJson(graph);
    if (!options.isNull())
        params["options"] = options;
    if (baseline)
        params["baseline"] = true;
    params["rng_seed"] = static_cast<std::size_t>(rngSeed);
    return params;
}

// ---------------------------------------------------------------------
// ServiceClient
// ---------------------------------------------------------------------

struct ServiceClient::Io
{
    int fd;
    detail::FdLineReader reader;

    explicit Io(int fd_in) : fd(fd_in), reader(fd_in) {}
    ~Io() { ::close(fd); }
};

ServiceClient::ServiceClient(int fd) : io_(std::make_unique<Io>(fd)) {}
ServiceClient::ServiceClient(ServiceClient &&) noexcept = default;
ServiceClient &ServiceClient::operator=(ServiceClient &&) noexcept =
    default;
ServiceClient::~ServiceClient() = default;

namespace {

/**
 * Transport-level failure (connection lost, torn response): distinct
 * from ServiceError so call()'s retry loop knows a reconnect must
 * precede the replay. Still a std::runtime_error, so callers outside
 * the retry loop see the documented exception type.
 */
class TransportError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The jitter RNG seed opts pins (nonzero) or a fresh random one. */
std::uint64_t
resolveBackoffSeed(const ConnectOptions &opts)
{
    if (opts.backoffSeed != 0)
        return opts.backoffSeed;
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

/** One backoff sleep duration: @p base_ms scaled into [0.5, 1.5). */
double
jitteredMs(double base_ms, bool jitter, Rng &rng)
{
    if (base_ms <= 0.0)
        return 0.0;
    // The uniform() draw happens even when jitter is off, so a pinned
    // seed yields the same downstream sequence either way.
    const double factor = 0.5 + rng.uniform();
    return jitter ? base_ms * factor : base_ms;
}

/**
 * Dial 127.0.0.1:opts.port with up to opts.maxAttempts jittered
 * bounded-backoff attempts (drawing sleeps from @p rng). Throws
 * std::runtime_error when every attempt fails.
 */
int
dial(const ConnectOptions &opts, Rng &rng)
{
    const int attempts = opts.maxAttempts < 1 ? 1 : opts.maxAttempts;
    double backoff_ms = opts.backoffInitialMs;
    for (int attempt = 0;; ++attempt) {
        int fd = detail::connectLoopback(opts.port);
        if (fd >= 0)
            return fd;
        if (attempt + 1 >= attempts)
            break;
        const double sleep_ms =
            jitteredMs(backoff_ms, opts.backoffJitter, rng);
        if (sleep_ms > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(sleep_ms));
        backoff_ms = std::min(backoff_ms * 2.0, opts.backoffMaxMs);
    }
    throw std::runtime_error(
        "ServiceClient: cannot connect to 127.0.0.1:" +
        std::to_string(opts.port) + " after " +
        std::to_string(attempts) + " attempt(s)");
}

} // namespace

bool
ServiceClient::retryableCode(ServiceErrorCode code)
{
    // Overloaded is the protocol's explicit "try again later";
    // WorkerFailed is the lb reporting a dead backend whose request is
    // safe to replay. Everything else (invalid params, deadline,
    // shutting_down, internal) will fail identically on a retry.
    return code == ServiceErrorCode::Overloaded ||
           code == ServiceErrorCode::WorkerFailed;
}

std::vector<double>
ServiceClient::connectBackoffSchedule(const ConnectOptions &opts,
                                      int count)
{
    std::vector<double> out;
    Rng rng(resolveBackoffSeed(opts));
    double backoff_ms = opts.backoffInitialMs;
    for (int i = 0; i < count; ++i) {
        out.push_back(jitteredMs(backoff_ms, opts.backoffJitter, rng));
        backoff_ms = std::min(backoff_ms * 2.0, opts.backoffMaxMs);
    }
    return out;
}

ServiceClient
ServiceClient::connect(const ConnectOptions &opts)
{
    if (opts.schemaVersion != kSchemaVersion &&
        opts.schemaVersion != kSchemaVersionV2)
        throw std::runtime_error(
            "ServiceClient: unsupported schema version " +
            std::to_string(opts.schemaVersion));
    detail::ignoreSigpipe();
    Rng rng(resolveBackoffSeed(opts));
    ServiceClient client(dial(opts, rng));
    client.opts_ = opts;
    client.rng_ = rng;
    return client;
}

void
ServiceClient::reconnect()
{
    io_.reset(); // Close the dead fd before dialing a fresh one.
    io_ = std::make_unique<Io>(dial(opts_, rng_));
    ++reconnects_;
}

bool
ServiceClient::lastRoute(RouteInfo &out) const
{
    if (!hasLastRoute_)
        return false;
    out = lastRoute_;
    return true;
}

std::string
ServiceClient::rawExchange(const std::string &line)
{
    if (!detail::writeLine(io_->fd, line))
        throw TransportError("ServiceClient: connection lost on send");
    std::string response;
    if (!io_->reader.readLine(response))
        throw TransportError(
            "ServiceClient: connection closed before a response");
    return response;
}

json::Value
ServiceClient::callOnce(const std::string &method,
                        const json::Value &params, double deadline_ms)
{
    std::uint64_t id = nextId_++;
    json::Value doc = json::Value::object();
    doc["id"] = static_cast<std::size_t>(id);
    doc["method"] = method;
    doc["params"] = params;
    if (deadline_ms > 0.0)
        doc["deadline_ms"] = deadline_ms;
    if (opts_.schemaVersion != kSchemaVersion)
        doc["schema_version"] = opts_.schemaVersion;

    Response response = parseResponse(rawExchange(doc.dump()));
    hasLastRoute_ = response.hasRoute;
    if (response.hasRoute)
        lastRoute_ = response.route;
    if (!response.id.isNumber() ||
        response.id.asNumber() != static_cast<double>(id))
        throw std::runtime_error(
            "ServiceClient: response id does not match request " +
            std::to_string(id));
    if (!response.ok)
        throw ServiceError(response.errorCode, response.errorMessage);
    return response.result;
}

json::Value
ServiceClient::call(const std::string &method, json::Value params,
                    double deadline_ms)
{
    using ClockMs = std::chrono::duration<double, std::milli>;
    const auto start = std::chrono::steady_clock::now();
    const int max_retries = opts_.maxRetries > 0 ? opts_.maxRetries : 0;
    double backoff_ms = opts_.retryBackoffInitialMs;

    for (int attempt = 0;; ++attempt) {
        // Budget check shared by both failure kinds: when the elapsed
        // time plus the pending sleep would exceed the budget, the
        // caught failure is rethrown instead of retried.
        auto withinBudget = [&] {
            if (opts_.retryBudgetMs <= 0.0)
                return true;
            const double elapsed_ms =
                ClockMs(std::chrono::steady_clock::now() - start)
                    .count();
            return elapsed_ms + backoff_ms <= opts_.retryBudgetMs;
        };
        bool needReconnect = false;
        try {
            return callOnce(method, params, deadline_ms);
        } catch (const ServiceError &e) {
            if (attempt >= max_retries || !retryableCode(e.code()) ||
                !withinBudget())
                throw;
        } catch (const TransportError &) {
            if (attempt >= max_retries || !withinBudget())
                throw;
            needReconnect = true;
        }
        ++retriesIssued_;
        const double sleep_ms =
            jitteredMs(backoff_ms, opts_.backoffJitter, rng_);
        if (sleep_ms > 0.0)
            std::this_thread::sleep_for(ClockMs(sleep_ms));
        backoff_ms = std::min(backoff_ms * 2.0, opts_.retryBackoffMaxMs);
        if (needReconnect)
            reconnect(); // Throws when redialing fails: unrecoverable.
    }
}

// ---------------------------------------------------------------------
// Typed calls
// ---------------------------------------------------------------------

namespace {

[[noreturn]] void
badResult(const std::string &what)
{
    throw std::runtime_error("ServiceClient: " + what);
}

const json::Value &
resultMember(const json::Value &doc, const char *key)
{
    const json::Value *found = doc.isObject() ? doc.find(key) : nullptr;
    if (!found)
        badResult(std::string("result without '") + key + "'");
    return *found;
}

std::vector<double>
numberArray(const json::Value &v, const char *what)
{
    if (!v.isArray())
        badResult(std::string(what) + " is not an array");
    std::vector<double> out;
    out.reserve(v.size());
    for (const json::Value &item : v.asArray())
        out.push_back(item.asNumber());
    return out;
}

} // namespace

ServerInfo
ServiceClient::hello()
{
    json::Value doc = call("hello");
    ServerInfo info;
    info.server = resultMember(doc, "server").asString();
    for (const json::Value &v :
         resultMember(doc, "schema_versions").asArray())
        info.schemaVersions.push_back(static_cast<int>(v.asNumber()));
    const json::Value *shards = doc.isObject() ? doc.find("shards") : nullptr;
    const json::Value *workers =
        doc.isObject() ? doc.find("workers") : nullptr;
    if (shards == nullptr && workers == nullptr)
        badResult("result without 'shards' or 'workers'");
    if (shards != nullptr)
        info.shards = static_cast<int>(shards->asNumber());
    if (workers != nullptr)
        info.workers = static_cast<int>(workers->asNumber());
    info.queueCapacity = static_cast<std::size_t>(
        resultMember(doc, "queue_capacity").asNumber());
    info.maxConnections = static_cast<std::size_t>(
        resultMember(doc, "max_connections").asNumber());
    info.idleTimeoutMs =
        resultMember(doc, "idle_timeout_ms").asNumber();
    info.maxLineBytes = static_cast<std::size_t>(
        resultMember(doc, "max_line_bytes").asNumber());
    for (const json::Value &v : resultMember(doc, "methods").asArray())
        info.methods.push_back(v.asString());
    return info;
}

EvaluateResult
ServiceClient::evaluate(const EvaluateRequest &req)
{
    json::Value doc =
        call("evaluate", req.toParams(), req.deadlineMs);
    EvaluateResult out;
    out.backend = resultMember(doc, "backend").asString();
    out.values = numberArray(resultMember(doc, "values"), "'values'");
    return out;
}

ReduceResult
ServiceClient::reduce(const ReduceRequest &req)
{
    json::Value doc = call("reduce", req.toParams(), req.deadlineMs);
    ReduceResult out;
    out.graph = graphFromJson(resultMember(doc, "graph"));
    for (const json::Value &v :
         resultMember(doc, "to_original").asArray())
        out.toOriginal.push_back(static_cast<Node>(v.asNumber()));
    out.andRatio = resultMember(doc, "and_ratio").asNumber();
    out.nodeReduction = resultMember(doc, "node_reduction").asNumber();
    out.edgeReduction = resultMember(doc, "edge_reduction").asNumber();
    out.annealerRuns = static_cast<int>(
        resultMember(doc, "annealer_runs").asNumber());
    return out;
}

OptimizeResult
ServiceClient::optimize(const OptimizeRequest &req)
{
    json::Value doc = call("optimize", req.toParams(), req.deadlineMs);
    OptimizeResult out;
    out.backend = resultMember(doc, "backend").asString();
    const json::Value &params = resultMember(doc, "params");
    std::vector<double> gamma =
        numberArray(resultMember(params, "gamma"), "'gamma'");
    std::vector<double> beta =
        numberArray(resultMember(params, "beta"), "'beta'");
    if (gamma.size() != beta.size() || gamma.empty())
        badResult("optimize result with mismatched gamma/beta");
    out.params = QaoaParams(std::move(gamma), std::move(beta));
    out.energy = resultMember(doc, "energy").asNumber();
    out.evaluations = static_cast<int>(
        resultMember(doc, "evaluations").asNumber());
    out.restarts =
        static_cast<int>(resultMember(doc, "restarts").asNumber());
    return out;
}

json::Value
ServiceClient::pipeline(const PipelineRequest &req)
{
    return call("pipeline", req.toParams(), req.deadlineMs);
}

} // namespace service
} // namespace redqaoa
