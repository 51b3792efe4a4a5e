/**
 * @file
 * ServiceClient: the C++ side of the wire. Connects to a redqaoa_serve
 * or redqaoa_lb TCP endpoint (with jittered bounded-backoff connect
 * retry), frames requests as protocol lines, matches responses by id,
 * and re-throws typed error responses as ServiceError — so a caller
 * sees exactly the taxonomy the server emitted. With maxRetries > 0,
 * call() additionally retries RETRYABLE failures — `overloaded`,
 * `worker_failed`, and transport resets (after a reconnect) — under a
 * jittered exponential backoff and an optional wall-clock budget;
 * retrying is safe because responses are pure functions of request
 * content (see README "Fault tolerance" for the full contract).
 *
 * The primary API is typed: per-method request structs (EvaluateRequest,
 * ReduceRequest, OptimizeRequest, PipelineRequest) carry domain types
 * and serialize themselves, per-method result structs decode the
 * payloads, and hello() probes the server's capabilities (protocol
 * versions, shard count, queue/connection bounds). The raw call() /
 * rawExchange() escape hatches remain for protocol tests and methods
 * without a typed wrapper.
 *
 * A client speaks ConnectOptions::schemaVersion: 2 by default
 * (responses carry routing metadata, exposed via lastRoute()), or 1
 * for the v1 wire shape, whose bytes the server still renders exactly.
 * One client is one connection with requests answered in
 * order; it is intentionally not thread-safe (a connection is cheap —
 * concurrent callers should each hold their own, which is also what
 * the throughput bench measures).
 */

#ifndef REDQAOA_SERVICE_CLIENT_HPP
#define REDQAOA_SERVICE_CLIENT_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/protocol.hpp"

namespace redqaoa {
namespace service {

/** Connection + retry parameters for ServiceClient::connect. */
struct ConnectOptions
{
    int port = 0;
    /** Total connect() attempts (>= 1). */
    int maxAttempts = 1;
    /** Sleep before the 2nd attempt; doubles per retry. */
    double backoffInitialMs = 10.0;
    /** Backoff ceiling. */
    double backoffMaxMs = 500.0;
    /**
     * Multiply every backoff sleep (connect AND per-call retry) by a
     * uniform factor in [0.5, 1.5), so a fleet of clients bounced at
     * the same instant fans back out instead of stampeding in phase.
     */
    bool backoffJitter = true;
    /**
     * Jitter RNG seed. 0 (the default) draws a fresh seed per
     * connect; any other value pins the whole backoff schedule —
     * connectBackoffSchedule() then predicts every sleep, which is
     * how tests assert the jitter without measuring wall clock.
     */
    std::uint64_t backoffSeed = 0;
    /** Protocol version stamped on requests (1 or 2). */
    int schemaVersion = kSchemaVersionV2;

    // --- Per-call retry policy (call() and every typed wrapper) ------
    /**
     * Extra attempts after the first on RETRYABLE failures: the typed
     * `overloaded` and `worker_failed` errors (same connection), and
     * transport failures — connection reset, torn response frame —
     * which reconnect first. 0 = fail fast (the pre-fault-tolerance
     * behavior). Retrying is safe BECAUSE the protocol's responses
     * are pure functions of request content (the bit-identity
     * contract): replaying a request that may or may not have
     * executed cannot change any observable result.
     */
    int maxRetries = 0;
    /** Sleep before the 2nd attempt; doubles per retry, jittered. */
    double retryBackoffInitialMs = 20.0;
    /** Per-call retry backoff ceiling. */
    double retryBackoffMaxMs = 1000.0;
    /**
     * Wall-clock budget across ONE call's attempts (ms; 0 = none):
     * when the elapsed time plus the pending backoff would exceed it,
     * the last failure is rethrown instead of retried.
     */
    double retryBudgetMs = 0.0;
};

/**
 * The server's `hello` capability document, decoded. A worker
 * (`redqaoa_serve`) reports its engine shards; the lb (`redqaoa_lb`)
 * reports its workers instead, and the other member keeps its default.
 */
struct ServerInfo
{
    std::string server;
    std::vector<int> schemaVersions;
    int shards = 1;
    int workers = 0;
    std::size_t queueCapacity = 0;
    std::size_t maxConnections = 0;
    double idleTimeoutMs = 0.0;
    std::size_t maxLineBytes = 0;
    std::vector<std::string> methods;
};

/** evaluate: batch <H_c> evaluation of parameter points. */
struct EvaluateRequest
{
    Graph graph;
    std::vector<QaoaParams> points;
    json::Value spec;        //!< Optional EvalSpec document (null = defaults).
    double deadlineMs = 0.0; //!< 0 = no per-request deadline.

    json::Value toParams() const;
};

struct EvaluateResult
{
    std::string backend;
    std::vector<double> values;
};

/** reduce: SA graph distillation with a request seed. */
struct ReduceRequest
{
    Graph graph;
    std::uint64_t seed = 1;
    json::Value reducer;     //!< Optional reducer knobs (null = defaults).
    double deadlineMs = 0.0;

    json::Value toParams() const;
};

struct ReduceResult
{
    Graph graph;             //!< The reduced graph.
    std::vector<Node> toOriginal;
    double andRatio = 0.0;
    double nodeReduction = 0.0;
    double edgeReduction = 0.0;
    int annealerRuns = 0;
};

/** optimize: multi-restart derivative-free parameter search. */
struct OptimizeRequest
{
    Graph graph;
    json::Value spec;        //!< Optional EvalSpec document.
    int restarts = 3;
    int maxEvaluations = 60;
    double initialStep = 0.0; //!< <= 0: server default.
    std::uint64_t seed = 1;
    double deadlineMs = 0.0;

    json::Value toParams() const;
};

struct OptimizeResult
{
    std::string backend;
    QaoaParams params;
    double energy = 0.0;
    int evaluations = 0;
    int restarts = 0;
};

/** pipeline: one full Red-QAOA run (or its plain-QAOA baseline). */
struct PipelineRequest
{
    Graph graph;
    json::Value options;     //!< Optional PipelineOptions document.
    bool baseline = false;
    std::uint64_t rngSeed = 1;
    double deadlineMs = 0.0;

    json::Value toParams() const;
};

class ServiceClient
{
  public:
    /**
     * Connect to 127.0.0.1:opts.port, retrying up to opts.maxAttempts
     * times with bounded exponential backoff (for servers still
     * binding their port). Throws std::runtime_error when every
     * attempt is refused.
     */
    static ServiceClient connect(const ConnectOptions &opts);

    ServiceClient(ServiceClient &&) noexcept;
    ServiceClient &operator=(ServiceClient &&) noexcept;
    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;
    ~ServiceClient();

    /**
     * Issue one request and wait for its response, retrying per the
     * ConnectOptions retry policy (maxRetries > 0): `overloaded` /
     * `worker_failed` responses are retried on the same connection,
     * transport failures reconnect first, every retry sends a FRESH
     * request id after a jittered exponential backoff. Returns the
     * result payload on ok; throws ServiceError carrying the server's
     * typed code on a non-retryable (or budget-exhausted) error
     * response, std::runtime_error on unrecoverable transport
     * failures. @p deadline_ms > 0 attaches a per-request deadline.
     */
    json::Value call(const std::string &method, json::Value params,
                     double deadline_ms = 0.0);

    /** call() with no params (hello, stats, shutdown). */
    json::Value call(const std::string &method)
    {
        return call(method, json::Value::object());
    }

    /**
     * Send a raw, possibly malformed line and return the raw response
     * line (protocol tests drive error paths through this).
     */
    std::string rawExchange(const std::string &line);

    // --- Typed request API -------------------------------------------

    /** hello: probe the server's capabilities. */
    ServerInfo hello();

    EvaluateResult evaluate(const EvaluateRequest &req);
    ReduceResult reduce(const ReduceRequest &req);
    OptimizeResult optimize(const OptimizeRequest &req);
    /** pipeline rows stay schema-versioned documents; returned raw. */
    json::Value pipeline(const PipelineRequest &req);

    /** stats: {"engine": {...}, ["shards": [...],] "server": {...}}. */
    json::Value stats() { return call("stats"); }

    /** shutdown: ask the server to stop (returns its ack). */
    json::Value shutdown() { return call("shutdown"); }

    /** Protocol version stamped on outgoing requests (1 or 2). */
    int schemaVersion() const { return opts_.schemaVersion; }

    /**
     * Routing metadata of the most recent response (v2 servers only);
     * false when the last response carried none.
     */
    bool lastRoute(RouteInfo &out) const;

    /** True for the codes call() retries (overloaded, worker_failed). */
    static bool retryableCode(ServiceErrorCode code);

    /**
     * The first @p count backoff sleeps (ms) connect() will use for
     * @p opts — the jittered schedule, deterministic for a nonzero
     * backoffSeed. Tests pin the jitter through this instead of
     * timing sleeps.
     */
    static std::vector<double>
    connectBackoffSchedule(const ConnectOptions &opts, int count);

    /** Cumulative retry attempts call() has issued (observability). */
    std::uint64_t retriesIssued() const { return retriesIssued_; }

    /** Cumulative reconnects after transport failures. */
    std::uint64_t reconnects() const { return reconnects_; }

  private:
    explicit ServiceClient(int fd);

    /** One attempt: send, await, decode; throws on any failure. */
    json::Value callOnce(const std::string &method,
                         const json::Value &params, double deadline_ms);
    /** Tear down io_ and redial per opts_ (transport-failure path). */
    void reconnect();

    struct Io; //!< fd + buffered line reader.
    std::unique_ptr<Io> io_;
    std::uint64_t nextId_ = 1;
    bool hasLastRoute_ = false;
    RouteInfo lastRoute_;
    ConnectOptions opts_; //!< What connect() was given; reconnects reuse it.
    Rng rng_{1};          //!< Backoff jitter stream.
    std::uint64_t retriesIssued_ = 0;
    std::uint64_t reconnects_ = 0;
};

} // namespace service
} // namespace redqaoa

#endif // REDQAOA_SERVICE_CLIENT_HPP
