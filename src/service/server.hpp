/**
 * @file
 * The request server: admission control, graph-sharded execution,
 * accounting, and the pluggable transports.
 *
 * A ServiceServer owns an EngineShardSet and an AdmissionQueue
 * (admission.hpp) with one bounded FIFO and one executor thread PER
 * SHARD — the same queue redqaoa_lb's fleet front runs its lanes on.
 * Admission (submitLine) is cheap and non-blocking: the line is
 * parsed, envelope errors are answered immediately, the request is
 * routed to its graph's home shard (EngineShardSet::shardFor — a pure
 * function of graph structure), and a full shard FIFO is answered
 * with the typed `overloaded` error — the protocol's backpressure
 * signal — instead of buffering without bound. Each admitted request
 * carries an optional deadline measured from admission; a request
 * whose deadline lapses while it waits is answered
 * `deadline_exceeded` at dequeue without being executed.
 *
 * One executor per shard, deliberately: every handler already fans
 * out over the process-wide thread pool through its EvalEngine (a
 * drain shards every pending point across all cores), so executing
 * one request at a time per shard loses no parallelism on the
 * compute-bound methods — and it buys the service's strongest
 * property for free: responses are a pure function of request
 * content, independent of client count, connection interleaving,
 * shard count, and REDQAOA_THREADS (pinned by tests/test_service.cpp).
 * It also preserves the engine's one unsupported composition rule
 * (several external threads draining ONE engine concurrently with
 * pool-driven drains): each engine has exactly one drainer.
 *
 * The server intercepts three methods before router dispatch:
 * `hello` (capability handshake: schema versions, shard count, queue
 * bounds, connection bounds, max line length), `stats` (aggregate
 * engine counters + per-shard blocks in v2 + server traffic), and
 * `shutdown` (closes the queue; what is still queued drains as
 * `shutting_down`). A fourth, `health`, is answered INLINE from
 * submitLine — before admission, never queued — so it stays a true
 * liveness probe of the process and transport even when every shard
 * FIFO is full: a worker that cannot answer `health` promptly is dead
 * or wedged, not busy. Its document (uptime, per-shard queue depths,
 * in-flight count) is built from the same counters the `stats` path
 * reports, so redqaoa_lb's supervisor and external probes share one
 * implementation.
 *
 * Transports frame the same NDJSON protocol over different byte
 * streams:
 *  - serveStream: stdin/stdout (or any iostream pair) for shell
 *    pipes; responses come back in request order.
 *  - TcpServiceListener: localhost TCP via ONE epoll event-loop
 *    thread — non-blocking accept/read/write, per-connection response
 *    ordering, bounded connection count (excess accepts are answered
 *    with `overloaded` and closed), optional idle-timeout eviction,
 *    and graceful drain on stop(). A peer that disappears mid-
 *    response (EPIPE/ECONNRESET) is clean teardown, never a stuck
 *    thread.
 *
 * Traffic accounting: cumulative counters (received / admitted /
 * served / per-method / rejection reasons) plus a log-bucketed
 * latency histogram reporting p50/p99/mean/max — ServerStats::toJson
 * is what the `stats` method returns under "server", next to the
 * engine's own counters.
 */

#ifndef REDQAOA_SERVICE_SERVER_HPP
#define REDQAOA_SERVICE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "engine/engine_shard_set.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/admission.hpp"
#include "service/fault_injection.hpp"
#include "service/router.hpp"

namespace redqaoa {
namespace service {

/** Snapshot of the server's cumulative traffic counters. */
struct ServerStats
{
    std::uint64_t received = 0;  //!< Lines handed to submitLine.
    std::uint64_t admitted = 0;  //!< Entered a shard queue.
    std::uint64_t dequeued = 0;  //!< Picked up by an executor.
    std::uint64_t served = 0;    //!< Responses produced (every path).
    std::uint64_t okCount = 0;   //!< ok: true responses.
    std::uint64_t errorCount = 0; //!< ok: false responses.
    std::uint64_t rejectedParse = 0;    //!< parse/invalid envelope.
    std::uint64_t rejectedOverload = 0; //!< Backpressure rejections.
    std::uint64_t expiredDeadline = 0;  //!< Lapsed in the queue.
    std::uint64_t shedShutdown = 0;     //!< Answered shutting_down.
    std::map<std::string, std::uint64_t> methodCounts; //!< Executed.
    stats::LatencyHistogram latency; //!< Admission -> response, executed.
    /** Same latency split per (method, shard) — the metrics plane
     *  exposes these as labelled redqaoa_request_latency samples. */
    std::map<std::pair<std::string, int>, stats::LatencyHistogram>
        methodShardLatency;

    /**
     * {"received", "admitted", "dequeued", "served", "ok", "errors",
     *  "rejected_parse", "rejected_overload", "expired_deadline",
     *  "shed_shutdown", "methods": {...},
     *  "latency": {"count", "mean_ms", "p50_ms", "p99_ms", "max_ms"}}
     */
    json::Value toJson() const;
};

struct ServerOptions
{
    /** Queued (admitted, not yet executing) request cap PER SHARD. */
    std::size_t queueCapacity = 64;
    /** Engine shard count (>= 1); ignored when a shard set is given. */
    int shards = 1;
    /** Concurrent TCP connection cap (excess accepts are bounced). */
    std::size_t maxConnections = 256;
    /** Evict idle TCP connections after this long (0 = never). */
    double idleTimeoutMs = 0.0;
    /**
     * Root of the persistent warm-start store (empty = disabled).
     * Each engine shard opens `<storeDir>/shard<i>`; ignored when a
     * prebuilt shard set is given.
     */
    std::string storeDir;
};

/**
 * What a transport needs from whatever answers request lines: exactly
 * one response line per submitted line, plus the connection-policy
 * options. ServiceServer implements it over local engine shards;
 * WorkerFleetService (supervisor.hpp) implements it by proxying to a
 * supervised redqaoa_serve fleet — both front the SAME epoll
 * TcpServiceListener.
 */
class LineService
{
  public:
    virtual ~LineService() = default;

    /**
     * Admit one raw request line; @p done receives exactly one
     * response line. Must never throw; immediate rejections invoke
     * @p done inline before returning.
     */
    virtual void submitLine(std::string line, ResponseCallback done) = 0;

    /** Connection policy (maxConnections, idleTimeoutMs). */
    virtual const ServerOptions &options() const = 0;
};

/**
 * The `hello` capability document both fronts answer, keys in wire
 * order: {"server": @p server, "schema_versions", @p topology_key
 * ("shards" or "workers"): @p topology, "queue_capacity",
 * "max_connections", "idle_timeout_ms", "max_line_bytes", "methods"}.
 */
json::Value helloDocument(const char *server, const char *topology_key,
                          std::size_t topology, const ServerOptions &opts);

class ServiceServer : public LineService
{
  public:
    /**
     * Serve @p engines (a fresh EngineShardSet of opts.shards engines
     * when null). Throws std::invalid_argument on a zero queue
     * capacity.
     */
    explicit ServiceServer(
        ServerOptions opts = {},
        std::shared_ptr<EngineShardSet> engines = nullptr);
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /**
     * Admit one raw request line; @p done receives the response line.
     * NEVER throws and never blocks on execution — envelope errors, a
     * full shard queue (`overloaded`), a stopping server
     * (`shutting_down`), and `health` probes invoke @p done inline
     * before returning.
     */
    void submitLine(std::string line, ResponseCallback done) override;

    /** submitLine returning a future (stdio transport, simple callers). */
    std::future<std::string> submitLine(std::string line);

    /** submitLine + wait (tests and simple callers). */
    std::string handleLine(std::string line);

    /**
     * True once a `shutdown` request was executed or stop() was
     * called; new submissions are answered shutting_down.
     */
    bool shutdownRequested() const;

    /** Block until shutdownRequested(), at most @p seconds (0 = poll). */
    bool waitShutdownFor(double seconds);

    /**
     * Stop accepting work, answer every queued request with
     * shutting_down, and join the executors. Idempotent; the
     * destructor calls it.
     */
    void stop();

    ServerStats stats() const;

    /** Effective options (shards reflects the actual shard set). */
    const ServerOptions &options() const override { return opts_; }

    EngineShardSet &engines() { return *engines_; }

    /**
     * The `health` liveness document, built from the same counters the
     * stats path reports: {"status": "ok"|"stopping",
     * "uptime_seconds", "pid", "shards", "queue_depths": [per shard],
     * "in_flight" (admitted, not yet answered), "served", "engine"
     * (the aggregate EngineStats::toJson document — redqaoa_lb's
     * supervisor reads the store_* warm-start counters from here)}.
     */
    json::Value healthResult() const;

    /**
     * The `metrics` result (answered inline, like health):
     * {"process": {uptime_seconds, pid} — the SAME block health
     * embeds, "engine": aggregate EngineStats::toJson — the SAME
     * document health embeds, "families": Prometheus-shaped samples}.
     * One serialization path with health so the key sets cannot
     * drift.
     */
    json::Value metricsResult() const;

    /** Prometheus text exposition (the --metrics-port payload). */
    std::string metricsText() const;

    /** The `slowlog` result: worst traces captured by this process. */
    json::Value slowlogResult() const { return traces_.slowlogJson(); }

  private:
    using Clock = std::chrono::steady_clock;

    /** One admitted request on its way through a shard's FIFO. */
    struct Job
    {
        Admission admission;
        Request request;
        int shard = 0;
    };

    /** Run (or, when @p draining, refuse) one dequeued job. */
    void execute(Job &job, bool draining);
    /** Count @p line's answer, mark the job answered, invoke done. */
    void respond(Job &job, std::string line, bool ok, bool recordLatency);
    /** Home shard of @p req (0 when no graph can be extracted). */
    int routeShard(const Request &req) const;
    /** The `stats` result: engine aggregate (+ shards in v2) + server. */
    json::Value statsResult(int schema_version) const;
    /** Everything the metrics plane exposes, as one snapshot. */
    obs::MetricsSnapshot metricsSnapshot() const;
    double uptimeSeconds() const;

    ServerOptions opts_;
    std::shared_ptr<EngineShardSet> engines_;
    std::vector<ServiceRouter> routers_; //!< One per shard.

    mutable std::mutex mutex_; //!< Guards stats_.
    /** Traffic counters; admitted and dequeued live in queue_. */
    ServerStats stats_;
    const Clock::time_point startTime_ = Clock::now();
    obs::TraceRing traces_; //!< Completed traces + slowlog (own lock).
    /** One FIFO and one executor per shard; last, so it is joined
     *  before anything its executors use is destroyed. */
    AdmissionQueue<Job> queue_;
};

/**
 * Serve newline-delimited requests from @p in to @p out (the stdio
 * transport). Responses are written in request order, flushed per
 * line, from a dedicated writer thread so slow requests pipeline
 * behind fast reads. Returns the count of responses written, when
 * @p in hits EOF. A `shutdown` request stops admission (later lines
 * are answered shutting_down) but the read loop itself only ends at
 * EOF — the stream cannot be abandoned mid-read — so a shutdown
 * sender should close its pipe after the ack.
 */
std::size_t serveStream(ServiceServer &server, std::istream &in,
                        std::ostream &out);

/**
 * Localhost TCP transport: ONE event-loop thread multiplexing every
 * connection through epoll. Binds 127.0.0.1:@p port (0 = ephemeral;
 * port() reports the bound port). Reads are non-blocking and framed
 * into NDJSON lines; responses are queued per connection in request
 * order (pipelining across shards preserves each connection's
 * ordering) and flushed with non-blocking writes. Connections beyond
 * the server's maxConnections are answered with one `overloaded`
 * error line and closed; connections idle longer than idleTimeoutMs
 * (with nothing in flight) are evicted. A peer that vanishes
 * (EPIPE/ECONNRESET/EOF) is torn down cleanly — no thread can block
 * on a dead socket. stop() (or destruction) drains: accepting ends,
 * in-flight responses are flushed (bounded by a drain grace period),
 * then every connection closes and the loop joins. It does NOT stop
 * the ServiceServer — stop the listener first, then the server.
 *
 * The listener fronts any LineService: a local ServiceServer
 * (redqaoa_serve) or the supervised worker fleet (redqaoa_lb). When a
 * FaultPlane is attached and armed, each parsed, fault-eligible
 * request consults it and the scheduled faults are injected AT THE
 * TRANSPORT: `overloaded` bounces, response delays, linger-0
 * connection resets, truncated response frames, and process aborts —
 * exactly the failures the retry/failover machinery must survive.
 * With no plane (or a disarmed one) the request path is unchanged.
 */
class TcpServiceListener
{
  public:
    /** Throws std::runtime_error when the socket cannot be bound. */
    TcpServiceListener(LineService &service, int port = 0,
                       FaultPlane *faults = nullptr);
    ~TcpServiceListener();

    TcpServiceListener(const TcpServiceListener &) = delete;
    TcpServiceListener &operator=(const TcpServiceListener &) = delete;

    int port() const { return port_; }

    void stop();

    /** Accepts bounced for the connection cap (observability/tests). */
    std::uint64_t bouncedConnections() const;

  private:
    using Clock = std::chrono::steady_clock;

    /**
     * One in-flight response: the executor fills line and flips ready;
     * the loop flushes each connection's ready prefix, preserving
     * request order per connection.
     */
    struct Slot
    {
        std::atomic<bool> ready{false};
        std::string line;
        std::uint64_t conn = 0;
        bool truncate = false; //!< Fault: emit half the line, reset.
    };

    /**
     * Executor-to-loop handoff that outlives the listener: response
     * callbacks hold it by shared_ptr, so a callback firing after
     * stop() hits a disarmed channel instead of freed memory.
     */
    struct ResponseChannel
    {
        std::mutex mutex;
        std::vector<std::uint64_t> ready; //!< Conn ids with responses.
        int wakeFd = -1; //!< eventfd; -1 once the loop is gone.
    };

    struct Conn
    {
        int fd = -1;
        std::uint64_t id = 0;
        std::string inBuf;
        std::string outBuf;
        std::size_t outPos = 0; //!< Flushed prefix of outBuf.
        std::deque<std::shared_ptr<Slot>> slots; //!< Request order.
        Clock::time_point lastActivity;
        bool discardInput = false; //!< Oversize/drain: stop submitting.
        bool peerClosed = false;   //!< EOF seen; close once drained.
        bool resetPending = false; //!< Fault: linger-0 close once the
                                   //!< flushed prefix is on the wire.
        std::uint32_t registeredEvents = 0; //!< Current epoll interest.
    };

    void loopThread();
    void acceptReady();
    /** Drain readable bytes; false when the connection was torn down. */
    bool handleReadable(Conn &conn);
    /** Flush ready slots + outBuf; false when torn down. */
    bool flushConn(Conn &conn);
    void submitOn(Conn &conn, std::string line);
    void updateEvents(Conn &conn);
    void closeConn(Conn &conn);
    /** closeConn with SO_LINGER 0: the peer sees ECONNRESET. */
    void resetConn(Conn &conn);
    void sweepIdle();
    void beginDrain();

    LineService &server_;
    FaultPlane *faults_ = nullptr;
    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    int port_ = 0;

    std::thread loop_;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> bounced_{0};
    std::shared_ptr<ResponseChannel> channel_;

    // Loop-thread-only state.
    std::unordered_map<std::uint64_t, Conn> conns_;
    std::uint64_t nextConnId_ = 2; //!< 0/1 tag the listen/wake fds.
    bool draining_ = false;
    Clock::time_point drainDeadline_;

    std::mutex stopMutex_; //!< Serializes stop() callers.
    bool stoppedDone_ = false;
};

} // namespace service
} // namespace redqaoa

#endif // REDQAOA_SERVICE_SERVER_HPP
