/**
 * @file
 * The fault-tolerant serving front (redqaoa_lb): a supervised fleet of
 * redqaoa_serve worker processes behind one LineService facade.
 *
 * Two collaborating pieces:
 *
 *  - WorkerSupervisor spawns N workers (fork/exec of the redqaoa_serve
 *    binary with --tcp --port 0 --port-file, so each worker reports
 *    its ephemeral port through the filesystem handshake), then
 *    watches them from a monitor thread: waitpid(WNOHANG) catches
 *    exits and crashes, periodic `health` probes over a short-timeout
 *    connection catch wedges (a worker that cannot answer `health` —
 *    which ServiceServer answers inline, before admission — within
 *    the timeout, several times in a row, is dead weight and gets
 *    SIGKILLed). A down worker is restarted under capped exponential
 *    backoff with a fresh GENERATION number; after maxRestarts
 *    consecutive failed generations the lane is marked permanently
 *    failed. Workers inherit a scrubbed environment — REDQAOA_FAULTS
 *    is removed, so an lb-level fault schedule never leaks into
 *    children; worker-level faults are passed explicitly via
 *    --faults (workerFaults).
 *
 *  - WorkerFleetService implements LineService by proxying request
 *    lines to the fleet: requests are routed by requestRouteHash % N
 *    (the SAME key the workers use for shard placement, so the
 *    same-graph -> same-worker -> same-shard bit-identity contract
 *    holds end to end) onto an AdmissionQueue (admission.hpp — the
 *    same queue ServiceServer runs its shards on) with one bounded
 *    FIFO per lane (a full lane answers the typed `overloaded`
 *    bounce), drained by a pool of forwarder threads per lane, each
 *    owning its worker connection with one request in flight on it.
 *    hello / health / shutdown are answered by the lb itself
 *    (graph-free methods like stats home on lane 0); everything else
 *    is forwarded verbatim and the worker's response line is relayed
 *    untouched (byte-identical to talking to the worker directly).
 *
 * Lane concurrency: a lane runs one forwarder per worker executor,
 * sized once at fleet start from the worker's own `hello` — its
 * `shards`, capped at `queue_capacity + 1` and `max_connections - 1`
 * (a worker that does not answer keeps one forwarder). Concurrent
 * forwards keep response purity because every routed method is a pure
 * function of request content — the same contract replay relies on —
 * so the order in which a lane's forwards reach the worker cannot
 * change any answer. The caps keep the worker from ever bouncing lb
 * traffic: with F forwarders at most F requests are in flight on a
 * worker, so even when all of them land on one shard, one executes
 * and at most `queue_capacity` wait in its admission queue, and one
 * connection slot stays free for the supervisor's health probe. The
 * lane's FIFO (`queueCapacity`) holds the requests waiting for a free
 * forwarder.
 *
 * Failover: when a forward attempt dies mid-flight (connection reset,
 * torn frame, worker exit) or the worker answers `shutting_down`
 * (draining before a restart), the failure is reported to the
 * directory (accelerating wedge detection) and the request is
 * REPLAYED — against the restarted generation when it comes up. This
 * is safe because every routed method is a pure function of request
 * content (the protocol's determinism contract): replaying a request
 * that may or may not have executed cannot change any observable
 * result. A request whose replay budget runs out, or whose lane is
 * permanently failed, is answered with the typed `worker_failed`
 * error — which clients treat as retryable. The chaos gate
 * (scripts/chaos_smoke.sh) pins the end-to-end consequence: under
 * injected worker kills and connection resets, every request is
 * answered exactly once, byte-identical to a fault-free run.
 *
 * The supervisor/fleet split is also the test seam: WorkerDirectory
 * abstracts "where are my workers", so tests/test_service.cpp drives
 * WorkerFleetService against in-process ServiceServer-backed fake
 * workers (killing them by stopping listeners), while redqaoa_lb
 * wires it to the real fork/exec supervisor.
 */

#ifndef REDQAOA_SERVICE_SUPERVISOR_HPP
#define REDQAOA_SERVICE_SUPERVISOR_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "service/server.hpp"
#include "service/socket_util.hpp"

namespace redqaoa {
namespace service {

/** Where one worker lane currently listens. */
struct WorkerEndpoint
{
    int port = 0;
    /** Monotonic per-lane restart counter; a reconnect is required
     *  (and pending failure reports are stale) when it changes. */
    std::uint64_t generation = 0;
};

/** Lane lifecycle, as seen by the fleet's forwarders. */
enum class LaneState
{
    Up,         //!< endpoint() is valid; forward away.
    Restarting, //!< Temporarily down; a new generation is coming.
    Failed,     //!< Permanently failed (restart budget exhausted).
};

/**
 * The fleet's view of its backends. WorkerSupervisor implements it
 * over real child processes; tests implement it over in-process
 * servers.
 */
class WorkerDirectory
{
  public:
    virtual ~WorkerDirectory() = default;

    virtual std::size_t workerCount() const = 0;

    /** Lane @p index's state; fills @p out only when Up. */
    virtual LaneState endpoint(std::size_t index, WorkerEndpoint &out) = 0;

    /**
     * A forwarder observed generation @p generation of lane @p index
     * failing mid-request (reset / torn frame / refused). Stale
     * generations are ignored; a current one makes the supervisor
     * probe (and, when the probe fails, restart) without waiting for
     * the next monitor tick.
     */
    virtual void reportFailure(std::size_t index,
                               std::uint64_t generation) = 0;

    /** Per-lane status array for the lb `health` document. */
    virtual json::Value statusJson() const = 0;

    /**
     * Counter-sum of the fleet's engine traffic documents (the lb
     * `health` "engine" block — includes the store_* warm-start
     * counters). Defaults to zeros for directories that do not
     * collect engine stats; WorkerSupervisor sums what its health
     * probes last observed per lane.
     */
    virtual EngineStats engineStats() const { return {}; }
};

/** Knobs of the fork/exec supervisor. */
struct SupervisorOptions
{
    /** Path to the redqaoa_serve binary (argv[0] of every worker). */
    std::string serveBinary;
    /** Worker process count (>= 1). */
    std::size_t workers = 2;
    /** Extra argv entries appended to every worker command line. */
    std::vector<std::string> workerArgs;
    /** --faults spec handed to every worker ("" = none). */
    std::string workerFaults;
    /**
     * Root of the persistent warm-start store ("" = none). Lane i gets
     * `--store-dir <storeDir>/worker<i>` — one directory per lane, and
     * the supervisor reaps a dead worker before respawning its lane,
     * so the store's single-writer invariant survives restarts.
     */
    std::string storeDir;
    /** Directory for port files ("" = a fresh mkdtemp directory). */
    std::string portFileDir;
    /** How long a spawned worker may take to write its port file. */
    double startTimeoutMs = 15000.0;
    /** Monitor tick: waitpid sweep + health probes. */
    double probeIntervalMs = 200.0;
    /** Per-probe connect/response timeout. */
    double probeTimeoutMs = 1000.0;
    /** Consecutive probe misses before a worker counts as wedged. */
    int probeMisses = 3;
    /** Restart budget per lane; beyond it the lane is Failed. */
    int maxRestarts = 8;
    /** First restart delay; doubles per consecutive failure. */
    double restartBackoffInitialMs = 50.0;
    /** Restart delay ceiling. */
    double restartBackoffMaxMs = 2000.0;
};

class WorkerSupervisor : public WorkerDirectory
{
  public:
    /**
     * Spawn opts.workers workers and wait until every one has
     * published its port (or throw std::runtime_error, reaping
     * whatever started). The monitor thread runs until stop().
     */
    explicit WorkerSupervisor(SupervisorOptions opts);
    ~WorkerSupervisor();

    WorkerSupervisor(const WorkerSupervisor &) = delete;
    WorkerSupervisor &operator=(const WorkerSupervisor &) = delete;

    /** SIGTERM every worker, give them a grace period, SIGKILL the
     *  stragglers, reap, and join the monitor. Idempotent. */
    void stop();

    // --- WorkerDirectory ---------------------------------------------
    std::size_t workerCount() const override;
    LaneState endpoint(std::size_t index, WorkerEndpoint &out) override;
    void reportFailure(std::size_t index,
                       std::uint64_t generation) override;
    json::Value statusJson() const override;
    EngineStats engineStats() const override;

    /** Total restarts across all lanes (observability/tests). */
    std::uint64_t totalRestarts() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Worker
    {
        pid_t pid = -1;
        int port = 0;
        std::uint64_t generation = 0;
        bool up = false;
        bool failed = false; //!< Permanent (restart budget exhausted).
        bool suspect = false; //!< Fleet reported a mid-request failure.
        int restarts = 0;
        int misses = 0; //!< Consecutive failed health probes.
        double backoffMs = 0.0;
        Clock::time_point restartAt{}; //!< Earliest next spawn.
        std::string portFile;
        int lastExitStatus = 0; //!< Raw waitpid status of the last death.
        /** Engine counters from the last successful health probe (the
         *  worker's own aggregate; zeros until the first probe). */
        EngineStats engineStats;
    };

    void monitorLoop();
    /** Fork/exec lane @p index (mutex held by caller, released while
     *  waiting for the port file). True when the worker came up. */
    bool spawnLocked(std::unique_lock<std::mutex> &lock,
                     std::size_t index);
    /** One health round trip to @p port; false on timeout/error. On
     *  success fills @p engine_out from the response's "engine" block
     *  (zeros when an older worker omits it). */
    bool probeHealth(int port, EngineStats &engine_out) const;
    /** Note lane @p index's current process as dead; schedule restart
     *  or mark Failed (mutex held). */
    void markDownLocked(Worker &w, int exit_status);

    SupervisorOptions opts_;
    std::string portDir_;
    bool ownsPortDir_ = false;

    mutable std::mutex mutex_;
    std::condition_variable wake_; //!< Monitor tick / stop / suspect.
    std::vector<Worker> workers_;
    std::uint64_t totalRestarts_ = 0;
    bool stopping_ = false;
    std::thread monitor_;
};

/** Knobs of the fleet proxy. */
struct FleetOptions
{
    /** Transport policy + per-lane queue bound (queueCapacity:
     *  requests waiting for a free forwarder). */
    ServerOptions server;
    /** Forward attempts per request before `worker_failed`. */
    int replayBudget = 4;
    /** How long a replay may wait for a lane to come back up before
     *  answering `worker_failed` (also bounded by the request's own
     *  deadline_ms, when present). */
    double failoverTimeoutMs = 20000.0;
};

class WorkerFleetService : public LineService
{
  public:
    /**
     * @p workers must outlive this service. Asks each lane's worker
     * for its `hello` once, to size that lane's forwarder pool.
     */
    explicit WorkerFleetService(WorkerDirectory &workers,
                                FleetOptions opts = {});
    ~WorkerFleetService();

    WorkerFleetService(const WorkerFleetService &) = delete;
    WorkerFleetService &operator=(const WorkerFleetService &) = delete;

    void submitLine(std::string line, ResponseCallback done) override;
    const ServerOptions &options() const override { return opts_.server; }

    /**
     * Stop admitting (new lines are answered shutting_down), answer
     * every queued request with shutting_down, finish the in-flight
     * forwards, and join every lane's forwarders. Idempotent.
     */
    void stop();

    /** Block until a `shutdown` request was answered or stop() began,
     *  at most @p seconds. */
    bool waitShutdownFor(double seconds);

    /** Include @p plane's injection counters in health (may be null). */
    void attachFaultStats(const FaultPlane *plane) { faults_ = plane; }

    /**
     * The lb `health` document: {"status", "role": "lb",
     * "uptime_seconds", "pid", "workers": [per-lane status],
     * "engine" (fleet-summed EngineStats::toJson, incl. the store_*
     * warm-start counters), "queue_depths", "forwarders", "busy" (each
     * one entry per lane; busy = forwards in flight), "in_flight",
     * "served", "forwarded", "replays", "worker_failures"[, "faults":
     * plane stats]}.
     */
    json::Value healthResult() const;

    /**
     * The lb `metrics` result: same envelope the worker's metrics
     * method returns ({"process", "engine", "families"}) with the
     * engine block fleet-summed and redqaoa_lb_* families for the
     * lb's own counters and lane states.
     */
    json::Value metricsResult() const;

    /** Prometheus text exposition (the lb's --metrics-port payload). */
    std::string metricsText() const;

    /** The lb `slowlog` result (traces as merged at the lb). */
    json::Value slowlogResult() const { return traces_.slowlogJson(); }

  private:
    using Clock = std::chrono::steady_clock;

    /** One admitted request waiting for (or held by) a forwarder. */
    struct Forward
    {
        Admission admission;
        std::string line; //!< Forwarded verbatim (rewritten once when
                          //!< the lb mints a trace id to propagate).
    };

    /** One forwarder's worker connection, owned by that thread. */
    struct Connection
    {
        Connection() = default;
        Connection(const Connection &) = delete;
        Connection &operator=(const Connection &) = delete;
        ~Connection() { close(); }

        void close();

        int fd = -1;
        std::uint64_t generation = 0;
        std::unique_ptr<detail::FdLineReader> reader;
    };

    /** Pool size for lane @p index, read from the worker's hello. */
    std::size_t forwarderCount(std::size_t index);
    /** Forward @p f to lane @p index over @p conn with failover (or,
     *  when @p draining, refuse it); the response line (or a typed lb
     *  error) is handed to the caller's callback. */
    void forwardWithFailover(std::size_t index, Connection &conn,
                             Forward &f, bool draining);
    /** Count @p line's answer, mark @p f answered, invoke its callback. */
    void answer(Forward &f, std::string line);
    /** Ensure @p conn targets lane @p index's current generation;
     *  returns the state seen (Up means conn.fd is valid). */
    LaneState ensureConnected(std::size_t index, Connection &conn,
                              std::uint64_t &generation_out);
    obs::MetricsSnapshot metricsSnapshot() const;
    double uptimeSeconds() const;

    WorkerDirectory &workers_;
    FleetOptions opts_;
    const FaultPlane *faults_ = nullptr;

    mutable std::mutex mutex_; //!< Guards the counters below.
    std::uint64_t received_ = 0;
    std::uint64_t served_ = 0;
    std::uint64_t forwarded_ = 0;
    std::uint64_t replays_ = 0;
    std::uint64_t workerFailures_ = 0; //!< worker_failed answers.
    const Clock::time_point startTime_ = Clock::now();
    obs::TraceRing traces_; //!< Merged traces + slowlog (own lock).
    /** One FIFO per lane, forwarderCount() forwarders each; last, so
     *  it is joined before anything the forwarders use is destroyed. */
    AdmissionQueue<Forward> queue_;
};

} // namespace service
} // namespace redqaoa

#endif // REDQAOA_SERVICE_SUPERVISOR_HPP
