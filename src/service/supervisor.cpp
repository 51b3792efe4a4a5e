#include "service/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/log.hpp"

extern char **environ;

namespace redqaoa {
namespace service {

namespace {

double
millisSince(std::chrono::steady_clock::time_point then,
            std::chrono::steady_clock::time_point now)
{
    return std::chrono::duration<double, std::milli>(now - then).count();
}

/**
 * One request line to a worker on a fresh loopback connection, with
 * @p timeout_ms bounding the connect and the reply. False on any
 * transport failure or an unparseable reply.
 */
bool
callWorker(int port, int timeout_ms, const std::string &line,
           Response &out)
{
    int fd = detail::connectLoopback(port, timeout_ms);
    if (fd < 0)
        return false;
    timeval tv;
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    bool ok = false;
    if (detail::writeLine(fd, line)) {
        detail::FdLineReader reader(fd);
        std::string reply;
        if (reader.readLine(reply)) {
            try {
                out = parseResponse(reply);
                ok = true;
            } catch (...) {
            }
        }
    }
    ::close(fd);
    return ok;
}

/** Human-readable waitpid status ("exit 70", "signal 9"). */
std::string
describeExit(int status)
{
    if (WIFEXITED(status))
        return "exit " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return "status " + std::to_string(status);
}

} // namespace

// ---------------------------------------------------------------------
// WorkerSupervisor
// ---------------------------------------------------------------------

WorkerSupervisor::WorkerSupervisor(SupervisorOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.workers < 1)
        throw std::invalid_argument(
            "WorkerSupervisor: workers must be >= 1");
    if (opts_.serveBinary.empty())
        throw std::invalid_argument(
            "WorkerSupervisor: serveBinary is required");
    detail::ignoreSigpipe();

    if (opts_.portFileDir.empty()) {
        char tmpl[] = "/tmp/redqaoa_lb.XXXXXX";
        if (::mkdtemp(tmpl) == nullptr)
            throw std::runtime_error(
                "WorkerSupervisor: mkdtemp failed");
        portDir_ = tmpl;
        ownsPortDir_ = true;
    } else {
        portDir_ = opts_.portFileDir;
    }

    workers_.resize(opts_.workers);
    for (std::size_t i = 0; i < workers_.size(); ++i)
        workers_[i].portFile =
            portDir_ + "/worker" + std::to_string(i) + ".port";

    std::unique_lock<std::mutex> lock(mutex_);
    bool all_up = true;
    for (std::size_t i = 0; i < workers_.size(); ++i)
        if (!spawnLocked(lock, i)) {
            all_up = false;
            break;
        }
    lock.unlock();
    if (!all_up) {
        stop();
        throw std::runtime_error(
            "WorkerSupervisor: a worker failed to start (binary: " +
            opts_.serveBinary + ")");
    }
    monitor_ = std::thread([this] { monitorLoop(); });
}

WorkerSupervisor::~WorkerSupervisor()
{
    stop();
}

bool
WorkerSupervisor::spawnLocked(std::unique_lock<std::mutex> &lock,
                              std::size_t index)
{
    Worker &w = workers_[index];
    ::unlink(w.portFile.c_str());

    // argv: serveBinary --tcp --port 0 --port-file F [workerArgs...]
    //       [--faults SPEC]
    std::vector<std::string> args;
    args.push_back(opts_.serveBinary);
    args.push_back("--tcp");
    args.push_back("--port");
    args.push_back("0");
    args.push_back("--port-file");
    args.push_back(w.portFile);
    if (!opts_.storeDir.empty()) {
        // Per-lane store directory: the single-writer invariant holds
        // because a dead worker is reaped before its lane respawns.
        args.push_back("--store-dir");
        args.push_back(opts_.storeDir + "/worker" +
                       std::to_string(index));
    }
    for (const std::string &extra : opts_.workerArgs)
        args.push_back(extra);
    if (!opts_.workerFaults.empty()) {
        args.push_back("--faults");
        args.push_back(opts_.workerFaults);
    }
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    // Scrubbed environment: the lb's own fault schedule must not leak
    // into children (worker faults arrive explicitly via --faults).
    std::vector<std::string> env;
    for (char **e = environ; e != nullptr && *e != nullptr; ++e)
        if (std::strncmp(*e, "REDQAOA_FAULTS=", 15) != 0)
            env.emplace_back(*e);
    std::vector<char *> envp;
    envp.reserve(env.size() + 1);
    for (std::string &e : env)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0)
        return false;
    if (pid == 0) {
        // Child: only async-signal-safe calls between fork and exec.
        ::execve(argv[0], argv.data(), envp.data());
        std::_Exit(127); // exec failed; the parent sees exit 127.
    }

    w.pid = pid;
    w.up = false;
    w.misses = 0;
    w.suspect = false;
    ++w.generation;

    // Await the port-file handshake without holding the lock (other
    // lanes keep serving while this one boots).
    const std::string port_file = w.portFile;
    const double timeout_ms = opts_.startTimeoutMs;
    lock.unlock();
    int port = 0;
    const Clock::time_point started = Clock::now();
    for (;;) {
        {
            std::ifstream in(port_file);
            if (in.good() && (in >> port) && port > 0)
                break;
        }
        port = 0;
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            obs::logError("redqaoa_lb", "worker died during startup")
                .field("worker", index)
                .field("exit", describeExit(status));
            lock.lock();
            w.pid = -1;
            return false;
        }
        if (millisSince(started, Clock::now()) > timeout_ms) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
            lock.lock();
            w.pid = -1;
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    lock.lock();
    w.port = port;
    w.up = true;
    w.backoffMs = 0.0;
    obs::logInfo("redqaoa_lb", "worker up")
        .field("worker", index)
        .field("pid", static_cast<int>(pid))
        .field("port", port)
        .field("generation",
               static_cast<unsigned long long>(w.generation));
    return true;
}

bool
WorkerSupervisor::probeHealth(int port, EngineStats &engine_out) const
{
    const int timeout_ms =
        std::max(1, static_cast<int>(opts_.probeTimeoutMs));
    Response resp;
    if (!callWorker(port, timeout_ms, R"({"id": 0, "method": "health"})",
                    resp) ||
        !resp.ok)
        return false;
    // Liveness probes double as stat collection: the worker's engine
    // counters ride on its health document (missing on older workers
    // -> zeros).
    try {
        const json::Value *engine = resp.result.find("engine");
        engine_out = engine ? engineStatsFromJson(*engine) : EngineStats{};
    } catch (...) {
        return false;
    }
    return true;
}

void
WorkerSupervisor::markDownLocked(Worker &w, int exit_status)
{
    w.up = false;
    w.pid = -1;
    w.misses = 0;
    w.suspect = false;
    w.lastExitStatus = exit_status;
    ++w.restarts;
    ++totalRestarts_;
    if (w.restarts > opts_.maxRestarts) {
        w.failed = true;
        obs::logError("redqaoa_lb", "worker lane permanently failed")
            .field("restarts", w.restarts - 1);
        return;
    }
    w.backoffMs = w.backoffMs <= 0.0
                      ? opts_.restartBackoffInitialMs
                      : std::min(w.backoffMs * 2.0,
                                 opts_.restartBackoffMaxMs);
    w.restartAt = Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          w.backoffMs));
}

void
WorkerSupervisor::monitorLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        wake_.wait_for(lock,
                       std::chrono::duration<double, std::milli>(
                           opts_.probeIntervalMs),
                       [&] {
                           if (stopping_)
                               return true;
                           for (const Worker &w : workers_)
                               if (w.suspect)
                                   return true;
                           return false;
                       });
        if (stopping_)
            return;

        for (std::size_t i = 0; i < workers_.size(); ++i) {
            Worker &w = workers_[i];
            if (w.failed)
                continue;

            if (w.up) {
                // Exit/crash detection first: waitpid is cheap and
                // authoritative.
                int status = 0;
                pid_t r = ::waitpid(w.pid, &status, WNOHANG);
                if (r == w.pid) {
                    obs::logWarn("redqaoa_lb", "worker died; restarting")
                        .field("worker", i)
                        .field("exit", describeExit(status));
                    markDownLocked(w, status);
                    continue;
                }

                // Wedge detection: probe without the lock (a probe
                // can take probeTimeoutMs).
                const bool was_suspect = w.suspect;
                w.suspect = false;
                const int port = w.port;
                const std::uint64_t generation = w.generation;
                lock.unlock();
                EngineStats probedStats;
                const bool healthy = probeHealth(port, probedStats);
                lock.lock();
                if (w.generation != generation || !w.up)
                    continue; // Lane changed underneath the probe.
                if (healthy) {
                    w.misses = 0;
                    w.engineStats = probedStats;
                    continue;
                }
                ++w.misses;
                if (w.misses < opts_.probeMisses && !was_suspect)
                    continue;
                // Wedged (or a fleet-reported failure confirmed by a
                // failing probe): kill and reap, then restart.
                obs::logWarn("redqaoa_lb", "worker unresponsive; killing")
                    .field("worker", i)
                    .field("missed_probes", w.misses);
                ::kill(w.pid, SIGKILL);
                int kill_status = 0;
                ::waitpid(w.pid, &kill_status, 0);
                markDownLocked(w, kill_status);
                continue;
            }

            // Down: restart once the backoff lapses.
            if (Clock::now() < w.restartAt)
                continue;
            if (!spawnLocked(lock, i)) {
                markDownLocked(w, 0);
                continue;
            }
        }
    }
}

void
WorkerSupervisor::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    if (monitor_.joinable())
        monitor_.join();

    std::lock_guard<std::mutex> lock(mutex_);
    // Polite first: SIGTERM, a short grace, then SIGKILL stragglers.
    for (Worker &w : workers_)
        if (w.pid > 0)
            ::kill(w.pid, SIGTERM);
    const Clock::time_point grace_end =
        Clock::now() + std::chrono::milliseconds(2000);
    for (Worker &w : workers_) {
        if (w.pid <= 0)
            continue;
        for (;;) {
            int status = 0;
            pid_t r = ::waitpid(w.pid, &status, WNOHANG);
            if (r == w.pid)
                break;
            if (Clock::now() >= grace_end) {
                ::kill(w.pid, SIGKILL);
                ::waitpid(w.pid, nullptr, 0);
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        w.pid = -1;
        w.up = false;
    }
    if (ownsPortDir_) {
        for (const Worker &w : workers_)
            ::unlink(w.portFile.c_str());
        ::rmdir(portDir_.c_str());
        ownsPortDir_ = false;
    }
}

std::size_t
WorkerSupervisor::workerCount() const
{
    return workers_.size(); // Immutable after construction.
}

LaneState
WorkerSupervisor::endpoint(std::size_t index, WorkerEndpoint &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Worker &w = workers_.at(index);
    if (w.failed)
        return LaneState::Failed;
    if (!w.up)
        return LaneState::Restarting;
    out.port = w.port;
    out.generation = w.generation;
    return LaneState::Up;
}

void
WorkerSupervisor::reportFailure(std::size_t index,
                                std::uint64_t generation)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Worker &w = workers_.at(index);
        if (!w.up || w.generation != generation)
            return; // Stale report: that generation is already gone.
        w.suspect = true;
    }
    wake_.notify_all();
}

json::Value
WorkerSupervisor::statusJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    json::Value out = json::Value::array();
    for (const Worker &w : workers_) {
        json::Value doc = json::Value::object();
        doc["state"] = w.failed ? "failed"
                       : w.up   ? "up"
                                : "restarting";
        doc["pid"] = w.pid > 0 ? static_cast<double>(w.pid) : -1.0;
        doc["port"] = w.up ? w.port : 0;
        doc["generation"] = static_cast<std::size_t>(w.generation);
        doc["restarts"] = w.restarts;
        out.push(std::move(doc));
    }
    return out;
}

EngineStats
WorkerSupervisor::engineStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    EngineStats total;
    for (const Worker &w : workers_)
        total += w.engineStats;
    return total;
}

std::uint64_t
WorkerSupervisor::totalRestarts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totalRestarts_;
}

// ---------------------------------------------------------------------
// WorkerFleetService
// ---------------------------------------------------------------------

void
WorkerFleetService::Connection::close()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
    reader.reset();
}

WorkerFleetService::WorkerFleetService(WorkerDirectory &workers,
                                       FleetOptions opts)
    : workers_(workers), opts_(opts),
      queue_(workers.workerCount(), opts.server.queueCapacity,
             "lb queue of worker lane", "load balancer is shutting down")
{
    if (workers_.workerCount() < 1)
        throw std::invalid_argument(
            "WorkerFleetService: directory has no workers");
    if (opts_.server.queueCapacity < 1)
        throw std::invalid_argument(
            "WorkerFleetService: queueCapacity must be >= 1");
    if (opts_.replayBudget < 1)
        throw std::invalid_argument(
            "WorkerFleetService: replayBudget must be >= 1");
    std::vector<std::size_t> forwarders;
    for (std::size_t i = 0; i < workers_.workerCount(); ++i)
        forwarders.push_back(forwarderCount(i));
    queue_.start(forwarders, [this](std::size_t lane) {
        return [this, lane, conn = Connection()](Forward &f,
                                                 bool draining) mutable {
            forwardWithFailover(lane, conn, f, draining);
        };
    });
}

std::size_t
WorkerFleetService::forwarderCount(std::size_t index)
{
    // One forwarder per worker executor, capped so the lb alone can
    // never make the worker bounce its traffic: F in-flight forwards
    // that all hash to one shard leave one executing and F - 1 in a
    // queue of queue_capacity, and one connection slot stays free for
    // the supervisor's health probe. No answer keeps one forwarder.
    WorkerEndpoint ep;
    Response resp;
    if (workers_.endpoint(index, ep) != LaneState::Up ||
        !callWorker(ep.port, 2000, R"({"id": 0, "method": "hello"})",
                    resp) ||
        !resp.ok)
        return 1;
    auto field = [&](const char *key) {
        const json::Value *v = resp.result.find(key);
        return v != nullptr && v->isNumber() && v->asNumber() >= 1.0
                   ? static_cast<std::size_t>(v->asNumber())
                   : std::size_t{1};
    };
    const std::size_t count =
        std::min({field("shards"), field("queue_capacity") + 1,
                  field("max_connections") - 1});
    return std::max<std::size_t>(count, 1);
}

WorkerFleetService::~WorkerFleetService()
{
    stop();
}

double
WorkerFleetService::uptimeSeconds() const
{
    return std::chrono::duration<double>(Clock::now() - startTime_).count();
}

json::Value
WorkerFleetService::healthResult() const
{
    const AdmissionCounts counts = queue_.counts();
    json::Value doc = json::Value::object();
    doc["status"] = counts.closed ? "stopping" : "ok";
    doc["role"] = "lb";
    // Same builder as the metrics result, so the key sets cannot
    // drift (see ServiceServer::healthResult).
    json::Value process = obs::processInfoJson(uptimeSeconds(), ::getpid());
    for (const auto &[key, value] : process.asObject())
        doc[key] = value;
    doc["workers"] = workers_.statusJson();
    // Fleet-summed engine counters (same single-shape document the
    // workers emit), so the lb surfaces the warm-start store traffic.
    doc["engine"] = workers_.engineStats().toJson();
    auto perLane = [](const std::vector<std::size_t> &values) {
        json::Value out = json::Value::array();
        for (std::size_t v : values)
            out.push(json::Value(v));
        return out;
    };
    doc["queue_depths"] = perLane(counts.depths);
    doc["forwarders"] = perLane(counts.consumers);
    doc["busy"] = perLane(counts.busy);
    doc["in_flight"] = static_cast<std::size_t>(counts.inFlight);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        doc["served"] = static_cast<std::size_t>(served_);
        doc["forwarded"] = static_cast<std::size_t>(forwarded_);
        doc["replays"] = static_cast<std::size_t>(replays_);
        doc["worker_failures"] = static_cast<std::size_t>(workerFailures_);
    }
    if (faults_ != nullptr)
        doc["faults"] = faults_->statsJson();
    return doc;
}

obs::MetricsSnapshot
WorkerFleetService::metricsSnapshot() const
{
    obs::MetricsSnapshot snapshot;
    const AdmissionCounts counts = queue_.counts();
    std::uint64_t received = 0;
    std::uint64_t served = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t replays = 0;
    std::uint64_t worker_failures = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        received = received_;
        served = served_;
        forwarded = forwarded_;
        replays = replays_;
        worker_failures = workerFailures_;
    }
    obs::addProcessMetrics(snapshot, uptimeSeconds(), ::getpid());

    auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
    snapshot.counter("redqaoa_lb_requests_received_total",
                     "Request lines handed to lb admission.",
                     u64(received));
    snapshot.counter("redqaoa_lb_responses_total",
                     "Responses the lb produced (answered or relayed).",
                     u64(served));
    snapshot.counter("redqaoa_lb_forwards_total",
                     "Request lines written to worker connections.",
                     u64(forwarded));
    snapshot.counter("redqaoa_lb_replays_total",
                     "Forwards repeated after a mid-request worker loss.",
                     u64(replays));
    snapshot.counter(
        "redqaoa_lb_worker_failures_total",
        "Requests answered with worker_failed after exhausting replays.",
        u64(worker_failures));
    snapshot.gauge("redqaoa_in_flight",
                   "Admitted requests not yet answered.",
                   u64(counts.inFlight));
    for (std::size_t i = 0; i < counts.depths.size(); ++i) {
        const std::string lane = std::to_string(i);
        snapshot.gauge("redqaoa_queue_depth",
                       "Forward queue depth per worker lane.",
                       static_cast<double>(counts.depths[i]),
                       {{"lane", lane}});
        snapshot.gauge("redqaoa_lb_lane_forwarders",
                       "Forwarder threads per worker lane (one worker "
                       "connection each).",
                       static_cast<double>(counts.consumers[i]),
                       {{"lane", lane}});
        snapshot.gauge("redqaoa_lb_lane_busy",
                       "Forwards in flight per worker lane.",
                       static_cast<double>(counts.busy[i]),
                       {{"lane", lane}});
    }
    const json::Value workers = workers_.statusJson();
    double restarts = 0.0;
    for (std::size_t i = 0; i < workers.asArray().size(); ++i) {
        const json::Value &w = workers.asArray()[i];
        const json::Value *state = w.find("state");
        const bool up = state != nullptr && state->isString() &&
                        state->asString() == "up";
        snapshot.gauge("redqaoa_lb_worker_up",
                       "1 when the worker lane is up, 0 otherwise.",
                       up ? 1.0 : 0.0, {{"lane", std::to_string(i)}});
        if (const json::Value *r = w.find("restarts");
            r != nullptr && r->isNumber())
            restarts += r->asNumber();
    }
    snapshot.counter("redqaoa_lb_worker_restarts_total",
                     "Worker processes restarted by the supervisor.",
                     restarts);

    // Fleet-summed engine counters: the same families each worker
    // exposes itself, aggregated from the health probes.
    obs::addEngineStatsMetrics(snapshot, workers_.engineStats());
    obs::addProfilerMetrics(snapshot);
    return snapshot;
}

json::Value
WorkerFleetService::metricsResult() const
{
    json::Value doc = json::Value::object();
    doc["process"] = obs::processInfoJson(uptimeSeconds(), ::getpid());
    doc["engine"] = workers_.engineStats().toJson();
    json::Value families = metricsSnapshot().toJson();
    doc["families"] = std::move(families["families"]);
    return doc;
}

std::string
WorkerFleetService::metricsText() const
{
    return metricsSnapshot().prometheusText();
}

void
WorkerFleetService::submitLine(std::string line, ResponseCallback done)
{
    Request req;
    try {
        req = parseRequest(line);
    } catch (const ServiceError &e) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++received_;
            ++served_;
        }
        done(makeErrorLine(salvageRequestId(line), e.code(), e.what()));
        return;
    }

    const RouteInfo route{0, 0.0};
    // The lb answers the control plane itself: hello/health/metrics/
    // slowlog describe the lb, shutdown stops the lb (its workers are
    // its own business), and only data-plane methods cross the fleet.
    if (req.method == "health" || req.method == "hello" ||
        req.method == "metrics" || req.method == "slowlog" ||
        req.method == "shutdown") {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++received_;
            ++served_;
        }
        json::Value result;
        if (req.method == "shutdown") {
            queue_.close();
            result = json::Value::object();
            result["stopping"] = true;
        } else {
            result = req.method == "health" ? healthResult()
                     : req.method == "hello"
                         ? helloDocument("redqaoa_lb", "workers",
                                         workers_.workerCount(),
                                         opts_.server)
                     : req.method == "metrics" ? metricsResult()
                                               : slowlogResult();
        }
        done(makeResultLine(req.id, std::move(result), req.schemaVersion,
                            &route));
        return;
    }

    std::uint64_t hash = 0;
    const std::size_t lane =
        requestRouteHash(req, hash)
            ? static_cast<std::size_t>(hash % workers_.workerCount())
            : 0; // Graph-free methods (stats, ...) home on lane 0.
    Forward f{Admission(req, std::move(done)), std::move(line)};
    if (req.trace && req.traceId.empty()) {
        // The client sent `trace: true` without an id: rewrite the
        // forwarded line with the id the lb minted, so the worker
        // joins the SAME trace instead of minting its own.
        json::Value doc = json::Value::parse(f.line);
        doc["trace"] = f.admission.trace->id();
        f.line = doc.dump();
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++received_;
    }
    const AdmitVerdict verdict = queue_.push(lane, std::move(f));
    if (verdict == AdmitVerdict::Queued)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++served_;
    }
    f.admission.done(
        f.admission.error(queue_.refusal(verdict, lane), route));
}

LaneState
WorkerFleetService::ensureConnected(std::size_t index, Connection &conn,
                                    std::uint64_t &generation_out)
{
    WorkerEndpoint ep;
    const LaneState state = workers_.endpoint(index, ep);
    if (state != LaneState::Up) {
        conn.close();
        return state;
    }
    generation_out = ep.generation;
    if (conn.fd >= 0 && conn.generation == ep.generation)
        return LaneState::Up;
    conn.close();
    int fd = detail::connectLoopback(ep.port, 2000);
    if (fd < 0) {
        // The endpoint claims Up but refuses: that generation is on
        // its way out; report and let the caller back off.
        workers_.reportFailure(index, ep.generation);
        return LaneState::Restarting;
    }
    conn.fd = fd;
    conn.generation = ep.generation;
    conn.reader = std::make_unique<detail::FdLineReader>(fd);
    return LaneState::Up;
}

void
WorkerFleetService::answer(Forward &f, std::string line)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++served_;
    }
    queue_.markAnswered();
    f.admission.done(std::move(line));
}

void
WorkerFleetService::forwardWithFailover(std::size_t index,
                                        Connection &conn, Forward &f,
                                        bool draining)
{
    const RouteInfo route{0, 0.0};
    const Admission &admission = f.admission;
    auto fail = [&](ServiceError e) { answer(f, admission.error(e, route)); };
    if (draining) {
        fail(queue_.refusal(AdmitVerdict::Closed, index));
        return;
    }
    if (admission.trace)
        // Time from lb admission to a forwarder picking the request
        // off its lane's FIFO.
        admission.trace->addSpan(
            {"lb.queue", "", 0, admission.trace->sinceStartUs(), 1});

    const Clock::time_point failover_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               opts_.failoverTimeoutMs));
    int attempts = 0;
    for (;;) {
        if (admission.expired()) {
            fail(ServiceError(ServiceErrorCode::DeadlineExceeded,
                              "deadline expired before a worker answered"));
            return;
        }
        if (attempts >= opts_.replayBudget ||
            Clock::now() > failover_deadline) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++workerFailures_;
            }
            fail(ServiceError(
                ServiceErrorCode::WorkerFailed,
                "worker lane " + std::to_string(index) +
                    " failed mid-request and the replay budget (" +
                    std::to_string(opts_.replayBudget) +
                    " attempts) is exhausted; safe to retry"));
            return;
        }

        std::uint64_t generation = 0;
        const LaneState state = ensureConnected(index, conn, generation);
        if (state == LaneState::Failed) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++workerFailures_;
            }
            fail(ServiceError(ServiceErrorCode::WorkerFailed,
                              "worker lane " + std::to_string(index) +
                                  " is permanently failed; safe to retry "
                                  "elsewhere"));
            return;
        }
        if (state == LaneState::Restarting) {
            // Wait out the restart (bounded by the failover deadline
            // checked above); stop() interrupts by closing the queue.
            if (queue_.closed()) {
                fail(queue_.refusal(AdmitVerdict::Closed, index));
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            continue;
        }

        ++attempts;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++forwarded_;
            if (attempts > 1)
                ++replays_;
        }
        const std::int64_t forward_start =
            admission.trace ? admission.trace->sinceStartUs() : 0;
        std::string response;
        const bool sent = detail::writeLine(conn.fd, f.line);
        const bool got =
            sent && conn.reader && conn.reader->readLine(response);
        if (!got) {
            // Reset / torn frame / worker death mid-exchange: report,
            // drop the connection, replay against the next
            // generation. Safe because routed methods are pure.
            workers_.reportFailure(index, generation);
            conn.close();
            continue;
        }

        // A worker draining before restart answers shutting_down;
        // that is fleet-internal — replay, never a client answer.
        try {
            Response parsed = parseResponse(response);
            if (!parsed.ok &&
                parsed.errorCode == ServiceErrorCode::ShuttingDown) {
                workers_.reportFailure(index, generation);
                conn.close();
                continue;
            }
        } catch (...) {
            // Unparseable response line: treat as a torn frame.
            workers_.reportFailure(index, generation);
            conn.close();
            continue;
        }
        if (admission.trace) {
            // The successful forward becomes the lb.forward span, the
            // worker's echoed trace is folded in under it (offsets
            // shifted onto the lb clock), and the response's trace
            // member is replaced with the merged document. Untraced
            // responses never reach this branch and are relayed
            // verbatim, preserving the bit-identity contract.
            obs::TraceRecorder &trace = *admission.trace;
            trace.addSpan({"lb.forward", "", forward_start,
                           trace.sinceStartUs() - forward_start, 1});
            try {
                json::Value doc = json::Value::parse(response);
                if (const json::Value *worker_trace = doc.find("trace"))
                    obs::mergeWorkerTrace(trace, *worker_trace,
                                          forward_start);
                trace.finish();
                traces_.add(trace);
                doc["trace"] = trace.toJson();
                response = doc.dump();
            } catch (...) {
                // Tracing is best-effort: a response we cannot
                // re-render still reaches the client untouched.
            }
        }
        answer(f, std::move(response));
        return;
    }
}

bool
WorkerFleetService::waitShutdownFor(double seconds)
{
    return queue_.waitClosedFor(seconds);
}

void
WorkerFleetService::stop()
{
    queue_.stop();
}

} // namespace service
} // namespace redqaoa
