#include "service/server.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/profiler.hpp"
#include "service/socket_util.hpp"

namespace redqaoa {
namespace service {

// ---------------------------------------------------------------------
// ServerStats
// ---------------------------------------------------------------------

json::Value
ServerStats::toJson() const
{
    auto u64 = [](std::uint64_t v) {
        return json::Value(static_cast<std::size_t>(v));
    };
    json::Value doc = json::Value::object();
    doc["received"] = u64(received);
    doc["admitted"] = u64(admitted);
    doc["dequeued"] = u64(dequeued);
    doc["served"] = u64(served);
    doc["ok"] = u64(okCount);
    doc["errors"] = u64(errorCount);
    doc["rejected_parse"] = u64(rejectedParse);
    doc["rejected_overload"] = u64(rejectedOverload);
    doc["expired_deadline"] = u64(expiredDeadline);
    doc["shed_shutdown"] = u64(shedShutdown);
    json::Value methods = json::Value::object();
    for (const auto &[name, count] : methodCounts)
        methods[name] = u64(count);
    doc["methods"] = std::move(methods);
    doc["latency"] = obs::latencySummaryJson(latency);
    return doc;
}

// ---------------------------------------------------------------------
// hello
// ---------------------------------------------------------------------

json::Value
helloDocument(const char *server, const char *topology_key,
              std::size_t topology, const ServerOptions &opts)
{
    json::Value doc = json::Value::object();
    doc["server"] = server;
    json::Value versions = json::Value::array();
    versions.push(json::Value(kSchemaVersion));
    versions.push(json::Value(kSchemaVersionV2));
    doc["schema_versions"] = std::move(versions);
    doc[topology_key] = topology;
    doc["queue_capacity"] = opts.queueCapacity;
    doc["max_connections"] = opts.maxConnections;
    doc["idle_timeout_ms"] = opts.idleTimeoutMs;
    doc["max_line_bytes"] = kMaxLineBytes;
    std::vector<std::string> methods = ServiceRouter::methodNames();
    for (const char *own : {"hello", "health", "metrics", "slowlog",
                            "shutdown"})
        methods.push_back(own);
    std::sort(methods.begin(), methods.end());
    json::Value names = json::Value::array();
    for (const std::string &name : methods)
        names.push(json::Value(name));
    doc["methods"] = std::move(names);
    return doc;
}

// ---------------------------------------------------------------------
// ServiceServer
// ---------------------------------------------------------------------

ServiceServer::ServiceServer(ServerOptions opts,
                             std::shared_ptr<EngineShardSet> engines)
    : opts_(opts),
      engines_(engines ? std::move(engines)
                       : std::make_shared<EngineShardSet>(
                             opts.shards, opts.storeDir)),
      queue_(static_cast<std::size_t>(engines_->shardCount()),
             opts.queueCapacity, "admission queue of shard",
             "server is shutting down")
{
    if (opts_.queueCapacity < 1)
        throw std::invalid_argument(
            "ServiceServer: queueCapacity must be >= 1");
    opts_.shards = engines_->shardCount();
    routers_.reserve(static_cast<std::size_t>(opts_.shards));
    for (int i = 0; i < opts_.shards; ++i)
        routers_.emplace_back(engines_->shard(static_cast<std::size_t>(i)));
    queue_.start(std::vector<std::size_t>(routers_.size(), 1),
                 [this](std::size_t) {
                     return [this](Job &job, bool draining) {
                         execute(job, draining);
                     };
                 });
}

ServiceServer::~ServiceServer()
{
    stop();
}

int
ServiceServer::routeShard(const Request &req) const
{
    if (engines_->shardCount() == 1)
        return 0;
    // requestRouteHash is THE routing key, shared with the lb front:
    // graph-free methods (stats, hello, ...) home on shard 0.
    std::uint64_t hash = 0;
    if (!requestRouteHash(req, hash))
        return 0;
    return static_cast<int>(engines_->shardForHash(hash));
}

void
ServiceServer::submitLine(std::string line, ResponseCallback done)
{
    Request req;
    try {
        req = parseRequest(line);
    } catch (const ServiceError &e) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.received;
            ++stats_.rejectedParse;
            ++stats_.served;
            ++stats_.errorCount;
        }
        // Envelope rejections still echo a determinable id, so
        // pipelined clients can correlate the error.
        done(makeErrorLine(salvageRequestId(line), e.code(), e.what()));
        return;
    }

    if (req.method == "health" || req.method == "metrics" ||
        req.method == "slowlog") {
        // Answered inline, before admission: `health` is a liveness
        // probe of the process and transport, and must keep working
        // when every shard queue is full or the server is draining.
        // `metrics` and `slowlog` follow the same rule — the moments
        // the queues are full are exactly when an operator needs
        // them.
        const RouteInfo route{0, 0.0};
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.received;
            ++stats_.served;
            ++stats_.okCount;
            ++stats_.methodCounts[req.method];
        }
        json::Value result = req.method == "health" ? healthResult()
                             : req.method == "metrics"
                                 ? metricsResult()
                                 : slowlogResult();
        done(makeResultLine(req.id, std::move(result), req.schemaVersion,
                            &route));
        return;
    }

    const int shard = routeShard(req);
    // Braced members initialize in order: the admission reads req
    // before the request member takes it.
    Job job{Admission(req, std::move(done)), std::move(req), shard};
    if (job.admission.trace)
        // Root span: parse + route + admission work.
        job.admission.trace->addSpan({"worker.admission", "", 0,
                                      job.admission.trace->sinceStartUs(),
                                      1});
    {
        // Counted before the push: once queued, an executor may run
        // the job (a `stats` request reports itself as received).
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.received;
    }
    const AdmitVerdict verdict =
        queue_.push(static_cast<std::size_t>(shard), std::move(job));
    if (verdict == AdmitVerdict::Queued)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++(verdict == AdmitVerdict::Full ? stats_.rejectedOverload
                                         : stats_.shedShutdown);
        ++stats_.served;
        ++stats_.errorCount;
    }
    job.admission.done(job.admission.error(
        queue_.refusal(verdict, static_cast<std::size_t>(shard)),
        RouteInfo{shard, 0.0}));
}

std::future<std::string>
ServiceServer::submitLine(std::string line)
{
    auto promise = std::make_shared<std::promise<std::string>>();
    std::future<std::string> future = promise->get_future();
    submitLine(std::move(line), [promise](std::string response) {
        promise->set_value(std::move(response));
    });
    return future;
}

std::string
ServiceServer::handleLine(std::string line)
{
    return submitLine(std::move(line)).get();
}

bool
ServiceServer::shutdownRequested() const
{
    return queue_.closed();
}

bool
ServiceServer::waitShutdownFor(double seconds)
{
    return queue_.waitClosedFor(seconds);
}

void
ServiceServer::stop()
{
    queue_.stop();
}

ServerStats
ServiceServer::stats() const
{
    // Queue counts first: every request they include was already
    // counted as received.
    const AdmissionCounts counts = queue_.counts();
    std::lock_guard<std::mutex> lock(mutex_);
    ServerStats out = stats_;
    out.admitted = counts.admitted;
    out.dequeued = counts.dequeued;
    return out;
}

double
ServiceServer::uptimeSeconds() const
{
    return std::chrono::duration<double>(Clock::now() - startTime_).count();
}

json::Value
ServiceServer::healthResult() const
{
    const AdmissionCounts counts = queue_.counts();
    json::Value doc = json::Value::object();
    doc["status"] = counts.closed ? "stopping" : "ok";
    // Process identity comes from the SAME builder the metrics result
    // uses (obs::processInfoJson), so the two key sets cannot drift.
    json::Value process = obs::processInfoJson(uptimeSeconds(), ::getpid());
    for (const auto &[key, value] : process.asObject())
        doc[key] = value;
    doc["shards"] = engines_->shardCount();
    json::Value depths = json::Value::array();
    for (std::size_t depth : counts.depths)
        depths.push(json::Value(depth));
    doc["queue_depths"] = std::move(depths);
    doc["in_flight"] = static_cast<std::size_t>(counts.inFlight);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        doc["served"] = static_cast<std::size_t>(stats_.served);
    }
    // The engine traffic document rides on health so the supervisor's
    // liveness probes double as stat collection (aggregateStats takes
    // per-engine locks only; engines never call back into the server).
    doc["engine"] = engines_->aggregateStats().toJson();
    return doc;
}

json::Value
ServiceServer::statsResult(int schema_version) const
{
    json::Value doc = json::Value::object();
    doc["engine"] = engines_->aggregateStats().toJson();
    if (schema_version >= kSchemaVersionV2) {
        // Per-shard blocks share the aggregate's exact key-set
        // (EngineStats::toJson is THE engine traffic document).
        json::Value shards = json::Value::array();
        for (const EngineStats &stats : engines_->shardStats())
            shards.push(stats.toJson());
        doc["shards"] = std::move(shards);
    }
    doc["server"] = stats().toJson();
    return doc;
}

obs::MetricsSnapshot
ServiceServer::metricsSnapshot() const
{
    obs::MetricsSnapshot snapshot;
    const AdmissionCounts counts = queue_.counts();
    const ServerStats server = stats();
    obs::addProcessMetrics(snapshot, uptimeSeconds(), ::getpid());

    auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
    snapshot.counter("redqaoa_requests_received_total",
                     "Request lines handed to admission.",
                     u64(server.received));
    snapshot.counter("redqaoa_requests_admitted_total",
                     "Requests that entered a shard queue.",
                     u64(server.admitted));
    snapshot.counter("redqaoa_responses_total",
                     "Responses produced, by status.", u64(server.okCount),
                     {{"status", "ok"}});
    snapshot.counter("redqaoa_responses_total",
                     "Responses produced, by status.",
                     u64(server.errorCount), {{"status", "error"}});
    struct Reject
    {
        const char *reason;
        std::uint64_t value;
    };
    const Reject rejects[] = {
        {"parse", server.rejectedParse},
        {"overloaded", server.rejectedOverload},
        {"deadline", server.expiredDeadline},
        {"shutdown", server.shedShutdown},
    };
    for (const Reject &r : rejects)
        snapshot.counter("redqaoa_requests_rejected_total",
                         "Requests answered without execution, by reason.",
                         u64(r.value), {{"reason", r.reason}});
    for (const auto &[method, count] : server.methodCounts)
        snapshot.counter("redqaoa_requests_by_method_total",
                         "Executed requests by method.", u64(count),
                         {{"method", method}});
    snapshot.gauge("redqaoa_in_flight",
                   "Admitted requests not yet answered.",
                   u64(counts.inFlight));
    for (std::size_t i = 0; i < counts.depths.size(); ++i)
        snapshot.gauge("redqaoa_queue_depth",
                       "Admission queue depth per shard.",
                       static_cast<double>(counts.depths[i]),
                       {{"shard", std::to_string(i)}});
    snapshot.histogram("redqaoa_request_latency_seconds",
                       "Admission-to-response latency, executed requests.",
                       server.latency);
    for (const auto &[key, hist] : server.methodShardLatency)
        snapshot.histogram(
            "redqaoa_request_latency_seconds",
            "Admission-to-response latency, executed requests.", hist,
            {{"method", key.first}, {"shard", std::to_string(key.second)}});

    obs::addEngineStatsMetrics(snapshot, engines_->aggregateStats());
    const std::vector<EngineStats> shard_stats = engines_->shardStats();
    for (std::size_t i = 0; i < shard_stats.size(); ++i)
        obs::addEngineStatsMetrics(snapshot, shard_stats[i],
                                   {{"shard", std::to_string(i)}});
    obs::addProfilerMetrics(snapshot);
    return snapshot;
}

json::Value
ServiceServer::metricsResult() const
{
    json::Value doc = json::Value::object();
    doc["process"] = obs::processInfoJson(uptimeSeconds(), ::getpid());
    doc["engine"] = engines_->aggregateStats().toJson();
    json::Value families = metricsSnapshot().toJson();
    doc["families"] = std::move(families["families"]);
    return doc;
}

std::string
ServiceServer::metricsText() const
{
    return metricsSnapshot().prometheusText();
}

void
ServiceServer::respond(Job &job, std::string line, bool ok,
                       bool recordLatency)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.served;
        if (ok)
            ++stats_.okCount;
        else
            ++stats_.errorCount;
        if (recordLatency) {
            std::chrono::duration<double> dt =
                Clock::now() - job.admission.arrival;
            stats_.latency.record(dt.count());
            stats_.methodShardLatency[{job.request.method, job.shard}]
                .record(dt.count());
        }
    }
    queue_.markAnswered();
    job.admission.done(std::move(line));
}

void
ServiceServer::execute(Job &job, bool draining)
{
    const Request &req = job.request;
    Admission &admission = job.admission;
    RouteInfo route;
    route.shard = job.shard;
    route.queueMs = std::chrono::duration<double, std::milli>(
                        Clock::now() - admission.arrival)
                        .count();
    if (admission.trace)
        // Admission -> dequeue wait (start 0 = admission; the
        // worker.admission span's tail overlaps its head).
        admission.trace->addSpan({"shard.queue", "worker.admission", 0,
                                  admission.trace->sinceStartUs(), 1});

    if (draining) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.shedShutdown;
        }
        respond(job,
                admission.error(
                    queue_.refusal(AdmitVerdict::Closed,
                                   static_cast<std::size_t>(job.shard)),
                    route),
                false, false);
        return;
    }

    if (admission.expired()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.expiredDeadline;
        }
        // Not recorded in the latency histogram: it tracks executed
        // requests only (see ServerStats), and a lapsed queue wait
        // would skew the p99 operators act on.
        respond(job,
                admission.error(
                    ServiceError(ServiceErrorCode::DeadlineExceeded,
                                 "deadline of " +
                                     std::to_string(req.deadlineMs) +
                                     " ms expired before execution"),
                    route),
                false, false);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.methodCounts[req.method];
    }

    if (req.method == "shutdown") {
        // Close without a join (this IS an executor): every executor
        // drains what is still queued as shutting_down, then exits.
        queue_.close();
        json::Value result = json::Value::object();
        result["stopping"] = true;
        respond(job,
                makeResultLine(req.id, std::move(result), req.schemaVersion,
                               &route),
                true, true);
        return;
    }

    bool ok = false;
    json::Value result;
    ServiceErrorCode errorCode = ServiceErrorCode::Internal;
    std::string errorMessage;
    {
        // The recorder parks in TLS for the dispatch so deep
        // stages (engine drain, store lookup, optimizer) can
        // attribute spans; the execute StageTimer feeds both the
        // stage histogram and the trace.
        obs::TraceScope scope(admission.trace.get());
        obs::StageTimer execute("worker.execute", "worker.admission");
        try {
            if (req.method == "hello")
                result = helloDocument("redqaoa_serve", "shards",
                                       routers_.size(), opts_);
            else if (req.method == "stats")
                result = statsResult(req.schemaVersion);
            else
                result =
                    routers_[static_cast<std::size_t>(job.shard)].dispatch(
                        req);
            ok = true;
        } catch (const ServiceError &e) {
            errorCode = e.code();
            errorMessage = e.what();
        } catch (const std::exception &e) {
            errorMessage = e.what();
        } catch (...) {
            errorMessage = "unknown failure";
        }
    }
    json::Value traceDoc;
    const json::Value *trace_ptr = nullptr;
    if (admission.trace) {
        admission.trace->finish();
        traces_.add(*admission.trace);
        traceDoc = admission.trace->toJson();
        trace_ptr = &traceDoc;
    }
    std::string line =
        ok ? makeResultLine(req.id, std::move(result), req.schemaVersion,
                            &route, trace_ptr)
           : makeErrorLine(req.id, errorCode, errorMessage,
                           req.schemaVersion, &route, trace_ptr);
    respond(job, std::move(line), ok, true);
}

// ---------------------------------------------------------------------
// Stdio transport
// ---------------------------------------------------------------------

std::size_t
serveStream(ServiceServer &server, std::istream &in, std::ostream &out)
{
    std::mutex mutex;
    std::condition_variable wake;
    std::deque<std::future<std::string>> pending;
    bool done = false;
    std::size_t written = 0;

    // Writer thread: responses leave in request order, flushed per
    // line, while the reader keeps admitting (pipelining through the
    // admission queue instead of one request in flight at a time).
    std::thread writer([&] {
        for (;;) {
            std::future<std::string> next;
            {
                std::unique_lock<std::mutex> lock(mutex);
                wake.wait(lock,
                          [&] { return done || !pending.empty(); });
                if (pending.empty())
                    return;
                next = std::move(pending.front());
                pending.pop_front();
            }
            out << next.get() << '\n' << std::flush;
            ++written;
        }
    });

    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue; // Blank lines are keep-alive no-ops.
        std::future<std::string> future = server.submitLine(line);
        {
            std::lock_guard<std::mutex> lock(mutex);
            pending.push_back(std::move(future));
        }
        wake.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
    }
    wake.notify_one();
    writer.join();
    return written;
}

// ---------------------------------------------------------------------
// TCP transport: one epoll event loop
// ---------------------------------------------------------------------

namespace {

/** epoll user-data tags for the two non-connection fds. */
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;

/** Grace period for flushing in-flight responses during drain. */
constexpr std::chrono::milliseconds kDrainGrace(5000);

double
millisSince(std::chrono::steady_clock::time_point then,
            std::chrono::steady_clock::time_point now)
{
    return std::chrono::duration<double, std::milli>(now - then).count();
}

} // namespace

TcpServiceListener::TcpServiceListener(LineService &service, int port,
                                       FaultPlane *faults)
    : server_(service), faults_(faults),
      channel_(std::make_shared<ResponseChannel>())
{
    // Fault injection (linger-0 resets, truncated frames) and vanishing
    // peers both make EPIPE an expected condition on every write path.
    detail::ignoreSigpipe();
    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("TcpServiceListener: socket() failed");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // Localhost only.
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd_, 256) != 0) {
        ::close(listenFd_);
        throw std::runtime_error(
            "TcpServiceListener: cannot bind 127.0.0.1:" +
            std::to_string(port));
    }
    socklen_t len = sizeof addr;
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = static_cast<int>(ntohs(addr.sin_port));

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epollFd_ < 0 || wakeFd_ < 0) {
        if (epollFd_ >= 0)
            ::close(epollFd_);
        if (wakeFd_ >= 0)
            ::close(wakeFd_);
        ::close(listenFd_);
        throw std::runtime_error(
            "TcpServiceListener: epoll/eventfd setup failed");
    }
    channel_->wakeFd = wakeFd_;

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenTag;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);

    loop_ = std::thread([this] { loopThread(); });
}

TcpServiceListener::~TcpServiceListener()
{
    stop();
}

std::uint64_t
TcpServiceListener::bouncedConnections() const
{
    return bounced_.load();
}

void
TcpServiceListener::loopThread()
{
    std::array<epoll_event, 64> events;
    for (;;) {
        int timeout = -1;
        const double idle_ms = server_.options().idleTimeoutMs;
        if (draining_)
            timeout = 10;
        else if (idle_ms > 0.0)
            timeout = std::clamp(static_cast<int>(idle_ms / 4.0), 5, 1000);
        int n = ::epoll_wait(epollFd_, events.data(),
                             static_cast<int>(events.size()), timeout);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break; // epoll fd gone; only stop() does that.
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t tag = events[i].data.u64;
            if (tag == kListenTag) {
                acceptReady();
                continue;
            }
            if (tag == kWakeTag) {
                std::uint64_t drained;
                while (::read(wakeFd_, &drained, sizeof drained) > 0) {
                }
                continue;
            }
            auto it = conns_.find(tag);
            if (it == conns_.end())
                continue; // Torn down earlier this pass.
            Conn &conn = it->second;
            const std::uint32_t ev = events[i].events;
            if (ev & (EPOLLHUP | EPOLLERR)) {
                // RST or both directions gone: whatever is in flight
                // can never be delivered — clean teardown, not a
                // blocked writer (the PR 5 failure mode).
                closeConn(conn);
                continue;
            }
            bool alive = true;
            if (ev & EPOLLIN)
                alive = handleReadable(conn);
            if (alive && (ev & EPOLLOUT))
                flushConn(conn);
        }

        // Responses published by the executors since the last pass.
        std::vector<std::uint64_t> ready;
        {
            std::lock_guard<std::mutex> lock(channel_->mutex);
            ready.swap(channel_->ready);
        }
        for (std::uint64_t id : ready) {
            auto it = conns_.find(id);
            if (it != conns_.end())
                flushConn(it->second);
        }

        if (stopping_.load() && !draining_)
            beginDrain();
        if (draining_) {
            if (conns_.empty())
                break;
            if (Clock::now() >= drainDeadline_) {
                // A peer that stopped reading cannot hold shutdown
                // hostage: force-close whatever remains.
                std::vector<std::uint64_t> remaining;
                remaining.reserve(conns_.size());
                for (const auto &[id, conn] : conns_)
                    remaining.push_back(id);
                for (std::uint64_t id : remaining) {
                    auto it = conns_.find(id);
                    if (it != conns_.end())
                        closeConn(it->second);
                }
                break;
            }
            continue; // Skip the idle sweep while draining.
        }
        sweepIdle();
    }
}

void
TcpServiceListener::acceptReady()
{
    for (;;) {
        int fd = ::accept4(listenFd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN (drained) or the listener is closing.
        }
        if (stopping_.load()) {
            ::close(fd);
            continue;
        }
        const ServerOptions &opts = server_.options();
        if (conns_.size() >= opts.maxConnections) {
            // Bounce with the protocol's typed backpressure signal —
            // one best-effort line (a fresh socket's send buffer
            // always holds it), then close. Counted first, so a client
            // that has read the bounce also sees it counted.
            ++bounced_;
            std::string line = makeErrorLine(
                json::Value(), ServiceErrorCode::Overloaded,
                "connection limit reached (" +
                    std::to_string(opts.maxConnections) +
                    " connections); retry later");
            line += '\n';
            ssize_t sent =
                ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
            (void)sent;
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        const std::uint64_t id = nextConnId_++;
        Conn &conn = conns_[id];
        conn.fd = fd;
        conn.id = id;
        conn.lastActivity = Clock::now();
        conn.registeredEvents = EPOLLIN;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = id;
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    }
}

void
TcpServiceListener::submitOn(Conn &conn, std::string line)
{
    FaultAction fault;
    if (faults_ != nullptr && faults_->enabled()) {
        // Armed plane only: the line is parsed here solely to keep
        // supervision probes (health/hello/shutdown) from advancing
        // the deterministic fault schedule.
        std::string method;
        json::Value id;
        try {
            Request req = parseRequest(line);
            method = req.method;
            id = req.id;
        } catch (...) {
            // Unparseable lines are eligible (empty method).
        }
        if (FaultPlane::methodEligible(method))
            fault = faults_->onRequest();
        switch (fault.kind) {
        case FaultKind::Abort:
            // A worker crash, faithfully: no flush, no destructors —
            // just a nonzero wait status for the supervisor.
            std::_Exit(kFaultAbortExitStatus);
        case FaultKind::Reset:
            // Never admitted: a reset peer cannot know whether the
            // server saw the request, which is exactly the ambiguity
            // the client's idempotent retry must absorb.
            conn.resetPending = true;
            conn.discardInput = true;
            return;
        case FaultKind::Overload: {
            auto bounce = std::make_shared<Slot>();
            bounce->conn = conn.id;
            bounce->line = makeErrorLine(
                id, ServiceErrorCode::Overloaded,
                "injected overload (fault plane); retry later");
            bounce->ready.store(true, std::memory_order_release);
            conn.slots.push_back(std::move(bounce));
            return;
        }
        default:
            break; // Delay/Truncate ride along with the real response.
        }
    }

    auto slot = std::make_shared<Slot>();
    slot->conn = conn.id;
    slot->truncate = fault.kind == FaultKind::Truncate;
    conn.slots.push_back(slot);
    std::shared_ptr<ResponseChannel> channel = channel_;
    const int delay_ms = fault.kind == FaultKind::Delay ? fault.delayMs : 0;
    server_.submitLine(
        std::move(line),
        [channel, slot, delay_ms](std::string response) {
            if (delay_ms > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay_ms));
            slot->line = std::move(response);
            slot->ready.store(true, std::memory_order_release);
            std::lock_guard<std::mutex> lock(channel->mutex);
            channel->ready.push_back(slot->conn);
            if (channel->wakeFd >= 0) {
                const std::uint64_t one = 1;
                ssize_t n =
                    ::write(channel->wakeFd, &one, sizeof one);
                (void)n;
            }
        });
}

bool
TcpServiceListener::handleReadable(Conn &conn)
{
    char chunk[16384];
    for (;;) {
        ssize_t r = ::recv(conn.fd, chunk, sizeof chunk, 0);
        if (r > 0) {
            conn.lastActivity = Clock::now();
            if (conn.discardInput)
                continue; // Poisoned stream: bytes drain to nowhere.
            conn.inBuf.append(chunk, static_cast<std::size_t>(r));
            bool oversize = false;
            std::size_t pos = 0;
            for (;;) {
                std::size_t nl = conn.inBuf.find('\n', pos);
                if (nl == std::string::npos) {
                    // A partial line can only grow; refuse before
                    // buffering unbounded garbage.
                    oversize = conn.inBuf.size() - pos > kMaxLineBytes;
                    break;
                }
                if (nl - pos > kMaxLineBytes) {
                    // One read chunk can straddle the cap AND the
                    // newline; an over-long line is refused even when
                    // it technically framed.
                    oversize = true;
                    break;
                }
                std::string line = conn.inBuf.substr(pos, nl - pos);
                pos = nl + 1;
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                if (line.empty())
                    continue; // Blank lines are keep-alive no-ops.
                submitOn(conn, std::move(line));
                if (conn.discardInput || conn.resetPending) {
                    // An injected reset poisons the stream mid-chunk;
                    // later lines on this connection are never seen.
                    conn.inBuf.clear();
                    pos = 0;
                    break;
                }
            }
            if (oversize) {
                // The stream cannot be resynchronized after an
                // unframed blob; answer once, then drop the
                // connection (once the refusal is flushed).
                auto refusal = std::make_shared<Slot>();
                refusal->conn = conn.id;
                refusal->line = makeErrorLine(
                    json::Value(), ServiceErrorCode::InvalidRequest,
                    "request line exceeds the maximum length");
                refusal->ready.store(true, std::memory_order_release);
                conn.slots.push_back(std::move(refusal));
                conn.discardInput = true;
                conn.inBuf.clear();
                conn.inBuf.shrink_to_fit();
            } else if (pos > 0) {
                conn.inBuf.erase(0, pos);
            }
            continue;
        }
        if (r == 0) {
            // EOF: the peer finished sending; flush responses for
            // what it already submitted, then close.
            conn.peerClosed = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeConn(conn); // ECONNRESET and friends: clean teardown.
        return false;
    }
    return flushConn(conn);
}

bool
TcpServiceListener::flushConn(Conn &conn)
{
    while (!conn.resetPending && !conn.slots.empty() &&
           conn.slots.front()->ready.load(std::memory_order_acquire)) {
        std::shared_ptr<Slot> slot = std::move(conn.slots.front());
        conn.slots.pop_front();
        if (slot->truncate) {
            // Injected torn frame: half the line, no newline, then a
            // linger-0 close once those bytes hit the wire. The client
            // sees a partial response followed by ECONNRESET.
            conn.outBuf.append(slot->line, 0, slot->line.size() / 2);
            conn.resetPending = true;
            conn.discardInput = true;
            break;
        }
        conn.outBuf += slot->line;
        conn.outBuf += '\n';
    }
    while (conn.outPos < conn.outBuf.size()) {
        ssize_t n = ::send(conn.fd, conn.outBuf.data() + conn.outPos,
                           conn.outBuf.size() - conn.outPos,
                           MSG_NOSIGNAL);
        if (n > 0) {
            conn.outPos += static_cast<std::size_t>(n);
            conn.lastActivity = Clock::now();
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        // EPIPE/ECONNRESET mid-response: the peer is gone. Undelivered
        // responses are dropped; nothing blocks, nothing leaks.
        closeConn(conn);
        return false;
    }
    if (conn.outPos >= conn.outBuf.size()) {
        conn.outBuf.clear();
        conn.outPos = 0;
    } else if (conn.outPos > (64u << 10)) {
        conn.outBuf.erase(0, conn.outPos); // Compact a long tail once.
        conn.outPos = 0;
    }
    if (conn.resetPending && conn.outPos >= conn.outBuf.size()) {
        resetConn(conn);
        return false;
    }
    if ((conn.peerClosed || conn.discardInput || draining_) &&
        conn.slots.empty() && conn.outPos >= conn.outBuf.size()) {
        closeConn(conn);
        return false;
    }
    updateEvents(conn);
    return true;
}

void
TcpServiceListener::updateEvents(Conn &conn)
{
    // After EOF a level-triggered EPOLLIN would fire forever while
    // responses are still in flight; drop read interest once the peer
    // finished sending.
    std::uint32_t want = conn.peerClosed ? 0u : EPOLLIN;
    if (conn.outPos < conn.outBuf.size())
        want |= EPOLLOUT;
    if (want == conn.registeredEvents)
        return;
    conn.registeredEvents = want;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
TcpServiceListener::closeConn(Conn &conn)
{
    // Pending slots stay alive through their shared_ptrs: an executor
    // finishing later publishes into a slot nobody will flush, and the
    // ready-list lookup simply misses. That is the whole teardown
    // contract — no joins, no blocking.
    const int fd = conn.fd;
    const std::uint64_t id = conn.id;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(id);
}

void
TcpServiceListener::resetConn(Conn &conn)
{
    // SO_LINGER {on, 0}: close() sends RST instead of FIN, so the peer
    // observes ECONNRESET — the real failure shape of a dead worker,
    // not a polite shutdown.
    struct linger lg;
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    closeConn(conn);
}

void
TcpServiceListener::sweepIdle()
{
    const double idle_ms = server_.options().idleTimeoutMs;
    if (idle_ms <= 0.0)
        return;
    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> evict;
    for (const auto &[id, conn] : conns_)
        if (conn.slots.empty() && conn.outPos >= conn.outBuf.size() &&
            millisSince(conn.lastActivity, now) >= idle_ms)
            evict.push_back(id);
    for (std::uint64_t id : evict) {
        auto it = conns_.find(id);
        if (it != conns_.end())
            closeConn(it->second);
    }
}

void
TcpServiceListener::beginDrain()
{
    draining_ = true;
    drainDeadline_ = Clock::now() + kDrainGrace;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    // Half-close every connection: no new requests, but in-flight
    // responses still flush. The executors answer everything admitted
    // (shutting_down once the server stops), so every slot resolves.
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto &[id, conn] : conns_)
        ids.push_back(id);
    for (std::uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it == conns_.end())
            continue;
        it->second.discardInput = true;
        ::shutdown(it->second.fd, SHUT_RD);
        flushConn(it->second);
    }
}

void
TcpServiceListener::stop()
{
    std::lock_guard<std::mutex> stop_lock(stopMutex_);
    if (stoppedDone_)
        return;
    stoppedDone_ = true;

    stopping_.store(true);
    {
        std::lock_guard<std::mutex> lock(channel_->mutex);
        if (channel_->wakeFd >= 0) {
            const std::uint64_t one = 1;
            ssize_t n = ::write(channel_->wakeFd, &one, sizeof one);
            (void)n;
        }
    }
    if (loop_.joinable())
        loop_.join();

    // Disarm the channel BEFORE closing the eventfd: a straggling
    // response callback must find wakeFd == -1, never a recycled fd.
    {
        std::lock_guard<std::mutex> lock(channel_->mutex);
        channel_->wakeFd = -1;
    }
    ::close(wakeFd_);
    ::close(epollFd_);
    ::close(listenFd_);
    wakeFd_ = epollFd_ = listenFd_ = -1;
}

} // namespace service
} // namespace redqaoa
