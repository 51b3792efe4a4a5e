/**
 * @file
 * redqaoa_lb — the fault-tolerant serving front: a supervised fleet of
 * redqaoa_serve workers behind one NDJSON TCP endpoint.
 *
 *   redqaoa_lb --serve-bin ./redqaoa_serve              2-worker fleet
 *   redqaoa_lb --workers 4 --port 7777                  fixed front port
 *   redqaoa_lb --port-file lb.port                      publish the port
 *   redqaoa_lb --worker-arg --threads --worker-arg 2    pass-through args
 *   redqaoa_lb --worker-faults "abort@40"               chaos the workers
 *   redqaoa_lb --faults "reset@10/40"                   chaos the front
 *   redqaoa_lb --store-dir DIR          per-lane persistent warm-start
 *                                       stores (survive restarts)
 *
 * Requests are routed by graph-structure hash (same graph -> same
 * worker -> same shard: the bit-identity contract holds through the
 * lb), dead or wedged workers are restarted with capped exponential
 * backoff, and interrupted requests are replayed against the restarted
 * worker — or answered with the typed `worker_failed` error, which
 * clients retry. See src/service/supervisor.hpp and the README "Fault
 * tolerance" section. Exit codes: 0 clean shutdown, 1 startup failure,
 * 2 usage error.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics_http.hpp"
#include "service/supervisor.hpp"

using namespace redqaoa;

namespace {

volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int sig)
{
    g_signal = sig;
}

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: redqaoa_lb --serve-bin PATH [--workers N] [--port N]\n"
        "                  [--port-file PATH] [--queue N]\n"
        "                  [--max-conns N] [--idle-timeout-ms N]\n"
        "                  [--replay-budget N] [--max-restarts N]\n"
        "                  [--store-dir DIR] [--worker-arg ARG]...\n"
        "                  [--worker-faults SPEC] [--faults SPEC]\n"
        "                  [--help]\n"
        "\n"
        "  --serve-bin P      path to the redqaoa_serve binary\n"
        "                     (required)\n"
        "  --workers N        worker process count (default 2)\n"
        "  --port N           front TCP port (default 0 = ephemeral)\n"
        "  --port-file P      write the bound front port to file P\n"
        "  --queue N          requests per worker lane waiting for a\n"
        "                     free forwarder (default 64)\n"
        "  --max-conns N      concurrent client connection cap\n"
        "                     (default 256)\n"
        "  --idle-timeout-ms N  evict idle client connections\n"
        "                     (default 0 = never)\n"
        "  --replay-budget N  forward attempts per request before the\n"
        "                     typed `worker_failed` answer (default 4)\n"
        "  --max-restarts N   restarts per worker lane before it is\n"
        "                     permanently failed (default 8)\n"
        "  --store-dir DIR    persistent warm-start store root; lane i\n"
        "                     gets DIR/worker<i> (a restarted worker\n"
        "                     reopens its lane's store and answers\n"
        "                     repeat requests warm, byte-identically)\n"
        "  --worker-arg A     extra argv entry for every worker\n"
        "                     (repeatable; e.g. --worker-arg --threads\n"
        "                     --worker-arg 2)\n"
        "  --worker-faults S  --faults spec handed to every worker\n"
        "  --faults S         arm the lb front's own fault plane\n"
        "                     (never inherited by workers; grammar in\n"
        "                     src/service/fault_injection.hpp)\n"
        "  --metrics-port N   serve Prometheus text exposition over\n"
        "                     HTTP GET /metrics on 127.0.0.1:N\n"
        "                     (0 = ephemeral)\n"
        "  --metrics-port-file P  write the bound metrics port to P\n"
        "\n"
        "Logging: REDQAOA_LOG=debug|info|warn|error sets the stderr\n"
        "level (default info); REDQAOA_LOG_FORMAT=json switches the\n"
        "line format.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    service::SupervisorOptions sup;
    service::FleetOptions fleet_opts;
    int port = 0;
    std::string port_file;
    int metrics_port = -1; // -1 = no metrics endpoint.
    std::string metrics_port_file;
    obs::configureLogFromEnv();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (++i >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n", flag);
                std::exit(2);
            }
            return argv[i];
        };
        auto intValue = [&](const char *flag) -> long {
            const char *text = value(flag);
            char *end = nullptr;
            long v = std::strtol(text, &end, 10);
            if (end == text || *end != '\0') {
                std::fprintf(stderr, "error: bad %s value '%s'\n", flag,
                             text);
                std::exit(2);
            }
            return v;
        };
        if (arg == "--serve-bin") {
            sup.serveBinary = value("--serve-bin");
        } else if (arg == "--workers") {
            long n = intValue("--workers");
            if (n < 1 || n > 64) {
                std::fprintf(stderr,
                             "error: --workers must be in [1, 64]\n");
                return 2;
            }
            sup.workers = static_cast<std::size_t>(n);
        } else if (arg == "--port") {
            port = static_cast<int>(intValue("--port"));
            if (port < 0 || port > 65535) {
                std::fprintf(stderr, "error: --port out of range\n");
                return 2;
            }
        } else if (arg == "--port-file") {
            port_file = value("--port-file");
        } else if (arg == "--queue") {
            long n = intValue("--queue");
            if (n < 1) {
                std::fprintf(stderr, "error: --queue must be >= 1\n");
                return 2;
            }
            fleet_opts.server.queueCapacity =
                static_cast<std::size_t>(n);
        } else if (arg == "--max-conns") {
            long n = intValue("--max-conns");
            if (n < 1) {
                std::fprintf(stderr,
                             "error: --max-conns must be >= 1\n");
                return 2;
            }
            fleet_opts.server.maxConnections =
                static_cast<std::size_t>(n);
        } else if (arg == "--idle-timeout-ms") {
            long n = intValue("--idle-timeout-ms");
            if (n < 0) {
                std::fprintf(stderr,
                             "error: --idle-timeout-ms must be >= 0\n");
                return 2;
            }
            fleet_opts.server.idleTimeoutMs = static_cast<double>(n);
        } else if (arg == "--replay-budget") {
            long n = intValue("--replay-budget");
            if (n < 1) {
                std::fprintf(stderr,
                             "error: --replay-budget must be >= 1\n");
                return 2;
            }
            fleet_opts.replayBudget = static_cast<int>(n);
        } else if (arg == "--max-restarts") {
            long n = intValue("--max-restarts");
            if (n < 0) {
                std::fprintf(stderr,
                             "error: --max-restarts must be >= 0\n");
                return 2;
            }
            sup.maxRestarts = static_cast<int>(n);
        } else if (arg == "--store-dir") {
            sup.storeDir = value("--store-dir");
        } else if (arg == "--worker-arg") {
            sup.workerArgs.push_back(value("--worker-arg"));
        } else if (arg == "--metrics-port") {
            metrics_port = static_cast<int>(intValue("--metrics-port"));
            if (metrics_port < 0 || metrics_port > 65535) {
                std::fprintf(stderr,
                             "error: --metrics-port out of range\n");
                return 2;
            }
        } else if (arg == "--metrics-port-file") {
            metrics_port_file = value("--metrics-port-file");
        } else if (arg == "--worker-faults") {
            sup.workerFaults = value("--worker-faults");
        } else if (arg == "--faults") {
            try {
                service::FaultPlane::global().configure(
                    value("--faults"));
            } catch (const std::exception &e) {
                std::fprintf(stderr, "error: bad --faults spec: %s\n",
                             e.what());
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "error: unknown argument '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (sup.serveBinary.empty()) {
        std::fprintf(stderr, "error: --serve-bin is required\n");
        usage(stderr);
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    service::FaultPlane &faults = service::FaultPlane::global();
    if (faults.enabled())
        // chaos_smoke.sh greps for this exact event name.
        obs::logWarn("redqaoa_lb", "FAULT INJECTION ARMED");

    try {
        service::WorkerSupervisor supervisor(sup);
        service::WorkerFleetService fleet(supervisor, fleet_opts);
        fleet.attachFaultStats(&faults);
        service::TcpServiceListener listener(fleet, port, &faults);
        obs::logInfo("redqaoa_lb", "serving")
            .field("workers",
                   static_cast<unsigned long long>(
                       supervisor.workerCount()))
            .field("address", "127.0.0.1")
            .field("port", listener.port());
        if (!port_file.empty()) {
            std::ofstream out(port_file);
            out << listener.port() << "\n";
            if (!out.good()) {
                std::fprintf(stderr, "error: cannot write '%s'\n",
                             port_file.c_str());
                return 1;
            }
        }

        std::unique_ptr<obs::MetricsHttpServer> metrics;
        if (metrics_port >= 0) {
            metrics = std::make_unique<obs::MetricsHttpServer>(
                metrics_port, [&fleet] { return fleet.metricsText(); });
            obs::logInfo("redqaoa_lb", "metrics endpoint up")
                .field("port", metrics->port());
            if (!metrics_port_file.empty()) {
                std::ofstream out(metrics_port_file);
                out << metrics->port() << "\n";
                if (!out.good()) {
                    std::fprintf(stderr, "error: cannot write '%s'\n",
                                 metrics_port_file.c_str());
                    return 1;
                }
            }
        }

        while (!fleet.waitShutdownFor(0.2)) {
            if (g_signal != 0)
                break;
        }
        // Ordered teardown: client transport first (flushing in-flight
        // responses while the fleet still forwards), then the metrics
        // endpoint (its render callback walks the fleet), then the
        // fleet, then the workers.
        listener.stop();
        metrics.reset();
        fleet.stop();
        supervisor.stop();
        // Smoke scripts grep for this exact event name.
        obs::logInfo("redqaoa_lb", "clean shutdown")
            .field("restarts",
                   static_cast<unsigned long long>(
                       supervisor.totalRestarts()));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "redqaoa_lb: fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
