/**
 * @file
 * Service-client tour: drives every method of a running redqaoa_serve
 * or redqaoa_lb TCP endpoint through the typed C++ ServiceClient —
 * probe the server's capabilities with hello, evaluate a small
 * landscape batch, distill a graph, optimize parameters, run one full
 * pipeline, launch a miniature fleet, read the traffic counters, probe
 * liveness with health, and (optionally) ask the server to shut down.
 *
 * Usage: ./example_service_client <port> [--shutdown]
 *
 * Start the server first:   ./redqaoa_serve --tcp --port-file port.txt
 * then:                     ./example_service_client "$(cat port.txt)"
 * Through the lb, start ./redqaoa_lb --serve-bin ./redqaoa_serve
 * --port-file lb.port and pass "$(cat lb.port)" instead.
 *
 * Exit codes: 0 when every call round-trips, 1 on any failure (CI's
 * service smoke job gates on this).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "graph/generators.hpp"
#include "landscape/landscape.hpp"
#include "service/client.hpp"

using namespace redqaoa;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: example_service_client <port> [--shutdown]\n");
        return 1;
    }
    int port = std::atoi(argv[1]);
    bool shutdown = argc > 2 && std::string(argv[2]) == "--shutdown";

    try {
        service::ConnectOptions copts;
        copts.port = port;
        copts.maxAttempts = 5; // Ride out a server still binding.
        service::ServiceClient client =
            service::ServiceClient::connect(copts);

        // 0. hello — the capability handshake. A worker reports its
        // shards, the lb its workers.
        service::ServerInfo info = client.hello();
        std::printf("Connected to %s on 127.0.0.1:%d\n",
                    info.server.c_str(), port);
        const bool lb = info.workers > 0;
        std::printf("hello    : %s, %d %s, queue %zu,"
                    " max conns %zu, %zu methods\n",
                    info.server.c_str(), lb ? info.workers : info.shards,
                    lb ? "worker(s)" : "shard(s)", info.queueCapacity,
                    info.maxConnections, info.methods.size());

        // A shared problem instance for every call below.
        Rng rng(2024);
        Graph g = gen::connectedGnp(10, 0.4, rng);
        json::Value graph_json = service::graphToJson(g);
        std::printf("Problem graph: %s\n", g.summary().c_str());

        // 1. evaluate — a batch of landscape points in one request.
        service::EvaluateRequest eval_req;
        eval_req.graph = g;
        eval_req.points = randomParameterSets(1, 8, rng);
        service::EvaluateResult eval = client.evaluate(eval_req);
        double best = eval.values[0];
        for (double v : eval.values)
            best = std::max(best, v);
        service::RouteInfo route;
        if (client.lastRoute(route))
            std::printf("evaluate : %zu points, best <H_c> %.4f"
                        " (shard %d, queued %.2f ms)\n",
                        eval.values.size(), best, route.shard,
                        route.queueMs);
        else
            std::printf("evaluate : %zu points, best <H_c> %.4f\n",
                        eval.values.size(), best);

        // 2. reduce — SA distillation with a pinned seed.
        service::ReduceRequest red_req;
        red_req.graph = g;
        red_req.seed = 7;
        service::ReduceResult red = client.reduce(red_req);
        std::printf("reduce   : %d -> %d nodes (AND ratio %.3f)\n",
                    g.numNodes(), red.graph.numNodes(), red.andRatio);

        // 3. optimize — multi-restart search on the ideal backend.
        service::OptimizeRequest opt_req;
        opt_req.graph = g;
        opt_req.restarts = 2;
        opt_req.maxEvaluations = 40;
        opt_req.seed = 3;
        service::OptimizeResult opt = client.optimize(opt_req);
        std::printf("optimize : <H_c> %.4f after %d evaluations (%s)\n",
                    opt.energy, opt.evaluations, opt.backend.c_str());

        // 4. pipeline — one full Red-QAOA run under device noise.
        service::PipelineRequest pipe_req;
        pipe_req.graph = g;
        json::Value pipe_opts = json::Value::object();
        pipe_opts["noise"] = "ibmq_kolkata";
        pipe_opts["restarts"] = 2;
        pipe_opts["search_evaluations"] = 20;
        pipe_opts["refine_evaluations"] = 8;
        pipe_opts["trajectories"] = 4;
        pipe_req.options = std::move(pipe_opts);
        pipe_req.rngSeed = 7;
        json::Value pipe = client.pipeline(pipe_req);
        std::printf("pipeline : approx ratio %.4f (searched on %.0f"
                    " qubits)\n",
                    pipe.find("approx_ratio")->asNumber(),
                    pipe.find("reduced_nodes")->asNumber());

        // 5. fleet — a miniature graphs x noise x depth grid.
        json::Value fleet_params = json::Value::object();
        json::Value graphs = json::Value::array();
        for (int i = 0; i < 2; ++i) {
            json::Value entry = json::Value::object();
            char gname[8];
            std::snprintf(gname, sizeof gname, "g%d", i);
            entry["name"] = gname;
            entry["graph"] =
                service::graphToJson(gen::connectedGnp(8, 0.4, rng));
            graphs.push(std::move(entry));
        }
        fleet_params["graphs"] = std::move(graphs);
        json::Value noises = json::Value::array();
        noises.push(json::Value("ibmq_kolkata"));
        fleet_params["noises"] = std::move(noises);
        json::Value depths = json::Value::array();
        depths.push(json::Value(1));
        fleet_params["depths"] = std::move(depths);
        json::Value fleet_opts = json::Value::object();
        fleet_opts["restarts"] = 1;
        fleet_opts["search_evaluations"] = 8;
        fleet_opts["refine_evaluations"] = 4;
        fleet_opts["trajectories"] = 2;
        fleet_params["options"] = std::move(fleet_opts);
        json::Value fleet = client.call("fleet", std::move(fleet_params));
        std::printf("fleet    : %zu runs, schema v%.0f\n",
                    fleet.find("runs")->size(),
                    fleet.find("schema_version")->asNumber());

        // 6. stats — aggregate engine, per-shard engines, and server
        // traffic share the wire.
        json::Value stats = client.stats();
        const json::Value *engine = stats.find("engine");
        const json::Value *server = stats.find("server");
        const json::Value *shards = stats.find("shards");
        std::printf("stats    : %.0f requests served across %zu"
                    " shard(s), %.0f graphs cached, memo hit rate"
                    " %.3f, p99 %.2f ms\n",
                    server->find("served")->asNumber(),
                    shards ? shards->size() : 1,
                    engine->find("graphs")->asNumber(),
                    engine->find("memo_hit_rate")->asNumber(),
                    server->find("latency")->find("p99_ms")->asNumber());

        // 7. health — the inline liveness probe (works even when the
        // admission queues are full, which is the whole point).
        json::Value health = client.call("health");
        std::printf("health   : %s, pid %.0f, %.0f in flight, up"
                    " %.1f s\n",
                    health.find("status")->asString().c_str(),
                    health.find("pid")->asNumber(),
                    health.find("in_flight")->asNumber(),
                    health.find("uptime_seconds")->asNumber());

        if (shutdown) {
            client.shutdown();
            std::printf("shutdown : acknowledged\n");
        }
        std::printf("All service calls round-tripped.\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "service client failed: %s\n", e.what());
        return 1;
    }
}
