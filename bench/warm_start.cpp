/**
 * @file
 * Serving figure: persistent warm-start across server restarts.
 *
 * Phase 1 replays one fixed request trace (optimize + evaluate over a
 * small graph pool) against two server lifetimes sharing a store
 * directory. The COLD lifetime computes everything and persists it;
 * the WARM lifetime is a fresh ServiceServer over the same directory
 * — a process restart, minus the exec — and must answer the whole
 * trace from disk. Two gates: `warm_identical` (every warm response
 * byte-identical to its cold counterpart — the store's determinism
 * contract) must be 1, and `warm_store_hits` must be positive (the
 * speedup actually came from the store, not from recomputation being
 * cheap). The headline comparison is cold vs warm requests/sec plus
 * the optimizer-evaluation counts behind them (warm replays spend 0).
 *
 * Phase 2 measures parameter-transfer seeding (the paper's fig 21
 * industrialized): optimize requests on FRESH graphs, structurally
 * similar to the solved pool, with `warm_start: true` (first restart
 * seeded from the nearest donor's best params) vs `false` (all
 * random). Both spend the same evaluation budget (every restart runs
 * to its 60-evaluation cap), so the comparison is the mean best energy
 * reached at that budget. Reported, not gated: how much a donor helps
 * is workload-shaped.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.hpp"
#include "graph/generators.hpp"
#include "landscape/landscape.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

using namespace redqaoa;

namespace {

std::string
optimizeLine(int id, const Graph &g, int seed, bool warm_start)
{
    json::Value params = json::Value::object();
    params["graph"] = service::graphToJson(g);
    json::Value spec = json::Value::object();
    spec["layers"] = 1;
    params["spec"] = std::move(spec);
    params["seed"] = seed;
    params["restarts"] = 3;
    if (warm_start)
        params["warm_start"] = true;
    json::Value req = json::Value::object();
    req["id"] = id;
    req["method"] = "optimize";
    req["params"] = std::move(params);
    return req.dump();
}

std::string
evaluateLine(int id, const Graph &g, const std::vector<QaoaParams> &pts)
{
    json::Value params = json::Value::object();
    params["graph"] = service::graphToJson(g);
    json::Value points = json::Value::array();
    for (const QaoaParams &p : pts) {
        json::Value point = json::Value::array();
        for (double v : p.flatten())
            point.push(json::Value(v));
        points.push(std::move(point));
    }
    params["points"] = std::move(points);
    json::Value req = json::Value::object();
    req["id"] = id;
    req["method"] = "evaluate";
    req["params"] = std::move(params);
    return req.dump();
}

/** Run the trace through a fresh server on @p store_dir. */
struct TraceRun
{
    std::vector<std::string> responses;
    double seconds = 0.0;
    EngineStats engine;
};

TraceRun
runTrace(const std::vector<std::string> &lines,
         const std::string &store_dir)
{
    service::ServerOptions opts;
    opts.storeDir = store_dir;
    opts.queueCapacity = 1024;
    service::ServiceServer server(opts);
    TraceRun run;
    run.responses.reserve(lines.size());
    auto start = std::chrono::steady_clock::now();
    for (const std::string &line : lines)
        run.responses.push_back(server.handleLine(line));
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    run.seconds = dt.count();
    run.engine = server.engines().aggregateStats();
    server.stop();
    return run;
}

/** A numeric member of an optimize response's result (0 if absent). */
double
resultNumber(const std::string &line, const char *key)
{
    json::Value doc = json::Value::parse(line);
    const json::Value *result = doc.find("result");
    if (result == nullptr)
        return 0.0;
    const json::Value *value = result->find(key);
    return value != nullptr && value->isNumber() ? value->asNumber()
                                                 : 0.0;
}

/** Mean best energy over a run's optimize responses. */
double
meanEnergy(const TraceRun &run)
{
    double sum = 0.0;
    for (const std::string &line : run.responses)
        sum += resultNumber(line, "energy");
    return run.responses.empty() ? 0.0 : sum / run.responses.size();
}

} // namespace

REDQAOA_REGISTER_FIGURE(warm_start, "Service",
                        "Persistent warm-start: a restarted server"
                        " replays a fixed optimize/evaluate trace from"
                        " its disk store, gated byte-identical to the"
                        " cold run, plus parameter-transfer seeding on"
                        " fresh graphs")
{
    namespace fs = std::filesystem;
    const fs::path store_root =
        fs::temp_directory_path() /
        ("redqaoa_warm_start_" + std::to_string(::getpid()));
    fs::remove_all(store_root);
    const std::string store_dir = (store_root / "store").string();

    // --- The fixed trace ---------------------------------------------
    const int kGraphs = ctx.scale(2, 4);
    const int kBatches = ctx.scale(1, 2);
    const int kPoints = ctx.scale(6, 12);
    Rng rng(4242);
    std::vector<Graph> graphs;
    for (int i = 0; i < kGraphs; ++i)
        graphs.push_back(gen::connectedGnp(10, 0.35, rng));

    std::vector<std::string> lines;
    int id = 1;
    for (const Graph &g : graphs) {
        lines.push_back(optimizeLine(id++, g, 7, false));
        for (int b = 0; b < kBatches; ++b)
            lines.push_back(
                evaluateLine(id++, g, randomParameterSets(1, kPoints, rng)));
    }

    // --- Phase 1: cold lifetime vs restarted-warm lifetime -----------
    TraceRun cold = runTrace(lines, store_dir);
    TraceRun warm = runTrace(lines, store_dir);

    bool identical = cold.responses.size() == warm.responses.size();
    for (std::size_t i = 0; identical && i < lines.size(); ++i)
        identical = cold.responses[i] == warm.responses[i];

    double cold_evals = 0.0;
    for (const std::string &line : cold.responses)
        cold_evals += resultNumber(line, "evaluations");

    const double cold_rps = lines.size() / cold.seconds;
    const double warm_rps = lines.size() / warm.seconds;
    ctx.out("cold       : %zu requests in %.3fs -> %7.0f req/s"
            " (%" PRIu64 " points evaluated, %.0f optimizer evals)\n",
            lines.size(), cold.seconds, cold_rps, cold.engine.evaluated,
            cold_evals);
    ctx.out("warm       : %zu requests in %.3fs -> %7.0f req/s"
            " (%" PRIu64 " points evaluated, %" PRIu64
            " store hits)\n",
            lines.size(), warm.seconds, warm_rps, warm.engine.evaluated,
            warm.engine.store.warmHits);
    ctx.out("identity   : %s\n",
            identical ? "byte-identical" : "MISMATCH");

    // --- Phase 2: parameter-transfer seeding on fresh graphs ---------
    const int kFresh = ctx.scale(2, 3);
    std::vector<Graph> fresh;
    for (int i = 0; i < kFresh; ++i)
        fresh.push_back(gen::connectedGnp(11, 0.35, rng));

    std::vector<std::string> seeded_lines;
    std::vector<std::string> unseeded_lines;
    for (const Graph &g : fresh) {
        seeded_lines.push_back(optimizeLine(id++, g, 13, true));
        unseeded_lines.push_back(optimizeLine(id++, g, 13, false));
    }
    // Both runs reuse the warmed store (the donors), fresh servers.
    TraceRun seeded = runTrace(seeded_lines, store_dir);
    TraceRun unseeded = runTrace(unseeded_lines, store_dir);
    const double seeded_energy = meanEnergy(seeded);
    const double unseeded_energy = meanEnergy(unseeded);
    ctx.out("transfer   : %d fresh graphs, mean energy %.8f seeded vs"
            " %.8f unseeded at equal budget\n",
            kFresh, seeded_energy, unseeded_energy);

    ctx.sink.metric("requests", static_cast<double>(lines.size()));
    ctx.sink.metric("cold_requests_per_second", cold_rps);
    ctx.sink.metric("warm_requests_per_second", warm_rps);
    ctx.sink.metric("warm_speedup", warm_rps / cold_rps);
    ctx.sink.metric("cold_optimizer_evaluations", cold_evals);
    ctx.sink.metric("warm_points_evaluated",
                    static_cast<double>(warm.engine.evaluated));
    ctx.sink.metric("warm_store_hits",
                    static_cast<double>(warm.engine.store.warmHits));
    ctx.sink.metric("warm_identical", identical ? 1.0 : 0.0);
    ctx.sink.metric("transfer_seeded_energy", seeded_energy);
    ctx.sink.metric("transfer_unseeded_energy", unseeded_energy);
    ctx.note("a restarted server answers the whole trace from its"
             " disk store: byte-identical responses with zero fresh"
             " evaluations, and fresh similar graphs can seed their"
             " first restart from the nearest solved neighbor");

    fs::remove_all(store_root);
}
