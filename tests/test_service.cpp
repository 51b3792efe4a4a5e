/**
 * @file
 * Service-layer tests. The load-bearing contracts:
 *  - the protocol layer parses/serializes the request and response
 *    envelopes with the typed error taxonomy;
 *  - every method round-trips through the server with results
 *    IDENTICAL to computing the same thing directly on the library
 *    types (the service adds transport, never values);
 *  - malformed input maps onto the right error codes;
 *  - a queued request whose deadline lapses is answered
 *    deadline_exceeded without executing;
 *  - a full admission queue answers `overloaded` (backpressure)
 *    instead of buffering or blocking;
 *  - response payloads are deterministic: the same request set yields
 *    byte-identical response lines at 1 and 8 evaluation threads,
 *    under concurrent multi-client submission, in any interleaving;
 *  - the TCP transport serves concurrent clients and shuts down
 *    cleanly on the `shutdown` method;
 *  - `health` answers inline (before admission), so liveness probes
 *    work under full queues and while draining;
 *  - chaos: against a fault-injecting transport the retrying client
 *    absorbs injected overloads, connection resets, and torn frames
 *    and still receives payloads byte-identical to a fault-free run;
 *  - the lb fleet (WorkerFleetService over a fake WorkerDirectory)
 *    relays worker responses verbatim, replays interrupted requests
 *    byte-identically across worker restarts, bounces full lanes
 *    `overloaded`, answers `worker_failed` when the replay budget or
 *    the lane's restart budget is exhausted, and drains every queued
 *    request with exactly one typed answer on stop().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "engine/fleet.hpp"
#include "graph/generators.hpp"
#include "landscape/landscape.hpp"
#include "obs/profiler.hpp"
#include "opt/cobyla_lite.hpp"
#include "service/client.hpp"
#include "service/fault_injection.hpp"
#include "service/server.hpp"
#include "service/socket_util.hpp"
#include "service/supervisor.hpp"

namespace redqaoa {
namespace {

using service::Request;
using service::Response;
using service::ServiceClient;
using service::ServiceError;
using service::ServiceErrorCode;
using service::ServiceServer;
using service::TcpServiceListener;

/** Restore the default global pool when a test returns. */
class PoolGuard
{
  public:
    ~PoolGuard() { ThreadPool::setGlobalThreads(ThreadPool::defaultThreads()); }
};

Graph
smallGraph(std::uint64_t seed = 5)
{
    Rng rng(seed);
    return gen::connectedGnp(9, 0.4, rng);
}

/** Error code of a response line (expects ok == false). */
ServiceErrorCode
errorCodeOf(const std::string &line)
{
    Response response = service::parseResponse(line);
    EXPECT_FALSE(response.ok) << line;
    return response.errorCode;
}

/** Result payload of a response line (expects ok == true). */
json::Value
resultOf(const std::string &line)
{
    Response response = service::parseResponse(line);
    EXPECT_TRUE(response.ok) << line;
    return response.result;
}

/** @p doc's keys in document order (JSON objects keep insertion order). */
std::vector<std::string>
keysOf(const json::Value &doc)
{
    std::vector<std::string> keys;
    for (const auto &member : doc.asObject())
        keys.push_back(member.first);
    return keys;
}

/** A client speaking schema_version 1, the v1 wire shape. */
ServiceClient
connectV1(int port)
{
    service::ConnectOptions copts;
    copts.port = port;
    copts.schemaVersion = service::kSchemaVersion;
    return ServiceClient::connect(copts);
}

std::string
evaluateRequest(int id, const Graph &g,
                const std::vector<QaoaParams> &points,
                json::Value spec = json::Value())
{
    json::Value doc = json::Value::object();
    doc["id"] = id;
    doc["method"] = "evaluate";
    json::Value params = json::Value::object();
    params["graph"] = service::graphToJson(g);
    if (!spec.isNull())
        params["spec"] = std::move(spec);
    params["points"] = service::pointsToJson(points);
    doc["params"] = std::move(params);
    return doc.dump();
}

// ---------------------------------------------------------------------
// Protocol layer
// ---------------------------------------------------------------------

TEST(ServiceProtocol, ParseRequestAcceptsTheFullEnvelope)
{
    Request req = service::parseRequest(
        R"({"id": 7, "method": "stats", "params": {}, "deadline_ms": 12.5})");
    EXPECT_EQ(req.id.asNumber(), 7.0);
    EXPECT_EQ(req.method, "stats");
    EXPECT_TRUE(req.params.isObject());
    EXPECT_EQ(req.deadlineMs, 12.5);

    // String ids and omitted params/deadline are fine.
    Request minimal =
        service::parseRequest(R"({"id": "abc", "method": "stats"})");
    EXPECT_EQ(minimal.id.asString(), "abc");
    EXPECT_TRUE(minimal.params.isObject());
    EXPECT_EQ(minimal.deadlineMs, 0.0);
}

TEST(ServiceProtocol, ParseRequestRejectsBadEnvelopes)
{
    auto codeOf = [](const std::string &line) {
        try {
            service::parseRequest(line);
        } catch (const ServiceError &e) {
            return e.code();
        }
        ADD_FAILURE() << "no throw for: " << line;
        return ServiceErrorCode::Internal;
    };
    EXPECT_EQ(codeOf("not json"), ServiceErrorCode::ParseError);
    EXPECT_EQ(codeOf("[1, 2]"), ServiceErrorCode::InvalidRequest);
    EXPECT_EQ(codeOf(R"({"method": "stats"})"),
              ServiceErrorCode::InvalidRequest); // Missing id.
    EXPECT_EQ(codeOf(R"({"id": [1], "method": "stats"})"),
              ServiceErrorCode::InvalidRequest); // Non-scalar id.
    EXPECT_EQ(codeOf(R"({"id": 1})"), ServiceErrorCode::InvalidRequest);
    EXPECT_EQ(codeOf(R"({"id": 1, "method": ""})"),
              ServiceErrorCode::InvalidRequest);
    EXPECT_EQ(codeOf(R"({"id": 1, "method": "stats", "params": 3})"),
              ServiceErrorCode::InvalidRequest);
    EXPECT_EQ(
        codeOf(R"({"id": 1, "method": "stats", "deadline_ms": -5})"),
        ServiceErrorCode::InvalidRequest);
}

TEST(ServiceProtocol, ErrorCodeNamesRoundTrip)
{
    for (ServiceErrorCode code :
         {ServiceErrorCode::ParseError, ServiceErrorCode::InvalidRequest,
          ServiceErrorCode::UnknownMethod,
          ServiceErrorCode::InvalidParams,
          ServiceErrorCode::DeadlineExceeded,
          ServiceErrorCode::Overloaded, ServiceErrorCode::ShuttingDown,
          ServiceErrorCode::WorkerFailed, ServiceErrorCode::Internal})
        EXPECT_EQ(service::errorCodeFromName(service::errorCodeName(code)),
                  code);
    EXPECT_THROW(service::errorCodeFromName("nope"),
                 std::invalid_argument);
}

TEST(ServiceProtocol, ResponseLinesRoundTrip)
{
    json::Value result = json::Value::object();
    result["x"] = 1.5;
    Response ok = service::parseResponse(
        service::makeResultLine(json::Value(3), result));
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.id.asNumber(), 3.0);
    EXPECT_EQ(ok.result.find("x")->asNumber(), 1.5);

    Response err = service::parseResponse(service::makeErrorLine(
        json::Value("rid"), ServiceErrorCode::Overloaded, "busy"));
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.id.asString(), "rid");
    EXPECT_EQ(err.errorCode, ServiceErrorCode::Overloaded);
    EXPECT_EQ(err.errorMessage, "busy");

    EXPECT_THROW(service::parseResponse("{}"), ServiceError);
    EXPECT_THROW(service::parseResponse("garbage"), ServiceError);
}

TEST(ServiceProtocol, GraphCodecRoundTripsAndValidates)
{
    Graph g = smallGraph();
    Graph back = service::graphFromJson(service::graphToJson(g));
    EXPECT_EQ(back.numNodes(), g.numNodes());
    EXPECT_TRUE(back.edges() == g.edges());

    auto reject = [](const std::string &json_text) {
        try {
            service::graphFromJson(json::Value::parse(json_text));
            ADD_FAILURE() << "accepted: " << json_text;
        } catch (const ServiceError &e) {
            EXPECT_EQ(e.code(), ServiceErrorCode::InvalidParams);
        }
    };
    reject("{\"edges\": []}");                        // Missing nodes.
    reject("{\"nodes\": 0, \"edges\": []}");          // Empty graph.
    reject("{\"nodes\": 3}");                         // Missing edges.
    reject("{\"nodes\": 3, \"edges\": [[0]]}");       // Not a pair.
    reject("{\"nodes\": 3, \"edges\": [[0, 3]]}");    // Out of range.
    reject("{\"nodes\": 3, \"edges\": [[1, 1]]}");    // Self-loop.
    reject("{\"nodes\": 3, \"edges\": [[0, 1.5]]}");  // Non-integer.
    reject("{\"nodes\": 100000, \"edges\": []}");     // Above the cap.
}

TEST(ServiceProtocol, PointsCodecRoundTripsAndValidates)
{
    Rng rng(3);
    std::vector<QaoaParams> points = randomParameterSets(2, 5, rng);
    std::vector<QaoaParams> back =
        service::pointsFromJson(service::pointsToJson(points));
    ASSERT_EQ(back.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(back[i].gamma, points[i].gamma);
        EXPECT_EQ(back[i].beta, points[i].beta);
    }

    auto reject = [](const std::string &json_text) {
        try {
            service::pointsFromJson(json::Value::parse(json_text));
            ADD_FAILURE() << "accepted: " << json_text;
        } catch (const ServiceError &e) {
            EXPECT_EQ(e.code(), ServiceErrorCode::InvalidParams);
        }
    };
    reject("[]");                       // Empty batch.
    reject("[[0.5]]");                  // Odd length.
    reject("[[0.5, 0.2], [0.1]]");      // Ragged depths.
    reject("[[0.5, \"x\"]]");           // Non-numeric.
    reject("[0.5, 0.2]");               // Not nested.
    {
        // One huge point must not smuggle an unbounded depth past the
        // size checks (the executor would wedge on a 500k-layer sim).
        std::string huge = "[[0.1";
        for (int i = 1; i < 2 * 65; ++i)
            huge += ", 0.1";
        huge += "]]";
        reject(huge);
    }
}

TEST(ServiceProtocol, NullSpecMembersMeanDefault)
{
    json::Value spec = json::Value::object();
    spec["noise"] = json::Value();  // Explicit null: use the default.
    spec["layers"] = json::Value();
    EvalSpec parsed = service::specFromJson(&spec);
    EXPECT_TRUE(parsed.noise.isIdeal());
    EXPECT_EQ(parsed.layers, 1);
}

TEST(ServiceProtocol, NoisePresetsResolve)
{
    EXPECT_EQ(service::noiseFromJson(json::Value("ibmq_kolkata")).name,
              "ibmq_kolkata");
    EXPECT_TRUE(service::noiseFromJson(json::Value("ideal")).isIdeal());
    json::Value scaled = json::Value::object();
    scaled["scaled"] = 2.0;
    EXPECT_EQ(service::noiseFromJson(scaled).name, "scaled");
    EXPECT_THROW(service::noiseFromJson(json::Value("fake_device")),
                 ServiceError);
    EXPECT_GE(service::noisePresetNames().size(), 9u);
}

// ---------------------------------------------------------------------
// Method round-trips: the service result equals the direct computation
// ---------------------------------------------------------------------

TEST(ServiceRoundTrip, EvaluateMatchesDirectEngineBitForBit)
{
    Graph g = smallGraph();
    Rng rng(11);
    std::vector<QaoaParams> points = randomParameterSets(2, 8, rng);

    ServiceServer server;
    json::Value result =
        resultOf(server.handleLine(evaluateRequest(1, g, points)));
    EXPECT_EQ(result.find("backend")->asString(), "statevector");

    std::vector<double> direct =
        EvalEngine().evaluate(g, EvalSpec::ideal(2), points);
    const json::Value &values = *result.find("values");
    ASSERT_EQ(values.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(values.asArray()[i].asNumber(), direct[i]) << i;
}

TEST(ServiceRoundTrip, EvaluateTrajectoryBackendMatchesDirect)
{
    Graph g = smallGraph();
    Rng rng(12);
    std::vector<QaoaParams> points = randomParameterSets(1, 6, rng);
    json::Value spec = json::Value::object();
    spec["backend"] = "trajectory";
    spec["noise"] = "ibmq_toronto";
    spec["trajectories"] = 5;
    spec["seed"] = 13;
    spec["shots"] = 64;

    ServiceServer server;
    json::Value result = resultOf(
        server.handleLine(evaluateRequest(1, g, points, std::move(spec))));
    EXPECT_EQ(result.find("backend")->asString(), "trajectory");

    NoisyEvaluator direct(g, noise::ibmToronto(), 5, 13, 64);
    std::vector<double> want = direct.batchExpectation(points);
    const json::Value &values = *result.find("values");
    ASSERT_EQ(values.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(values.asArray()[i].asNumber(), want[i]) << i;
}

TEST(ServiceRoundTrip, ReduceMatchesDirectReducer)
{
    Rng grng(21);
    Graph g = gen::connectedGnp(12, 0.4, grng);
    json::Value doc = json::Value::object();
    doc["id"] = 1;
    doc["method"] = "reduce";
    json::Value params = json::Value::object();
    params["graph"] = service::graphToJson(g);
    params["seed"] = 9;
    doc["params"] = std::move(params);

    ServiceServer server;
    json::Value result = resultOf(server.handleLine(doc.dump()));

    Rng direct_rng(9);
    ReductionResult direct = RedQaoaReducer().reduce(g, direct_rng);
    EXPECT_EQ(result.find("graph")->find("nodes")->asNumber(),
              direct.reduced.graph.numNodes());
    EXPECT_EQ(result.find("and_ratio")->asNumber(), direct.andRatio);
    EXPECT_EQ(result.find("annealer_runs")->asNumber(),
              direct.annealerRuns);
    const json::Value &to_original = *result.find("to_original");
    ASSERT_EQ(static_cast<int>(to_original.size()),
              direct.reduced.graph.numNodes());
    for (std::size_t i = 0; i < to_original.size(); ++i)
        EXPECT_EQ(to_original.asArray()[i].asNumber(),
                  direct.reduced.toOriginal[i]);
}

TEST(ServiceRoundTrip, OptimizeMatchesDirectMultiRestart)
{
    Graph g = smallGraph();
    json::Value doc = json::Value::object();
    doc["id"] = 1;
    doc["method"] = "optimize";
    json::Value params = json::Value::object();
    params["graph"] = service::graphToJson(g);
    params["restarts"] = 2;
    params["max_evaluations"] = 25;
    params["seed"] = 4;
    doc["params"] = std::move(params);

    ServiceServer server;
    json::Value result = resultOf(server.handleLine(doc.dump()));

    // The handler's exact recipe, run directly.
    EvalEngine engine;
    Objective obj = engine.objective(g, EvalSpec::ideal(1));
    OptOptions opts;
    opts.maxEvaluations = 25;
    Rng rng(4);
    auto runs = multiRestart(
        CobylaLite(opts), obj, 2,
        [](Rng &r) { return QaoaParams::random(1, r).flatten(); }, rng);
    std::size_t best = bestRun(runs);
    EXPECT_EQ(result.find("energy")->asNumber(), -runs[best].value);
    const json::Value &gamma = *result.find("params")->find("gamma");
    EXPECT_EQ(gamma.asArray()[0].asNumber(),
              QaoaParams::unflatten(runs[best].x).gamma[0]);
}

/** An optimize request line with the default 60-evaluation budget. */
std::string
optimizeLine(const Graph &g, int restarts, std::uint64_t seed,
             json::Value spec)
{
    json::Value doc = json::Value::object();
    doc["id"] = 1;
    doc["method"] = "optimize";
    json::Value params = json::Value::object();
    params["graph"] = service::graphToJson(g);
    params["spec"] = std::move(spec);
    params["restarts"] = restarts;
    params["seed"] = static_cast<double>(seed);
    doc["params"] = std::move(params);
    return doc.dump();
}

json::Value
layersSpec(int layers)
{
    json::Value spec = json::Value::object();
    spec["layers"] = layers;
    return spec;
}

/**
 * The optimize handler's search run directly: the point overload of
 * multiRestart, restart after restart, over engine.objective().
 */
std::vector<OptResult>
sequentialSearch(const Graph &g, const EvalSpec &spec, int restarts,
                 std::uint64_t seed)
{
    EvalEngine engine;
    OptOptions opts;
    opts.maxEvaluations = 60;
    Rng rng(seed);
    const int layers = spec.layers;
    return multiRestart(
        CobylaLite(opts), engine.objective(g, spec), restarts,
        [layers](Rng &r) { return QaoaParams::random(layers, r).flatten(); },
        rng);
}

/** Energy, params and evaluations of @p result against @p runs. */
void
expectMatchesRuns(const json::Value &result,
                  const std::vector<OptResult> &runs)
{
    const OptResult &best = runs[bestRun(runs)];
    int evaluations = 0;
    for (const OptResult &run : runs)
        evaluations += run.evaluations;
    EXPECT_EQ(result.find("energy")->asNumber(), -best.value);
    EXPECT_EQ(result.find("params")->dump(),
              service::qaoaParamsToJson(QaoaParams::unflatten(best.x))
                  .dump());
    EXPECT_EQ(result.find("evaluations")->asNumber(), evaluations);
}

TEST(ServiceRoundTrip, LockstepOptimizeMatchesSequentialMultiRestart)
{
    // 8 restarts fill one lane group per round; 11 add a padded one.
    Rng rng(10);
    Graph g = gen::connectedGnp(10, 0.4, rng);
    ServiceServer server;
    for (int restarts : {8, 11}) {
        json::Value result = resultOf(
            server.handleLine(optimizeLine(g, restarts, 5, layersSpec(2))));
        expectMatchesRuns(result, sequentialSearch(g, EvalSpec::ideal(2),
                                                   restarts, 5));
    }
}

TEST(ServiceRoundTrip, NoisyOptimizeKeepsSequentialCallOrder)
{
    // Trajectory objectives draw noise streams in call order, so only
    // the restart-by-restart order reproduces the direct run.
    Graph g = smallGraph(41);
    json::Value spec = layersSpec(1);
    spec["noise"] = "ibmq_kolkata";
    spec["trajectories"] = 3;
    spec["seed"] = 8;
    ServiceServer server;
    json::Value result =
        resultOf(server.handleLine(optimizeLine(g, 3, 6, spec)));
    EXPECT_EQ(result.find("backend")->asString(), "trajectory");
    expectMatchesRuns(
        result, sequentialSearch(g, service::specFromJson(&spec), 3, 6));
}

TEST(ServiceRoundTrip, OptimizeResponseLineIsPinned)
{
    Rng rng(12);
    Graph g = gen::connectedGnp(12, 0.4, rng);
    const std::string line =
        ServiceServer().handleLine(optimizeLine(g, 8, 3, layersSpec(2)));
    EXPECT_EQ(line,
              R"({"schema_version":1,"id":1,"ok":true,"result":{)"
              R"("backend":"statevector","params":{)"
              R"("gamma":[0.42402174946752763,1.4993760156769196],)"
              R"("beta":[3.4420115816370882,1.63596450654101]},)"
              R"("energy":18.3433439230048,"evaluations":480,)"
              R"("restarts":8}})");
}

TEST(ServiceRoundTrip, PipelineMatchesDirectPipeline)
{
    Graph g = smallGraph(31);
    json::Value doc = json::Value::object();
    doc["id"] = 1;
    doc["method"] = "pipeline";
    json::Value params = json::Value::object();
    params["graph"] = service::graphToJson(g);
    json::Value options = json::Value::object();
    options["noise"] = "ibmq_kolkata";
    options["restarts"] = 2;
    options["search_evaluations"] = 12;
    options["refine_evaluations"] = 6;
    options["trajectories"] = 3;
    params["options"] = std::move(options);
    params["rng_seed"] = 6;
    doc["params"] = std::move(params);

    ServiceServer server;
    json::Value result = resultOf(server.handleLine(doc.dump()));

    PipelineOptions direct_opts;
    direct_opts.noise = noise::ibmKolkata();
    direct_opts.restarts = 2;
    direct_opts.searchEvaluations = 12;
    direct_opts.refineEvaluations = 6;
    direct_opts.trajectories = 3;
    Rng rng(6);
    PipelineResult direct = RedQaoaPipeline(direct_opts).run(g, rng);
    EXPECT_EQ(result.find("ideal_energy")->asNumber(),
              direct.idealEnergy);
    EXPECT_EQ(result.find("approx_ratio")->asNumber(),
              direct.approxRatio);
    EXPECT_EQ(result.find("max_cut")->asNumber(), direct.maxCut);
    EXPECT_EQ(result.find("reduced_nodes")->asNumber(),
              direct.reduction.reduced.graph.numNodes());
    EXPECT_EQ(result.find("flow")->asString(), "red-qaoa");
}

TEST(ServiceRoundTrip, FleetMatchesDirectFleetRuns)
{
    std::vector<std::pair<std::string, Graph>> graphs{
        {"a", smallGraph(41)}, {"b", smallGraph(42)}};
    json::Value doc = json::Value::object();
    doc["id"] = 1;
    doc["method"] = "fleet";
    json::Value params = json::Value::object();
    json::Value jgraphs = json::Value::array();
    for (const auto &[name, graph] : graphs) {
        json::Value entry = json::Value::object();
        entry["name"] = name;
        entry["graph"] = service::graphToJson(graph);
        jgraphs.push(std::move(entry));
    }
    params["graphs"] = std::move(jgraphs);
    json::Value noises = json::Value::array();
    noises.push(json::Value("ibmq_kolkata"));
    params["noises"] = std::move(noises);
    json::Value depths = json::Value::array();
    depths.push(json::Value(1));
    params["depths"] = std::move(depths);
    json::Value options = json::Value::object();
    options["restarts"] = 1;
    options["search_evaluations"] = 6;
    options["refine_evaluations"] = 3;
    options["trajectories"] = 2;
    params["options"] = std::move(options);
    params["seed0"] = 17;
    params["include_baseline"] = true;
    doc["params"] = std::move(params);

    ServiceServer server;
    json::Value result = resultOf(server.handleLine(doc.dump()));
    EXPECT_EQ(result.find("schema_version")->asNumber(), 1.0);
    EXPECT_EQ(result.find("tool")->asString(), "redqaoa_fleet");

    PipelineOptions base;
    base.noise = noise::ibmKolkata();
    base.restarts = 1;
    base.searchEvaluations = 6;
    base.refineEvaluations = 3;
    base.trajectories = 2;
    auto scenarios = PipelineFleet::grid(graphs, {noise::ibmKolkata()},
                                         {1}, base, 17, true);
    FleetReport direct = PipelineFleet().run(scenarios);
    // The deterministic portion of the report is byte-identical.
    EXPECT_EQ(result.find("runs")->dump(), direct.runsJson().dump());
}

TEST(ServiceRoundTrip, StatsSharesTheFleetReportEngineSchema)
{
    Graph g = smallGraph();
    Rng rng(2);
    ServiceServer server;
    resultOf(server.handleLine(
        evaluateRequest(1, g, randomParameterSets(1, 4, rng))));

    json::Value stats = resultOf(
        server.handleLine(R"({"id": 2, "method": "stats"})"));
    const json::Value *engine = stats.find("engine");
    ASSERT_NE(engine, nullptr);

    // One source of truth: the stats method's engine block and the
    // fleet report's metadata.engine expose the same key set.
    FleetReport empty_report;
    json::Value fleet_doc = empty_report.toJson();
    const json::Value &fleet_engine =
        *fleet_doc.find("metadata")->find("engine");
    ASSERT_EQ(engine->size(), fleet_engine.size());
    for (std::size_t i = 0; i < fleet_engine.asObject().size(); ++i)
        EXPECT_EQ(engine->asObject()[i].first,
                  fleet_engine.asObject()[i].first);

    EXPECT_EQ(engine->find("points")->asNumber(), 4.0);
    EXPECT_EQ(engine->find("jobs_drained")->asNumber(), 1.0);
    EXPECT_EQ(engine->find("drains")->asNumber(), 1.0);

    const json::Value *srv = stats.find("server");
    ASSERT_NE(srv, nullptr);
    EXPECT_EQ(srv->find("methods")->find("evaluate")->asNumber(), 1.0);
    EXPECT_GE(srv->find("latency")->find("p99_ms")->asNumber(),
              srv->find("latency")->find("p50_ms")->asNumber());
}

// ---------------------------------------------------------------------
// Error codes, deadlines, backpressure
// ---------------------------------------------------------------------

TEST(ServiceServerTest, MalformedRequestsGetTypedCodes)
{
    ServiceServer server;
    EXPECT_EQ(errorCodeOf(server.handleLine("{{{{")),
              ServiceErrorCode::ParseError);
    EXPECT_EQ(errorCodeOf(server.handleLine(R"({"method": "stats"})")),
              ServiceErrorCode::InvalidRequest);
    // An envelope rejection with a determinable id still echoes it.
    {
        Response bad_deadline = service::parseResponse(server.handleLine(
            R"({"id": 42, "method": "stats", "deadline_ms": -5})"));
        EXPECT_FALSE(bad_deadline.ok);
        EXPECT_EQ(bad_deadline.errorCode,
                  ServiceErrorCode::InvalidRequest);
        EXPECT_EQ(bad_deadline.id.asNumber(), 42.0);
    }
    EXPECT_EQ(errorCodeOf(server.handleLine(
                  R"({"id": 1, "method": "frobnicate"})")),
              ServiceErrorCode::UnknownMethod);
    EXPECT_EQ(errorCodeOf(server.handleLine(
                  R"({"id": 1, "method": "evaluate", "params": {}})")),
              ServiceErrorCode::InvalidParams);
    EXPECT_EQ(
        errorCodeOf(server.handleLine(
            R"({"id": 1, "method": "evaluate", "params": {"graph": {"nodes": 2, "edges": [[0,1]]}, "points": [[0.1]]}})")),
        ServiceErrorCode::InvalidParams);
    // A statevector request far beyond any backend's range.
    EXPECT_EQ(
        errorCodeOf(server.handleLine(
            R"({"id": 1, "method": "evaluate", "params": {"graph": {"nodes": 40, "edges": [[0,1]]}, "points": [[0.1, 0.2]], "spec": {"backend": "statevector"}}})")),
        ServiceErrorCode::InvalidParams);
    // Every response above was counted, none executed except by code.
    service::ServerStats stats = server.stats();
    EXPECT_EQ(stats.served, 7u);
    EXPECT_EQ(stats.errorCount, 7u);
    EXPECT_EQ(stats.rejectedParse, 3u);
}

TEST(ServiceServerTest, PinnedLayersMustMatchPointDepth)
{
    ServiceServer server;
    Graph g = smallGraph();
    Rng rng(61);
    json::Value spec = json::Value::object();
    spec["layers"] = 1;
    EXPECT_EQ(errorCodeOf(server.handleLine(evaluateRequest(
                  1, g, randomParameterSets(2, 3, rng), std::move(spec)))),
              ServiceErrorCode::InvalidParams);
}

/** A request that keeps the executor busy for a while (~seconds). */
std::string
slowRequest(int id)
{
    Rng rng(55);
    Graph g = gen::connectedGnp(16, 0.3, rng);
    return evaluateRequest(id, g, randomParameterSets(3, 96, rng));
}

TEST(ServiceServerTest, QueuedDeadlineExpiryIsReported)
{
    ServiceServer server;
    // The slow request occupies the executor; the dated request sits
    // behind it in the queue until far past its 1 ms deadline.
    std::future<std::string> slow = server.submitLine(slowRequest(1));
    json::Value doc = json::Value::object();
    doc["id"] = 2;
    doc["method"] = "stats";
    doc["deadline_ms"] = 0.001;
    std::future<std::string> dated = server.submitLine(doc.dump());

    EXPECT_EQ(errorCodeOf(dated.get()),
              ServiceErrorCode::DeadlineExceeded);
    resultOf(slow.get()); // The slow request itself succeeded.
    EXPECT_EQ(server.stats().expiredDeadline, 1u);

    // Without pressure ahead of it, the same deadline passes easily.
    json::Value relaxed = json::Value::object();
    relaxed["id"] = 3;
    relaxed["method"] = "stats";
    relaxed["deadline_ms"] = 60000.0;
    resultOf(server.handleLine(relaxed.dump()));
}

TEST(ServiceServerTest, FullAdmissionQueueAnswersOverloaded)
{
    service::ServerOptions opts;
    opts.queueCapacity = 1;
    ServiceServer server(opts);

    // Occupy the executor, then wait until it actually picked the job
    // up (dequeued == 1) so the queue state below is deterministic.
    std::future<std::string> slow = server.submitLine(slowRequest(1));
    for (int i = 0; i < 5000 && server.stats().dequeued < 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.stats().dequeued, 1u);

    // One request fills the capacity-1 queue; the next must bounce.
    std::future<std::string> queued =
        server.submitLine(R"({"id": 2, "method": "stats"})");
    std::future<std::string> bounced =
        server.submitLine(R"({"id": 3, "method": "stats"})");
    EXPECT_EQ(errorCodeOf(bounced.get()), ServiceErrorCode::Overloaded);

    resultOf(slow.get());
    resultOf(queued.get());
    service::ServerStats stats = server.stats();
    EXPECT_EQ(stats.rejectedOverload, 1u);
    EXPECT_EQ(stats.okCount, 2u);
}

TEST(ServiceServerTest, ShutdownMethodStopsAdmission)
{
    ServiceServer server;
    json::Value ack = resultOf(
        server.handleLine(R"({"id": 1, "method": "shutdown"})"));
    EXPECT_TRUE(ack.find("stopping")->asBool());
    EXPECT_TRUE(server.shutdownRequested());
    EXPECT_EQ(errorCodeOf(server.handleLine(
                  R"({"id": 2, "method": "stats"})")),
              ServiceErrorCode::ShuttingDown);
    server.stop();

    // stop() drains: with a slow request executing and two queued
    // behind it on the same shard, each queued one gets exactly one
    // shutting_down answer (the future would throw broken_promise if
    // its callback never ran) and no counter is left behind.
    ServiceServer draining;
    std::future<std::string> slow = draining.submitLine(slowRequest(1));
    for (int i = 0; i < 5000 && draining.stats().dequeued < 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(draining.stats().dequeued, 1u);
    std::vector<std::future<std::string>> queued;
    for (int id = 2; id <= 3; ++id)
        queued.push_back(draining.submitLine(
            R"({"id": )" + std::to_string(id) + R"(, "method": "stats"})"));
    draining.stop();
    resultOf(slow.get());
    for (std::future<std::string> &future : queued)
        EXPECT_EQ(errorCodeOf(future.get()), ServiceErrorCode::ShuttingDown);
    EXPECT_EQ(draining.stats().shedShutdown, 2u);
    json::Value health = resultOf(
        draining.handleLine(R"({"id": 4, "method": "health"})"));
    EXPECT_EQ(health.find("in_flight")->asNumber(), 0.0);
    for (const json::Value &depth : health.find("queue_depths")->asArray())
        EXPECT_EQ(depth.asNumber(), 0.0);
}

TEST(ServiceServerTest, FirstStatsCountsItself)
{
    // A stats request is counted received and admitted before an
    // executor can run it, and served only once answered: on a fresh
    // server it sees itself exactly once, every time.
    for (int round = 0; round < 50; ++round) {
        ServiceServer server;
        json::Value stats = resultOf(
            server.handleLine(R"({"id": 1, "method": "stats"})"));
        const json::Value *traffic = stats.find("server");
        ASSERT_NE(traffic, nullptr);
        EXPECT_EQ(traffic->find("received")->asNumber(), 1.0) << round;
        EXPECT_EQ(traffic->find("admitted")->asNumber(), 1.0) << round;
        EXPECT_EQ(traffic->find("dequeued")->asNumber(), 1.0) << round;
        EXPECT_EQ(traffic->find("served")->asNumber(), 0.0) << round;
    }
}

// ---------------------------------------------------------------------
// Determinism: same requests -> same payloads, any threads, any clients
// ---------------------------------------------------------------------

/** A mixed request set covering the deterministic methods. */
std::vector<std::string>
determinismRequests()
{
    std::vector<std::string> requests;
    Rng rng(314);
    std::vector<Graph> graphs{smallGraph(1), smallGraph(2),
                              smallGraph(3)};
    std::vector<std::vector<QaoaParams>> batches{
        randomParameterSets(1, 6, rng), randomParameterSets(2, 6, rng)};
    int id = 1;
    for (int round = 0; round < 2; ++round)
        for (std::size_t gi = 0; gi < graphs.size(); ++gi)
            for (std::size_t bi = 0; bi < batches.size(); ++bi)
                requests.push_back(
                    evaluateRequest(id++, graphs[gi], batches[bi]));
    // Noisy evaluation (whole-batch semantics).
    json::Value noisy_spec = json::Value::object();
    noisy_spec["noise"] = "ibmq_kolkata";
    noisy_spec["trajectories"] = 4;
    noisy_spec["seed"] = 5;
    requests.push_back(
        evaluateRequest(id++, graphs[0], batches[0], std::move(noisy_spec)));
    // Reduction and optimization.
    for (std::uint64_t seed : {3u, 4u}) {
        json::Value doc = json::Value::object();
        doc["id"] = id++;
        doc["method"] = "reduce";
        json::Value params = json::Value::object();
        params["graph"] = service::graphToJson(graphs[1]);
        params["seed"] = static_cast<std::size_t>(seed);
        doc["params"] = std::move(params);
        requests.push_back(doc.dump());
    }
    {
        json::Value doc = json::Value::object();
        doc["id"] = id++;
        doc["method"] = "optimize";
        json::Value params = json::Value::object();
        params["graph"] = service::graphToJson(graphs[2]);
        params["restarts"] = 2;
        params["max_evaluations"] = 15;
        params["seed"] = 8;
        doc["params"] = std::move(params);
        requests.push_back(doc.dump());
    }
    return requests;
}

/**
 * Submit @p requests from @p client_threads concurrent submitters
 * against a fresh server and return id -> response line.
 */
std::map<double, std::string>
runConcurrently(const std::vector<std::string> &requests,
                int client_threads)
{
    ServiceServer server;
    std::vector<std::vector<std::future<std::string>>> futures(
        static_cast<std::size_t>(client_threads));
    std::vector<std::thread> submitters;
    for (int c = 0; c < client_threads; ++c)
        submitters.emplace_back([&, c] {
            // Round-robin slices interleave admissions across threads.
            for (std::size_t i = static_cast<std::size_t>(c);
                 i < requests.size();
                 i += static_cast<std::size_t>(client_threads))
                futures[static_cast<std::size_t>(c)].push_back(
                    server.submitLine(requests[i]));
        });
    for (std::thread &t : submitters)
        t.join();

    std::map<double, std::string> by_id;
    for (auto &slice : futures)
        for (std::future<std::string> &future : slice) {
            std::string line = future.get();
            Response response = service::parseResponse(line);
            EXPECT_TRUE(response.ok) << line;
            by_id[response.id.asNumber()] = line;
        }
    return by_id;
}

TEST(ServiceDeterminism, SameRequestsSamePayloadsAtOneAndEightThreads)
{
    PoolGuard guard;
    std::vector<std::string> requests = determinismRequests();

    ThreadPool::setGlobalThreads(1);
    std::map<double, std::string> serial = runConcurrently(requests, 4);
    ASSERT_EQ(serial.size(), requests.size());

    ThreadPool::setGlobalThreads(8);
    std::map<double, std::string> parallel =
        runConcurrently(requests, 4);
    std::map<double, std::string> parallel_again =
        runConcurrently(requests, 2);

    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(parallel, parallel_again);
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

TEST(ServiceTcp, ConcurrentClientsGetDirectEngineValues)
{
    Graph g = smallGraph();
    Rng rng(19);
    std::vector<QaoaParams> points = randomParameterSets(1, 8, rng);
    std::vector<double> want =
        EvalEngine().evaluate(g, EvalSpec::ideal(1), points);

    ServiceServer server;
    TcpServiceListener listener(server, 0);
    ASSERT_GT(listener.port(), 0);

    std::vector<std::vector<double>> got(3);
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c)
        clients.emplace_back([&, c] {
            ServiceClient client = connectV1(listener.port());
            service::EvaluateRequest req;
            req.graph = g;
            req.points = points;
            for (int repeat = 0; repeat < 3; ++repeat)
                got[static_cast<std::size_t>(c)] =
                    client.evaluate(req).values;
        });
    for (std::thread &t : clients)
        t.join();
    for (const std::vector<double> &values : got)
        EXPECT_EQ(values, want);

    // Typed errors cross the wire as the same taxonomy.
    ServiceClient client = connectV1(listener.port());
    try {
        client.call("frobnicate");
        FAIL() << "unknown method did not throw";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), ServiceErrorCode::UnknownMethod);
    }

    json::Value stats = client.stats();
    EXPECT_GE(stats.find("server")->find("served")->asNumber(), 10.0);

    client.shutdown();
    EXPECT_TRUE(server.waitShutdownFor(10.0));
    listener.stop();
    server.stop();
    EXPECT_GE(server.stats().served, 12u);
}

TEST(ServiceTcp, OversizedRequestLineIsRefused)
{
    ServiceServer server;
    TcpServiceListener listener(server, 0);
    ServiceClient client = connectV1(listener.port());

    // A single line just past the 8 MiB cap can never frame: the
    // server answers once with invalid_request and drops the
    // connection. (Only slightly past the cap, so the client's write
    // completes into kernel buffers even though the server stops
    // reading at the cap.)
    std::string huge((8u << 20) + 4096, 'x');
    std::string line = client.rawExchange(huge);
    EXPECT_EQ(errorCodeOf(line), ServiceErrorCode::InvalidRequest);

    listener.stop();
    server.stop();
}

// ---------------------------------------------------------------------
// Protocol v2: handshake, compat, sharding
// ---------------------------------------------------------------------

TEST(ServiceV2, HelloReportsServerCapabilities)
{
    service::ServerOptions opts;
    opts.shards = 3;
    opts.queueCapacity = 17;
    opts.maxConnections = 9;
    opts.idleTimeoutMs = 1234.0;
    ServiceServer server(opts);
    TcpServiceListener listener(server, 0);

    service::ConnectOptions copts;
    copts.port = listener.port();
    ServiceClient client = ServiceClient::connect(copts);
    EXPECT_EQ(client.schemaVersion(), service::kSchemaVersionV2);

    service::ServerInfo info = client.hello();
    EXPECT_EQ(info.server, "redqaoa_serve");
    EXPECT_EQ(info.schemaVersions, (std::vector<int>{1, 2}));
    EXPECT_EQ(info.shards, 3);
    EXPECT_EQ(info.queueCapacity, 17u);
    EXPECT_EQ(info.maxConnections, 9u);
    EXPECT_EQ(info.idleTimeoutMs, 1234.0);
    EXPECT_EQ(info.maxLineBytes, service::kMaxLineBytes);
    for (const char *method :
         {"evaluate", "hello", "pipeline", "shutdown", "stats"})
        EXPECT_NE(std::find(info.methods.begin(), info.methods.end(),
                            method),
                  info.methods.end())
            << "hello is missing method " << method;
    EXPECT_EQ(keysOf(client.call("hello")),
              (std::vector<std::string>{
                  "server", "schema_versions", "shards", "queue_capacity",
                  "max_connections", "idle_timeout_ms", "max_line_bytes",
                  "methods"}));

    // The v2 response carried routing metadata.
    service::RouteInfo route;
    EXPECT_TRUE(client.lastRoute(route));
    EXPECT_GE(route.shard, 0);
    EXPECT_LT(route.shard, 3);

    listener.stop();
    server.stop();
}

TEST(ServiceV2, V1RequestsKeepTheV1ShapeOnAShardedServer)
{
    service::ServerOptions opts;
    opts.shards = 2;
    ServiceServer server(opts);

    Graph g = smallGraph();
    Rng rng(23);
    std::vector<QaoaParams> points = randomParameterSets(1, 5, rng);
    std::string v1_line = evaluateRequest(1, g, points);

    // A v1 request (no schema_version member) answers in the v1
    // shape: version 1 echoed, no route block.
    std::string v1_response = server.submitLine(v1_line).get();
    Response v1 = service::parseResponse(v1_response);
    EXPECT_TRUE(v1.ok);
    EXPECT_EQ(v1.schemaVersion, service::kSchemaVersion);
    EXPECT_FALSE(v1.hasRoute);
    EXPECT_EQ(v1_response.find("\"route\""), std::string::npos);

    // The same request stamped v2 gains routing metadata but the
    // result payload stays byte-identical.
    json::Value doc = json::Value::parse(v1_line);
    doc["schema_version"] = service::kSchemaVersionV2;
    Response v2 = service::parseResponse(server.submitLine(doc.dump()).get());
    EXPECT_TRUE(v2.ok);
    EXPECT_EQ(v2.schemaVersion, service::kSchemaVersionV2);
    EXPECT_TRUE(v2.hasRoute);
    EXPECT_GE(v2.route.shard, 0);
    EXPECT_LT(v2.route.shard, 2);
    EXPECT_GE(v2.route.queueMs, 0.0);
    EXPECT_EQ(v1.result.dump(), v2.result.dump());

    server.stop();
}

TEST(ServiceV2, ShardCountNeverChangesResponsePayloads)
{
    std::vector<Graph> graphs;
    for (std::uint64_t seed = 31; seed <= 36; ++seed)
        graphs.push_back(smallGraph(seed));
    Rng rng(29);
    std::vector<QaoaParams> points = randomParameterSets(1, 6, rng);

    std::vector<std::string> requests;
    for (std::size_t i = 0; i < graphs.size(); ++i)
        requests.push_back(
            evaluateRequest(static_cast<int>(i), graphs[i], points));

    // v1 requests produce fully byte-identical response lines at every
    // shard count: same results, same envelope, no routing metadata.
    std::vector<std::vector<std::string>> responses;
    for (int shards : {1, 2, 4}) {
        service::ServerOptions opts;
        opts.shards = shards;
        ServiceServer server(opts);
        std::vector<std::string> lines;
        for (const std::string &request : requests)
            lines.push_back(server.submitLine(request).get());
        responses.push_back(std::move(lines));
        server.stop();
    }
    EXPECT_EQ(responses[0], responses[1]);
    EXPECT_EQ(responses[0], responses[2]);
}

TEST(ServiceV2, StatsShardsShareTheAggregateKeySet)
{
    service::ServerOptions opts;
    opts.shards = 2;
    ServiceServer server(opts);
    TcpServiceListener listener(server, 0);
    service::ConnectOptions copts;
    copts.port = listener.port();
    ServiceClient client = ServiceClient::connect(copts);

    Graph g = smallGraph();
    Rng rng(41);
    service::EvaluateRequest eval;
    eval.graph = g;
    eval.points = randomParameterSets(1, 4, rng);
    client.evaluate(eval);

    // One stats shape everywhere: the aggregate engine block and every
    // per-shard block expose exactly the same key set.
    json::Value stats = client.stats();
    const json::Value *engine = stats.find("engine");
    const json::Value *shards = stats.find("shards");
    ASSERT_NE(engine, nullptr);
    ASSERT_NE(shards, nullptr);
    ASSERT_EQ(shards->size(), 2u);
    std::vector<std::string> want = keysOf(*engine);
    EXPECT_FALSE(want.empty());
    for (const json::Value &shard : shards->asArray())
        EXPECT_EQ(keysOf(shard), want);

    // The fleet report's metadata.engine block reuses the same shape.
    json::Value fleet_params = json::Value::object();
    json::Value fleet_graphs = json::Value::array();
    json::Value entry = json::Value::object();
    entry["name"] = "g0";
    entry["graph"] = service::graphToJson(smallGraph(43));
    fleet_graphs.push(std::move(entry));
    fleet_params["graphs"] = std::move(fleet_graphs);
    json::Value fleet_opts = json::Value::object();
    fleet_opts["restarts"] = 1;
    fleet_opts["search_evaluations"] = 6;
    fleet_opts["refine_evaluations"] = 2;
    fleet_params["options"] = std::move(fleet_opts);
    json::Value fleet = client.call("fleet", std::move(fleet_params));
    const json::Value *meta_engine =
        fleet.find("metadata")->find("engine");
    ASSERT_NE(meta_engine, nullptr);
    EXPECT_EQ(keysOf(*meta_engine), want);

    // A v1 client sees no shards block (v1 shape preserved).
    ServiceClient v1 = connectV1(listener.port());
    json::Value v1_stats = v1.stats();
    EXPECT_NE(v1_stats.find("engine"), nullptr);
    EXPECT_EQ(v1_stats.find("shards"), nullptr);

    listener.stop();
    server.stop();
}

// ---------------------------------------------------------------------
// Transport hardening
// ---------------------------------------------------------------------

TEST(ServiceTcp, IdleConnectionsAreEvicted)
{
    service::ServerOptions opts;
    opts.idleTimeoutMs = 50.0;
    ServiceServer server(opts);
    TcpServiceListener listener(server, 0);

    service::ConnectOptions copts;
    copts.port = listener.port();
    ServiceClient client = ServiceClient::connect(copts);
    client.hello(); // The connection works while active.

    // Go idle past the timeout: the server closes the connection, so
    // the next exchange fails at the transport layer.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_THROW(client.hello(), std::runtime_error);

    listener.stop();
    server.stop();
}

TEST(ServiceTcp, ConnectionLimitBouncesWithTypedOverloaded)
{
    service::ServerOptions opts;
    opts.maxConnections = 1;
    ServiceServer server(opts);
    TcpServiceListener listener(server, 0);

    service::ConnectOptions copts;
    copts.port = listener.port();
    ServiceClient first = ServiceClient::connect(copts);
    first.hello(); // Occupies the single slot.

    // The next connection is accepted just long enough to answer one
    // typed `overloaded` error line, then closed.
    ServiceClient second = ServiceClient::connect(copts);
    std::string line = second.rawExchange("ping");
    EXPECT_EQ(errorCodeOf(line), ServiceErrorCode::Overloaded);
    EXPECT_GE(listener.bouncedConnections(), 1u);

    // The admitted connection keeps working.
    first.hello();

    listener.stop();
    server.stop();
}

TEST(ServiceTcp, DisconnectMidResponseDoesNotWedgeTheServer)
{
    ServiceServer server;
    TcpServiceListener listener(server, 0);

    Graph g = smallGraph();
    Rng rng(47);
    std::vector<QaoaParams> points = randomParameterSets(1, 16, rng);
    std::string request = evaluateRequest(1, g, points);

    // Clients that send a request and vanish before reading the
    // response: the write side hits EPIPE/ECONNRESET, which must tear
    // the connection down cleanly instead of wedging the server.
    for (int round = 0; round < 8; ++round) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(listener.port()));
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr),
                  0);
        ASSERT_TRUE(service::detail::writeLine(fd, request));
        ::close(fd); // Gone before the response exists.
    }

    // The server still serves fresh connections afterwards...
    ServiceClient client = connectV1(listener.port());
    std::vector<double> want =
        EvalEngine().evaluate(g, EvalSpec::ideal(1), points);
    EXPECT_EQ(resultOf(client.rawExchange(request))
                  .find("values")
                  ->size(),
              want.size());

    // ...and shutdown completes promptly (a wedged writer would hang
    // here until the test times out).
    client.shutdown();
    EXPECT_TRUE(server.waitShutdownFor(10.0));
    listener.stop();
    server.stop();
}

TEST(ServiceTcp, ConnectRetriesWithBoundedBackoff)
{
    // Reserve a port with no listener behind it.
    int probe = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(probe, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr *>(&addr),
                     sizeof addr),
              0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    int dead_port = ntohs(addr.sin_port);
    ::close(probe);

    service::ConnectOptions copts;
    copts.port = dead_port;
    copts.maxAttempts = 3;
    copts.backoffInitialMs = 5.0;
    copts.backoffMaxMs = 20.0;
    copts.backoffJitter = false; // Jitter could shrink the sleeps.
    auto start = std::chrono::steady_clock::now();
    try {
        ServiceClient::connect(copts);
        FAIL() << "connect to a dead port did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("3 attempt(s)"),
                  std::string::npos)
            << e.what();
    }
    std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    // Two sleeps happened between the three attempts: 5 ms then 10 ms.
    EXPECT_GE(elapsed.count(), 10.0);
}

// ---------------------------------------------------------------------
// Health: the inline liveness probe
// ---------------------------------------------------------------------

TEST(ServiceHealth, HealthAnswersInlineUnderAFullQueue)
{
    service::ServerOptions opts;
    opts.queueCapacity = 1;
    ServiceServer server(opts);

    // Occupy the executor and fill the capacity-1 queue: a queued
    // probe would now sit behind seconds of work, so only an inline
    // answer can double as a liveness signal.
    std::future<std::string> slow = server.submitLine(slowRequest(1));
    for (int i = 0; i < 5000 && server.stats().dequeued < 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.stats().dequeued, 1u);
    std::future<std::string> queued =
        server.submitLine(R"({"id": 2, "method": "stats"})");

    auto start = std::chrono::steady_clock::now();
    json::Value health = resultOf(
        server.handleLine(R"({"id": 3, "method": "health"})"));
    std::chrono::duration<double, std::milli> probe_ms =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(probe_ms.count(), 1000.0); // Did not wait for the queue.

    EXPECT_EQ(health.find("status")->asString(), "ok");
    EXPECT_GE(health.find("uptime_seconds")->asNumber(), 0.0);
    EXPECT_EQ(health.find("pid")->asNumber(),
              static_cast<double>(::getpid()));
    EXPECT_EQ(health.find("shards")->asNumber(), 1.0);
    ASSERT_EQ(health.find("queue_depths")->size(), 1u);
    EXPECT_GE(health.find("in_flight")->asNumber(), 1.0);

    resultOf(slow.get());
    resultOf(queued.get());
    // With the pipeline drained, in-flight returns to zero.
    json::Value after = resultOf(
        server.handleLine(R"({"id": 4, "method": "health"})"));
    EXPECT_EQ(after.find("in_flight")->asNumber(), 0.0);
    server.stop();
}

TEST(ServiceHealth, HealthReportsStoppingWhileDraining)
{
    ServiceServer server;
    resultOf(server.handleLine(R"({"id": 1, "method": "shutdown"})"));
    // Regular admission is closed, but the probe still answers — a
    // supervisor must be able to watch a worker drain.
    json::Value health = resultOf(
        server.handleLine(R"({"id": 2, "method": "health"})"));
    EXPECT_EQ(health.find("status")->asString(), "stopping");
    server.stop();
}

TEST(ServiceHealth, HelloAdvertisesTheHealthMethod)
{
    ServiceServer server;
    TcpServiceListener listener(server, 0);
    service::ConnectOptions copts;
    copts.port = listener.port();
    ServiceClient client = ServiceClient::connect(copts);
    service::ServerInfo info = client.hello();
    EXPECT_NE(std::find(info.methods.begin(), info.methods.end(),
                        "health"),
              info.methods.end());
    listener.stop();
    server.stop();
}

// ---------------------------------------------------------------------
// Client retry semantics
// ---------------------------------------------------------------------

TEST(ServiceRetry, RetryableCodesAreExactlyOverloadedAndWorkerFailed)
{
    // The retry whitelist is a contract, not a heuristic: only errors
    // the server emits BEFORE executing (overloaded bounce) or that
    // the lb emits for maybe-executed-but-pure requests (worker_failed)
    // are safe to resend blindly.
    for (ServiceErrorCode code :
         {ServiceErrorCode::ParseError, ServiceErrorCode::InvalidRequest,
          ServiceErrorCode::UnknownMethod,
          ServiceErrorCode::InvalidParams,
          ServiceErrorCode::DeadlineExceeded,
          ServiceErrorCode::ShuttingDown, ServiceErrorCode::Internal})
        EXPECT_FALSE(ServiceClient::retryableCode(code))
            << service::errorCodeName(code);
    EXPECT_TRUE(ServiceClient::retryableCode(ServiceErrorCode::Overloaded));
    EXPECT_TRUE(
        ServiceClient::retryableCode(ServiceErrorCode::WorkerFailed));
}

TEST(ServiceRetry, ConnectBackoffScheduleIsSeededAndJittered)
{
    service::ConnectOptions copts;
    copts.maxAttempts = 5;
    copts.backoffInitialMs = 8.0;
    copts.backoffMaxMs = 20.0;
    copts.backoffSeed = 99;

    // Same seed -> same schedule (tests can pin chaos timing).
    std::vector<double> a = ServiceClient::connectBackoffSchedule(copts, 4);
    std::vector<double> b = ServiceClient::connectBackoffSchedule(copts, 4);
    EXPECT_EQ(a, b);
    // Jitter stays within [0.5, 1.5) of the doubling, capped base.
    const double bases[] = {8.0, 16.0, 20.0, 20.0};
    ASSERT_EQ(a.size(), 4u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_GE(a[i], 0.5 * bases[i]) << i;
        EXPECT_LT(a[i], 1.5 * bases[i]) << i;
    }

    // A different seed jitters differently; no jitter means the exact
    // base schedule (and full determinism without pinning a seed).
    copts.backoffSeed = 100;
    EXPECT_NE(ServiceClient::connectBackoffSchedule(copts, 4), a);
    copts.backoffJitter = false;
    std::vector<double> flat =
        ServiceClient::connectBackoffSchedule(copts, 4);
    EXPECT_EQ(flat, std::vector<double>(bases, bases + 4));
}

/** Evaluate params for client.call (same content as evaluateRequest). */
json::Value
evaluateParams(const Graph &g, const std::vector<QaoaParams> &points)
{
    json::Value params = json::Value::object();
    params["graph"] = service::graphToJson(g);
    params["points"] = service::pointsToJson(points);
    return params;
}

/**
 * The payload a retrying client obtains from a server whose transport
 * injects @p fault_spec, which must be byte-identical to the fault-free
 * payload for the same request. Exercises the full client retry loop:
 * typed `overloaded` bounces retry on the same connection, resets and
 * torn frames reconnect first.
 */
std::string
chaosPayload(const std::string &fault_spec, const Graph &g,
             const std::vector<QaoaParams> &points)
{
    service::FaultPlane faults(fault_spec);
    ServiceServer server;
    TcpServiceListener listener(server, 0, &faults);

    service::ConnectOptions copts;
    copts.port = listener.port();
    copts.maxRetries = 3;
    copts.retryBackoffInitialMs = 1.0;
    copts.retryBackoffMaxMs = 5.0;
    copts.backoffSeed = 7;
    ServiceClient client = ServiceClient::connect(copts);
    json::Value result = client.call("evaluate", evaluateParams(g, points));
    std::string payload = result.dump();
    EXPECT_GT(faults.injectedCount(), 0u) << fault_spec;
    listener.stop();
    server.stop();
    return payload;
}

TEST(ServiceRetry, InjectedFaultsAreAbsorbedWithByteIdenticalPayloads)
{
    Graph g = smallGraph(71);
    Rng rng(72);
    std::vector<QaoaParams> points = randomParameterSets(1, 6, rng);

    // Fault-free baseline through the same code path.
    std::string baseline;
    {
        ServiceServer server;
        TcpServiceListener listener(server, 0);
        service::ConnectOptions copts;
        copts.port = listener.port();
        ServiceClient client = ServiceClient::connect(copts);
        baseline =
            client.call("evaluate", evaluateParams(g, points)).dump();
        listener.stop();
        server.stop();
    }

    // overload@1: the first eligible request bounces with the typed
    // `overloaded` error; the retry succeeds on the same connection.
    EXPECT_EQ(chaosPayload("overload@1", g, points), baseline);
    // reset@1: the connection dies before any response; the client
    // reconnects and resends (the request was never admitted).
    EXPECT_EQ(chaosPayload("reset@1", g, points), baseline);
    // truncate@1: half a response line, then a reset — the torn frame
    // must be thrown away, never parsed.
    EXPECT_EQ(chaosPayload("truncate@1", g, points), baseline);
}

TEST(ServiceRetry, RetryCountersAndNonRetryableErrorsAreHonest)
{
    Graph g = smallGraph(73);
    Rng rng(74);
    std::vector<QaoaParams> points = randomParameterSets(1, 4, rng);

    service::FaultPlane faults("overload@1;reset@2");
    ServiceServer server;
    TcpServiceListener listener(server, 0, &faults);
    service::ConnectOptions copts;
    copts.port = listener.port();
    copts.maxRetries = 4;
    copts.retryBackoffInitialMs = 1.0;
    copts.backoffSeed = 11;
    ServiceClient client = ServiceClient::connect(copts);

    // Attempt 1 bounces (overload@1), attempt 2 is reset mid-flight
    // (reset@2), attempt 3 succeeds after a reconnect.
    json::Value result =
        client.call("evaluate", evaluateParams(g, points));
    EXPECT_NE(result.find("values"), nullptr);
    EXPECT_EQ(client.retriesIssued(), 2u);
    EXPECT_EQ(client.reconnects(), 1u);

    // Non-retryable errors surface immediately, despite the budget.
    try {
        client.call("frobnicate");
        FAIL() << "unknown method did not throw";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), ServiceErrorCode::UnknownMethod);
    }
    EXPECT_EQ(client.retriesIssued(), 2u); // No retry was spent on it.

    listener.stop();
    server.stop();
}

TEST(ServiceRetry, ZeroMaxRetriesSurfacesRetryableErrors)
{
    service::FaultPlane faults("overload@1");
    ServiceServer server;
    TcpServiceListener listener(server, 0, &faults);
    ServiceClient client = connectV1(listener.port());
    try {
        client.call("stats");
        FAIL() << "injected overload did not throw without a budget";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), ServiceErrorCode::Overloaded);
    }
    listener.stop();
    server.stop();
}

// ---------------------------------------------------------------------
// The lb fleet proxy, driven against in-process fake workers
// ---------------------------------------------------------------------

/**
 * WorkerDirectory over in-process ServiceServer-backed lanes: killing
 * a lane stops its listener (from the fleet's side this is
 * indistinguishable from a dead process), reviving it brings up a
 * fresh server on a fresh port with a bumped generation. An optional
 * per-lane fault plane chaoses the worker transport; the plane
 * persists across revives, so one-shot schedules fire once per test.
 * Every lane's server runs with @p server_opts.
 */
class TestWorkerDirectory : public service::WorkerDirectory
{
  public:
    explicit TestWorkerDirectory(std::size_t lanes,
                                 const std::string &fault_spec = "",
                                 service::ServerOptions server_opts = {})
        : serverOpts_(std::move(server_opts))
    {
        for (std::size_t i = 0; i < lanes; ++i) {
            auto lane = std::make_unique<Lane>();
            if (!fault_spec.empty())
                lane->faults.configure(fault_spec);
            startLane(*lane);
            lanes_.push_back(std::move(lane));
        }
    }

    ~TestWorkerDirectory() override
    {
        for (auto &lane : lanes_)
            stopLane(*lane);
    }

    std::size_t workerCount() const override { return lanes_.size(); }

    service::LaneState endpoint(std::size_t index,
                                service::WorkerEndpoint &out) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Lane &lane = *lanes_[index];
        if (lane.state == service::LaneState::Up) {
            out.port = lane.listener->port();
            out.generation = lane.generation;
        }
        return lane.state;
    }

    void reportFailure(std::size_t index,
                       std::uint64_t generation) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (generation == lanes_[index]->generation)
            ++failureReports_;
    }

    json::Value statusJson() const override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        json::Value arr = json::Value::array();
        for (const auto &lane : lanes_) {
            json::Value entry = json::Value::object();
            entry["state"] =
                lane->state == service::LaneState::Up
                    ? "up"
                    : lane->state == service::LaneState::Failed
                          ? "failed"
                          : "restarting";
            entry["generation"] =
                static_cast<std::size_t>(lane->generation);
            arr.push(std::move(entry));
        }
        return arr;
    }

    void kill(std::size_t index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopLane(*lanes_[index]);
        lanes_[index]->state = service::LaneState::Restarting;
    }

    void revive(std::size_t index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Lane &lane = *lanes_[index];
        startLane(lane);
        ++lane.generation;
        lane.state = service::LaneState::Up;
    }

    void failPermanently(std::size_t index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopLane(*lanes_[index]);
        lanes_[index]->state = service::LaneState::Failed;
    }

    std::uint64_t failureReports() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return failureReports_;
    }

    /** Requests lane @p index's fault plane has seen (probes exempt). */
    std::uint64_t faultPlaneRequests(std::size_t index) const
    {
        return lanes_[index]->faults.requestCount();
    }

  private:
    struct Lane
    {
        std::unique_ptr<ServiceServer> server;
        std::unique_ptr<TcpServiceListener> listener;
        service::FaultPlane faults;
        std::uint64_t generation = 1;
        service::LaneState state = service::LaneState::Up;
    };

    void startLane(Lane &lane)
    {
        lane.server = std::make_unique<ServiceServer>(serverOpts_);
        lane.listener = std::make_unique<TcpServiceListener>(
            *lane.server, 0, &lane.faults);
    }

    void stopLane(Lane &lane)
    {
        if (lane.listener)
            lane.listener->stop();
        if (lane.server)
            lane.server->stop();
    }

    service::ServerOptions serverOpts_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::uint64_t failureReports_ = 0;
};

/** submitLine returning a future (the fleet's callback adapted). */
std::future<std::string>
submitTo(service::WorkerFleetService &fleet, std::string line)
{
    auto promise = std::make_shared<std::promise<std::string>>();
    std::future<std::string> future = promise->get_future();
    fleet.submitLine(std::move(line), [promise](std::string response) {
        promise->set_value(std::move(response));
    });
    return future;
}

/** Lane 0's entry of a per-lane lb health array ("queue_depths", ...). */
double
laneHealth(const service::WorkerFleetService &fleet, const char *key)
{
    return fleet.healthResult().find(key)->asArray()[0].asNumber();
}

double
laneQueueDepth(const service::WorkerFleetService &fleet)
{
    return laneHealth(fleet, "queue_depths");
}

TEST(ServiceFleet, RelaysWorkerResponsesVerbatim)
{
    Graph g = smallGraph(81);
    Rng rng(82);
    std::string request =
        evaluateRequest(1, g, randomParameterSets(1, 5, rng));
    std::string direct = ServiceServer().handleLine(request);

    TestWorkerDirectory workers(2);
    service::WorkerFleetService fleet(workers);
    EXPECT_EQ(submitTo(fleet, request).get(), direct);
    // Same request again: same lane, same bytes (routing is by graph
    // hash, so placement is a pure function of the request too).
    EXPECT_EQ(submitTo(fleet, request).get(), direct);
    fleet.stop();
}

TEST(ServiceFleet, AnswersTheControlPlaneItself)
{
    TestWorkerDirectory workers(2);
    service::WorkerFleetService fleet(workers);

    json::Value hello = resultOf(
        submitTo(fleet, R"({"id": 1, "method": "hello"})").get());
    EXPECT_EQ(hello.find("server")->asString(), "redqaoa_lb");
    EXPECT_EQ(hello.find("workers")->asNumber(), 2.0);
    EXPECT_EQ(keysOf(hello),
              (std::vector<std::string>{
                  "server", "schema_versions", "workers", "queue_capacity",
                  "max_connections", "idle_timeout_ms", "max_line_bytes",
                  "methods"}));

    json::Value health = resultOf(
        submitTo(fleet, R"({"id": 2, "method": "health"})").get());
    EXPECT_EQ(health.find("status")->asString(), "ok");
    EXPECT_EQ(health.find("role")->asString(), "lb");
    EXPECT_EQ(health.find("workers")->size(), 2u);
    EXPECT_EQ(health.find("queue_depths")->size(), 2u);

    // Protocol shutdown stops the lb, not just a worker.
    json::Value ack = resultOf(
        submitTo(fleet, R"({"id": 3, "method": "shutdown"})").get());
    EXPECT_TRUE(ack.find("stopping")->asBool());
    EXPECT_TRUE(fleet.waitShutdownFor(5.0));
    fleet.stop();
}

TEST(ServiceFleet, TypedHelloThroughTheLbReportsItsWorkers)
{
    // The lb's hello names its topology `workers`, a worker's `shards`;
    // the typed client decodes either.
    TestWorkerDirectory workers(2);
    service::WorkerFleetService fleet(workers);
    TcpServiceListener listener(fleet, 0);

    service::ConnectOptions copts;
    copts.port = listener.port();
    ServiceClient client = ServiceClient::connect(copts);
    service::ServerInfo info = client.hello();
    EXPECT_EQ(info.server, "redqaoa_lb");
    EXPECT_EQ(info.workers, 2);
    EXPECT_EQ(info.schemaVersions, (std::vector<int>{1, 2}));
    EXPECT_FALSE(info.methods.empty());

    // A worker's typed hello keeps workers at 0.
    service::WorkerEndpoint worker;
    ASSERT_EQ(workers.endpoint(0, worker), service::LaneState::Up);
    copts.port = worker.port;
    service::ServerInfo direct = ServiceClient::connect(copts).hello();
    EXPECT_EQ(direct.server, "redqaoa_serve");
    EXPECT_EQ(direct.workers, 0);
    EXPECT_EQ(direct.shards, 1);
    listener.stop();
    fleet.stop();
}

TEST(ServiceFleet, ReplaysAcrossATornForwardByteIdentically)
{
    Graph g = smallGraph(83);
    Rng rng(84);
    std::string request =
        evaluateRequest(1, g, randomParameterSets(1, 5, rng));
    std::string direct = ServiceServer().handleLine(request);

    // The lane's worker transport resets the first forwarded request:
    // the forwarder must report the failure, reconnect, and replay —
    // and the client-visible line must not change by a byte.
    TestWorkerDirectory workers(1, "reset@1");
    service::WorkerFleetService fleet(workers);
    EXPECT_EQ(submitTo(fleet, request).get(), direct);
    EXPECT_GE(workers.failureReports(), 1u);
    json::Value health = fleet.healthResult();
    EXPECT_GE(health.find("replays")->asNumber(), 1.0);
    EXPECT_EQ(health.find("worker_failures")->asNumber(), 0.0);
    fleet.stop();
}

TEST(ServiceFleet, ReplaysAcrossAWorkerRestartByteIdentically)
{
    Graph g = smallGraph(85);
    Rng rng(86);
    std::string request =
        evaluateRequest(1, g, randomParameterSets(1, 5, rng));
    std::string direct = ServiceServer().handleLine(request);

    TestWorkerDirectory workers(1);
    service::WorkerFleetService fleet(workers);
    // Warm the lane, then kill the worker under the fleet's feet.
    EXPECT_EQ(submitTo(fleet, request).get(), direct);
    workers.kill(0);
    std::future<std::string> held = submitTo(fleet, request);
    // The forwarder is now waiting out the "restart"; the response
    // must not exist yet.
    EXPECT_EQ(held.wait_for(std::chrono::milliseconds(100)),
              std::future_status::timeout);
    workers.revive(0);
    // A new generation on a new port — and the same bytes.
    EXPECT_EQ(held.get(), direct);
    fleet.stop();
}

TEST(ServiceFleet, ExhaustedReplayBudgetAnswersWorkerFailed)
{
    Graph g = smallGraph(87);
    Rng rng(88);
    std::string request =
        evaluateRequest(1, g, randomParameterSets(1, 4, rng));

    // Every forwarded request is reset (reset@1/1): with a budget of
    // 2 attempts the fleet must give up with the typed retryable
    // error instead of spinning forever.
    TestWorkerDirectory workers(1, "reset@1/1");
    service::FleetOptions opts;
    opts.replayBudget = 2;
    service::WorkerFleetService fleet(workers, opts);
    std::string line = submitTo(fleet, request).get();
    EXPECT_EQ(errorCodeOf(line), ServiceErrorCode::WorkerFailed);
    EXPECT_EQ(fleet.healthResult().find("worker_failures")->asNumber(),
              1.0);
    fleet.stop();
}

TEST(ServiceFleet, PermanentlyFailedLaneAnswersWorkerFailed)
{
    Graph g = smallGraph(89);
    Rng rng(90);
    std::string request =
        evaluateRequest(1, g, randomParameterSets(1, 4, rng));

    TestWorkerDirectory workers(1);
    workers.failPermanently(0);
    service::WorkerFleetService fleet(workers);
    EXPECT_EQ(errorCodeOf(submitTo(fleet, request).get()),
              ServiceErrorCode::WorkerFailed);
    fleet.stop();
}

TEST(ServiceFleet, FullLaneQueueBouncesOverloaded)
{
    Graph g = smallGraph(91);
    Rng rng(92);
    std::vector<QaoaParams> points = randomParameterSets(1, 4, rng);

    TestWorkerDirectory workers(1);
    service::FleetOptions opts;
    opts.server.queueCapacity = 1;
    service::WorkerFleetService fleet(workers, opts);

    // With the lane down, the first request is picked up by the
    // forwarder (in flight, waiting), the second fills the
    // capacity-1 queue, and the third must bounce immediately.
    workers.kill(0);
    std::future<std::string> first =
        submitTo(fleet, evaluateRequest(1, g, points));
    for (int i = 0; i < 5000 && laneQueueDepth(fleet) > 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(laneQueueDepth(fleet), 0.0);
    std::future<std::string> second =
        submitTo(fleet, evaluateRequest(2, g, points));
    std::future<std::string> third =
        submitTo(fleet, evaluateRequest(3, g, points));
    EXPECT_EQ(errorCodeOf(third.get()), ServiceErrorCode::Overloaded);

    // Revival drains the backlog: exactly one ok answer each.
    workers.revive(0);
    resultOf(first.get());
    resultOf(second.get());
    fleet.stop();
}

TEST(ServiceFleet, StopDrainsEveryQueuedRequestWithATypedAnswer)
{
    Graph g = smallGraph(93);
    Rng rng(94);
    std::vector<QaoaParams> points = randomParameterSets(1, 4, rng);

    TestWorkerDirectory workers(1);
    service::WorkerFleetService fleet(workers);
    workers.kill(0); // Everything below queues or waits.
    std::vector<std::future<std::string>> futures;
    for (int id = 1; id <= 3; ++id)
        futures.push_back(
            submitTo(fleet, evaluateRequest(id, g, points)));
    fleet.stop();
    // No request is dropped on the floor: the in-flight one and every
    // queued one get exactly one typed shutting_down answer (the
    // future would throw broken_promise if the callback never ran).
    for (std::future<std::string> &future : futures)
        EXPECT_EQ(errorCodeOf(future.get()),
                  ServiceErrorCode::ShuttingDown);
    // ...and the drain leaves no counter behind.
    json::Value health = fleet.healthResult();
    EXPECT_EQ(health.find("in_flight")->asNumber(), 0.0);
    EXPECT_EQ(health.find("busy")->dump(), "[0]");
    EXPECT_EQ(health.find("queue_depths")->dump(), "[0]");
}

/** Shard a @p shards-shard worker homes request @p line on. */
std::size_t
homeShard(const std::string &line, std::size_t shards)
{
    std::uint64_t hash = 0;
    EXPECT_TRUE(
        service::requestRouteHash(service::parseRequest(line), hash));
    return static_cast<std::size_t>(hash % shards);
}

TEST(ServiceFleet, LaneForwardsToEveryWorkerExecutorAtOnce)
{
    Rng rng(97);
    std::vector<QaoaParams> points = randomParameterSets(1, 4, rng);
    const std::string first = evaluateRequest(1, smallGraph(97), points);
    std::string other;
    for (std::uint64_t seed = 98; other.empty(); ++seed) {
        std::string line = evaluateRequest(2, smallGraph(seed), points);
        if (homeShard(line, 2) != homeShard(first, 2))
            other = line;
    }
    const std::string direct = ServiceServer().handleLine(other);

    // A 2-shard worker whose first request sleeps a second on its
    // shard's executor before answering: that shard is held, the
    // other one is free.
    service::ServerOptions two_shards;
    two_shards.shards = 2;
    TestWorkerDirectory workers(1, "delay:1000@1", two_shards);
    service::WorkerFleetService fleet(workers);
    EXPECT_EQ(laneHealth(fleet, "forwarders"), 2.0);

    std::future<std::string> held = submitTo(fleet, first);
    for (int i = 0; i < 5000 && workers.faultPlaneRequests(0) < 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(workers.faultPlaneRequests(0), 1u);

    // The lane's second forwarder carries the other shard's request
    // past the held one; a single forwarder would queue it behind.
    EXPECT_EQ(submitTo(fleet, other).get(), direct);
    EXPECT_EQ(held.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
    for (int i = 0; i < 500 && laneHealth(fleet, "busy") != 1.0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(laneHealth(fleet, "busy"), 1.0);
    resultOf(held.get());
    fleet.stop();

    // A 1-shard worker keeps a single forwarder.
    TestWorkerDirectory single(1);
    service::WorkerFleetService one(single);
    EXPECT_EQ(laneHealth(one, "forwarders"), 1.0);
    one.stop();
}

TEST(ServiceFleet, DeadlinedRequestsExpireWhileWaitingOutARestart)
{
    Graph g = smallGraph(95);
    Rng rng(96);
    json::Value doc =
        json::Value::parse(evaluateRequest(1, g, randomParameterSets(1, 4, rng)));
    doc["deadline_ms"] = 50.0;

    TestWorkerDirectory workers(1);
    service::WorkerFleetService fleet(workers);
    workers.kill(0);
    // The lane never comes back within the deadline: the fleet must
    // answer deadline_exceeded instead of holding the request.
    EXPECT_EQ(errorCodeOf(submitTo(fleet, doc.dump()).get()),
              ServiceErrorCode::DeadlineExceeded);
    fleet.stop();
}

// ---------------------------------------------------------------------
// Observability: request tracing + metrics plane
// ---------------------------------------------------------------------

std::string
optimizeRequest(int id, const Graph &g, int schema_version,
                const json::Value &trace = json::Value())
{
    json::Value doc = json::Value::object();
    doc["id"] = id;
    doc["method"] = "optimize";
    doc["schema_version"] = schema_version;
    if (!trace.isNull())
        doc["trace"] = trace;
    json::Value params = json::Value::object();
    params["graph"] = service::graphToJson(g);
    params["restarts"] = 2;
    params["max_evaluations"] = 20;
    params["seed"] = 4;
    doc["params"] = std::move(params);
    return doc.dump();
}

std::map<std::string, std::string>
spanParents(const json::Value &trace)
{
    std::map<std::string, std::string> out;
    for (const json::Value &span : trace.find("spans")->asArray())
        out[span.find("name")->asString()] =
            span.find("parent")->asString();
    return out;
}

TEST(ServiceTracing, TraceRequiresSchemaV2)
{
    ServiceServer server;
    json::Value doc = json::Value::parse(
        optimizeRequest(1, smallGraph(), 1));
    doc["trace"] = true;
    EXPECT_EQ(errorCodeOf(server.handleLine(doc.dump())),
              ServiceErrorCode::InvalidRequest);
}

TEST(ServiceTracing, WorkerTraceCoversTheExecutionStages)
{
    Graph g = smallGraph(101);
    ServiceServer server;
    const std::string untraced =
        server.handleLine(optimizeRequest(1, g, 2));
    EXPECT_EQ(untraced.find("\"trace\""), std::string::npos);

    const std::string traced = server.handleLine(
        optimizeRequest(1, g, 2, json::Value("my-trace-id")));
    json::Value doc = json::Value::parse(traced);
    const json::Value *trace = doc.find("trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->find("id")->asString(), "my-trace-id");
    EXPECT_GT(trace->find("total_us")->asNumber(), 0.0);

    auto parents = spanParents(*trace);
    ASSERT_TRUE(parents.count("worker.admission"));
    ASSERT_TRUE(parents.count("shard.queue"));
    ASSERT_TRUE(parents.count("worker.execute"));
    ASSERT_TRUE(parents.count("store.lookup"));
    ASSERT_TRUE(parents.count("backend.evaluate"));
    ASSERT_TRUE(parents.count("optimize.restarts"));
    EXPECT_EQ(parents["worker.admission"], "");
    EXPECT_EQ(parents["shard.queue"], "worker.admission");
    EXPECT_EQ(parents["worker.execute"], "worker.admission");
    EXPECT_EQ(parents["backend.evaluate"], "worker.execute");

    // Tracing must never perturb the computation: the result member
    // is byte-identical with tracing on and off.
    EXPECT_EQ(resultOf(traced).dump(), resultOf(untraced).dump());

    // A bare `trace: true` mints an id.
    json::Value minted = json::Value::parse(server.handleLine(
        optimizeRequest(1, g, 2, json::Value(true))));
    EXPECT_FALSE(minted.find("trace")->find("id")->asString().empty());
}

TEST(ServiceTracing, SlowlogRetainsTracedRequests)
{
    ServiceServer server;
    server.handleLine(
        optimizeRequest(1, smallGraph(103), 2, json::Value("slow-1")));
    json::Value slowlog = resultOf(server.handleLine(
        R"({"id": 2, "method": "slowlog", "schema_version": 2})"));
    EXPECT_EQ(slowlog.find("captured")->asNumber(), 1.0);
    const auto &entries = slowlog.find("slowlog")->asArray();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].find("id")->asString(), "slow-1");
}

TEST(ServiceTracing, FleetTraceCoversEveryHop)
{
    Graph g = smallGraph(105);
    const std::string direct =
        ServiceServer().handleLine(optimizeRequest(1, g, 2));

    TestWorkerDirectory workers(2);
    service::WorkerFleetService fleet(workers);
    const std::string traced =
        submitTo(fleet, optimizeRequest(1, g, 2, json::Value(true)))
            .get();
    json::Value doc = json::Value::parse(traced);
    const json::Value *trace = doc.find("trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_FALSE(trace->find("id")->asString().empty());

    // The acceptance contract: spans cover lb queue -> lane forward
    // -> worker admission -> shard queue -> backend evaluate.
    auto parents = spanParents(*trace);
    ASSERT_TRUE(parents.count("lb.queue"));
    ASSERT_TRUE(parents.count("lb.forward"));
    ASSERT_TRUE(parents.count("worker.admission"));
    ASSERT_TRUE(parents.count("shard.queue"));
    ASSERT_TRUE(parents.count("backend.evaluate"));
    EXPECT_EQ(parents["lb.queue"], "");
    EXPECT_EQ(parents["lb.forward"], "");
    // The worker's root is re-parented under the lb's forward span.
    EXPECT_EQ(parents["worker.admission"], "lb.forward");
    EXPECT_EQ(parents["shard.queue"], "worker.admission");
    EXPECT_EQ(parents["backend.evaluate"], "worker.execute");

    // The lb propagates ONE id: the worker joined the lb's trace
    // instead of minting its own, and the result payload matches an
    // untraced direct execution byte for byte.
    EXPECT_EQ(resultOf(traced).dump(), resultOf(direct).dump());

    // Untraced requests keep the verbatim relay (no trace member,
    // result still byte-identical).
    const std::string untraced =
        submitTo(fleet, optimizeRequest(1, g, 2)).get();
    EXPECT_EQ(untraced.find("\"trace\""), std::string::npos);
    EXPECT_EQ(resultOf(untraced).dump(), resultOf(direct).dump());

    json::Value slowlog = resultOf(submitTo(
        fleet,
        R"({"id": 9, "method": "slowlog", "schema_version": 2})")
                                       .get());
    EXPECT_EQ(slowlog.find("captured")->asNumber(), 1.0);
    fleet.stop();
}

std::set<std::string>
objectKeys(const json::Value &doc)
{
    std::set<std::string> keys;
    for (const auto &[key, value] : doc.asObject())
        keys.insert(key);
    return keys;
}

TEST(ServiceMetrics, WorkerMetricsAndHealthShareOneSerialization)
{
    ServiceServer server;
    server.handleLine(optimizeRequest(1, smallGraph(107), 2));

    json::Value health = resultOf(
        server.handleLine(R"({"id": 2, "method": "health"})"));
    json::Value metrics = resultOf(
        server.handleLine(R"({"id": 3, "method": "metrics"})"));

    // Satellite contract: the engine block and the process identity
    // flow through ONE builder each, so the key sets cannot drift.
    EXPECT_EQ(objectKeys(*metrics.find("engine")),
              objectKeys(*health.find("engine")));
    for (const std::string &key : objectKeys(*metrics.find("process")))
        EXPECT_TRUE(objectKeys(health).count(key))
            << "metrics.process key missing from health: " << key;

    std::set<std::string> families;
    for (const json::Value &family : metrics.find("families")->asArray())
        families.insert(family.find("name")->asString());
    const char *required[] = {
        "redqaoa_uptime_seconds",
        "redqaoa_requests_received_total",
        "redqaoa_requests_admitted_total",
        "redqaoa_responses_total",
        "redqaoa_requests_rejected_total",
        "redqaoa_requests_by_method_total",
        "redqaoa_in_flight",
        "redqaoa_queue_depth",
        "redqaoa_request_latency_seconds",
        "redqaoa_engine_jobs_total",
        "redqaoa_store_events_total",
    };
    for (const char *name : required)
        EXPECT_TRUE(families.count(name)) << "missing family: " << name;

    // hello advertises the new control-plane methods.
    json::Value hello = resultOf(
        server.handleLine(R"({"id": 4, "method": "hello"})"));
    std::set<std::string> methods;
    for (const json::Value &m : hello.find("methods")->asArray())
        methods.insert(m.asString());
    EXPECT_TRUE(methods.count("metrics"));
    EXPECT_TRUE(methods.count("slowlog"));

    // The Prometheus rendering exposes the same families.
    const std::string text = server.metricsText();
    EXPECT_NE(text.find("redqaoa_requests_received_total"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE redqaoa_request_latency_seconds"
                        " histogram"),
              std::string::npos);
}

/** The redqaoa_profiler_events_total sample of @p event (-1 if none). */
double
eventSample(const json::Value &metrics, const std::string &event)
{
    for (const json::Value &family : metrics.find("families")->asArray()) {
        if (family.find("name")->asString() !=
            "redqaoa_profiler_events_total")
            continue;
        for (const json::Value &sample : family.find("samples")->asArray())
            if (sample.find("labels")->find("event")->asString() == event)
                return sample.find("value")->asNumber();
    }
    return -1.0;
}

/** Every redqaoa_backend_resolutions_total sample, by backend. */
std::map<std::string, double>
resolutionSamples(const json::Value &metrics)
{
    std::map<std::string, double> out;
    for (const json::Value &family : metrics.find("families")->asArray()) {
        if (family.find("name")->asString() !=
            "redqaoa_backend_resolutions_total")
            continue;
        for (const json::Value &sample : family.find("samples")->asArray())
            out[sample.find("labels")->find("backend")->asString()] =
                sample.find("value")->asNumber();
    }
    return out;
}

TEST(ServiceMetrics, LockstepOptimizeReportsLaneOccupancy)
{
    // A 1-point evaluate goes point by point and a 16-point one sweeps
    // two lane groups. Then 8 restarts that each spend the
    // 60-evaluation budget: 60 rounds, each one full lane group. Each
    // request counts its backend once.
    obs::Profiler::global().reset();
    Rng rng(10);
    Graph g = gen::connectedGnp(10, 0.4, rng);
    ServiceServer server;
    Rng prng(11);
    resultOf(server.handleLine(
        evaluateRequest(1, g, randomParameterSets(2, 1, prng))));
    resultOf(server.handleLine(
        evaluateRequest(2, g, randomParameterSets(2, 16, prng))));
    json::Value result =
        resultOf(server.handleLine(optimizeLine(g, 8, 7, layersSpec(2))));
    EXPECT_EQ(result.find("evaluations")->asNumber(), 480.0);
    json::Value metrics = resultOf(
        server.handleLine(R"({"id": 2, "method": "metrics"})"));
    EXPECT_EQ(resolutionSamples(metrics),
              (std::map<std::string, double>{{"statevector", 3.0}}));
    EXPECT_EQ(eventSample(metrics, "batched.sweeps"), 62.0);
    EXPECT_EQ(eventSample(metrics, "batched.points"), 496.0);
    obs::Profiler::global().reset();
}

TEST(ServiceMetrics, FleetMetricsAggregateTheFleet)
{
    Graph g = smallGraph(109);
    Rng rng(110);
    TestWorkerDirectory workers(2);
    service::WorkerFleetService fleet(workers);
    submitTo(fleet, evaluateRequest(1, g, randomParameterSets(1, 4, rng)))
        .get();

    json::Value health = fleet.healthResult();
    json::Value metrics = resultOf(submitTo(
        fleet, R"({"id": 2, "method": "metrics"})")
                                       .get());
    EXPECT_EQ(objectKeys(*metrics.find("engine")),
              objectKeys(*health.find("engine")));
    for (const std::string &key : objectKeys(*metrics.find("process")))
        EXPECT_TRUE(objectKeys(health).count(key))
            << "metrics.process key missing from health: " << key;

    std::set<std::string> families;
    for (const json::Value &family : metrics.find("families")->asArray())
        families.insert(family.find("name")->asString());
    const char *required[] = {
        "redqaoa_lb_requests_received_total",
        "redqaoa_lb_responses_total",
        "redqaoa_lb_forwards_total",
        "redqaoa_lb_replays_total",
        "redqaoa_lb_worker_failures_total",
        "redqaoa_lb_worker_restarts_total",
        "redqaoa_lb_worker_up",
        "redqaoa_lb_lane_forwarders",
        "redqaoa_lb_lane_busy",
        "redqaoa_queue_depth",
        "redqaoa_in_flight",
    };
    for (const char *name : required)
        EXPECT_TRUE(families.count(name)) << "missing family: " << name;

    const std::string text = fleet.metricsText();
    EXPECT_NE(text.find("redqaoa_lb_worker_up{lane=\"0\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("redqaoa_lb_lane_forwarders{lane=\"1\"} 1"),
              std::string::npos)
        << text;
    fleet.stop();
}

} // namespace
} // namespace redqaoa
