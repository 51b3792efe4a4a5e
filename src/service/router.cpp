#include "service/router.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/pipeline.hpp"
#include "engine/fleet.hpp"
#include "obs/profiler.hpp"
#include "opt/cobyla_lite.hpp"

namespace redqaoa {
namespace service {

namespace {

[[noreturn]] void
invalidParams(const std::string &why)
{
    throw ServiceError(ServiceErrorCode::InvalidParams, why);
}

/** Count one backend resolution for the metrics plane. */
void
countBackend(EvalBackend kind)
{
    obs::Profiler &profiler = obs::Profiler::global();
    if (profiler.enabled())
        profiler.count(backendCounterName(kind));
}

int
boundedInt(const json::Value &v, const char *what, int lo, int hi)
{
    if (!v.isNumber() || !std::isfinite(v.asNumber()) ||
        v.asNumber() != std::floor(v.asNumber()))
        invalidParams(std::string(what) + " must be an integer");
    double d = v.asNumber();
    if (d < lo || d > hi)
        invalidParams(std::string(what) + " out of range [" +
                      std::to_string(lo) + ", " + std::to_string(hi) +
                      "]");
    return static_cast<int>(d);
}

std::uint64_t
seedFrom(const json::Value &params, const char *key, std::uint64_t dflt)
{
    const json::Value *v = params.find(key);
    if (!v)
        return dflt;
    if (!v->isNumber() || v->asNumber() < 0 ||
        v->asNumber() != std::floor(v->asNumber()))
        invalidParams(std::string(key) + " must be a non-negative integer");
    return static_cast<std::uint64_t>(v->asNumber());
}

Graph
requiredGraph(const json::Value &params)
{
    const json::Value *g = params.find("graph");
    if (!g)
        invalidParams("params need a 'graph'");
    return graphFromJson(*g);
}

/** Reducer knobs shared by the reduce and pipeline/fleet methods. */
RedQaoaOptions
reducerOptionsFromJson(const json::Value *v)
{
    RedQaoaOptions opts;
    if (!v || v->isNull())
        return opts;
    if (!v->isObject())
        invalidParams("'reducer' options must be an object");
    if (const json::Value *t = v->find("and_ratio_threshold")) {
        if (!t->isNumber() || t->asNumber() <= 0.0 || t->asNumber() > 1.0)
            invalidParams("and_ratio_threshold must be in (0, 1]");
        opts.andRatioThreshold = t->asNumber();
    }
    if (const json::Value *cap = v->find("max_node_reduction")) {
        if (!cap->isNumber() || cap->asNumber() < 0.0 ||
            cap->asNumber() >= 1.0)
            invalidParams("max_node_reduction must be in [0, 1)");
        opts.maxNodeReduction = cap->asNumber();
    }
    if (const json::Value *mse = v->find("mse_check")) {
        if (!mse->isBool())
            invalidParams("mse_check must be a boolean");
        opts.mseCheck = mse->asBool();
    }
    if (const json::Value *thr = v->find("mse_threshold")) {
        if (!thr->isNumber() || thr->asNumber() <= 0.0)
            invalidParams("mse_threshold must be positive");
        opts.mseThreshold = thr->asNumber();
    }
    if (const json::Value *r = v->find("retries_per_size"))
        opts.retriesPerSize = boundedInt(*r, "retries_per_size", 1, 64);
    if (const json::Value *m = v->find("min_nodes"))
        opts.minNodes = boundedInt(*m, "min_nodes", 2, 512);
    return opts;
}

PipelineOptions
pipelineOptionsFromJson(const json::Value *v)
{
    PipelineOptions opts;
    if (!v || v->isNull())
        return opts;
    if (!v->isObject())
        invalidParams("'options' must be an object");
    if (const json::Value *p = v->find("layers"))
        opts.layers = boundedInt(*p, "options.layers", 1, 16);
    if (const json::Value *nm = v->find("noise"))
        opts.noise = noiseFromJson(*nm);
    if (const json::Value *r = v->find("restarts"))
        opts.restarts = boundedInt(*r, "options.restarts", 1, 64);
    if (const json::Value *s = v->find("search_evaluations"))
        opts.searchEvaluations =
            boundedInt(*s, "options.search_evaluations", 1, 100000);
    if (const json::Value *r = v->find("refine_evaluations"))
        opts.refineEvaluations =
            boundedInt(*r, "options.refine_evaluations", 0, 100000);
    if (const json::Value *t = v->find("trajectories"))
        opts.trajectories =
            boundedInt(*t, "options.trajectories", 1, 100000);
    if (const json::Value *s = v->find("shots"))
        opts.shots = boundedInt(*s, "options.shots", 0, 100000000);
    if (const json::Value *l = v->find("exact_qubit_limit"))
        opts.exactQubitLimit =
            boundedInt(*l, "options.exact_qubit_limit", 1, 26);
    if (const json::Value *seed = v->find("seed")) {
        if (!seed->isNumber() || seed->asNumber() < 0 ||
            seed->asNumber() != std::floor(seed->asNumber()))
            invalidParams("options.seed must be a non-negative integer");
        opts.seed = static_cast<std::uint64_t>(seed->asNumber());
    }
    opts.reducer = reducerOptionsFromJson(v->find("reducer"));
    return opts;
}

/** One pipeline-outcome row (shared by pipeline and fleet rows). */
json::Value
pipelineResultToJson(const Graph &g, const PipelineResult &res,
                     bool baseline)
{
    json::Value doc = json::Value::object();
    doc["flow"] = baseline ? "baseline" : "red-qaoa";
    doc["nodes"] = g.numNodes();
    doc["edges"] = g.numEdges();
    doc["reduced_nodes"] = res.reduction.reduced.graph.numNodes();
    doc["and_ratio"] = res.reduction.andRatio;
    doc["ideal_energy"] = res.idealEnergy;
    doc["approx_ratio"] = res.approxRatio;
    doc["max_cut"] = res.maxCut;
    doc["params"] = qaoaParamsToJson(res.params);
    return doc;
}

/**
 * The statevector-family backends materialize 2^n amplitudes; refuse
 * instances no backend could run instead of surfacing a deep throw as
 * internal_error.
 */
void
checkBackendFitsGraph(EvalBackend kind, const Graph &g)
{
    constexpr int kMaxStateQubits = 26; // makeCutTable's own bound.
    if ((kind == EvalBackend::Statevector ||
         kind == EvalBackend::Trajectory) &&
        g.numNodes() > kMaxStateQubits)
        invalidParams(std::string(backendName(kind)) +
                      " backend is limited to " +
                      std::to_string(kMaxStateQubits) + " qubits (got " +
                      std::to_string(g.numNodes()) + ")");
}

} // namespace

json::Value
ServiceRouter::dispatch(const Request &req)
{
    if (req.method == "reduce")
        return handleReduce(req.params);
    if (req.method == "evaluate")
        return handleEvaluate(req.params);
    if (req.method == "optimize")
        return handleOptimize(req.params);
    if (req.method == "pipeline")
        return handlePipeline(req.params);
    if (req.method == "fleet")
        return handleFleet(req.params);
    if (req.method == "stats")
        return handleStats(req.params);
    throw ServiceError(ServiceErrorCode::UnknownMethod,
                       "unknown method '" + req.method + "'");
}

std::vector<std::string>
ServiceRouter::methodNames()
{
    return {"evaluate", "fleet", "optimize", "pipeline", "reduce",
            "stats"};
}

json::Value
ServiceRouter::handleReduce(const json::Value &params)
{
    Graph g = requiredGraph(params);
    RedQaoaOptions opts = reducerOptionsFromJson(params.find("reducer"));
    Rng rng(seedFrom(params, "seed", 1));
    ReductionResult red = [&] {
        obs::StageTimer reduce("sa.reduce", "worker.execute");
        return RedQaoaReducer(opts).reduce(g, rng);
    }();

    json::Value doc = json::Value::object();
    doc["graph"] = graphToJson(red.reduced.graph);
    json::Value to_original = json::Value::array();
    for (Node v : red.reduced.toOriginal)
        to_original.push(json::Value(v));
    doc["to_original"] = std::move(to_original);
    doc["and_ratio"] = red.andRatio;
    doc["node_reduction"] = red.nodeReduction;
    doc["edge_reduction"] = red.edgeReduction;
    doc["annealer_runs"] = red.annealerRuns;
    return doc;
}

json::Value
ServiceRouter::handleEvaluate(const json::Value &params)
{
    Graph g = requiredGraph(params);
    const json::Value *points_member = params.find("points");
    if (!points_member)
        invalidParams("params need 'points'");
    std::vector<QaoaParams> points = pointsFromJson(*points_member);
    if (points.size() > 65536)
        invalidParams("at most 65536 points per request");

    const json::Value *spec_member = params.find("spec");
    EvalSpec spec = specFromJson(spec_member);
    // Unless the caller pinned a depth, resolve the Auto policy at the
    // depth the points actually have (a depth-2 batch on a large graph
    // must pick light cones, not the p=1 closed form). A pinned depth
    // must agree with the points — a mismatch would silently evaluate
    // on a backend chosen for the wrong depth.
    bool pinned_layers = spec_member && spec_member->isObject() &&
                         spec_member->find("layers") &&
                         !spec_member->find("layers")->isNull();
    if (!pinned_layers)
        spec.layers = points.front().layers();
    else if (spec.layers != points.front().layers())
        invalidParams("spec.layers (" + std::to_string(spec.layers) +
                      ") does not match the points' depth (" +
                      std::to_string(points.front().layers()) + ")");

    EvalBackend kind = resolveBackend(spec, g);
    checkBackendFitsGraph(kind, g);
    countBackend(kind);

    std::vector<double> values =
        engine_->evaluate(g, spec, std::move(points));
    json::Value doc = json::Value::object();
    doc["backend"] = backendName(kind);
    json::Value arr = json::Value::array();
    for (double v : values)
        arr.push(json::Value(v));
    doc["values"] = std::move(arr);
    return doc;
}

json::Value
ServiceRouter::handleOptimize(const json::Value &params)
{
    Graph g = requiredGraph(params);
    EvalSpec spec = specFromJson(params.find("spec"));
    EvalBackend kind = resolveBackend(spec, g);
    checkBackendFitsGraph(kind, g);
    countBackend(kind);

    int restarts = 3;
    if (const json::Value *r = params.find("restarts"))
        restarts = boundedInt(*r, "restarts", 1, 256);
    OptOptions opt_opts;
    opt_opts.maxEvaluations = 60;
    if (const json::Value *m = params.find("max_evaluations"))
        opt_opts.maxEvaluations =
            boundedInt(*m, "max_evaluations", 1, 1000000);
    if (const json::Value *s = params.find("initial_step")) {
        if (!s->isNumber() || !(s->asNumber() > 0.0))
            invalidParams("initial_step must be positive");
        opt_opts.initialStep = s->asNumber();
    }
    bool warm = false;
    if (const json::Value *w = params.find("warm_start")) {
        if (!w->isBool())
            invalidParams("'warm_start' must be a boolean");
        warm = w->asBool();
    }
    std::uint64_t seed = seedFrom(params, "seed", 1);
    Rng rng(seed);
    int layers = spec.layers;

    // The response is built from the persisted-record representation in
    // BOTH paths (fresh run and store replay), so a warm restart's
    // replayed answer is byte-identical to the original response.
    auto respond = [&](const ResultStore::OptimizeRecord &rec) {
        std::vector<double> x(rec.xBits.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = std::bit_cast<double>(rec.xBits[i]);
        json::Value doc = json::Value::object();
        doc["backend"] = backendName(kind);
        doc["params"] = qaoaParamsToJson(QaoaParams::unflatten(x));
        doc["energy"] = // Objective minimizes -<H_c>.
            -std::bit_cast<double>(rec.valueBits);
        doc["evaluations"] = static_cast<int>(rec.evaluations);
        doc["restarts"] = static_cast<int>(rec.restarts);
        if (warm)
            doc["seeded"] = rec.seeded != 0;
        return doc;
    };

    // Warm-start tier. The opt key pins every knob that shapes the
    // search, so a replay can only serve a request that would have
    // recomputed the exact same thing.
    ResultStore *store = engine_->store().get();
    std::string storeKey;
    std::string specKey;
    std::string optKey;
    ResultStore::TransferDonor donor;
    bool seeded = false;
    {
        obs::StageTimer lookup("store.lookup", "worker.execute");
        if (store) {
            storeKey = engine_->storeKeyFor(g);
            specKey = backendCacheKey(spec, kind);
            char step[32];
            std::snprintf(step, sizeof step, "%llx",
                          static_cast<unsigned long long>(
                              std::bit_cast<std::uint64_t>(
                                  opt_opts.initialStep)));
            optKey = "p=" + std::to_string(layers) + ";r=" +
                     std::to_string(restarts) + ";m=" +
                     std::to_string(opt_opts.maxEvaluations) + ";s=" +
                     step + ";seed=" + std::to_string(seed) +
                     ";warm=" + (warm ? "1" : "0");
            ResultStore::OptimizeRecord hit;
            if (store->lookupOptimize(storeKey, specKey, optKey, hit))
                return respond(hit);
        }

        // Opt-in transfer seeding (paper fig 21): the first restart
        // starts from the best parameters of the nearest structurally
        // similar solved graph instead of a random point. Behind the
        // `warm_start` flag because the answer then depends on store
        // content — default requests keep the pure request -> response
        // contract.
        seeded = store && warm &&
                 store->findDonor(storeKey, specKey, layers, g, donor);
    }

    // A deterministic objective is a pure function of the point, so the
    // restarts run in lockstep: each round hands every unfinished
    // restart's next point to one call, which sweeps the batched lanes
    // at >= 8 restarts. Trajectory objectives draw noise in call order
    // and keep the restart-by-restart order. Either way the stage timer
    // folds the backend calls into one backend.evaluate span whose
    // `count` is the call total (one per lockstep round). Untraced/
    // unprofiled cost per call is two relaxed loads.
    const bool lockstep = deterministicBackend(kind);
    BatchObjective rawBatch;
    Objective raw;
    if (lockstep)
        rawBatch = engine_->batchObjective(g, spec);
    else
        raw = engine_->objective(g, spec);
    BatchObjective batchObj =
        [&rawBatch](std::span<const std::vector<double>> xs) {
            obs::StageTimer evaluate("backend.evaluate", "worker.execute");
            return rawBatch(xs);
        };
    Objective obj = [&raw](const std::vector<double> &x) {
        obs::StageTimer evaluate("backend.evaluate", "worker.execute");
        return raw(x);
    };
    CobylaLite optimizer(opt_opts);
    int calls = 0;
    auto sampler = [layers, seeded, &donor, &calls](Rng &r) {
        if (seeded && calls++ == 0)
            return donor.x;
        return QaoaParams::random(layers, r).flatten();
    };
    std::vector<OptResult> runs;
    {
        obs::StageTimer restartsStage("optimize.restarts",
                                      "worker.execute");
        runs = lockstep
                   ? multiRestart(optimizer, batchObj, restarts, sampler, rng)
                   : multiRestart(optimizer, obj, restarts, sampler, rng);
    }
    std::size_t best = bestRun(runs);

    int evaluations = 0;
    for (const OptResult &run : runs)
        evaluations += run.evaluations;
    ResultStore::OptimizeRecord rec;
    rec.xBits.reserve(runs[best].x.size());
    for (double v : runs[best].x)
        rec.xBits.push_back(std::bit_cast<std::uint64_t>(v));
    rec.valueBits = std::bit_cast<std::uint64_t>(runs[best].value);
    rec.evaluations = static_cast<std::uint32_t>(evaluations);
    rec.restarts = static_cast<std::uint32_t>(restarts);
    rec.seeded = seeded ? 1 : 0;
    if (store)
        store->recordOptimize(storeKey, specKey, optKey, g, layers, rec);
    return respond(rec);
}

json::Value
ServiceRouter::handlePipeline(const json::Value &params)
{
    Graph g = requiredGraph(params);
    PipelineOptions opts = pipelineOptionsFromJson(params.find("options"));
    bool baseline = false;
    if (const json::Value *b = params.find("baseline")) {
        if (!b->isBool())
            invalidParams("'baseline' must be a boolean");
        baseline = b->asBool();
    }
    Rng rng(seedFrom(params, "rng_seed", 1));
    RedQaoaPipeline pipeline(opts, engine_);
    PipelineResult res =
        baseline ? pipeline.runBaseline(g, rng) : pipeline.run(g, rng);
    return pipelineResultToJson(g, res, baseline);
}

json::Value
ServiceRouter::handleFleet(const json::Value &params)
{
    const json::Value *graphs_member = params.find("graphs");
    if (!graphs_member || !graphs_member->isArray() ||
        graphs_member->size() == 0)
        invalidParams("params need a non-empty 'graphs' array");
    if (graphs_member->size() > 64)
        invalidParams("at most 64 graphs per fleet request");
    std::vector<std::pair<std::string, Graph>> graphs;
    for (const json::Value &entry : graphs_member->asArray()) {
        if (!entry.isObject())
            invalidParams("each fleet graph must be an object");
        const json::Value *name = entry.find("name");
        const json::Value *graph = entry.find("graph");
        if (!name || !name->isString() || !graph)
            invalidParams("each fleet graph needs 'name' and 'graph'");
        graphs.emplace_back(name->asString(), graphFromJson(*graph));
    }

    std::vector<NoiseModel> noises;
    if (const json::Value *n = params.find("noises")) {
        if (!n->isArray() || n->size() == 0 || n->size() > 8)
            invalidParams("'noises' must hold 1..8 entries");
        for (const json::Value &nm : n->asArray())
            noises.push_back(noiseFromJson(nm));
    } else {
        noises.push_back(noise::ideal());
    }

    std::vector<int> depths;
    if (const json::Value *d = params.find("depths")) {
        if (!d->isArray() || d->size() == 0 || d->size() > 8)
            invalidParams("'depths' must hold 1..8 entries");
        for (const json::Value &p : d->asArray())
            depths.push_back(boundedInt(p, "depth", 1, 16));
    } else {
        depths.push_back(1);
    }

    PipelineOptions base = pipelineOptionsFromJson(params.find("options"));
    std::uint64_t seed0 = seedFrom(params, "seed0", 1);
    bool include_baseline = false;
    if (const json::Value *b = params.find("include_baseline")) {
        if (!b->isBool())
            invalidParams("'include_baseline' must be a boolean");
        include_baseline = b->asBool();
    }

    std::vector<FleetScenario> scenarios = PipelineFleet::grid(
        graphs, noises, depths, base, seed0, include_baseline);
    if (scenarios.size() > 512)
        invalidParams("fleet grid exceeds 512 scenarios (" +
                      std::to_string(scenarios.size()) + ")");

    PipelineFleet fleet(engine_);
    return fleet.run(scenarios).toJson();
}

json::Value
ServiceRouter::handleStats(const json::Value &params)
{
    (void)params;
    json::Value doc = json::Value::object();
    doc["engine"] = engine_->stats().toJson();
    return doc;
}

} // namespace service
} // namespace redqaoa
