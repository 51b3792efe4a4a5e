#include "core/pipeline.hpp"

#include <cassert>

namespace redqaoa {

namespace {

/** Random start sampler over the (gamma, beta) box. */
std::vector<double>
sampleStart(int p, Rng &rng)
{
    return QaoaParams::random(p, rng).flatten();
}

} // namespace

PipelineResult
RedQaoaPipeline::runWithSearchGraph(const Graph &g,
                                    ReductionResult reduction,
                                    Rng &rng) const
{
    PipelineResult out;
    // Bind the search graph after the move: a reference into the
    // moved-from reduction would name an empty graph.
    out.reduction = std::move(reduction);
    const Graph &search_graph = out.reduction.reduced.graph;

    // Stage 2: noisy parameter search on the (possibly reduced) graph.
    Objective search_obj = engine_->objective(
        search_graph,
        EvalSpec::noisy(noise::transpiled(opts_.noise,
                                          search_graph.numNodes()),
                        opts_.layers, opts_.trajectories, opts_.seed,
                        opts_.shots));
    OptOptions search_opts;
    search_opts.maxEvaluations = opts_.searchEvaluations;
    CobylaLite optimizer(search_opts);
    out.searchRuns = multiRestart(
        optimizer, search_obj, opts_.restarts,
        [this](Rng &r) { return sampleStart(opts_.layers, r); }, rng);
    std::size_t best = bestRun(out.searchRuns);
    std::vector<double> x = out.searchRuns[best].x;

    // Stage 3 + 4: transfer to the original graph and refine briefly.
    Objective refine_obj = engine_->objective(
        g, EvalSpec::noisy(noise::transpiled(opts_.noise, g.numNodes()),
                           opts_.layers, opts_.trajectories,
                           opts_.seed + 1, opts_.shots));
    OptOptions refine_opts;
    refine_opts.maxEvaluations = opts_.refineEvaluations;
    refine_opts.initialStep = 0.15; // Fine-tuning radius after transfer.
    CobylaLite refiner(refine_opts);
    out.refineRun = refiner.minimize(refine_obj, x);
    out.params = QaoaParams::unflatten(out.refineRun.x);

    // Scoring: ideal energy of the final parameters on the original
    // graph. The evaluator comes from the engine's shared cache, so a
    // fleet of runs over the same graph builds its tables once.
    auto ideal = engine_->evaluator(
        g, EvalSpec::ideal(opts_.layers, opts_.exactQubitLimit));
    out.idealEnergy = ideal->expectation(out.params);
    Rng cut_rng = rng.split();
    out.maxCut = maxCutBest(g, cut_rng);
    out.approxRatio =
        out.maxCut > 0 ? out.idealEnergy / out.maxCut : 1.0;
    return out;
}

PipelineResult
RedQaoaPipeline::run(const Graph &g, Rng &rng) const
{
    RedQaoaReducer reducer(opts_.reducer);
    return runWithSearchGraph(g, reducer.reduce(g, rng), rng);
}

PipelineResult
RedQaoaPipeline::runBaseline(const Graph &g, Rng &rng) const
{
    // "Reduction" that keeps the whole graph: the baseline searches on
    // the original circuit with the same optimizer budget.
    std::vector<Node> all(static_cast<std::size_t>(g.numNodes()));
    for (Node v = 0; v < g.numNodes(); ++v)
        all[static_cast<std::size_t>(v)] = v;
    ReductionResult identity;
    identity.reduced = inducedSubgraph(g, all);
    identity.andRatio = 1.0;
    return runWithSearchGraph(g, std::move(identity), rng);
}

} // namespace redqaoa
