/**
 * @file
 * End-to-end pipeline integration tests (Fig 4 flow): the Red-QAOA run
 * must produce valid parameters, sane approximation ratios, and search
 * on a genuinely smaller circuit than the baseline.
 */

#include <gtest/gtest.h>

#include <bit>

#include "core/pipeline.hpp"
#include "graph/generators.hpp"

namespace redqaoa {
namespace {

PipelineOptions
fastOptions()
{
    PipelineOptions opts;
    opts.layers = 1;
    opts.noise = noise::scaled(1.0);
    opts.restarts = 2;
    opts.searchEvaluations = 25;
    opts.refineEvaluations = 10;
    opts.trajectories = 6;
    return opts;
}

TEST(Pipeline, RunProducesValidResult)
{
    Rng rng(1);
    Graph g = gen::connectedGnp(8, 0.4, rng);
    RedQaoaPipeline pipe(fastOptions());
    PipelineResult res = pipe.run(g, rng);

    EXPECT_EQ(res.params.layers(), 1);
    EXPECT_GT(res.maxCut, 0);
    EXPECT_GT(res.idealEnergy, 0.0);
    EXPECT_LE(res.approxRatio, 1.0 + 1e-9);
    EXPECT_GT(res.approxRatio, 0.3); // Far above the random-guess floor.
    EXPECT_EQ(res.searchRuns.size(), 2u);
    EXPECT_GT(res.refineRun.evaluations, 0);
}

TEST(Pipeline, SearchGraphIsSmallerThanOriginal)
{
    Rng rng(2);
    Graph g = gen::connectedGnp(10, 0.45, rng);
    RedQaoaPipeline pipe(fastOptions());
    PipelineResult res = pipe.run(g, rng);
    EXPECT_LT(res.reduction.reduced.graph.numNodes(), g.numNodes());
    EXPECT_GE(res.reduction.andRatio, 0.7 - 1e-9);
}

TEST(Pipeline, BaselineKeepsWholeGraph)
{
    Rng rng(3);
    Graph g = gen::connectedGnp(8, 0.4, rng);
    RedQaoaPipeline pipe(fastOptions());
    PipelineResult res = pipe.runBaseline(g, rng);
    EXPECT_EQ(res.reduction.reduced.graph.numNodes(), g.numNodes());
    EXPECT_DOUBLE_EQ(res.reduction.andRatio, 1.0);
    EXPECT_LE(res.approxRatio, 1.0 + 1e-9);
}

TEST(Pipeline, SearchRunsOnTheDistilledGraph)
{
    // The search's first evaluation must have seen the reported search
    // graph: a fresh objective over it, with the search stage's spec,
    // reproduces the first trace entry bit for bit. (An empty graph
    // would read -0.0 at every point.) run() searches G', runBaseline()
    // searches G itself.
    Rng rng(7);
    Graph g = gen::connectedGnp(9, 0.45, rng);
    const PipelineOptions opts = fastOptions();
    RedQaoaPipeline pipe(opts);
    Rng run_rng(11), baseline_rng(11);
    const PipelineResult red = pipe.run(g, run_rng);
    const PipelineResult baseline = pipe.runBaseline(g, baseline_rng);
    for (const PipelineResult *res : {&red, &baseline}) {
        const Graph &searched = res->reduction.reduced.graph;
        ASSERT_GT(searched.numEdges(), 0);
        const OptResult &first = res->searchRuns.front();
        ASSERT_FALSE(first.trace.empty());
        Objective fresh = pipe.engine().objective(
            searched,
            EvalSpec::noisy(noise::transpiled(opts.noise,
                                              searched.numNodes()),
                            opts.layers, opts.trajectories, opts.seed,
                            opts.shots));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      fresh(first.iterates.front())),
                  std::bit_cast<std::uint64_t>(first.trace.front()))
            << "search graph of " << searched.numNodes() << " nodes";
        EXPECT_LT(first.trace.front(), 0.0);
    }
    EXPECT_LT(red.reduction.reduced.graph.numNodes(), g.numNodes());
    EXPECT_EQ(baseline.reduction.reduced.graph.numNodes(), g.numNodes());
}

TEST(Pipeline, IdealNoiseRecoversGoodRatios)
{
    // With no noise the pipeline is just QAOA with restarts: p=1 should
    // reliably exceed ~0.6 approximation ratio on small graphs.
    Rng rng(4);
    PipelineOptions opts = fastOptions();
    opts.noise = noise::ideal();
    opts.restarts = 4;
    opts.searchEvaluations = 60;
    opts.refineEvaluations = 25;
    RedQaoaPipeline pipe(opts);
    Graph g = gen::connectedGnp(8, 0.5, rng);
    PipelineResult res = pipe.run(g, rng);
    EXPECT_GT(res.approxRatio, 0.6);
}

TEST(Pipeline, DeterministicGivenSeeds)
{
    PipelineOptions opts = fastOptions();
    Rng g_rng(5);
    Graph g = gen::connectedGnp(8, 0.4, g_rng);
    RedQaoaPipeline pipe(opts);
    Rng r1(9), r2(9);
    PipelineResult a = pipe.run(g, r1);
    PipelineResult b = pipe.run(g, r2);
    EXPECT_DOUBLE_EQ(a.idealEnergy, b.idealEnergy);
    EXPECT_EQ(a.reduction.reduced.graph.numNodes(),
              b.reduction.reduced.graph.numNodes());
}

TEST(Pipeline, MultiLayerParamsComeBackWithRightDepth)
{
    Rng rng(6);
    PipelineOptions opts = fastOptions();
    opts.layers = 2;
    RedQaoaPipeline pipe(opts);
    Graph g = gen::connectedGnp(7, 0.5, rng);
    PipelineResult res = pipe.run(g, rng);
    EXPECT_EQ(res.params.layers(), 2);
    EXPECT_EQ(res.params.gamma.size(), 2u);
    EXPECT_EQ(res.params.beta.size(), 2u);
}

} // namespace
} // namespace redqaoa
