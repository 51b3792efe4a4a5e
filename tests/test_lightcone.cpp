/**
 * @file
 * Light-cone evaluator tests: per-edge cone simulation must equal the
 * full statevector exactly when no cone is truncated (the §3.3 locality
 * argument), stay close under mild truncation, and scale to graphs far
 * beyond statevector reach.
 */

#include <gtest/gtest.h>

#include "engine/backend_registry.hpp"
#include "graph/generators.hpp"
#include "quantum/evaluator.hpp"
#include "quantum/lightcone.hpp"
#include "quantum/maxcut.hpp"

namespace redqaoa {
namespace {

void
expectMatchesStatevector(const Graph &g, int p, Rng &rng, double tol)
{
    QaoaSimulator sv(g);
    LightconeEvaluator lc(g, p, 26);
    ASSERT_EQ(lc.truncatedCones(), 0);
    for (int t = 0; t < 6; ++t) {
        QaoaParams params = QaoaParams::random(p, rng);
        EXPECT_NEAR(lc.expectation(params), sv.expectation(params), tol)
            << g.summary() << " p=" << p;
    }
}

TEST(Lightcone, ExactOnPathP1)
{
    Rng rng(1);
    expectMatchesStatevector(gen::path(8), 1, rng, 1e-9);
}

TEST(Lightcone, ExactOnPathP2)
{
    Rng rng(2);
    expectMatchesStatevector(gen::path(9), 2, rng, 1e-9);
}

TEST(Lightcone, ExactOnCycleP2)
{
    Rng rng(3);
    expectMatchesStatevector(gen::cycle(10), 2, rng, 1e-9);
}

TEST(Lightcone, ExactOnSparseRandomP1)
{
    Rng rng(4);
    Graph g = gen::connectedGnp(11, 0.2, rng);
    expectMatchesStatevector(g, 1, rng, 1e-9);
}

TEST(Lightcone, ExactOnSparseRandomP2)
{
    Rng rng(5);
    Graph g = gen::connectedGnp(10, 0.2, rng);
    expectMatchesStatevector(g, 2, rng, 1e-9);
}

TEST(Lightcone, ExactOnTreeP3)
{
    Rng rng(6);
    expectMatchesStatevector(gen::karyTree(12, 2), 3, rng, 1e-9);
}

TEST(Lightcone, ExactWhenConeIsWholeGraph)
{
    // Dense small graph: the cone covers everything and the evaluator
    // degenerates to a full simulation.
    Rng rng(7);
    Graph g = gen::connectedGnp(7, 0.6, rng);
    expectMatchesStatevector(g, 2, rng, 1e-9);
}

TEST(Lightcone, TruncationIsControlled)
{
    Rng rng(8);
    Graph g = gen::connectedGnp(12, 0.35, rng);
    QaoaSimulator sv(g);
    LightconeEvaluator truncated(g, 2, 7); // Force truncation.
    EXPECT_GT(truncated.truncatedCones(), 0);
    double worst = 0.0;
    for (int t = 0; t < 6; ++t) {
        QaoaParams params = QaoaParams::random(2, rng);
        double err = std::abs(truncated.expectation(params) -
                              sv.expectation(params)) /
                     g.numEdges();
        worst = std::max(worst, err);
    }
    // Per-edge error stays small even with aggressive truncation.
    EXPECT_LT(worst, 0.15);
}

TEST(Lightcone, ScalesToHundredNodes)
{
    Rng rng(9);
    Graph g = gen::connectedGnp(100, 0.03, rng);
    LightconeEvaluator lc(g, 2, 18);
    QaoaParams params = QaoaParams::random(2, rng);
    double v = lc.expectation(params);
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, g.numEdges());
    EXPECT_LE(lc.maxConeSize(), 18);
}

TEST(Lightcone, FactoryBackendsAgreeOnMediumGraph)
{
    Rng rng(11);
    Graph g = gen::connectedGnp(12, 0.25, rng);
    auto exact = makeEvaluator(g, EvalSpec::ideal(1, 16));
    auto analytic = std::make_unique<AnalyticEvaluator>(g);
    auto cone = std::make_unique<LightconeCutEvaluator>(g, 1, 26);
    for (int t = 0; t < 5; ++t) {
        QaoaParams params = QaoaParams::random(1, rng);
        double e = exact->expectation(params);
        EXPECT_NEAR(analytic->expectation(params), e, 1e-9);
        EXPECT_NEAR(cone->expectation(params), e, 1e-9);
    }
}

} // namespace
} // namespace redqaoa
