/**
 * @file
 * MaxCut Hamiltonian and ideal QAOA simulator tests, including the
 * brute-force cross-checks that anchor every approximation-ratio
 * experiment.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "quantum/maxcut.hpp"

namespace redqaoa {
namespace {

TEST(CutValue, TriangleCuts)
{
    Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
    EXPECT_EQ(cutValue(g, 0b000), 0);
    EXPECT_EQ(cutValue(g, 0b001), 2);
    EXPECT_EQ(cutValue(g, 0b011), 2);
    EXPECT_EQ(cutValue(g, 0b111), 0);
}

TEST(CutTable, MatchesCutValueEverywhere)
{
    Rng rng(3);
    Graph g = gen::erdosRenyiGnp(6, 0.5, rng);
    CutTable table = makeCutTable(g);
    for (std::uint64_t z = 0; z < table.codes.size(); ++z)
        EXPECT_DOUBLE_EQ(static_cast<double>(table.codes[z]),
                         static_cast<double>(cutValue(g, z)));
}

TEST(CutTable, RejectsHugeGraphs)
{
    Graph g(27);
    EXPECT_THROW(makeCutTable(g), std::invalid_argument);
}

TEST(MaxCut, CompleteGraphK4)
{
    // K4 max cut = 4 (2-2 split).
    EXPECT_EQ(maxCutBruteForce(gen::complete(4)), 4);
}

TEST(MaxCut, EvenCycleIsFullyCuttable)
{
    EXPECT_EQ(maxCutBruteForce(gen::cycle(8)), 8);
}

TEST(MaxCut, OddCycleLosesOneEdge)
{
    EXPECT_EQ(maxCutBruteForce(gen::cycle(7)), 6);
}

TEST(MaxCut, StarCutsEverything)
{
    EXPECT_EQ(maxCutBruteForce(gen::star(9)), 8);
}

TEST(MaxCut, LocalSearchMatchesBruteForceOnSmallGraphs)
{
    Rng rng(11);
    for (int trial = 0; trial < 15; ++trial) {
        Graph g = gen::connectedGnp(8, 0.4, rng);
        Rng ls(100 + static_cast<std::uint64_t>(trial));
        EXPECT_EQ(maxCutLocalSearch(g, ls, 32), maxCutBruteForce(g))
            << "trial " << trial;
    }
}

TEST(QaoaParams, FlattenRoundTrip)
{
    QaoaParams p({0.1, 0.2, 0.3}, {0.4, 0.5, 0.6});
    auto x = p.flatten();
    ASSERT_EQ(x.size(), 6u);
    QaoaParams q = QaoaParams::unflatten(x);
    EXPECT_EQ(q.layers(), 3);
    EXPECT_DOUBLE_EQ(q.gamma[2], 0.3);
    EXPECT_DOUBLE_EQ(q.beta[0], 0.4);
}

TEST(QaoaSimulator, ZeroAnglesGiveUniformExpectation)
{
    // gamma = beta = 0: state stays uniform, <C> = m/2.
    Rng rng(7);
    Graph g = gen::connectedGnp(7, 0.4, rng);
    QaoaSimulator sim(g);
    QaoaParams p({0.0}, {0.0});
    EXPECT_NEAR(sim.expectation(p), g.numEdges() / 2.0, 1e-10);
}

TEST(QaoaSimulator, ExpectationBoundedByMaxCut)
{
    Rng rng(9);
    Graph g = gen::connectedGnp(8, 0.5, rng);
    QaoaSimulator sim(g);
    int mc = maxCutBruteForce(g);
    for (int t = 0; t < 30; ++t) {
        QaoaParams p = QaoaParams::random(2, rng);
        double e = sim.expectation(p);
        EXPECT_GE(e, -1e-9);
        EXPECT_LE(e, mc + 1e-9);
    }
}

TEST(QaoaSimulator, SingleEdgeP1KnownOptimum)
{
    // For a single edge, <C> = 1/2 + 1/2 sin(4 beta) sin(gamma);
    // optimum 1 at gamma = pi/2, beta = pi/8.
    Graph g(2, {{0, 1}});
    QaoaSimulator sim(g);
    QaoaParams best({M_PI / 2.0}, {M_PI / 8.0});
    EXPECT_NEAR(sim.expectation(best), 1.0, 1e-10);

    QaoaParams generic({0.8}, {0.6});
    double expect =
        0.5 + 0.5 * std::sin(4.0 * 0.6) * std::sin(0.8);
    EXPECT_NEAR(sim.expectation(generic), expect, 1e-10);
}

TEST(QaoaSimulator, LayersImproveCycleApproximation)
{
    // On C_8, best p=2 energy should be at least best p=1 energy
    // (sampled over a modest random search).
    Graph g = gen::cycle(8);
    QaoaSimulator sim(g);
    Rng rng(21);
    double best1 = 0.0, best2 = 0.0;
    for (int t = 0; t < 400; ++t) {
        best1 = std::max(best1, sim.expectation(QaoaParams::random(1, rng)));
        best2 = std::max(best2, sim.expectation(QaoaParams::random(2, rng)));
    }
    EXPECT_GE(best2, best1 - 0.05);
    EXPECT_GT(best1, 0.5 * 8); // Beats random guessing (m/2 = 4).
}

TEST(QaoaSimulator, StateMatchesExpectation)
{
    Rng rng(31);
    Graph g = gen::connectedGnp(6, 0.5, rng);
    QaoaSimulator sim(g);
    QaoaParams p = QaoaParams::random(2, rng);
    Statevector psi = sim.state(p);
    const auto &cut = sim.costTable();
    double e = 0.0;
    for (std::size_t z = 0; z < psi.dim(); ++z)
        e += std::norm(psi[z]) * cut[z];
    EXPECT_NEAR(e, sim.expectation(p), 1e-10);
}

/** Gamma periodicity: the landscape repeats at gamma + 2 pi. */
class QaoaPeriodicity : public ::testing::TestWithParam<int>
{};

TEST_P(QaoaPeriodicity, GammaPeriodTwoPi)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    Graph g = gen::connectedGnp(6, 0.5, rng);
    QaoaSimulator sim(g);
    double gm = rng.uniform(0, 2 * M_PI);
    double bt = rng.uniform(0, M_PI);
    QaoaParams a({gm}, {bt});
    QaoaParams b({gm + 2 * M_PI}, {bt});
    EXPECT_NEAR(sim.expectation(a), sim.expectation(b), 1e-9);
}

TEST_P(QaoaPeriodicity, BetaPeriodPi)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 50);
    Graph g = gen::connectedGnp(6, 0.5, rng);
    QaoaSimulator sim(g);
    double gm = rng.uniform(0, 2 * M_PI);
    double bt = rng.uniform(0, M_PI);
    QaoaParams a({gm}, {bt});
    QaoaParams b({gm}, {bt + M_PI});
    EXPECT_NEAR(sim.expectation(a), sim.expectation(b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QaoaPeriodicity, ::testing::Range(0, 8));

} // namespace
} // namespace redqaoa
