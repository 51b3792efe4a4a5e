/**
 * @file
 * Optimizer tests on standard benchmark functions plus QAOA-shaped
 * objectives: all three derivative-free methods must reach known optima,
 * honor evaluation budgets, and produce monotone best-so-far traces.
 * Pinned hashes hold every run byte-identical (x, value, evaluations,
 * trace, iterates) to the recorded reference, edge paths included, and
 * lockstep multi-restart must reproduce the sequential runs bit for
 * bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "opt/cobyla_lite.hpp"
#include "opt/grid_search.hpp"
#include "opt/nelder_mead.hpp"
#include "opt/spsa.hpp"

namespace redqaoa {
namespace {

double
sphere(const std::vector<double> &x)
{
    double s = 0.0;
    for (double v : x)
        s += v * v;
    return s;
}

double
rosenbrock(const std::vector<double> &x)
{
    double s = 0.0;
    for (std::size_t i = 0; i + 1 < x.size(); ++i) {
        double a = x[i + 1] - x[i] * x[i];
        double b = 1.0 - x[i];
        s += 100.0 * a * a + b * b;
    }
    return s;
}

double
shiftedQuadratic(const std::vector<double> &x)
{
    double s = 0.0;
    std::vector<double> target{1.5, -0.7};
    for (std::size_t i = 0; i < x.size(); ++i) {
        double d = x[i] - target[i];
        s += (1.0 + static_cast<double>(i)) * d * d;
    }
    return s;
}

/** sphere() plus a ripple that makes Nelder-Mead contractions fail. */
double
rippled(const std::vector<double> &x)
{
    return sphere(x) + 0.3 * std::sin(40.0 * x[0]) * std::cos(37.0 * x[1]);
}

/** Kinked at the axes: CobylaLite's linear model goes singular. */
double
l1Norm(const std::vector<double> &x)
{
    double s = 0.0;
    for (double v : x)
        s += std::fabs(v);
    return s;
}

/** Piecewise constant: CobylaLite's model gradient vanishes. */
double
terraced(const std::vector<double> &x)
{
    return std::floor(4.0 * sphere(x));
}

double
flat(const std::vector<double> &)
{
    return 1.0;
}

/** NaN past x0 = 1.5: a run started there opens on a NaN value. */
double
nanBeyond(const std::vector<double> &x)
{
    return x[0] > 1.5 ? std::numeric_limits<double>::quiet_NaN()
                      : sphere(x);
}

OptOptions
budget(int max_evaluations)
{
    OptOptions opts;
    opts.maxEvaluations = max_evaluations;
    return opts;
}

/**
 * FNV-1a over the bit patterns of everything a run reports: x, value,
 * evaluations, and every trace and iterates entry.
 */
std::uint64_t
runHash(const OptResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    auto mixVector = [&mix](const std::vector<double> &v) {
        mix(v.size());
        for (double d : v)
            mix(std::bit_cast<std::uint64_t>(d));
    };
    mixVector(r.x);
    mix(std::bit_cast<std::uint64_t>(r.value));
    mix(static_cast<std::uint64_t>(r.evaluations));
    mixVector(r.trace);
    mix(r.iterates.size());
    for (const std::vector<double> &x : r.iterates)
        mixVector(x);
    return h;
}

/** One run and the hash recorded for it. */
struct PinnedRun
{
    const char *what;
    OptResult result;
    std::uint64_t hash;
};

void
expectPinned(const std::vector<PinnedRun> &runs)
{
    for (const PinnedRun &run : runs)
        EXPECT_EQ(runHash(run.result), run.hash)
            << run.what << ": hash 0x" << std::hex << runHash(run.result);
}

TEST(CobylaLite, RunsMatchPinnedHashes)
{
    expectPinned({
        {"sphere", CobylaLite(budget(400)).minimize(sphere, {2.0, -1.5}),
         0x269e0025569b85c7ull},
        {"rosenbrock 3-D",
         CobylaLite(budget(150)).minimize(rosenbrock, {-1.2, 1.0, 0.5}),
         0x2c5e5096fc0a4388ull},
        {"budget below n+1",
         CobylaLite(budget(2)).minimize(sphere, {1.0, 1.0, 1.0}),
         0x11857eb5cce38e07ull},
        {"singular model respan",
         CobylaLite(budget(200)).minimize(l1Norm, {1.3, -0.7}),
         0xd5686430458ca1eull},
        {"vanishing gradient respan",
         CobylaLite(budget(200)).minimize(terraced, {1.3, -0.7}),
         0x5fd69e7ffd322c23ull},
        {"budget-truncated respan",
         CobylaLite(budget(6)).minimize(flat, {0.3, -0.2}),
         0x4523fbd56678afc7ull},
        {"budget-truncated final respan",
         CobylaLite(budget(40)).minimize(flat, {0.3, -0.2}),
         0xe03eebfac2ea7e44ull},
        {"NaN start never becomes the best point",
         CobylaLite(budget(60)).minimize(nanBeyond, {2.0, 0.5}),
         0x5c6af05cc781134full},
    });
    EXPECT_EQ(CobylaLite(budget(2)).minimize(sphere, {1.0, 1.0, 1.0})
                  .evaluations,
              2);
    EXPECT_EQ(CobylaLite(budget(6)).minimize(flat, {0.3, -0.2}).evaluations,
              6);
}

TEST(NelderMead, RunsMatchPinnedHashes)
{
    expectPinned({
        {"sphere to tolerance",
         NelderMead(budget(400)).minimize(sphere, {2.0, -1.5, 0.7}),
         0x3a85a75ba9e1ab32ull},
        {"rosenbrock",
         NelderMead(budget(800)).minimize(rosenbrock, {-1.0, 1.0}),
         0x5d5eadb7f473ab0bull},
        {"budget below n+1",
         NelderMead(budget(2)).minimize(sphere, {1.0, 1.0, 1.0}),
         0x94c98cb0255cbb89ull},
        {"shrink", NelderMead(budget(40)).minimize(rippled, {1.3, -0.7}),
         0x4eb77beede2c837aull},
        {"budget-truncated shrink",
         NelderMead(budget(14)).minimize(rippled, {1.3, -0.7}),
         0x584bab42ee472601ull},
        {"budget-truncated shrink 3-D",
         NelderMead(budget(37)).minimize(rippled, {0.9, 0.4, -0.3}),
         0x2a9ebc58825237e5ull},
        {"NaN start is the first best point",
         NelderMead(budget(60)).minimize(nanBeyond, {2.0, 0.5}),
         0xd6c1d03b8cc9b10eull},
    });
}

TEST(Spsa, RunsMatchPinnedHashes)
{
    expectPinned({
        {"sphere, final odd evaluation",
         Spsa(budget(600), 3).minimize(sphere, {1.0, -1.0}),
         0x4301216ff844e3d9ull},
        {"sphere, odd budget",
         Spsa(budget(51), 3).minimize(sphere, {1.0, -1.0}),
         0x858cdab7d945f129ull},
        {"rosenbrock 3-D",
         Spsa(budget(120), 1).minimize(rosenbrock, {-1.2, 1.0, 0.5}),
         0xb10055438bc48412ull},
        {"budget below n+1",
         Spsa(budget(2), 1).minimize(sphere, {1.0, 1.0, 1.0}),
         0xe7c97a04cce49051ull},
        {"budget of one", Spsa(budget(1), 1).minimize(sphere, {1.0, 1.0}),
         0xa47348a08960c104ull},
        {"NaN start never becomes the best point",
         Spsa(budget(60), 3).minimize(nanBeyond, {2.0, 0.5}),
         0x36c8780ed05b0128ull},
    });
    EXPECT_EQ(Spsa(budget(600), 3).minimize(sphere, {1.0, -1.0}).evaluations,
              600);
}

TEST(NelderMead, SolvesSphere)
{
    OptOptions opts;
    opts.maxEvaluations = 400;
    NelderMead nm(opts);
    auto res = nm.minimize(sphere, {2.0, -1.5, 0.7});
    EXPECT_LT(res.value, 1e-4);
}

TEST(NelderMead, SolvesShiftedQuadratic)
{
    OptOptions opts;
    opts.maxEvaluations = 300;
    NelderMead nm(opts);
    auto res = nm.minimize(shiftedQuadratic, {0.0, 0.0});
    EXPECT_NEAR(res.x[0], 1.5, 0.02);
    EXPECT_NEAR(res.x[1], -0.7, 0.02);
}

TEST(NelderMead, MakesProgressOnRosenbrock)
{
    OptOptions opts;
    opts.maxEvaluations = 800;
    NelderMead nm(opts);
    auto res = nm.minimize(rosenbrock, {-1.0, 1.0});
    EXPECT_LT(res.value, rosenbrock({-1.0, 1.0}) * 0.05);
}

TEST(CobylaLite, SolvesSphere)
{
    OptOptions opts;
    opts.maxEvaluations = 400;
    CobylaLite cob(opts);
    auto res = cob.minimize(sphere, {2.0, -1.5});
    EXPECT_LT(res.value, 1e-3);
}

TEST(CobylaLite, SolvesShiftedQuadratic)
{
    OptOptions opts;
    opts.maxEvaluations = 400;
    CobylaLite cob(opts);
    auto res = cob.minimize(shiftedQuadratic, {0.0, 0.0});
    EXPECT_NEAR(res.x[0], 1.5, 0.05);
    EXPECT_NEAR(res.x[1], -0.7, 0.05);
}

TEST(Spsa, ImprovesSphere)
{
    OptOptions opts;
    opts.maxEvaluations = 600;
    Spsa spsa(opts, 3);
    auto res = spsa.minimize(sphere, {1.0, -1.0});
    EXPECT_LT(res.value, 0.2);
}

TEST(AllOptimizers, RespectEvaluationBudget)
{
    OptOptions opts;
    opts.maxEvaluations = 50;
    for (const Optimizer *o :
         std::initializer_list<const Optimizer *>{
             new NelderMead(opts), new CobylaLite(opts),
             new Spsa(opts, 1)}) {
        auto res = o->minimize(sphere, {1.0, 1.0, 1.0});
        EXPECT_LE(res.evaluations, opts.maxEvaluations + 4) << o->name();
        EXPECT_EQ(res.trace.size(),
                  static_cast<std::size_t>(res.evaluations))
            << o->name();
        delete o;
    }
}

TEST(AllOptimizers, TraceIsMonotoneNonIncreasing)
{
    OptOptions opts;
    opts.maxEvaluations = 120;
    NelderMead nm(opts);
    auto res = nm.minimize(rosenbrock, {0.5, -0.5});
    for (std::size_t i = 1; i < res.trace.size(); ++i)
        EXPECT_LE(res.trace[i], res.trace[i - 1] + 1e-15);
}

TEST(MultiRestart, KeepsAllRunsAndFindsBest)
{
    OptOptions opts;
    opts.maxEvaluations = 80;
    NelderMead nm(opts);
    Rng rng(4);
    auto runs = multiRestart(
        nm, shiftedQuadratic, 6,
        [](Rng &r) {
            return std::vector<double>{r.uniform(-3, 3), r.uniform(-3, 3)};
        },
        rng);
    EXPECT_EQ(runs.size(), 6u);
    std::size_t best = bestRun(runs);
    for (const auto &r : runs)
        EXPECT_LE(runs[best].value, r.value);
    EXPECT_LT(runs[best].value, 0.05);
}

TEST(MultiRestart, LockstepMatchesSequential)
{
    const NelderMead nm(budget(150));
    const CobylaLite cob(budget(150));
    const Spsa spsa(budget(150), 2);
    auto sampler = [](Rng &r) {
        return std::vector<double>{r.uniform(-2, 2), r.uniform(-2, 2)};
    };
    for (const Optimizer *opt :
         std::initializer_list<const Optimizer *>{&nm, &cob, &spsa}) {
        for (int restarts : {1, 3, 8, 11}) {
            SCOPED_TRACE(opt->name() + " x" + std::to_string(restarts));
            Rng sequential_rng(9);
            const std::vector<OptResult> want = multiRestart(
                *opt, shiftedQuadratic, restarts, sampler, sequential_rng);

            std::vector<std::vector<std::vector<double>>> rounds;
            BatchObjective batch =
                [&rounds](std::span<const std::vector<double>> xs) {
                    rounds.emplace_back(xs.begin(), xs.end());
                    std::vector<double> values;
                    for (const std::vector<double> &x : xs)
                        values.push_back(shiftedQuadratic(x));
                    return values;
                };
            Rng lockstep_rng(9);
            const std::vector<OptResult> got =
                multiRestart(*opt, batch, restarts, sampler, lockstep_rng);

            ASSERT_EQ(got.size(), want.size());
            int longest = 0;
            for (std::size_t r = 0; r < want.size(); ++r) {
                EXPECT_EQ(runHash(got[r]), runHash(want[r])) << r;
                longest = std::max(longest, want[r].evaluations);
            }
            // Round k asks every restart still running for its k-th
            // point, in restart order.
            ASSERT_EQ(rounds.size(), static_cast<std::size_t>(longest));
            for (std::size_t k = 0; k < rounds.size(); ++k) {
                std::vector<std::vector<double>> expected;
                for (const OptResult &run : want)
                    if (static_cast<std::size_t>(run.evaluations) > k)
                        expected.push_back(run.iterates[k]);
                EXPECT_EQ(rounds[k], expected) << "round " << k;
            }
        }
    }
}

TEST(GridSearchP1, FindsSinusoidMinimum)
{
    // f = -sin(gamma) * sin(4 beta): grid should land near
    // gamma = pi/2, beta = pi/8 (the single-edge QAOA optimum).
    auto res = gridSearchP1(
        [](double g, double b) { return -std::sin(g) * std::sin(4 * b); },
        30);
    EXPECT_EQ(res.evaluations, 900);
    EXPECT_NEAR(res.bestX[0], M_PI / 2.0, 0.25);
    EXPECT_NEAR(res.bestX[1], M_PI / 8.0, 0.2);
    EXPECT_NEAR(res.bestValue, -1.0, 0.05);
}

TEST(RandomSearch, ExploresHigherDepth)
{
    Rng rng(5);
    auto res = randomSearch(
        [](const std::vector<double> &x) { return sphere(x); }, 2, 200,
        rng);
    EXPECT_EQ(res.evaluations, 200);
    EXPECT_EQ(res.bestX.size(), 4u);
    EXPECT_LT(res.bestValue, sphere({M_PI, M_PI, M_PI / 2, M_PI / 2}));
}

TEST(OptimizerNames, AreStable)
{
    EXPECT_EQ(NelderMead().name(), "nelder-mead");
    EXPECT_EQ(CobylaLite().name(), "cobyla-lite");
    EXPECT_EQ(Spsa().name(), "spsa");
}

} // namespace
} // namespace redqaoa
