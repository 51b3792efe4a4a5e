/**
 * @file
 * EvalEngine / backend-registry / PipelineFleet tests. The load-bearing
 * contracts:
 *  - engine-routed evaluation is bit-identical to direct evaluator
 *    construction at 1 thread, for every backend family;
 *  - results are invariant across thread counts >= 2 (and equal to the
 *    1-thread values);
 *  - the artifact cache hands every evaluator of the same graph the
 *    same shared tables;
 *  - duplicate (graph, spec, params) points are served from the memo
 *    with exactly the values a fresh computation produces;
 *  - a >= 100-job PipelineFleet on one engine produces an identical
 *    JSON report across repeats and thread counts.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/backend_registry.hpp"
#include "engine/engine_shard_set.hpp"
#include "engine/eval_engine.hpp"
#include "engine/fleet.hpp"
#include "engine/point_table.hpp"
#include "graph/generators.hpp"
#include "landscape/landscape.hpp"
#include "obs/profiler.hpp"
#include "quantum/batched_kernels.hpp"
#include "quantum/batched_state.hpp"

namespace redqaoa {
namespace {

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

Graph
largeGraph(std::uint64_t seed = 6)
{
    Rng rng(seed);
    return gen::connectedGnp(24, 0.15, rng);
}

TEST(BackendRegistry, AutoPolicyMatchesHistoricalSelection)
{
    Graph small = smallGraph();
    Graph large = largeGraph();

    EXPECT_EQ(makeEvaluator(small, EvalSpec::ideal(2))->describe(),
              "statevector");
    EXPECT_EQ(makeEvaluator(large, EvalSpec::ideal(1))->describe(),
              "analytic-p1");
    EXPECT_EQ(makeEvaluator(large, EvalSpec::ideal(2))->describe(),
              "lightcone");
    // The cutoff is part of the spec, not a global.
    EXPECT_EQ(makeEvaluator(large, EvalSpec::ideal(2, 26))->describe(),
              "statevector");
    // Non-ideal noise resolves an Auto spec to the trajectory backend.
    EvalSpec auto_noisy;
    auto_noisy.noise = noise::ibmKolkata();
    EXPECT_EQ(makeEvaluator(small, auto_noisy)->describe(),
              "noisy:ibmq_kolkata");
    // EvalSpec::noisy PINS Trajectory, so pipelines keep trajectory
    // averaging and shot sampling even under an ideal noise model.
    EXPECT_EQ(makeEvaluator(small, EvalSpec::noisy(noise::ibmKolkata()))
                  ->describe(),
              "noisy:ibmq_kolkata");
    EXPECT_EQ(makeEvaluator(small, EvalSpec::noisy(noise::ideal()))
                  ->describe(),
              "noisy:ideal");
}

TEST(BackendRegistry, DuplicateRegistrationThrows)
{
    EXPECT_THROW(BackendRegistry::instance().add(
                     EvalBackend::Statevector,
                     [](const Graph &, const EvalSpec &, ArtifactCache *)
                         -> std::unique_ptr<CutEvaluator> {
                         return nullptr;
                     }),
                 std::invalid_argument);
    EXPECT_THROW(BackendRegistry::instance().add(
                     EvalBackend::Auto,
                     [](const Graph &, const EvalSpec &, ArtifactCache *)
                         -> std::unique_ptr<CutEvaluator> {
                         return nullptr;
                     }),
                 std::invalid_argument);
}

TEST(EvalEngine, BackendCounterNamesPrefixTheRegistryNames)
{
    for (EvalBackend kind :
         {EvalBackend::Auto, EvalBackend::Statevector,
          EvalBackend::AnalyticP1, EvalBackend::Lightcone,
          EvalBackend::Trajectory})
        EXPECT_EQ(backendCounterName(kind),
                  std::string("backend.") + backendName(kind));
}

TEST(EvalEngine, BatchedJobsBitIdenticalToDirectEvaluator)
{
    // Multi-point statevector jobs route through the batched sweep in
    // drain(); values must stay bit-identical to a direct per-point
    // evaluator at 1 thread AND across pools, memo included.
    PoolGuard guard;
    Graph g = smallGraph();
    Rng prng(88);
    auto pts = randomParameterSets(2, 12, prng);
    ASSERT_GE(pts.size(), static_cast<std::size_t>(batched::kBatchLanes));

    ExactEvaluator direct(g);
    std::vector<std::vector<double>> runs;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EvalEngine engine;
        auto got = engine.evaluate(g, EvalSpec::ideal(2), pts);
        for (std::size_t i = 0; i < pts.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(pts[i]))
                << "threads=" << threads << " i=" << i;
        // The batched path feeds the same memo: duplicates are served
        // with identical values and no recomputation.
        auto again = engine.evaluate(g, EvalSpec::ideal(2), pts);
        EXPECT_EQ(got, again);
        EXPECT_EQ(engine.stats().memoHits, pts.size());
        EXPECT_EQ(engine.stats().evaluated, pts.size());
        // One evaluator and one memo key space whatever the job size:
        // each point alone is a memo hit on the batch's value.
        for (std::size_t i = 0; i < pts.size(); ++i)
            EXPECT_EQ(engine.evaluate(g, EvalSpec::ideal(2), {pts[i]}),
                      std::vector<double>{got[i]})
                << "threads=" << threads << " i=" << i;
        EXPECT_EQ(engine.stats().memoHits, 2 * pts.size());
        EXPECT_EQ(engine.stats().evaluated, pts.size());
        EXPECT_EQ(engine.stats().evaluatorMisses, 1u);
        runs.push_back(std::move(got));
    }
    for (std::size_t r = 1; r < runs.size(); ++r)
        EXPECT_EQ(runs[0], runs[r]) << "run " << r;
}

/** A profiler counter's value (0 when it never fired). */
std::uint64_t
profilerCount(const std::string &name)
{
    for (const auto &[counter, value] :
         obs::Profiler::global().counterSnapshot())
        if (counter == name)
            return value;
    return 0;
}

TEST(EvalEngine, LaneSweepsFeedTheOccupancyCounters)
{
    obs::Profiler::global().reset();
    Graph g = smallGraph();
    Rng prng(89);
    EvalEngine engine;
    engine.evaluate(g, EvalSpec::ideal(2), randomParameterSets(2, 16, prng));
    EXPECT_EQ(profilerCount("batched.sweeps"), 2u);
    EXPECT_EQ(profilerCount("batched.points"), 16u);
    // Lanes are the evaluator's, so a pinned statevector spec sweeps
    // them too.
    EvalSpec pinned = EvalSpec::ideal(2);
    pinned.backend = EvalBackend::Statevector;
    engine.evaluate(g, pinned, randomParameterSets(2, 16, prng));
    EXPECT_EQ(profilerCount("batched.sweeps"), 4u);
    EXPECT_EQ(profilerCount("batched.points"), 32u);
    obs::Profiler::global().reset();
}

TEST(EvalEngine, BatchObjectiveMatchesObjective)
{
    // 3 points go point by point, 8 fill one lane group, 11 add a
    // padded one; the analytic backend is always point by point.
    Graph small = smallGraph();
    Graph large = largeGraph();
    Rng prng(90);
    EvalEngine engine;
    for (const auto &[g, spec] :
         {std::pair{small, EvalSpec::ideal(2)},
          std::pair{large, EvalSpec::ideal(1)}}) {
        Objective point = engine.objective(g, spec);
        BatchObjective batch = engine.batchObjective(g, spec);
        for (int count : {3, 8, 11}) {
            std::vector<std::vector<double>> xs;
            for (const QaoaParams &p :
                 randomParameterSets(spec.layers, count, prng))
                xs.push_back(p.flatten());
            std::vector<double> got = batch(xs);
            ASSERT_EQ(got.size(), xs.size());
            for (std::size_t i = 0; i < xs.size(); ++i)
                EXPECT_EQ(got[i], point(xs[i]))
                    << g.numNodes() << " nodes, " << count << " points";
        }
    }
    EXPECT_THROW(engine.batchObjective(
                     small, EvalSpec::noisy(noise::ibmKolkata(), 1, 2)),
                 std::invalid_argument);
}

TEST(EvalEngine, BitIdenticalToDirectAtOneThread)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(1);
    Graph small = smallGraph();
    Graph large = largeGraph();
    Rng prng(33);
    auto p1 = randomParameterSets(1, 12, prng);
    auto p2 = randomParameterSets(2, 12, prng);

    // Statevector.
    {
        ExactEvaluator direct(small);
        auto got = EvalEngine().evaluate(small, EvalSpec::ideal(2), p2);
        for (std::size_t i = 0; i < p2.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(p2[i])) << "i=" << i;
    }
    // Analytic p=1.
    {
        AnalyticEvaluator direct(large);
        auto got = EvalEngine().evaluate(large, EvalSpec::ideal(1), p1);
        for (std::size_t i = 0; i < p1.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(p1[i])) << "i=" << i;
    }
    // Lightcone.
    {
        LightconeCutEvaluator direct(large, 2, 16);
        auto got = EvalEngine().evaluate(large, EvalSpec::ideal(2), p2);
        for (std::size_t i = 0; i < p2.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(p2[i])) << "i=" << i;
    }
    // Trajectory, exact and sampled readout.
    for (int shots : {0, 256}) {
        NoisyEvaluator direct(small, noise::ibmKolkata(), 6, 77, shots);
        auto spec = EvalSpec::noisy(noise::ibmKolkata(), 1, 6, 77, shots);
        auto got = EvalEngine().evaluate(small, spec, p1);
        auto want = direct.batchExpectation(p1);
        EXPECT_EQ(got, want) << "shots=" << shots;
    }
}

TEST(EvalEngine, ThreadCountInvariance)
{
    PoolGuard guard;
    Graph small = smallGraph();
    Graph large = largeGraph();
    Rng prng(44);
    auto p2 = randomParameterSets(2, 16, prng);
    auto noisy_spec = EvalSpec::noisy(noise::ibmCairo(), 2, 4, 9, 128);

    // Small-state backends (below the intra-state parallel threshold)
    // are bitwise identical at EVERY thread count, 1 included.
    std::vector<std::vector<double>> ideal_runs, noisy_runs;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EvalEngine engine;
        ideal_runs.push_back(
            engine.evaluate(small, EvalSpec::ideal(2), p2));
        noisy_runs.push_back(engine.evaluate(small, noisy_spec, p2));
    }
    for (std::size_t r = 1; r < ideal_runs.size(); ++r) {
        EXPECT_EQ(ideal_runs[0], ideal_runs[r]) << "run " << r;
        EXPECT_EQ(noisy_runs[0], noisy_runs[r]) << "run " << r;
    }

    // Cone states here cross the intra-state parallel threshold, where
    // the repo's kernel contract is invariance across thread counts
    // >= 2 (the 1-thread pool is the bit-identical serial reference,
    // pinned against direct evaluation in BitIdenticalToDirect).
    std::vector<std::vector<double>> cone_runs;
    for (int threads : {2, 4, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EvalEngine engine;
        cone_runs.push_back(
            engine.evaluate(large, EvalSpec::ideal(2), p2));
    }
    for (std::size_t r = 1; r < cone_runs.size(); ++r)
        EXPECT_EQ(cone_runs[0], cone_runs[r]) << "run " << r;
}

TEST(EvalEngine, ArtifactCacheSharesTablesAcrossEvaluators)
{
    EvalEngine engine;
    Graph g = smallGraph();
    Graph big = largeGraph();

    // Same (graph, spec) -> the same shared evaluator instance.
    auto a = engine.evaluator(g, EvalSpec::ideal(1));
    auto b = engine.evaluator(g, EvalSpec::ideal(1));
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(engine.stats().evaluatorHits, 1u);

    // A structurally equal copy of the graph hits the same entry.
    Graph copy = g;
    auto c = engine.evaluator(copy, EvalSpec::ideal(1));
    EXPECT_EQ(a.get(), c.get());

    // Statevector evaluators of one graph share one cut table, across
    // distinct specs that resolve to the same backend.
    auto any_depth = engine.evaluator(g, EvalSpec::ideal(3));
    auto *ea = dynamic_cast<ExactEvaluator *>(a.get());
    auto *ed = dynamic_cast<ExactEvaluator *>(any_depth.get());
    ASSERT_NE(ea, nullptr);
    ASSERT_NE(ed, nullptr);
    EXPECT_EQ(ea->simulator().sharedTable().get(),
              ed->simulator().sharedTable().get());
    EXPECT_EQ(ea->simulator().sharedTable().get(),
              engine.artifacts().cutTable(g).get());

    // Lightcone decompositions are shared per (p, cone cap).
    auto l1 = engine.evaluator(big, EvalSpec::ideal(2));
    auto l2 = engine.evaluator(big, EvalSpec::ideal(2));
    auto *c1 = dynamic_cast<LightconeCutEvaluator *>(l1.get());
    auto *c2 = dynamic_cast<LightconeCutEvaluator *>(l2.get());
    ASSERT_NE(c1, nullptr);
    ASSERT_NE(c2, nullptr);
    EXPECT_EQ(c1->shared().get(), c2->shared().get());

    ArtifactCache::Stats stats = engine.artifacts().stats();
    EXPECT_EQ(stats.graphs, 2u);
    EXPECT_GE(stats.hits, 1u);
}

TEST(EvalEngine, MemoServesDuplicatePointsWithIdenticalValues)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(2);
    Graph g = smallGraph();
    Rng prng(55);
    auto base = randomParameterSets(1, 10, prng);

    // A batch with intra-job duplicates.
    std::vector<QaoaParams> with_dups = base;
    with_dups.insert(with_dups.end(), base.begin(), base.begin() + 5);

    EvalEngine engine;
    auto first = engine.evaluate(g, EvalSpec::ideal(1), with_dups);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(first[base.size() + i], first[i]);
    EngineStats after_first = engine.stats();
    EXPECT_EQ(after_first.points, with_dups.size());
    EXPECT_EQ(after_first.evaluated, base.size());
    EXPECT_EQ(after_first.memoHits, 5u);

    // A second job repeating the base points: all memo hits, same
    // values, nothing recomputed.
    auto second = engine.evaluate(g, EvalSpec::ideal(1), base);
    for (std::size_t i = 0; i < base.size(); ++i)
        EXPECT_EQ(second[i], first[i]);
    EngineStats after_second = engine.stats();
    EXPECT_EQ(after_second.evaluated, base.size());
    EXPECT_EQ(after_second.memoHits, 5u + base.size());

    // Memoized values equal a fresh engine's computation.
    auto fresh = EvalEngine().evaluate(g, EvalSpec::ideal(1), base);
    EXPECT_EQ(second, fresh);
}

TEST(EvalEngine, TrajectoryJobsUseWholeBatchSemantics)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(2);
    Graph g = smallGraph();
    Rng prng(66);
    auto params = randomParameterSets(1, 8, prng);
    auto spec = EvalSpec::noisy(noise::ibmToronto(), 1, 5, 13, 64);

    EvalEngine engine;
    auto first = engine.evaluate(g, spec, params);
    // Resubmitting the identical batch is served from the batch memo.
    auto again = engine.evaluate(g, spec, params);
    EXPECT_EQ(first, again);
    EXPECT_EQ(engine.stats().memoHits, params.size());
    // And matches a fresh direct evaluator, which is what any single
    // job is bit-identical to.
    NoisyEvaluator direct(g, noise::ibmToronto(), 5, 13, 64);
    EXPECT_EQ(first, direct.batchExpectation(params));
}

TEST(EvalEngine, CrossJobShardingRunsAllPendingJobsOnDrain)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(4);
    Graph a = smallGraph(7);
    Graph b = smallGraph(8);
    Rng prng(77);
    auto pa = randomParameterSets(1, 6, prng);
    auto pb = randomParameterSets(2, 6, prng);

    EvalEngine engine;
    EvalJobTicket ta = engine.submit(a, EvalSpec::ideal(1), pa);
    EvalJobTicket tb = engine.submit(b, EvalSpec::ideal(2), pb);
    EXPECT_FALSE(ta.ready());
    EXPECT_FALSE(tb.ready());
    // Getting one ticket drains the whole queue (one shared fan-out).
    const auto &va = ta.get();
    EXPECT_TRUE(tb.ready());
    EXPECT_EQ(va.size(), pa.size());
    EXPECT_EQ(tb.get().size(), pb.size());

    ExactEvaluator da(a), db(b);
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(va[i], da.expectation(pa[i]));
    for (std::size_t i = 0; i < pb.size(); ++i)
        EXPECT_EQ(tb.get()[i], db.expectation(pb[i]));
}

/** Lane groups a lone job of @p count same-depth points sweeps. */
std::uint64_t
laneGroupsFor(std::size_t count)
{
    return count < static_cast<std::size_t>(batched::kBatchLanes)
               ? 0
               : (count + batched::kBatchLanes - 1) / batched::kBatchLanes;
}

TEST(EvalEngine, DrainedLaneGroupsBitIdenticalAtEveryPoolSize)
{
    // Each lane group of a job is its own fan-out index; values stay
    // bit-identical to the direct evaluator and the occupancy counters
    // count what one job's groups sweep, whatever the pool size.
    PoolGuard guard;
    Graph g = smallGraph();
    ExactEvaluator direct(g);
    Rng prng(91);
    for (int threads : {1, 2, 4, 8}) {
        ThreadPool::setGlobalThreads(threads);
        for (int count : {8, 9, 16, 17, 24}) {
            auto pts = randomParameterSets(2, count, prng);
            obs::Profiler::global().reset();
            EvalEngine engine;
            auto got = engine.evaluate(g, EvalSpec::ideal(2), pts);
            for (std::size_t i = 0; i < pts.size(); ++i)
                EXPECT_EQ(got[i], direct.expectation(pts[i]))
                    << "threads=" << threads << " count=" << count
                    << " i=" << i;
            EXPECT_EQ(profilerCount("batched.sweeps"),
                      laneGroupsFor(pts.size()))
                << "threads=" << threads << " count=" << count;
            EXPECT_EQ(profilerCount("batched.points"), pts.size());
        }
    }
    obs::Profiler::global().reset();
}

TEST(EvalEngine, JobInterleavingDepthsSweepsOneGroupSetPerDepth)
{
    PoolGuard guard;
    Graph g = smallGraph();
    ExactEvaluator direct(g);
    Rng prng(92);
    auto p1 = randomParameterSets(1, 10, prng);
    auto p2 = randomParameterSets(2, 10, prng);
    std::vector<QaoaParams> pts;
    for (std::size_t i = 0; i < p1.size(); ++i) {
        pts.push_back(p1[i]);
        pts.push_back(p2[i]);
    }
    for (int threads : {1, 2, 4, 8}) {
        ThreadPool::setGlobalThreads(threads);
        obs::Profiler::global().reset();
        EvalEngine engine;
        auto got = engine.evaluate(g, EvalSpec::ideal(2), pts);
        for (std::size_t i = 0; i < pts.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(pts[i]))
                << "threads=" << threads << " i=" << i;
        // 10 points of each depth: two groups per depth.
        EXPECT_EQ(profilerCount("batched.sweeps"), 4u);
        EXPECT_EQ(profilerCount("batched.points"), pts.size());
    }
    obs::Profiler::global().reset();
}

TEST(EvalEngine, OneDrainMixesScalarPointsAndLaneGroupsOfTwoJobs)
{
    PoolGuard guard;
    Graph a = smallGraph(11);
    Graph b = smallGraph(12);
    Graph large = largeGraph();
    ExactEvaluator da(a), db(b);
    AnalyticEvaluator dl(large);
    Rng prng(93);
    auto few = randomParameterSets(2, 5, prng);    // scalar points
    auto wide = randomParameterSets(2, 17, prng);  // three groups
    auto eight = randomParameterSets(2, 8, prng);  // one group
    auto analytic = randomParameterSets(1, 9, prng); // no lanes
    for (int threads : {1, 2, 4, 8}) {
        ThreadPool::setGlobalThreads(threads);
        obs::Profiler::global().reset();
        EvalEngine engine;
        EvalJobTicket tf = engine.submit(a, EvalSpec::ideal(2), few);
        EvalJobTicket tw = engine.submit(a, EvalSpec::ideal(2), wide);
        EvalJobTicket te = engine.submit(b, EvalSpec::ideal(2), eight);
        EvalJobTicket tl =
            engine.submit(large, EvalSpec::ideal(1), analytic);
        engine.drain();
        EXPECT_EQ(engine.stats().drains, 1u);
        ASSERT_TRUE(tf.ready() && tw.ready() && te.ready() && tl.ready());
        for (std::size_t i = 0; i < few.size(); ++i)
            EXPECT_EQ(tf.get()[i], da.expectation(few[i]));
        for (std::size_t i = 0; i < wide.size(); ++i)
            EXPECT_EQ(tw.get()[i], da.expectation(wide[i]));
        for (std::size_t i = 0; i < eight.size(); ++i)
            EXPECT_EQ(te.get()[i], db.expectation(eight[i]));
        for (std::size_t i = 0; i < analytic.size(); ++i)
            EXPECT_EQ(tl.get()[i], dl.expectation(analytic[i]));
        EXPECT_EQ(profilerCount("batched.sweeps"), 4u)
            << "threads=" << threads;
        EXPECT_EQ(profilerCount("batched.points"), 25u);
    }
    obs::Profiler::global().reset();
}

TEST(EvalEngine, WideStateLaneGroupsSweepInTurnBitIdentical)
{
    // At 2^14 amplitudes the lane kernels spread each pass over a pool
    // of two or more threads themselves, so the drain sweeps such a
    // job's groups one at a time after the fan-out instead of making
    // them fan-out indices. Values and occupancy counters are those of
    // every other lane sweep, next to a narrow job fanned out as usual.
    PoolGuard guard;
    Rng grng(97);
    Graph wide = gen::connectedGnp(14, 0.3, grng);
    Graph narrow = smallGraph();
    ExactEvaluator dw(wide), dn(narrow);
    Rng prng(98);
    auto pw = randomParameterSets(2, 17, prng); // three groups
    auto pn = randomParameterSets(2, 9, prng);  // two groups
    for (int threads : {1, 2, 4}) {
        ThreadPool::setGlobalThreads(threads);
        EXPECT_EQ(laneSweepUsesPool(14), threads > 1);
        EXPECT_FALSE(laneSweepUsesPool(13));
        obs::Profiler::global().reset();
        EvalEngine engine;
        EvalJobTicket tw = engine.submit(wide, EvalSpec::ideal(2), pw);
        EvalJobTicket tn = engine.submit(narrow, EvalSpec::ideal(2), pn);
        engine.drain();
        ASSERT_TRUE(tw.ready() && tn.ready());
        for (std::size_t i = 0; i < pw.size(); ++i)
            EXPECT_EQ(tw.get()[i], dw.expectation(pw[i]))
                << "threads=" << threads << " i=" << i;
        for (std::size_t i = 0; i < pn.size(); ++i)
            EXPECT_EQ(tn.get()[i], dn.expectation(pn[i]))
                << "threads=" << threads << " i=" << i;
        EXPECT_EQ(profilerCount("batched.sweeps"), 5u);
        EXPECT_EQ(profilerCount("batched.points"), 26u);
    }
    obs::Profiler::global().reset();
}

TEST(EvalEngine, MemoKeysAreExactBits)
{
    // +0.0 / -0.0 and 0.1 + 0.2 / 0.3 are different points: each is
    // computed, and each value is its own direct evaluation.
    Graph g = smallGraph();
    ExactEvaluator direct(g);
    std::vector<QaoaParams> pts = {
        QaoaParams({0.0}, {0.4}), QaoaParams({-0.0}, {0.4}),
        QaoaParams({0.1 + 0.2}, {0.4}), QaoaParams({0.3}, {0.4})};
    EvalEngine engine;
    for (const QaoaParams &p : pts)
        EXPECT_EQ(engine.evaluate(g, EvalSpec::ideal(1), {p}),
                  std::vector<double>{direct.expectation(p)});
    EXPECT_EQ(engine.stats().evaluated, pts.size());
    EXPECT_EQ(engine.stats().memoHits, 0u);
    EXPECT_EQ(engine.stats().memoEntries, pts.size());
}

TEST(EvalEngine, SameBitsUnderTwoGraphsOrTwoSpecsAreDistinct)
{
    Graph a = smallGraph(13);
    Graph b = smallGraph(14);
    QaoaParams p({0.6}, {0.25});
    EvalSpec analytic = EvalSpec::ideal(1);
    analytic.backend = EvalBackend::AnalyticP1;
    EvalEngine engine;
    EXPECT_EQ(engine.evaluate(a, EvalSpec::ideal(1), {p})[0],
              ExactEvaluator(a).expectation(p));
    EXPECT_EQ(engine.evaluate(b, EvalSpec::ideal(1), {p})[0],
              ExactEvaluator(b).expectation(p));
    EXPECT_EQ(engine.evaluate(a, analytic, {p})[0],
              AnalyticEvaluator(a).expectation(p));
    EXPECT_EQ(engine.stats().evaluated, 3u);
    EXPECT_EQ(engine.stats().memoHits, 0u);
    // Each is now a hit under its own (graph, spec) only.
    engine.evaluate(a, EvalSpec::ideal(1), {p});
    engine.evaluate(b, EvalSpec::ideal(1), {p});
    engine.evaluate(a, analytic, {p});
    EXPECT_EQ(engine.stats().evaluated, 3u);
    EXPECT_EQ(engine.stats().memoHits, 3u);
}

TEST(EvalEngine, ClearMemosEmptiesTheMemoCounters)
{
    Graph g = smallGraph();
    Rng prng(94);
    auto pts = randomParameterSets(2, 12, prng);
    EvalEngine engine;
    auto first = engine.evaluate(g, EvalSpec::ideal(2), pts);
    EXPECT_EQ(engine.stats().memoEntries, pts.size());
    EXPECT_GT(engine.stats().memoBytes, 0u);
    json::Value doc = engine.stats().toJson();
    EXPECT_EQ(doc.find("memo_entries")->asNumber(),
              static_cast<double>(pts.size()));
    EXPECT_EQ(engineStatsFromJson(doc).memoBytes,
              engine.stats().memoBytes);
    engine.clearMemos();
    EXPECT_EQ(engine.stats().memoEntries, 0u);
    EXPECT_EQ(engine.stats().memoBytes, 0u);
    // Recomputed, not served, and identical.
    EXPECT_EQ(engine.evaluate(g, EvalSpec::ideal(2), pts), first);
    EXPECT_EQ(engine.stats().evaluated, 2 * pts.size());
}

TEST(EvalEngine, MemoHoldsAP2PointInAtMost96Bytes)
{
    // 100k points exceed one engine's memo budget, so they fill the
    // memo's own table type directly, keyed as the engine keys a p = 2
    // point: the layer count, then the gamma and beta bit patterns.
    Rng prng(95);
    PointMemo memo;
    constexpr std::size_t kPoints = 100000;
    for (const QaoaParams &p : randomParameterSets(2, kPoints, prng)) {
        const std::array<std::uint64_t, 5> key = {
            2, std::bit_cast<std::uint64_t>(p.gamma[0]),
            std::bit_cast<std::uint64_t>(p.gamma[1]),
            std::bit_cast<std::uint64_t>(p.beta[0]),
            std::bit_cast<std::uint64_t>(p.beta[1])};
        memo.insert(key, PointMemo::hash(key), p.gamma[0]);
    }
    ASSERT_EQ(memo.size(), kPoints);
    EXPECT_LE(memo.bytes(), 96 * memo.size())
        << static_cast<double>(memo.bytes()) / kPoints
        << " bytes per point";
}

TEST(EvalEngine, MemoBudgetEvictsLeastRecentTables)
{
    // Three 3-node graphs keep the computations cheap. a and b take
    // 20k points each, a is looked up again, then c fills until the
    // memo passes its budget: b's table, looked up longest ago, goes
    // first, and enough room is left that a's stays.
    Graph a(3), b(3), c(3);
    a.addEdge(0, 1);
    a.addEdge(1, 2);
    b.addEdge(0, 1);
    b.addEdge(0, 2);
    c.addEdge(0, 2);
    c.addEdge(1, 2);
    const EvalSpec spec = EvalSpec::ideal(2);
    Rng prng(97);
    EvalEngine engine;
    auto fill = [&](const Graph &g, std::size_t points) {
        for (std::size_t done = 0; done < points; done += 1000) {
            engine.evaluate(g, spec, randomParameterSets(2, 1000, prng));
            EXPECT_LE(engine.stats().memoBytes, EvalEngine::kMemoBudgetBytes);
        }
    };
    Rng pointRng(98);
    const auto aPoint = randomParameterSets(2, 1, pointRng);
    const auto bPoint = randomParameterSets(2, 1, pointRng);
    const double aFirst = engine.evaluate(a, spec, aPoint)[0];
    const double bFirst = engine.evaluate(b, spec, bPoint)[0];
    fill(a, 20000);
    fill(b, 20000);
    EXPECT_EQ(engine.evaluate(a, spec, aPoint)[0], aFirst); // a is recent.
    EXPECT_EQ(engine.stats().memoEvictions, 0u);
    std::size_t cPoints = 0;
    while (engine.stats().memoEvictions == 0 && cPoints < 100000) {
        fill(c, 1000);
        cPoints += 1000;
    }
    EngineStats stats = engine.stats();
    ASSERT_GE(stats.memoEvictions, 1u) << cPoints << " points on c";
    EXPECT_LE(stats.memoBytes, EvalEngine::kMemoBudgetBytes);
    EXPECT_EQ(engine.stats().toJson().find("memo_evictions")->asNumber(),
              static_cast<double>(stats.memoEvictions));

    // b's repeat is recomputed, bit for bit; a's is still a memo hit.
    EXPECT_EQ(engine.evaluate(b, spec, bPoint)[0], bFirst);
    EXPECT_EQ(engine.stats().evaluated, stats.evaluated + 1);
    EXPECT_EQ(engine.stats().memoHits, stats.memoHits);
    EXPECT_EQ(engine.evaluate(a, spec, aPoint)[0], aFirst);
    EXPECT_EQ(engine.stats().evaluated, stats.evaluated + 1);
    EXPECT_EQ(engine.stats().memoHits, stats.memoHits + 1);
    EXPECT_EQ(bFirst, ExactEvaluator(b).expectation(bPoint[0]));
}

TEST(PointTable, EveryHashMatchComparesTheFullKey)
{
    PointTable<double> table;
    const std::uint64_t three[] = {1, 2, 3};
    const std::uint64_t four[] = {1, 2, 3, 4};
    const std::uint64_t other[] = {1, 2, 4};
    const std::uint32_t h = 7; // One hash for every key: all collide.
    EXPECT_TRUE(table.insert(three, h, 0.5));
    // Keys of another length never match, even on a hash match.
    EXPECT_EQ(table.find(four, h), nullptr);
    EXPECT_EQ(table.find(std::span(three).first(2), h), nullptr);
    EXPECT_EQ(table.find(other, h), nullptr);
    EXPECT_TRUE(table.insert(four, h, 1.5));
    EXPECT_TRUE(table.insert(other, h, 2.5));
    EXPECT_FALSE(table.insert(three, h, 9.0)); // Stored values stay.
    EXPECT_EQ(*table.find(three, h), 0.5);
    EXPECT_EQ(*table.find(four, h), 1.5);
    EXPECT_EQ(*table.find(other, h), 2.5);
    EXPECT_EQ(table.size(), 3u);
    table.clear();
    EXPECT_EQ(table.find(three, h), nullptr);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.bytes(), 0u);
}

TEST(PointTable, HundredThousandKeysHitAfterEveryRehash)
{
    PointTable<double> table;
    constexpr std::size_t kKeys = 100000;
    Rng rng(96);
    std::vector<std::array<std::uint64_t, 5>> keys(kKeys);
    for (auto &key : keys) {
        key[0] = 2;
        for (std::size_t w = 1; w < key.size(); ++w)
            key[w] = std::bit_cast<std::uint64_t>(rng.uniform());
    }
    auto check = [&](std::size_t stored) {
        for (std::size_t i = 0; i < stored; ++i) {
            const double *v =
                table.find(keys[i], PointTable<double>::hash(keys[i]));
            ASSERT_NE(v, nullptr) << "key " << i << " of " << stored;
            ASSERT_EQ(*v, static_cast<double>(i));
        }
    };
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < kKeys; ++i) {
        ASSERT_TRUE(table.insert(keys[i], PointTable<double>::hash(keys[i]),
                                 static_cast<double>(i)));
        if (table.bytes() != bytes) { // A rehash or a new arena block.
            bytes = table.bytes();
            check(i + 1);
        }
    }
    check(kKeys);
    EXPECT_EQ(table.size(), kKeys);
}

TEST(EvalEngine, ObjectiveMatchesEvaluator)
{
    EvalEngine engine;
    Graph g = smallGraph();
    Objective obj = engine.objective(g, EvalSpec::ideal(1));
    auto ev = engine.evaluator(g, EvalSpec::ideal(1));
    QaoaParams p({0.7}, {0.3});
    EXPECT_EQ(obj(p.flatten()), -ev->expectation(p));
}

TEST(EvalEngine, EngineLandscapeMatchesDirectLandscape)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(2);
    Graph g = smallGraph();
    ExactEvaluator direct(g);
    Landscape want = Landscape::evaluate(direct, 12);
    EvalEngine engine;
    Landscape got =
        Landscape::evaluate(engine, g, EvalSpec::ideal(1), 12);
    EXPECT_EQ(got.values(), want.values());
}

/** >= 100 tiny pipeline runs on one engine; tiny budgets keep it fast. */
std::vector<FleetScenario>
fleetScenarios()
{
    std::vector<std::pair<std::string, Graph>> graphs;
    Rng rng(313);
    for (int i = 0; i < 13; ++i) {
        char name[16];
        std::snprintf(name, sizeof name, "g%d", i);
        graphs.emplace_back(name, gen::connectedGnp(8, 0.4, rng));
    }
    PipelineOptions base;
    base.restarts = 1;
    base.searchEvaluations = 6;
    base.refineEvaluations = 3;
    base.trajectories = 2;
    return PipelineFleet::grid(
        graphs, {noise::ibmKolkata(), noise::scaled(2.0)}, {1, 2}, base,
        /*seed0=*/41, /*include_baseline=*/true);
}

TEST(PipelineFleet, HundredConcurrentJobsDeterministicReport)
{
    PoolGuard guard;
    auto scenarios = fleetScenarios();
    ASSERT_GE(scenarios.size(), 100u);

    std::vector<std::string> dumps;
    std::vector<FleetReport> reports;
    // Two runs at 8 threads (repeatability) and one each at 2 and 1
    // (thread-count invariance, incl. the serial reference).
    for (int threads : {8, 8, 2, 1}) {
        ThreadPool::setGlobalThreads(threads);
        PipelineFleet fleet;
        FleetReport report = fleet.run(scenarios);
        EXPECT_EQ(report.runs.size(), scenarios.size());
        dumps.push_back(report.runsJson().dump(1));
        reports.push_back(std::move(report));
    }
    for (std::size_t r = 1; r < dumps.size(); ++r)
        EXPECT_EQ(dumps[0], dumps[r]) << "run " << r;

    // The full report document round-trips and carries the schema tag
    // plus engine traffic.
    json::Value doc = json::Value::parse(reports[0].toJson().dump(2));
    EXPECT_EQ(doc.find("schema_version")->asNumber(), 1);
    EXPECT_EQ(doc.find("tool")->asString(), "redqaoa_fleet");
    const json::Value *meta = doc.find("metadata");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->find("scenario_count")->asNumber(),
              static_cast<double>(scenarios.size()));
    const json::Value *eng = meta->find("engine");
    ASSERT_NE(eng, nullptr);
    // One engine served every run: the shared scoring evaluators must
    // have produced cache traffic.
    EXPECT_GT(eng->find("evaluator_hits")->asNumber(), 0.0);
    EXPECT_EQ(doc.find("runs")->size(), scenarios.size());

    // Sanity on the rows themselves.
    for (const FleetRunSummary &run : reports[0].runs) {
        EXPECT_GT(run.maxCut, 0) << run.name;
        EXPECT_GE(run.approxRatio, -1.0) << run.name;
        EXPECT_LE(run.approxRatio, 1.0 + 1e-9) << run.name;
    }
}

TEST(PipelineFleet, GridBuildsEveryCombination)
{
    PipelineOptions base;
    Rng rng(1);
    std::vector<std::pair<std::string, Graph>> graphs{
        {"a", gen::connectedGnp(6, 0.5, rng)},
        {"b", gen::connectedGnp(7, 0.5, rng)}};
    auto plain = PipelineFleet::grid(graphs, {noise::ibmKolkata()},
                                     {1, 2, 3}, base, 10, false);
    EXPECT_EQ(plain.size(), 6u);
    auto with_base = PipelineFleet::grid(graphs, {noise::ibmKolkata()},
                                         {1, 2, 3}, base, 10, true);
    EXPECT_EQ(with_base.size(), 12u);
    // Seeds are sequential and unique in row order.
    for (std::size_t i = 0; i < with_base.size(); ++i)
        EXPECT_EQ(with_base[i].seed, 10u + i);
    EXPECT_TRUE(with_base[1].baseline);
    EXPECT_EQ(with_base[1].name, "a/ibmq_kolkata/p1/baseline");
}

TEST(EngineShardSet, RoutingIsDeterministicAcrossRestarts)
{
    // Placement is a pure function of graph structure and shard count:
    // two independently constructed shard sets (a "restart") must
    // route every graph the same way.
    std::vector<Graph> graphs;
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        graphs.push_back(smallGraph(seed));

    EngineShardSet first(4);
    EngineShardSet second(4);
    ASSERT_EQ(first.shardCount(), 4);
    for (const Graph &g : graphs) {
        std::size_t shard = first.shardFor(g);
        EXPECT_LT(shard, 4u);
        EXPECT_EQ(shard, second.shardFor(g));
        // Repeated lookups of the same graph never move.
        EXPECT_EQ(shard, first.shardFor(g));
    }
}

TEST(EngineShardSet, NestedCongruenceWhenShardCountsDivideEvenly)
{
    // hash % 2 == (hash % 4) % 2: when one shard count divides the
    // other, a graph's 2-shard placement is derivable from its 4-shard
    // placement. Growing a deployment 2 -> 4 therefore splits each
    // shard's population in two instead of reshuffling everything.
    EngineShardSet two(2);
    EngineShardSet four(4);
    EngineShardSet eight(8);
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Graph g = smallGraph(seed);
        EXPECT_EQ(four.shardFor(g) % 2, two.shardFor(g));
        EXPECT_EQ(eight.shardFor(g) % 4, four.shardFor(g));
        EXPECT_EQ(eight.shardFor(g) % 2, two.shardFor(g));
    }
}

TEST(EngineShardSet, AggregateStatsSumsShardCounters)
{
    EngineShardSet set(3);
    Graph g = smallGraph();
    Rng rng(11);
    std::vector<QaoaParams> points = randomParameterSets(1, 6, rng);

    // Evaluate on two different shards; the third stays idle.
    set.shard(0)->evaluate(g, EvalSpec::ideal(1), points);
    set.shard(1)->evaluate(g, EvalSpec::ideal(1), points);
    set.shard(1)->evaluate(g, EvalSpec::ideal(1), points); // memo hits

    EngineStats total = set.aggregateStats();
    std::vector<EngineStats> per = set.shardStats();
    ASSERT_EQ(per.size(), 3u);
    std::uint64_t points_sum = 0;
    std::uint64_t memo_sum = 0;
    std::uint64_t graphs_sum = 0;
    for (const EngineStats &s : per) {
        points_sum += s.points;
        memo_sum += s.memoHits;
        graphs_sum += s.artifacts.graphs;
    }
    EXPECT_EQ(total.points, points_sum);
    EXPECT_EQ(total.memoHits, memo_sum);
    EXPECT_EQ(total.artifacts.graphs, graphs_sum);
    EXPECT_EQ(total.points, 18u);
    EXPECT_EQ(total.memoHits, 6u);   // The repeated shard-1 batch.
    EXPECT_EQ(total.artifacts.graphs, 2u);
    EXPECT_EQ(per[2].points, 0u);    // The idle shard contributes zeros.
}

TEST(RedQaoaPipeline, SharedEngineMatchesPrivateEngine)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(2);
    Rng grng(91);
    Graph g = gen::connectedGnp(9, 0.4, grng);
    PipelineOptions opts;
    opts.restarts = 2;
    opts.searchEvaluations = 10;
    opts.refineEvaluations = 5;
    opts.trajectories = 3;
    opts.noise = noise::ibmKolkata();

    RedQaoaPipeline private_engine(opts);
    Rng r1(3);
    PipelineResult a = private_engine.run(g, r1);

    auto engine = std::make_shared<EvalEngine>();
    RedQaoaPipeline shared_engine(opts, engine);
    Rng r2(3);
    PipelineResult b = shared_engine.run(g, r2);
    // Warm engine: run again, results must not depend on cache state.
    Rng r3(3);
    PipelineResult c = shared_engine.run(g, r3);

    EXPECT_EQ(a.idealEnergy, b.idealEnergy);
    EXPECT_EQ(a.approxRatio, b.approxRatio);
    EXPECT_EQ(a.params.gamma, b.params.gamma);
    EXPECT_EQ(a.params.beta, b.params.beta);
    EXPECT_EQ(b.idealEnergy, c.idealEnergy);
    EXPECT_EQ(b.params.gamma, c.params.gamma);
}

} // namespace
} // namespace redqaoa
