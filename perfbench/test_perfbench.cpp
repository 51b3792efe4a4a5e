// Tests of the benchmark's own code: request generation, latency
// statistics, the correctness gate's accounting, and span self times.

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload.hpp"

using namespace perfbench;

namespace {

std::vector<std::string>
firstLines(const Workload &w, std::uint64_t stream_id, int n)
{
    Workload::Stream stream(w, stream_id);
    std::vector<std::string> lines;
    for (int i = 0; i < n; ++i)
        lines.push_back(w.render(stream.next(), i + 1, false));
    return lines;
}

} // namespace

TEST(Generator, SameSeedGivesByteIdenticalLines)
{
    for (const WorkloadSpec &spec : workloads()) {
        Workload a(spec, 7);
        Workload b(spec, 7);
        EXPECT_EQ(firstLines(a, 0, 64), firstLines(b, 0, 64)) << spec.name;
        EXPECT_EQ(firstLines(a, kLadderStream, 8),
                  firstLines(b, kLadderStream, 8))
            << spec.name;
    }
}

TEST(Generator, SeedsAndStreamsDiffer)
{
    for (const WorkloadSpec &spec : workloads()) {
        Workload a(spec, 7);
        Workload b(spec, 8);
        EXPECT_NE(firstLines(a, 0, 8), firstLines(b, 0, 8)) << spec.name;
        EXPECT_NE(firstLines(a, 0, 8), firstLines(a, 1, 8)) << spec.name;
    }
}

TEST(Generator, TracedLinesDifferOnlyByTheTraceMember)
{
    Workload w(*findWorkload("optimize_p2"), 3);
    Workload::Stream stream(w, 0);
    Draw d = stream.next();
    std::string plain = w.render(d, 5, false);
    std::string traced = w.render(d, 5, true);
    EXPECT_EQ(traced, plain.substr(0, plain.size() - 1) + ",\"trace\":true}");
}

TEST(Generator, RepeatShareAndRepeatsReuseAnEarlierPoint)
{
    Workload w(*findWorkload("eval_small"), 11);
    Workload::Stream stream(w, 0);
    std::set<std::string> seen;
    int repeats = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        Draw d = stream.next();
        std::string key = w.render(d, 1, false);
        if (d.repeat) {
            ++repeats;
            EXPECT_TRUE(seen.count(key)) << "repeat of an unseen point";
        } else {
            EXPECT_FALSE(seen.count(key)) << "fresh point seen before";
        }
        seen.insert(key);
    }
    EXPECT_NEAR(static_cast<double>(repeats) / n, 0.5, 0.03);
}

TEST(Generator, ConnectionsStayOnTheirExecutorAndCoverIt)
{
    for (const WorkloadSpec &spec : workloads()) {
        Workload w(spec, 5);
        std::set<int> graphs;
        for (int c = 0; c < spec.connections; ++c) {
            int pool = 0;
            for (int g = 0; g < spec.graphs; ++g)
                pool += w.slot(g) % spec.connections == c ? 1 : 0;
            Workload::Stream stream(w, static_cast<std::uint64_t>(c));
            for (int i = 0; i < pool; ++i) {
                Draw d = stream.next();
                if (d.repeat)
                    continue;
                EXPECT_EQ(w.lane(d.graph), c % kWorkers) << spec.name;
                EXPECT_EQ(w.slot(d.graph) % spec.connections, c)
                    << spec.name;
                graphs.insert(d.graph);
            }
        }
        // eval_small repeats half its draws, so covers only part.
        if (spec.repeatShare == 0.0)
            EXPECT_EQ(static_cast<int>(graphs.size()), spec.graphs)
                << spec.name;
    }
}

TEST(Generator, ConnectionCountsFitTheDeployment)
{
    for (const WorkloadSpec &spec : workloads()) {
        EXPECT_EQ(spec.connections % kWorkers, 0) << spec.name;
        EXPECT_EQ(kShards % spec.connections, 0) << spec.name;
    }
    WorkloadSpec bad = *findWorkload("eval_batch");
    bad.connections = 3;
    EXPECT_THROW(Workload(bad, 1), std::invalid_argument);
}

TEST(Generator, GraphSetMatchesTheSpec)
{
    const WorkloadSpec &spec = *findWorkload("eval_small");
    Workload w(spec, 2);
    ASSERT_EQ(static_cast<int>(w.graphs().size()), spec.graphs);
    std::set<int> sizes;
    for (std::size_t i = 0; i < w.graphs().size(); ++i) {
        sizes.insert(w.graphs()[i].numNodes());
        EXPECT_GT(w.maxCut(static_cast<int>(i)), 0);
    }
    EXPECT_EQ(sizes, (std::set<int>{6, 7, 8}));
}

TEST(TailRule, HighestPercentileWithTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
    EXPECT_DOUBLE_EQ(tailQuantile(1000), 0.99);
    EXPECT_DOUBLE_EQ(tailQuantile(999), 0.9);
    EXPECT_DOUBLE_EQ(tailQuantile(100), 0.9);
    EXPECT_DOUBLE_EQ(tailQuantile(99), 0.5);
    EXPECT_DOUBLE_EQ(tailQuantile(20), 0.5);
    EXPECT_DOUBLE_EQ(tailQuantile(19), 0.0);
}

TEST(TailRule, WorkloadTailsHoldAtTheirMinimumCounts)
{
    for (const WorkloadSpec &spec : workloads()) {
        std::size_t n = static_cast<std::size_t>(spec.minPerConnection) *
                        static_cast<std::size_t>(spec.connections);
        EXPECT_GE(tailQuantile(n), spec.tailQuantile) << spec.name;
    }
}

TEST(Statistics, NearestRankPercentile)
{
    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i)
        xs.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 50.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.9), 90.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.99), 99.0);
    EXPECT_DOUBLE_EQ(percentile({4.0}, 0.99), 4.0);
}

TEST(Statistics, WindowedRateIgnoresAStall)
{
    // 100 completions per second for 10 s, except a 4x-slow window.
    std::vector<Completion> done;
    double t = 0.0;
    for (int i = 0; i < 1000; ++i) {
        t += (i >= 500 && i < 550) ? 0.04 : 0.01;
        done.push_back({t, 1.0});
    }
    std::reverse(done.begin(), done.end());
    std::vector<double> rates = windowRates(done, 20);
    EXPECT_EQ(rates.size(), 20u);
    EXPECT_NEAR(rates[10], 25.0, 1e-6);
    EXPECT_NEAR(median(rates), 100.0, 1e-6);
    EXPECT_THROW(windowRates(done, 2000), std::invalid_argument);
}

TEST(Statistics, WindowedPercentileKeepsTenSamplesBeyond)
{
    std::vector<Completion> done;
    for (int i = 0; i < 30000; ++i)
        done.push_back({i * 1e-3, static_cast<double>(i % 100)});
    std::size_t per = 0;
    // 20 windows of 1500 keep 15 beyond p99.
    EXPECT_DOUBLE_EQ(windowedPercentile(done, 0.99, 20, per), 98.0);
    EXPECT_EQ(per, 1500u);
    EXPECT_GE(samplesBeyond(per, 0.99), 10u);
    // 3000 samples allow only 3 windows for p99: one window instead.
    done.resize(3000);
    windowedPercentile(done, 0.99, 20, per);
    EXPECT_EQ(per, 3000u);
    done.resize(150);
    windowedPercentile(done, 0.9, 20, per);
    EXPECT_EQ(per, 150u);
    // The median keeps 20 windows down to 400 samples; window p50s are
    // 9, 29, 49, 69, 89, four times each.
    done.clear();
    for (int i = 0; i < 400; ++i)
        done.push_back({i * 1e-3, static_cast<double>(i % 100)});
    EXPECT_DOUBLE_EQ(windowedPercentile(done, 0.5, 20, per), 49.0);
    EXPECT_EQ(per, 20u);
}

TEST(Statistics, WindowedMedianIgnoresAStall)
{
    // 1 ms answers, except a run of 9 ms ones in a fifth of the run.
    std::vector<Completion> done;
    for (int i = 0; i < 1000; ++i)
        done.push_back({i * 1e-2, (i >= 400 && i < 600) ? 9.0 : 1.0});
    std::size_t per = 0;
    EXPECT_DOUBLE_EQ(windowedPercentile(done, 0.5, 20, per), 1.0);
}

TEST(Statistics, QuartilesMatchPythonStatistics)
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    std::vector<double> ten{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
    std::vector<double> q = quartiles(ten);
    EXPECT_DOUBLE_EQ(q[0], 2.75);
    EXPECT_DOUBLE_EQ(q[1], 5.5);
    EXPECT_DOUBLE_EQ(q[2], 8.25);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    q = quartiles({1.0, 2.0});
    EXPECT_DOUBLE_EQ(q[0], 0.75);
    EXPECT_DOUBLE_EQ(q[1], 1.5);
    EXPECT_DOUBLE_EQ(q[2], 2.25);
    EXPECT_DOUBLE_EQ(iqr(ten), 5.5);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Gate, EvaluateValuesMustBeBitIdentical)
{
    const double v = 2.5;
    const double next = std::nextafter(v, 3.0);
    const std::string ok =
        R"({"id":1,"ok":true,"result":{"backend":"statevector","values":[2.5]},"schema_version":2})";
    EXPECT_EQ(judgeEvaluate(ok, {v}), Outcome::Ok);
    EXPECT_EQ(judgeEvaluate(ok, {next}), Outcome::Mismatch);
    EXPECT_EQ(judgeEvaluate(ok, {v, v}), Outcome::Mismatch);
    EXPECT_EQ(
        judgeEvaluate(
            R"({"id":1,"ok":false,"error":{"code":"overloaded","message":"x"}})",
            {v}),
        Outcome::Error);
    EXPECT_EQ(judgeEvaluate("{\"id\":1,\"ok\":tr", {v}), Outcome::Error);
    json::Value parsed;
    judgeEvaluate(ok, {v}, &parsed);
    EXPECT_EQ(parsed.find("id")->asNumber(), 1.0);
}

TEST(Gate, ResultsMustRenderByteIdentically)
{
    const std::string line =
        R"({"id":3,"ok":true,"result":{"energy":7.25,"evaluations":480}})";
    EXPECT_EQ(judgeResult(line, R"({"energy":7.25,"evaluations":480})"),
              Outcome::Ok);
    EXPECT_EQ(judgeResult(line, R"({"energy":7.5,"evaluations":480})"),
              Outcome::Mismatch);
    EXPECT_EQ(judgeResult("not json", "{}"), Outcome::Error);
}

TEST(Gate, TallyCountsEveryFailureKind)
{
    Tally t;
    t.add(Outcome::Ok);
    t.add(Outcome::Ok);
    t.add(Outcome::Error);
    t.add(Outcome::Mismatch);
    t.add(Outcome::Timeout);
    EXPECT_EQ(t.attempted, 5u);
    EXPECT_EQ(t.succeeded, 2u);
    EXPECT_EQ(t.failed(), 3u);
    EXPECT_DOUBLE_EQ(t.failedFrac(), 0.6);
    EXPECT_DOUBLE_EQ(Tally{}.failedFrac(), 0.0);
    json::Value doc = t.toJson();
    EXPECT_EQ(doc.find("failed")->asNumber(), 3.0);
    EXPECT_EQ(doc.find("timeouts")->asNumber(), 1.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfDescendants)
{
    // lb.forward [10, 110); the worker's spans re-parented under it.
    json::Value trace = json::Value::parse(R"({"spans":[
        {"name":"lb.queue","parent":"","start_us":0,"dur_us":10,"count":1},
        {"name":"lb.forward","parent":"","start_us":10,"dur_us":100,"count":1},
        {"name":"worker.admission","parent":"lb.forward","start_us":20,"dur_us":5,"count":1},
        {"name":"shard.queue","parent":"worker.admission","start_us":20,"dur_us":20,"count":1},
        {"name":"worker.execute","parent":"worker.admission","start_us":40,"dur_us":50,"count":1},
        {"name":"optimize.restarts","parent":"worker.execute","start_us":45,"dur_us":40,"count":1},
        {"name":"backend.evaluate","parent":"worker.execute","start_us":46,"dur_us":30,"count":480}
    ]})");
    std::vector<Span> spans = spansOf(trace);
    ASSERT_EQ(spans.size(), 7u);
    // Descendants cover [20, 90): 70 of lb.forward's 100.
    EXPECT_DOUBLE_EQ(selfUs(spans, "lb.forward"), 30.0);
    // optimize.restarts covers [45, 85), which holds backend.evaluate.
    EXPECT_DOUBLE_EQ(selfUs(spans, "worker.execute"), 10.0);
    EXPECT_DOUBLE_EQ(selfUs(spans, "lb.queue"), 10.0);
    EXPECT_DOUBLE_EQ(selfUs(spans, "absent"), 0.0);
    EXPECT_DOUBLE_EQ(spanUs(spans, "backend.evaluate"), 30.0);
    EXPECT_DOUBLE_EQ(spanCount(spans, "backend.evaluate"), 480.0);
    EXPECT_DOUBLE_EQ(coveredUs(spans), 110.0);
}
