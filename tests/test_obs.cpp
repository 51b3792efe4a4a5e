/**
 * @file
 * Observability layer tests. The load-bearing contracts:
 *  - stats::LatencyHistogram merge is counter-exact: merging two
 *    histograms equals recording both sample sets into one;
 *  - structured log events render both text and JSON formats with
 *    the component/event/fields verbatim, and the threshold gates
 *    emission;
 *  - TraceRecorder accumulates hot spans by (name, parent) instead
 *    of growing unboundedly; TraceRing keeps a bounded ring plus a
 *    worst-first slowlog;
 *  - mergeWorkerTrace re-parents worker roots under lb.forward and
 *    shifts offsets onto the lb clock, and rejects malformed docs;
 *  - StageTimer records a stage histogram only while the profiler is
 *    enabled and a trace span only while a trace is active (the
 *    disabled path stays inert);
 *  - the Prometheus text exposition obeys the 0.0.4 grammar: HELP/
 *    TYPE headers per family, cumulative non-decreasing histogram
 *    buckets, +Inf bucket == _count;
 *  - the required metric family names stay pinned (dashboards break
 *    silently otherwise);
 *  - the HTTP endpoint answers GET /metrics with the exposition and
 *    anything else with 404;
 *  - the shared process/latency JSON builders keep their key sets
 *    (health and metrics cannot drift apart).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_http.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "service/socket_util.hpp"

namespace redqaoa {
namespace {

// ---------------------------------------------------------------------
// LatencyHistogram (extracted into src/common/stats)
// ---------------------------------------------------------------------

TEST(LatencyHistogram, MergeEqualsCombinedRecording)
{
    const std::vector<double> left = {1e-6, 5e-5, 2e-3, 0.4};
    const std::vector<double> right = {3e-6, 8e-4, 0.02, 1.5, 7.0};

    stats::LatencyHistogram a;
    stats::LatencyHistogram b;
    stats::LatencyHistogram combined;
    for (double s : left) {
        a.record(s);
        combined.record(s);
    }
    for (double s : right) {
        b.record(s);
        combined.record(s);
    }
    a.merge(b);

    EXPECT_EQ(a.count(), combined.count());
    EXPECT_DOUBLE_EQ(a.sumSeconds(), combined.sumSeconds());
    EXPECT_DOUBLE_EQ(a.maxMs(), combined.maxMs());
    for (int i = 0; i < stats::LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(a.bucketCount(i), combined.bucketCount(i)) << i;
    EXPECT_DOUBLE_EQ(a.percentileMs(0.5), combined.percentileMs(0.5));
    EXPECT_DOUBLE_EQ(a.percentileMs(0.99), combined.percentileMs(0.99));
}

TEST(LatencyHistogram, BucketEdgesAreMonotonic)
{
    for (int i = 1; i < stats::LatencyHistogram::kBuckets; ++i)
        EXPECT_LT(stats::LatencyHistogram::bucketUpperSeconds(i - 1),
                  stats::LatencyHistogram::bucketUpperSeconds(i));
}

// ---------------------------------------------------------------------
// Structured logging
// ---------------------------------------------------------------------

/** Restore the env-driven log config + default sink on exit. */
class LogConfigGuard
{
  public:
    ~LogConfigGuard()
    {
        obs::setLogSink(nullptr);
        obs::configureLogFromEnv();
    }
};

TEST(Log, TextFormatRendersEventAndFieldsVerbatim)
{
    LogConfigGuard guard;
    obs::configureLog(obs::LogLevel::Debug, /*json=*/false);
    const std::string line = obs::logInfo("redqaoa_serve", "serving")
                                 .field("shards", 4)
                                 .field("store_dir", "(none)")
                                 .render();
    // The grep contracts: "component: event" contiguous, fields as
    // key=value (service_smoke.sh greps "shards=4").
    EXPECT_NE(line.find("INFO redqaoa_serve: serving"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("shards=4"), std::string::npos) << line;
    EXPECT_NE(line.find("store_dir=(none)"), std::string::npos) << line;
}

TEST(Log, JsonFormatIsParseableWithTypedFields)
{
    LogConfigGuard guard;
    obs::configureLog(obs::LogLevel::Debug, /*json=*/true);
    const std::string line = obs::logWarn("lb", "worker died")
                                 .field("worker", 2)
                                 .field("fatal", false)
                                 .field("exit", "signal 9")
                                 .render();
    json::Value doc = json::Value::parse(line);
    EXPECT_EQ(doc.find("level")->asString(), "warn");
    EXPECT_EQ(doc.find("component")->asString(), "lb");
    EXPECT_EQ(doc.find("event")->asString(), "worker died");
    EXPECT_EQ(doc.find("worker")->asNumber(), 2.0);
    EXPECT_FALSE(doc.find("fatal")->asBool());
    EXPECT_EQ(doc.find("exit")->asString(), "signal 9");
    EXPECT_TRUE(doc.find("ts")->isString());
    EXPECT_TRUE(doc.find("mono_s")->isNumber());
}

TEST(Log, ThresholdGatesEmission)
{
    LogConfigGuard guard;
    obs::configureLog(obs::LogLevel::Error, /*json=*/false);
    std::vector<std::string> lines;
    obs::setLogSink([&lines](const std::string &line) {
        lines.push_back(line);
    });
    obs::logInfo("test", "below threshold");
    obs::logWarn("test", "still below");
    EXPECT_TRUE(lines.empty());
    obs::logError("test", "emitted");
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("emitted"), std::string::npos);
}

// ---------------------------------------------------------------------
// Trace recorder / ring
// ---------------------------------------------------------------------

TEST(Trace, AccumulateMergesHotSpansByNameAndParent)
{
    obs::TraceRecorder rec("abc123");
    rec.accumulate("backend.evaluate", "worker.execute", 10, 5);
    rec.accumulate("backend.evaluate", "worker.execute", 4, 7);
    rec.accumulate("store.lookup", "worker.execute", 2, 1);
    ASSERT_EQ(rec.spans().size(), 2u);
    const obs::TraceSpan &hot = rec.spans()[0];
    EXPECT_EQ(hot.name, "backend.evaluate");
    EXPECT_EQ(hot.count, 2u);
    EXPECT_EQ(hot.durUs, 12);
    EXPECT_EQ(hot.startUs, 4); // Earliest start wins.

    rec.finish();
    json::Value doc = rec.toJson();
    EXPECT_EQ(doc.find("id")->asString(), "abc123");
    EXPECT_TRUE(doc.find("total_us")->isNumber());
    EXPECT_EQ(doc.find("spans")->size(), 2u);
}

TEST(Trace, RingIsBoundedAndSlowlogIsWorstFirst)
{
    obs::TraceRing ring(/*ring_capacity=*/2, /*slowlog_capacity=*/2);
    // Created t6, t4, t2, t0 and finished in the reverse order, a sleep
    // before each finish: a recorder finished later was created
    // earlier, so the totals order t6 > t4 > t2 > t0 by construction.
    std::vector<obs::TraceRecorder> recs; // recs[k] is t(6 - 2k).
    for (int total : {6, 4, 2, 0})
        recs.emplace_back("t" + std::to_string(total));
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        it->finish();
    }
    for (int total : {0, 6, 2, 4})
        ring.add(recs[static_cast<std::size_t>(3 - total / 2)]);
    EXPECT_EQ(ring.size(), 2u); // Ring keeps only the most recent.

    json::Value doc = ring.slowlogJson();
    EXPECT_EQ(doc.find("captured")->asNumber(), 4.0);
    const auto &slow = doc.find("slowlog")->asArray();
    ASSERT_EQ(slow.size(), 2u); // Slowlog keeps only the worst.
    EXPECT_EQ(slow[0].find("id")->asString(), "t6");
    EXPECT_EQ(slow[1].find("id")->asString(), "t4");
    EXPECT_GE(slow[0].find("total_us")->asNumber(),
              slow[1].find("total_us")->asNumber());
}

TEST(Trace, MergeWorkerTraceReparentsRootsAndShiftsOffsets)
{
    json::Value worker = json::Value::object();
    worker["id"] = "worker-id";
    worker["total_us"] = 50;
    json::Value spans = json::Value::array();
    json::Value root = json::Value::object();
    root["name"] = "worker.admission";
    root["parent"] = "";
    root["start_us"] = 0;
    root["dur_us"] = 3;
    root["count"] = 1;
    spans.push(std::move(root));
    json::Value child = json::Value::object();
    child["name"] = "backend.evaluate";
    child["parent"] = "worker.execute";
    child["start_us"] = 10;
    child["dur_us"] = 30;
    child["count"] = 120;
    spans.push(std::move(child));
    worker["spans"] = std::move(spans);

    obs::TraceRecorder lb("lb-id");
    ASSERT_TRUE(obs::mergeWorkerTrace(lb, worker, /*forward_start=*/100));
    ASSERT_EQ(lb.spans().size(), 2u);
    EXPECT_EQ(lb.spans()[0].name, "worker.admission");
    EXPECT_EQ(lb.spans()[0].parent, "lb.forward"); // Root re-parented.
    EXPECT_EQ(lb.spans()[0].startUs, 100);         // Shifted.
    EXPECT_EQ(lb.spans()[1].parent, "worker.execute"); // Unchanged.
    EXPECT_EQ(lb.spans()[1].startUs, 110);
    EXPECT_EQ(lb.spans()[1].count, 120u);

    // Malformed docs are rejected without touching the recorder.
    obs::TraceRecorder untouched("x");
    EXPECT_FALSE(
        obs::mergeWorkerTrace(untouched, json::Value("oops"), 0));
    json::Value bad_spans = json::Value::object();
    bad_spans["spans"] = json::Value(7);
    EXPECT_FALSE(obs::mergeWorkerTrace(untouched, bad_spans, 0));
    EXPECT_TRUE(untouched.spans().empty());
}

// ---------------------------------------------------------------------
// Profiler / stage timers
// ---------------------------------------------------------------------

/** Restore profiler enablement + data on exit. */
class ProfilerGuard
{
  public:
    ~ProfilerGuard()
    {
        obs::Profiler::global().setEnabled(true);
        obs::Profiler::global().reset();
    }
};

bool
hasStage(const char *name)
{
    for (const auto &[stage, hist] :
         obs::Profiler::global().stageSnapshot())
        if (stage == name)
            return true;
    return false;
}

TEST(Profiler, StageTimerRecordsOnlyWhileEnabled)
{
    ProfilerGuard guard;
    obs::Profiler &profiler = obs::Profiler::global();
    profiler.reset();

    profiler.setEnabled(false);
    {
        obs::StageTimer timer("test.disabled");
    }
    EXPECT_FALSE(hasStage("test.disabled"));

    profiler.setEnabled(true);
    {
        obs::StageTimer timer("test.enabled");
    }
    ASSERT_TRUE(hasStage("test.enabled"));
    for (const auto &[stage, hist] : profiler.stageSnapshot())
        if (stage == "test.enabled")
            EXPECT_EQ(hist.count(), 1u);
}

TEST(Profiler, StageTimerFeedsTheActiveTraceEvenWhenDisabled)
{
    ProfilerGuard guard;
    obs::Profiler::global().setEnabled(false);
    EXPECT_EQ(obs::activeTrace(), nullptr);

    obs::TraceRecorder rec("traced");
    {
        obs::TraceScope scope(&rec);
        EXPECT_EQ(obs::activeTrace(), &rec);
        obs::StageTimer timer("test.span", "parent.span");
    }
    EXPECT_EQ(obs::activeTrace(), nullptr);
    ASSERT_EQ(rec.spans().size(), 1u);
    EXPECT_EQ(rec.spans()[0].name, "test.span");
    EXPECT_EQ(rec.spans()[0].parent, "parent.span");
    // The histogram side stayed off.
    EXPECT_FALSE(hasStage("test.span"));
}

TEST(Profiler, CountersAggregate)
{
    ProfilerGuard guard;
    obs::Profiler &profiler = obs::Profiler::global();
    profiler.reset();
    profiler.count("backend.statevector");
    profiler.count("backend.statevector", 2);
    bool found = false;
    for (const auto &[name, value] : profiler.counterSnapshot())
        if (name == "backend.statevector") {
            found = true;
            EXPECT_EQ(value, 3u);
        }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------

TEST(Metrics, PrometheusExpositionObeysTheGrammar)
{
    obs::MetricsSnapshot snapshot;
    snapshot.counter("redqaoa_test_total", "A counter.", 3);
    snapshot.gauge("redqaoa_test_depth", "A gauge.", 2,
                   {{"shard", "0"}});
    stats::LatencyHistogram hist;
    hist.record(1e-5);
    hist.record(3e-4);
    hist.record(0.25);
    snapshot.histogram("redqaoa_test_seconds", "A histogram.", hist);

    const std::string text = snapshot.prometheusText();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');

    std::istringstream lines(text);
    std::string line;
    std::uint64_t last_bucket = 0;
    std::uint64_t inf_bucket = 0;
    std::uint64_t hist_count = 0;
    int help_lines = 0;
    int type_lines = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line.rfind("# HELP ", 0) == 0) {
            ++help_lines;
            continue;
        }
        if (line.rfind("# TYPE ", 0) == 0) {
            ++type_lines;
            continue;
        }
        // Sample line: name[{labels}] value — one space, value parses.
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string name = line.substr(0, space);
        const std::string value = line.substr(space + 1);
        EXPECT_NO_THROW({
            std::size_t used = 0;
            (void)std::stod(value, &used);
            EXPECT_EQ(used, value.size()) << line;
        }) << line;
        if (name.rfind("redqaoa_test_seconds_bucket", 0) == 0) {
            const std::uint64_t count =
                static_cast<std::uint64_t>(std::stod(value));
            EXPECT_GE(count, last_bucket)
                << "buckets must be cumulative: " << line;
            last_bucket = count;
            if (name.find("le=\"+Inf\"") != std::string::npos)
                inf_bucket = count;
        }
        if (name == "redqaoa_test_seconds_count")
            hist_count = static_cast<std::uint64_t>(std::stod(value));
    }
    EXPECT_EQ(help_lines, 3);
    EXPECT_EQ(type_lines, 3);
    EXPECT_EQ(inf_bucket, 3u);
    EXPECT_EQ(hist_count, 3u);
}

TEST(Metrics, RequiredFamilyNamesStayPinned)
{
    obs::MetricsSnapshot snapshot;
    obs::addProcessMetrics(snapshot, 1.0, ::getpid());
    obs::addEngineStatsMetrics(snapshot, EngineStats{});
    obs::Profiler::global().recordStage("test.stage", 1e-4);
    obs::Profiler::global().count("backend.statevector");
    obs::addProfilerMetrics(snapshot);
    obs::Profiler::global().reset();

    std::set<std::string> names;
    for (const std::string &name : snapshot.familyNames())
        names.insert(name);
    const char *required[] = {
        "redqaoa_uptime_seconds",
        "redqaoa_process_pid",
        "redqaoa_engine_jobs_total",
        "redqaoa_engine_drains_total",
        "redqaoa_engine_points_total",
        "redqaoa_engine_evaluated_total",
        "redqaoa_engine_memo_hits_total",
        "redqaoa_engine_memo_entries",
        "redqaoa_engine_memo_bytes",
        "redqaoa_engine_memo_evictions_total",
        "redqaoa_engine_evaluator_cache_total",
        "redqaoa_engine_artifact_cache_total",
        "redqaoa_engine_graphs",
        "redqaoa_store_events_total",
        "redqaoa_store_records",
        "redqaoa_stage_seconds",
        "redqaoa_backend_resolutions_total",
    };
    for (const char *name : required)
        EXPECT_TRUE(names.count(name)) << "missing family: " << name;
}

TEST(Metrics, SharedJsonBuildersKeepTheirKeySets)
{
    json::Value process = obs::processInfoJson(12.5, 4242);
    std::vector<std::string> process_keys;
    for (const auto &[key, value] : process.asObject())
        process_keys.push_back(key);
    EXPECT_EQ(process_keys,
              (std::vector<std::string>{"uptime_seconds", "pid"}));

    stats::LatencyHistogram hist;
    hist.record(0.001);
    json::Value latency = obs::latencySummaryJson(hist);
    std::vector<std::string> latency_keys;
    for (const auto &[key, value] : latency.asObject())
        latency_keys.push_back(key);
    EXPECT_EQ(latency_keys,
              (std::vector<std::string>{"count", "mean_ms", "p50_ms",
                                        "p99_ms", "max_ms"}));
}

// ---------------------------------------------------------------------
// HTTP endpoint
// ---------------------------------------------------------------------

std::string
httpGet(int port, const std::string &target)
{
    int fd = service::detail::connectLoopback(port, 2000);
    EXPECT_GE(fd, 0);
    const std::string request = "GET " + target +
                                " HTTP/1.1\r\nHost: localhost\r\n"
                                "Connection: close\r\n\r\n";
    EXPECT_TRUE(
        service::detail::writeAll(fd, request.data(), request.size()));
    std::string response;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

TEST(MetricsHttp, ServesTheExpositionUnderGetMetrics)
{
    obs::MetricsHttpServer server(
        0, [] { return std::string("# HELP x y\n# TYPE x counter\nx 1\n"); });
    ASSERT_GT(server.port(), 0);

    const std::string ok = httpGet(server.port(), "/metrics");
    EXPECT_NE(ok.find("200"), std::string::npos) << ok;
    EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos)
        << ok;
    EXPECT_NE(ok.find("x 1\n"), std::string::npos) << ok;

    const std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos) << missing;

    server.stop();
    server.stop(); // Idempotent.
}

} // namespace
} // namespace redqaoa
