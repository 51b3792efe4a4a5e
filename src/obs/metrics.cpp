#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/profiler.hpp"

namespace redqaoa {
namespace obs {

namespace {

/**
 * Render a metric value the Prometheus way: integral values without
 * a fractional part (counters are almost always integral), others
 * with enough digits to round-trip.
 */
std::string
formatValue(double v)
{
    if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRId64,
                      static_cast<std::int64_t>(v));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

void
appendLabelValueEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
}

/** `{a="x",b="y"}`, or "" without labels. @p extra appends one more. */
std::string
renderLabels(const MetricLabels &labels, const char *extra_key = nullptr,
             const std::string &extra_value = std::string())
{
    if (labels.empty() && !extra_key)
        return {};
    std::string out = "{";
    bool first = true;
    for (const auto &kv : labels) {
        if (!first)
            out += ',';
        first = false;
        out += kv.first;
        out += "=\"";
        appendLabelValueEscaped(out, kv.second);
        out += '"';
    }
    if (extra_key) {
        if (!first)
            out += ',';
        out += extra_key;
        out += "=\"";
        appendLabelValueEscaped(out, extra_value);
        out += '"';
    }
    out += '}';
    return out;
}

/**
 * The 80 sqrt(2)-spaced buckets are finer than exposition needs;
 * emit every 4th edge (factor-4 spacing, 20 edges from 4 us up) so a
 * histogram costs ~23 lines instead of ~83. Buckets are summed into
 * the enclosing coarse edge, cumulative as the format requires.
 */
constexpr int kEdgeStride = 4;

} // namespace

MetricsSnapshot::Family &
MetricsSnapshot::family(const std::string &name, const std::string &help,
                        const char *type)
{
    for (Family &f : families_)
        if (f.name == name)
            return f;
    families_.push_back({name, help, type, {}});
    return families_.back();
}

void
MetricsSnapshot::counter(const std::string &name, const std::string &help,
                         double value, MetricLabels labels)
{
    Family &f = family(name, help, "counter");
    Sample s;
    s.labels = std::move(labels);
    s.value = value;
    f.samples.push_back(std::move(s));
}

void
MetricsSnapshot::gauge(const std::string &name, const std::string &help,
                       double value, MetricLabels labels)
{
    Family &f = family(name, help, "gauge");
    Sample s;
    s.labels = std::move(labels);
    s.value = value;
    f.samples.push_back(std::move(s));
}

void
MetricsSnapshot::histogram(const std::string &name, const std::string &help,
                           const stats::LatencyHistogram &hist,
                           MetricLabels labels)
{
    Family &f = family(name, help, "histogram");
    Sample s;
    s.labels = std::move(labels);
    s.hist = hist;
    f.samples.push_back(std::move(s));
}

std::string
MetricsSnapshot::prometheusText() const
{
    std::string out;
    for (const Family &f : families_) {
        out += "# HELP ";
        out += f.name;
        out += ' ';
        out += f.help;
        out += '\n';
        out += "# TYPE ";
        out += f.name;
        out += ' ';
        out += f.type;
        out += '\n';
        for (const Sample &s : f.samples) {
            if (std::string(f.type) != "histogram") {
                out += f.name;
                out += renderLabels(s.labels);
                out += ' ';
                out += formatValue(s.value);
                out += '\n';
                continue;
            }
            std::uint64_t cumulative = 0;
            for (int edge = kEdgeStride - 1;
                 edge < stats::LatencyHistogram::kBuckets;
                 edge += kEdgeStride) {
                for (int b = edge - kEdgeStride + 1; b <= edge; ++b)
                    cumulative += s.hist.bucketCount(b);
                out += f.name;
                out += "_bucket";
                out += renderLabels(
                    s.labels, "le",
                    formatValue(
                        stats::LatencyHistogram::bucketUpperSeconds(edge)));
                out += ' ';
                out += formatValue(static_cast<double>(cumulative));
                out += '\n';
            }
            out += f.name;
            out += "_bucket";
            out += renderLabels(s.labels, "le", "+Inf");
            out += ' ';
            out += formatValue(static_cast<double>(s.hist.count()));
            out += '\n';
            out += f.name;
            out += "_sum";
            out += renderLabels(s.labels);
            out += ' ';
            out += formatValue(s.hist.sumSeconds());
            out += '\n';
            out += f.name;
            out += "_count";
            out += renderLabels(s.labels);
            out += ' ';
            out += formatValue(static_cast<double>(s.hist.count()));
            out += '\n';
        }
    }
    return out;
}

json::Value
MetricsSnapshot::toJson() const
{
    json::Value families = json::Value::array();
    for (const Family &f : families_) {
        json::Value fam = json::Value::object();
        fam["name"] = f.name;
        fam["type"] = f.type;
        fam["help"] = f.help;
        json::Value samples = json::Value::array();
        for (const Sample &s : f.samples) {
            json::Value sample = json::Value::object();
            json::Value labels = json::Value::object();
            for (const auto &kv : s.labels)
                labels[kv.first] = kv.second;
            sample["labels"] = std::move(labels);
            if (std::string(f.type) == "histogram") {
                sample["count"] = static_cast<double>(s.hist.count());
                sample["sum_seconds"] = s.hist.sumSeconds();
                sample["p50_ms"] = s.hist.percentileMs(0.50);
                sample["p99_ms"] = s.hist.percentileMs(0.99);
                sample["max_ms"] = s.hist.maxMs();
            } else {
                sample["value"] = s.value;
            }
            samples.push(std::move(sample));
        }
        fam["samples"] = std::move(samples);
        families.push(std::move(fam));
    }
    json::Value doc = json::Value::object();
    doc["families"] = std::move(families);
    return doc;
}

std::vector<std::string>
MetricsSnapshot::familyNames() const
{
    std::vector<std::string> names;
    names.reserve(families_.size());
    for (const Family &f : families_)
        names.push_back(f.name);
    return names;
}

void
addEngineStatsMetrics(MetricsSnapshot &snapshot, const EngineStats &stats,
                      const MetricLabels &labels)
{
    auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
    snapshot.counter("redqaoa_engine_jobs_total",
                     "Evaluation jobs submitted to the engine.",
                     u64(stats.jobs), labels);
    snapshot.counter("redqaoa_engine_drains_total",
                     "Engine drain passes that found work.",
                     u64(stats.drains), labels);
    snapshot.counter("redqaoa_engine_points_total",
                     "Parameter points across all submitted jobs.",
                     u64(stats.points), labels);
    snapshot.counter("redqaoa_engine_evaluated_total",
                     "Points actually computed (memo misses).",
                     u64(stats.evaluated), labels);
    snapshot.counter("redqaoa_engine_memo_hits_total",
                     "Points served from the point memo.",
                     u64(stats.memoHits), labels);
    snapshot.gauge("redqaoa_engine_memo_entries",
                   "Points the point memo holds.",
                   u64(stats.memoEntries), labels);
    snapshot.gauge("redqaoa_engine_memo_bytes",
                   "Bytes the point memo holds (key arenas and slots).",
                   u64(stats.memoBytes), labels);
    snapshot.counter("redqaoa_engine_memo_evictions_total",
                     "Point-memo tables cleared by the memo byte budget.",
                     u64(stats.memoEvictions), labels);
    snapshot.counter("redqaoa_engine_evaluator_cache_total",
                     "Evaluator cache traffic by outcome.",
                     u64(stats.evaluatorHits),
                     [&] {
                         MetricLabels l = labels;
                         l.push_back({"outcome", "hit"});
                         return l;
                     }());
    snapshot.counter("redqaoa_engine_evaluator_cache_total",
                     "Evaluator cache traffic by outcome.",
                     u64(stats.evaluatorMisses),
                     [&] {
                         MetricLabels l = labels;
                         l.push_back({"outcome", "miss"});
                         return l;
                     }());
    snapshot.counter("redqaoa_engine_artifact_cache_total",
                     "Artifact cache traffic by outcome.",
                     u64(stats.artifacts.hits),
                     [&] {
                         MetricLabels l = labels;
                         l.push_back({"outcome", "hit"});
                         return l;
                     }());
    snapshot.counter("redqaoa_engine_artifact_cache_total",
                     "Artifact cache traffic by outcome.",
                     u64(stats.artifacts.misses),
                     [&] {
                         MetricLabels l = labels;
                         l.push_back({"outcome", "miss"});
                         return l;
                     }());
    snapshot.gauge("redqaoa_engine_graphs",
                   "Distinct graph structures seen by the artifact cache.",
                   u64(stats.artifacts.graphs), labels);
    struct StoreOutcome
    {
        const char *outcome;
        std::uint64_t value;
    };
    const StoreOutcome outcomes[] = {
        {"warm_hit", stats.store.warmHits},
        {"cold_miss", stats.store.coldMisses},
        {"append", stats.store.appends},
        {"recovered_drop", stats.store.recoveredDrops},
    };
    for (const StoreOutcome &o : outcomes) {
        MetricLabels l = labels;
        l.push_back({"outcome", o.outcome});
        snapshot.counter("redqaoa_store_events_total",
                         "Warm-start store traffic by outcome.",
                         u64(o.value), std::move(l));
    }
    snapshot.gauge("redqaoa_store_records",
                   "Live records in the warm-start store index.",
                   u64(stats.store.records), labels);
}

void
addProfilerMetrics(MetricsSnapshot &snapshot)
{
    Profiler &prof = Profiler::global();
    for (const auto &stage : prof.stageSnapshot())
        snapshot.histogram("redqaoa_stage_seconds",
                           "Per-stage execution time.", stage.second,
                           {{"stage", stage.first}});
    for (const auto &counter : prof.counterSnapshot()) {
        // Backend resolution counters are named "backend.<name>";
        // everything else surfaces under a generic event family.
        const std::string &name = counter.first;
        if (name.rfind("backend.", 0) == 0) {
            snapshot.counter("redqaoa_backend_resolutions_total",
                             "Backend selections by resolved backend.",
                             static_cast<double>(counter.second),
                             {{"backend", name.substr(8)}});
        } else {
            snapshot.counter("redqaoa_profiler_events_total",
                             "Profiler event counters by name.",
                             static_cast<double>(counter.second),
                             {{"event", name}});
        }
    }
}

void
addProcessMetrics(MetricsSnapshot &snapshot, double uptime_seconds, int pid)
{
    snapshot.gauge("redqaoa_uptime_seconds",
                   "Seconds since this process started serving.",
                   uptime_seconds);
    snapshot.gauge("redqaoa_process_pid", "Process id.",
                   static_cast<double>(pid));
}

json::Value
processInfoJson(double uptime_seconds, int pid)
{
    json::Value doc = json::Value::object();
    doc["uptime_seconds"] = uptime_seconds;
    doc["pid"] = static_cast<double>(pid);
    return doc;
}

json::Value
latencySummaryJson(const stats::LatencyHistogram &hist)
{
    json::Value doc = json::Value::object();
    doc["count"] = static_cast<double>(hist.count());
    doc["mean_ms"] = hist.meanMs();
    doc["p50_ms"] = hist.percentileMs(0.50);
    doc["p99_ms"] = hist.percentileMs(0.99);
    doc["max_ms"] = hist.maxMs();
    return doc;
}

} // namespace obs
} // namespace redqaoa
