#include "workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "graph/generators.hpp"
#include "service/protocol.hpp"

namespace perfbench {

namespace {

/** splitmix64 finalizer: decorrelates nearby (seed, stream) inputs. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a of a workload name, so workloads never share streams. */
std::uint64_t
nameTag(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
streamSeed(std::uint64_t seed, const std::string &name,
           std::uint64_t stream)
{
    return mix(mix(seed ^ nameTag(name)) + stream);
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = [] {
        std::vector<WorkloadSpec> v;
        WorkloadSpec small;
        small.name = "eval_small";
        small.kind = Kind::Evaluate;
        small.connections = 4;
        small.graphs = 32;
        small.minNodes = 6;
        small.maxNodes = 8;
        small.edgeProb = 0.5;
        small.layers = 1;
        small.points = 1;
        small.repeatShare = 0.5;
        small.minPerConnection = 500;
        small.tailQuantile = 0.99;
        small.ladderRequests = 256;
        small.ladderPasses = 9;
        v.push_back(small);

        WorkloadSpec batch;
        batch.name = "eval_batch";
        batch.kind = Kind::Evaluate;
        batch.connections = 2;
        // Enough graphs that neither lane's pool is ever tiny.
        batch.graphs = 64;
        batch.minNodes = batch.maxNodes = 12;
        batch.edgeProb = 0.3;
        batch.layers = 2;
        batch.points = 16;
        batch.minPerConnection = 500;
        // Its p99 is set by stalls of the machine's cores (across runs
        // of one build it spread 0.15-0.2 of its median, whole-run 0.4+),
        // its p95 by the service (0.05-0.08).
        batch.tailQuantile = 0.95;
        batch.ladderRequests = 32;
        batch.ladderPasses = 7;
        v.push_back(batch);

        WorkloadSpec opt;
        opt.name = "optimize_p2";
        opt.kind = Kind::Optimize;
        // An n=12 optimize runs on one thread, so two connections leave
        // half the machine idle, and the run's speed then depends on
        // which cores the two threads land on. Four keep every core busy.
        opt.connections = 4;
        opt.graphs = 32;
        opt.minNodes = opt.maxNodes = 12;
        opt.edgeProb = 0.3;
        opt.layers = 2;
        opt.minPerConnection = 50;
        opt.tailQuantile = 0.9;
        opt.ladderRequests = 2;
        opt.ladderPasses = 3;
        v.push_back(opt);

        WorkloadSpec pipe;
        pipe.name = "pipeline_red";
        pipe.kind = Kind::Pipeline;
        pipe.connections = 2;
        // Trajectory cost grows with the edge count, so G(n, p) graphs
        // spread a run's cost by seed; a fixed edge count holds it
        // steady. (Regular graphs would too, but the lb's route hash
        // sends every 3-regular graph to one lane.) 64 graphs keep each
        // seed's lane split near even.
        pipe.graphs = 64;
        pipe.minNodes = pipe.maxNodes = 12;
        pipe.edges = 18;
        pipe.layers = 1;
        pipe.minPerConnection = 50;
        pipe.tailQuantile = 0.9;
        pipe.ladderRequests = 2;
        pipe.ladderPasses = 3;
        v.push_back(pipe);
        return v;
    }();
    return all;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

const char *
methodName(Kind kind)
{
    switch (kind) {
        case Kind::Evaluate:
            return "evaluate";
        case Kind::Optimize:
            return "optimize";
        case Kind::Pipeline:
            return "pipeline";
    }
    return "evaluate";
}

Workload::Workload(const WorkloadSpec &spec, std::uint64_t seed)
    : spec_(spec), seed_(seed)
{
    redqaoa::Rng rng(streamSeed(seed, spec.name, ~0ULL));
    const int sizes = spec.maxNodes - spec.minNodes + 1;
    for (int i = 0; i < spec.graphs; ++i) {
        int n = spec.minNodes + i % sizes;
        if (spec.edges == 0) {
            graphs_.push_back(
                redqaoa::gen::connectedGnp(n, spec.edgeProb, rng));
        } else {
            Graph g = redqaoa::gen::erdosRenyiGnm(n, spec.edges, rng);
            while (!g.isConnected())
                g = redqaoa::gen::erdosRenyiGnm(n, spec.edges, rng);
            graphs_.push_back(std::move(g));
        }
        graphJson_.push_back(
            redqaoa::service::graphToJson(graphs_.back()).dump());
        maxCuts_.push_back(redqaoa::maxCutBruteForce(graphs_.back()));
    }
    if (spec.connections < kWorkers || kShards % spec.connections != 0 ||
        spec.connections % kWorkers != 0)
        throw std::invalid_argument(spec.name + ": connections must divide" +
                                    " the shard count and be a multiple" +
                                    " of the worker count");
    // Each graph's slot by the deployment's own routing key; connection
    // k's pool is every graph whose slot is k modulo the connection
    // count, so it lands on one lane and, with four connections, one
    // shard of that lane.
    pools_.resize(static_cast<std::size_t>(spec.connections));
    for (int i = 0; i < spec.graphs; ++i) {
        Draw draw;
        draw.graph = i;
        std::uint64_t hash = 0;
        redqaoa::service::requestRouteHash(
            redqaoa::service::parseRequest(render(draw, 1, false)), hash);
        slots_.push_back(static_cast<int>(hash % kShards));
        pools_[static_cast<std::size_t>(slots_.back() % spec.connections)]
            .push_back(i);
    }
    for (std::vector<int> &pool : pools_)
        if (pool.empty())
            for (int i = 0; i < spec.graphs; ++i)
                pool.push_back(i);
}

std::string
Workload::render(const Draw &draw, std::uint64_t id, bool trace) const
{
    // Spliced by hand: the graph is rendered once, and the hot loop of
    // the small-evaluate workload renders ~20k lines a second.
    std::string line = "{\"id\":" + std::to_string(id) + ",\"method\":\"" +
                       methodName(spec_.kind) + "\",\"params\":{\"graph\":" +
                       graphJson_[static_cast<std::size_t>(draw.graph)];
    switch (spec_.kind) {
        case Kind::Evaluate:
            line += ",\"points\":" +
                    redqaoa::service::pointsToJson(draw.points).dump();
            break;
        case Kind::Optimize:
            line += ",\"restarts\":8,\"seed\":" + std::to_string(draw.seed) +
                    ",\"spec\":{\"layers\":" + std::to_string(spec_.layers) +
                    "}";
            break;
        case Kind::Pipeline:
            line += ",\"options\":{\"noise\":\"ibmq_kolkata\","
                    "\"trajectories\":8},\"rng_seed\":" +
                    std::to_string(draw.seed);
            break;
    }
    line += "},\"schema_version\":2";
    if (trace)
        line += ",\"trace\":true";
    return line + "}";
}

Workload::Stream::Stream(const Workload &workload, std::uint64_t stream_id)
    : workload_(workload), streamId_(stream_id),
      rng_(streamSeed(workload.seed_, workload.spec_.name, stream_id))
{}

Draw
Workload::Stream::next()
{
    const WorkloadSpec &spec = workload_.spec_;
    if (!history_.empty() && rng_.bernoulli(spec.repeatShare)) {
        Draw again = history_[rng_.index(history_.size())];
        again.repeat = true;
        return again;
    }
    // Stream k sends only graphs of pool k % connections, so every
    // executor a workload uses carries exactly one connection: with hash
    // luck instead, two connections queue behind each other on one
    // executor for a seed-dependent share of the run. Within the pool,
    // fresh draws go round-robin, so the first requests cover every
    // graph once and a run weighs all graphs alike.
    const std::vector<int> &pool =
        workload_.pools_[streamId_ % workload_.pools_.size()];
    Draw draw;
    draw.graph = pool[fresh_ % pool.size()];
    ++fresh_;
    if (spec.kind == Kind::Evaluate) {
        for (int i = 0; i < spec.points; ++i)
            draw.points.push_back(QaoaParams::random(spec.layers, rng_));
    } else {
        // Distinct per request, exact as a JSON number (< 2^53).
        draw.seed = mix(rng_.next() ^ (static_cast<std::uint64_t>(
                                           rng_.next())
                                       << 32)) >>
                    12;
    }
    if (spec.repeatShare > 0.0)
        history_.push_back(draw);
    return draw;
}

// ---------------------------------------------------------------------
// Latency statistics
// ---------------------------------------------------------------------

std::size_t
samplesBeyond(std::size_t n, double q)
{
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return n - std::min(rank, n);
}

double
tailQuantile(std::size_t n)
{
    for (double q : {0.99, 0.9, 0.5})
        if (samplesBeyond(n, q) >= 10)
            return q;
    return 0.0;
}

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        throw std::invalid_argument("percentile of no samples");
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

namespace {

void
sortByCompletion(std::vector<Completion> &done)
{
    std::sort(done.begin(), done.end(),
              [](const Completion &a, const Completion &b) {
                  return a.doneS < b.doneS;
              });
}

} // namespace

std::vector<double>
windowRates(std::vector<Completion> done, std::size_t windows)
{
    if (windows == 0 || done.size() < windows)
        throw std::invalid_argument("fewer completions than windows");
    sortByCompletion(done);
    const std::size_t per = done.size() / windows;
    std::vector<double> rates;
    double begin = 0.0;
    for (std::size_t w = 0; w < windows; ++w) {
        const double end = done[(w + 1) * per - 1].doneS;
        rates.push_back(static_cast<double>(per) / (end - begin));
        begin = end;
    }
    return rates;
}

double
windowedPercentile(std::vector<Completion> done, double q,
                   std::size_t max_windows, std::size_t &per_window)
{
    sortByCompletion(done);
    std::size_t windows = max_windows;
    while (windows > 1 && samplesBeyond(done.size() / windows, q) < 10)
        --windows;
    // A median of fewer than five windows is no steadier than the run.
    if (windows < 5)
        windows = 1;
    per_window = done.size() / windows;
    std::vector<double> tails;
    for (std::size_t w = 0; w < windows; ++w) {
        std::vector<double> lat;
        for (std::size_t i = w * per_window; i < (w + 1) * per_window; ++i)
            lat.push_back(done[i].latencyUs);
        std::sort(lat.begin(), lat.end());
        tails.push_back(percentile(lat, q));
    }
    return median(std::move(tails));
}

std::vector<double>
quartiles(std::vector<double> xs)
{
    if (xs.size() < 2)
        throw std::invalid_argument("quartiles need two values");
    std::sort(xs.begin(), xs.end());
    // statistics.quantiles(xs, n=4), method "exclusive", in its own
    // integer arithmetic (the clamp makes it extrapolate for tiny n).
    const long ld = static_cast<long>(xs.size());
    const long m = ld + 1;
    std::vector<double> out;
    for (long i = 1; i < 4; ++i) {
        long j = std::clamp(i * m / 4, 1L, ld - 1);
        long delta = i * m - j * 4;
        out.push_back((xs[static_cast<std::size_t>(j - 1)] *
                           static_cast<double>(4 - delta) +
                       xs[static_cast<std::size_t>(j)] *
                           static_cast<double>(delta)) /
                      4.0);
    }
    return out;
}

double
iqr(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    std::vector<double> q = quartiles(xs);
    return q[2] - q[0];
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    std::size_t mid = xs.size() / 2;
    return xs.size() % 2 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

void
Tally::add(Outcome outcome)
{
    ++attempted;
    switch (outcome) {
        case Outcome::Ok:
            ++succeeded;
            break;
        case Outcome::Error:
            ++errors;
            break;
        case Outcome::Mismatch:
            ++mismatches;
            break;
        case Outcome::Timeout:
            ++timeouts;
            break;
    }
}

double
Tally::failedFrac() const
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
}

json::Value
Tally::toJson() const
{
    json::Value doc = json::Value::object();
    doc["attempted"] = static_cast<double>(attempted);
    doc["succeeded"] = static_cast<double>(succeeded);
    doc["failed"] = static_cast<double>(failed());
    doc["errors"] = static_cast<double>(errors);
    doc["mismatches"] = static_cast<double>(mismatches);
    doc["timeouts"] = static_cast<double>(timeouts);
    doc["failed_frac"] = failedFrac();
    return doc;
}

namespace {

/** The "result" member of an ok response, or nullptr. */
const json::Value *
okResult(const json::Value &doc)
{
    if (!doc.isObject())
        return nullptr;
    const json::Value *ok = doc.find("ok");
    if (!ok || !ok->isBool() || !ok->asBool())
        return nullptr;
    return doc.find("result");
}

/** Parse @p response into @p out; false when it is not JSON. */
bool
parseInto(const std::string &response, json::Value &out)
{
    try {
        out = json::Value::parse(response);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

Outcome
judgeEvaluate(const std::string &response,
              const std::vector<double> &expected, json::Value *parsed)
{
    json::Value local;
    json::Value &doc = parsed ? *parsed : local;
    if (!parseInto(response, doc))
        return Outcome::Error;
    const json::Value *result = okResult(doc);
    if (!result)
        return Outcome::Error;
    const json::Value *values = result->find("values");
    if (!values || !values->isArray() || values->size() != expected.size())
        return Outcome::Mismatch;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const json::Value &v = values->asArray()[i];
        if (!v.isNumber() || std::bit_cast<std::uint64_t>(v.asNumber()) !=
                                 std::bit_cast<std::uint64_t>(expected[i]))
            return Outcome::Mismatch;
    }
    return Outcome::Ok;
}

Outcome
judgeResult(const std::string &response, const std::string &expected_result,
            json::Value *parsed)
{
    json::Value local;
    json::Value &doc = parsed ? *parsed : local;
    if (!parseInto(response, doc))
        return Outcome::Error;
    const json::Value *result = okResult(doc);
    if (!result)
        return Outcome::Error;
    return result->dump() == expected_result ? Outcome::Ok
                                             : Outcome::Mismatch;
}

// ---------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------

std::vector<Span>
spansOf(const json::Value &trace)
{
    std::vector<Span> out;
    const json::Value *spans = trace.isObject() ? trace.find("spans")
                                                : nullptr;
    if (!spans || !spans->isArray())
        return out;
    for (const json::Value &s : spans->asArray()) {
        Span span;
        span.name = s.find("name")->asString();
        span.parent = s.find("parent")->asString();
        span.startUs = s.find("start_us")->asNumber();
        span.durUs = s.find("dur_us")->asNumber();
        span.count = s.find("count")->asNumber();
        out.push_back(std::move(span));
    }
    return out;
}

double
spanUs(const std::vector<Span> &spans, const std::string &name)
{
    double total = 0.0;
    for (const Span &s : spans)
        if (s.name == name)
            total += s.durUs;
    return total;
}

double
spanCount(const std::vector<Span> &spans, const std::string &name)
{
    double total = 0.0;
    for (const Span &s : spans)
        if (s.name == name)
            total += s.count;
    return total;
}

namespace {

/** Length of the union of [lo, hi) intervals. */
double
unionLength(std::vector<std::pair<double, double>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    bool open = false;
    for (const auto &[a, b] : intervals) {
        if (b <= a)
            continue;
        if (open && a <= hi) {
            hi = std::max(hi, b);
            continue;
        }
        if (open)
            total += hi - lo;
        lo = a;
        hi = b;
        open = true;
    }
    if (open)
        total += hi - lo;
    return total;
}

} // namespace

double
selfUs(const std::vector<Span> &spans, const std::string &name)
{
    auto root = std::find_if(spans.begin(), spans.end(),
                             [&](const Span &s) { return s.name == name; });
    if (root == spans.end())
        return 0.0;
    const double lo = root->startUs;
    const double hi = root->startUs + root->durUs;
    // Descendants by parent name, breadth first.
    std::vector<std::string> frontier{name};
    std::vector<std::string> seen{name};
    std::vector<std::pair<double, double>> covered;
    while (!frontier.empty()) {
        std::string parent = frontier.back();
        frontier.pop_back();
        for (const Span &s : spans) {
            if (s.parent != parent ||
                std::find(seen.begin(), seen.end(), s.name) != seen.end())
                continue;
            seen.push_back(s.name);
            frontier.push_back(s.name);
            double a = std::max(lo, s.startUs);
            double b = std::min(hi, s.startUs + s.durUs);
            covered.emplace_back(a, b);
        }
    }
    return root->durUs - unionLength(std::move(covered));
}

double
coveredUs(const std::vector<Span> &spans)
{
    std::vector<std::pair<double, double>> all;
    for (const Span &s : spans)
        all.emplace_back(s.startUs, s.startUs + s.durUs);
    return unionLength(std::move(all));
}

} // namespace perfbench
