/**
 * @file
 * perfbench — the repository benchmark (see perfbench/README.md). One
 * run starts the deployment (redqaoa_lb fronting two redqaoa_serve
 * workers with two pool threads each, no warm-start store), drives one
 * seeded closed-loop workload against it, checks every answer against
 * an in-process reference, and ends its stdout with one JSON line:
 *
 *   --trace 0  the end-to-end metrics of BENCHMARK.json;
 *   --trace 1  the per-layer metrics: the rung-by-rung cost ladder,
 *              span self times of a traced load phase, and engine,
 *              server and lb counters.
 *
 * The lines before it hold the machine and build fingerprint, the
 * workload's measured properties, and the full report (request
 * accounting, the tail percentile used and its sample count, ladder
 * rungs and flags). A correctness-gate failure prints
 * "correct": false and exits 1.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "deploy.hpp"
#include "engine/backend_registry.hpp"
#include "engine/eval_engine.hpp"
#include "opt/cobyla_lite.hpp"
#include "quantum/batched_kernels.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "workload.hpp"

using namespace redqaoa;
using perfbench::Draw;
using perfbench::Kind;
using perfbench::Outcome;
using perfbench::Workload;

namespace {

using Clock = std::chrono::steady_clock;

using perfbench::kWorkers;
constexpr int kWorkerThreads = 2; //!< Evaluation pool threads per worker.
constexpr int kSetups = 5;        //!< Launches behind the setup_s median.
constexpr int kTimeoutMs = 60000; //!< Per-request response timeout.
constexpr std::size_t kGateChunk = 4096; //!< Reference requests per drain.
/**
 * Time-ordered windows behind the rate and tail medians. On a shared
 * machine a core's rate can halve for seconds at a time; a median over
 * windows ignores such stalls while they last less than half the run.
 */
constexpr std::size_t kWindows = 20;
/** Plain/traced phase pairs behind trace_overhead. */
constexpr std::size_t kOverheadPairs = 4;
/** Requests each connection completes in one of those phases. */
constexpr std::size_t kOverheadMinPerConnection = 2;

double
secondsOf(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
microsOf(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

double
mean(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string sourceDigest = "unknown";
    std::string workDir = ".bench_build/run";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--source-digest D] [--work-dir DIR]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i += 2) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string v = argv[i + 1];
        try {
            if (arg == "--workload")
                o.workload = v;
            else if (arg == "--seed")
                o.seed = std::stoull(v);
            else if (arg == "--seconds")
                o.seconds = std::stod(v);
            else if (arg == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (arg == "--source-digest")
                o.sourceDigest = v;
            else if (arg == "--work-dir")
                o.workDir = v;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (!perfbench::findWorkload(o.workload))
        usage("unknown workload '" + o.workload + "'");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

/** Member @p key of @p doc; throws when absent. */
const json::Value &
member(const json::Value &doc, const char *key)
{
    const json::Value *v = doc.isObject() ? doc.find(key) : nullptr;
    if (!v)
        throw std::runtime_error(std::string("no '") + key + "' in " +
                                 doc.dump());
    return *v;
}

/** One administrative call on a fresh connection; its ok result. */
json::Value
call(int port, const std::string &method)
{
    perfbench::LineClient client(port);
    std::string response;
    if (!client.exchange("{\"id\":1,\"method\":\"" + method +
                             "\",\"schema_version\":2}",
                         response, kTimeoutMs))
        throw std::runtime_error(method + ": no response");
    json::Value doc = json::Value::parse(response);
    if (!member(doc, "ok").asBool())
        throw std::runtime_error(method + " failed: " + response);
    return member(doc, "result");
}

/**
 * A serving process under test: redqaoa_lb with its workers, or one
 * standalone redqaoa_serve. It counts as up once it answers hello and,
 * for the front, reports every worker lane up; setupS() is the time
 * from fork to then.
 */
class Service
{
  public:
    Service(const std::vector<std::string> &argv, const std::string &dir,
            const std::string &name)
    {
        const std::string port_file = dir + "/" + name + ".port";
        std::filesystem::remove(port_file);
        const Clock::time_point t0 = Clock::now();
        process_ = std::make_unique<perfbench::Child>(argv, dir + "/" +
                                                                name +
                                                                ".log");
        port_ = perfbench::waitPortFile(port_file, 60.0, *process_);
        if (port_ < 0)
            throw std::runtime_error(name + " did not publish its port");
        call(port_, "hello");
        for (;;) {
            json::Value health = call(port_, "health");
            bool up = true;
            if (const json::Value *lanes = health.find("workers"))
                for (const json::Value &lane : lanes->asArray())
                    up = up && member(lane, "state").asString() == "up";
            if (up)
                break;
            if (secondsOf(Clock::now() - t0) > 60.0)
                throw std::runtime_error(name + ": workers not up");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        setupS_ = secondsOf(Clock::now() - t0);
    }

    ~Service() { shutdown(); }

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    int port() const { return port_; }
    double setupS() const { return setupS_; }
    pid_t pid() const { return process_->pid(); }

    /** Ask for a clean shutdown; the process group is reaped anyway. */
    void shutdown()
    {
        if (!process_)
            return;
        try {
            call(port_, "shutdown");
            process_->waitExit(10.0);
        } catch (const std::exception &) {
            // The reset below stops the group by signal instead.
        }
        process_.reset();
    }

  private:
    std::unique_ptr<perfbench::Child> process_;
    int port_ = -1;
    double setupS_ = 0.0;
};

/** The arguments every redqaoa_serve of the benchmark runs with. */
std::vector<std::string>
workerArgs()
{
    return {"--threads", std::to_string(kWorkerThreads), "--shards",
            std::to_string(perfbench::kShards)};
}

/**
 * The deployment under test: redqaoa_lb over kWorkers redqaoa_serve
 * workers with workerArgs(), no warm-start store.
 */
std::unique_ptr<Service>
launchFleet(const std::string &dir, int index)
{
    const std::string name = "fleet" + std::to_string(index);
    std::vector<std::string> argv{PERFBENCH_LB_BIN, "--serve-bin",
                                  PERFBENCH_SERVE_BIN, "--workers",
                                  std::to_string(kWorkers), "--port-file",
                                  dir + "/" + name + ".port"};
    for (const std::string &arg : workerArgs()) {
        argv.push_back("--worker-arg");
        argv.push_back(arg);
    }
    return std::make_unique<Service>(argv, dir, name);
}

/** Summed VmHWM of the front and every worker, in MB. */
double
peakRssMb(const Service &fleet)
{
    long kb = perfbench::vmHwmKb(fleet.pid());
    const json::Value health = call(fleet.port(), "health");
    for (const json::Value &lane : member(health, "workers").asArray())
        kb += perfbench::vmHwmKb(
            static_cast<pid_t>(member(lane, "pid").asNumber()));
    return static_cast<double>(kb) / 1024.0;
}

// ---------------------------------------------------------------------
// Closed-loop load
// ---------------------------------------------------------------------

struct Sample
{
    double latencyUs = 0.0;
    double doneS = 0.0; //!< Completion, seconds since the phase began.
    bool answered = false;
    std::string response;
};

/** One closed-loop phase: each connection's samples, in order. */
struct Load
{
    std::vector<std::vector<Sample>> conns;
    double elapsedS = 0.0;

    std::vector<perfbench::Completion> completions() const
    {
        std::vector<perfbench::Completion> out;
        for (const auto &conn : conns)
            for (const Sample &s : conn)
                if (s.answered)
                    out.push_back({s.doneS, s.latencyUs});
        return out;
    }

    /** Completions per second: median over kWindows windows. */
    double rps() const
    {
        return perfbench::median(
            perfbench::windowRates(completions(), kWindows));
    }

    /** Completions per second over the whole phase. */
    double rate() const
    {
        return ratio(static_cast<double>(completions().size()), elapsedS);
    }
};

/**
 * Every connection sends its stream's next request as soon as the last
 * one is answered, until @p seconds have passed and it has completed
 * @p min_done requests. Requests are rendered between exchanges, so
 * generation never counts as latency.
 */
Load
drive(const Workload &w, int port, std::uint64_t stream_base,
      double seconds, bool trace, std::size_t min_done)
{
    const auto conns = static_cast<std::size_t>(w.spec().connections);
    Load load;
    load.conns.resize(conns);
    std::vector<std::unique_ptr<perfbench::LineClient>> clients;
    for (std::size_t c = 0; c < conns; ++c)
        clients.push_back(std::make_unique<perfbench::LineClient>(port));
    std::vector<Clock::time_point> ends(conns);
    Clock::time_point start;
    std::latch go(1);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            Workload::Stream stream(w, stream_base + c);
            std::vector<Sample> &out = load.conns[c];
            go.wait();
            const Clock::time_point deadline =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
            while (out.size() < min_done || Clock::now() < deadline) {
                const std::string line =
                    w.render(stream.next(), out.size() + 1, trace);
                Sample s;
                const Clock::time_point t0 = Clock::now();
                s.answered =
                    clients[c]->exchange(line, s.response, kTimeoutMs);
                const Clock::time_point t1 = Clock::now();
                s.latencyUs = microsOf(t1 - t0);
                s.doneS = secondsOf(t1 - start);
                out.push_back(std::move(s));
                if (!out.back().answered) {
                    try {
                        clients[c] =
                            std::make_unique<perfbench::LineClient>(port);
                    } catch (const std::exception &) {
                        break;
                    }
                }
            }
            ends[c] = Clock::now();
        });
    }
    start = Clock::now();
    go.count_down();
    for (std::thread &t : threads)
        t.join();
    load.elapsedS =
        secondsOf(*std::max_element(ends.begin(), ends.end()) - start);
    return load;
}

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

/** What the answers of a load phase showed, beyond pass/fail. */
struct Gate
{
    perfbench::Tally tally;
    std::vector<double> latencyUs;     //!< Answered requests.
    std::vector<double> approx;        //!< Quality-sample ratios.
    std::vector<double> nodeReduction; //!< Quality sample (pipeline).
    std::vector<double> evaluations;   //!< Optimize "evaluations".
    std::vector<double> queueMs;       //!< route.queue_ms of ok answers.
    std::vector<std::vector<perfbench::Span>> spans; //!< Traced phase.
    std::vector<double> spanLatencyUs; //!< Latency of each spans entry.
    std::size_t requests = 0;
    std::size_t repeats = 0;
    std::map<int, std::size_t> nodesMix; //!< Node count -> requests.
    std::vector<std::size_t> lanes = std::vector<std::size_t>(kWorkers);
    int reported = 0; //!< Failures printed to stderr so far.
};

/** EvalEngine values of @p draws under the router's spec resolution. */
std::vector<std::vector<double>>
referenceValues(const Workload &w, const std::vector<Draw> &draws)
{
    EvalEngine engine;
    EvalSpec spec = service::specFromJson(nullptr);
    spec.layers = w.spec().layers;
    std::vector<EvalJobTicket> tickets;
    for (const Draw &d : draws)
        tickets.push_back(engine.submit(
            w.graphs()[static_cast<std::size_t>(d.graph)], spec,
            d.points));
    engine.drain();
    std::vector<std::vector<double>> out;
    for (EvalJobTicket &t : tickets)
        out.push_back(t.get());
    return out;
}

/** In-process ServiceRouter::dispatch results of @p lines, rendered. */
std::vector<std::string>
referenceResults(const std::vector<std::string> &lines)
{
    std::vector<std::string> out(lines.size());
    parallelForChunks(lines.size(), [&](std::size_t lo, std::size_t hi) {
        service::ServiceRouter router;
        for (std::size_t i = lo; i < hi; ++i) {
            try {
                out[i] =
                    router.dispatch(service::parseRequest(lines[i])).dump();
            } catch (const std::exception &e) {
                out[i] = std::string("reference failed: ") + e.what();
            }
        }
    });
    return out;
}

/** The approximation ratio one ok answer shows. */
double
approxOf(const Workload &w, const Draw &d, const json::Value &result)
{
    const double max_cut = w.maxCut(d.graph);
    switch (w.spec().kind) {
        case Kind::Evaluate: {
            std::vector<double> values;
            for (const json::Value &v : member(result, "values").asArray())
                values.push_back(v.asNumber());
            return mean(values) / max_cut;
        }
        case Kind::Optimize:
            return member(result, "energy").asNumber() / max_cut;
        case Kind::Pipeline:
            return member(result, "approx_ratio").asNumber();
    }
    return 0.0;
}

/**
 * Gate one load phase: regenerate its requests (streams are
 * deterministic), compute the reference answers, judge every sample,
 * and collect what the answers show.
 */
void
gatePhase(const Workload &w, const Load &load, std::uint64_t stream_base,
          bool traced, Gate &gate)
{
    const perfbench::WorkloadSpec &spec = w.spec();
    const auto quality = static_cast<std::size_t>(spec.minPerConnection);
    for (std::size_t c = 0; c < load.conns.size(); ++c) {
        Workload::Stream stream(w, stream_base + c);
        const std::vector<Sample> &conn = load.conns[c];
        for (std::size_t lo = 0; lo < conn.size(); lo += kGateChunk) {
            const std::size_t hi = std::min(conn.size(), lo + kGateChunk);
            std::vector<Draw> draws;
            std::vector<std::string> lines;
            for (std::size_t i = lo; i < hi; ++i) {
                draws.push_back(stream.next());
                if (spec.kind != Kind::Evaluate)
                    lines.push_back(w.render(draws.back(), i + 1, traced));
            }
            std::vector<std::vector<double>> values;
            std::vector<std::string> results;
            if (spec.kind == Kind::Evaluate)
                values = referenceValues(w, draws);
            else
                results = referenceResults(lines);

            for (std::size_t k = 0; k < draws.size(); ++k) {
                const Sample &s = conn[lo + k];
                const Draw &d = draws[k];
                const auto g = static_cast<std::size_t>(d.graph);
                ++gate.requests;
                gate.repeats += d.repeat ? 1 : 0;
                ++gate.nodesMix[w.graphs()[g].numNodes()];
                ++gate.lanes[static_cast<std::size_t>(w.lane(d.graph))];
                if (!s.answered) {
                    gate.tally.add(Outcome::Timeout);
                    continue;
                }
                json::Value doc;
                const Outcome outcome =
                    spec.kind == Kind::Evaluate
                        ? perfbench::judgeEvaluate(s.response, values[k],
                                                   &doc)
                        : perfbench::judgeResult(s.response, results[k],
                                                 &doc);
                gate.tally.add(outcome);
                gate.latencyUs.push_back(s.latencyUs);
                if (outcome != Outcome::Ok) {
                    if (gate.reported++ < 3)
                        std::fprintf(stderr,
                                     "perfbench: %s answer failed the"
                                     " gate: %.300s\n",
                                     spec.name.c_str(), s.response.c_str());
                    continue;
                }
                const json::Value &result = member(doc, "result");
                gate.queueMs.push_back(
                    member(member(doc, "route"), "queue_ms").asNumber());
                if (traced) {
                    gate.spans.push_back(
                        perfbench::spansOf(member(doc, "trace")));
                    gate.spanLatencyUs.push_back(s.latencyUs);
                }
                if (spec.kind == Kind::Optimize)
                    gate.evaluations.push_back(
                        member(result, "evaluations").asNumber());
                if (traced || lo + k >= quality)
                    continue;
                gate.approx.push_back(approxOf(w, d, result));
                if (spec.kind == Kind::Pipeline)
                    gate.nodeReduction.push_back(
                        1.0 - member(result, "reduced_nodes").asNumber() /
                                  member(result, "nodes").asNumber());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cost ladder
// ---------------------------------------------------------------------

std::string
bitsHex(double v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64,
                  std::bit_cast<std::uint64_t>(v));
    return buf;
}

std::string
valuesKey(const std::vector<double> &values)
{
    std::string key;
    for (double v : values)
        key += bitsHex(v) + ",";
    return key;
}

/** The part of an answer every rung must reproduce bit for bit. */
std::string
keyOf(Kind kind, const json::Value &result)
{
    switch (kind) {
        case Kind::Evaluate: {
            std::vector<double> values;
            for (const json::Value &v : member(result, "values").asArray())
                values.push_back(v.asNumber());
            return valuesKey(values);
        }
        case Kind::Optimize:
            return bitsHex(member(result, "energy").asNumber());
        case Kind::Pipeline:
            return bitsHex(member(result, "approx_ratio").asNumber()) +
                   "/" +
                   std::to_string(static_cast<int>(
                       member(result, "reduced_nodes").asNumber()));
    }
    return "";
}

/** keyOf a response line ("" when it is not an ok answer). */
std::string
keyOfResponse(Kind kind, const std::string &response)
{
    try {
        json::Value doc = json::Value::parse(response);
        if (!member(doc, "ok").asBool())
            return "";
        return keyOf(kind, member(doc, "result"));
    } catch (const std::exception &) {
        return "";
    }
}

/** One rung: its name and per-pass mean µs per request. */
struct Rung
{
    std::string name;
    std::vector<double> passUs;
};

/** What the ladder measured, pass by pass. */
struct Ladder
{
    std::vector<Rung> rungs;
    std::vector<double> evalUs;   //!< Optimize: evaluator µs per request.
    std::vector<double> reduceUs; //!< Pipeline: reduce µs per request.
    std::vector<double> annealerRuns; //!< Pipeline, per request.
    std::vector<double> evaluations;  //!< Pipeline, per request.
    perfbench::Tally tally; //!< Every rung's answers vs the bottom's.
};

/**
 * Replay one fixed request sample per pass on one connection through
 * each entry point in turn, bottom rung first: the computation with no
 * service layer, EvalEngine (evaluate only), ServiceRouter::dispatch,
 * ServiceServer::handleLine, TCP to a standalone redqaoa_serve, and
 * the front. In-process rungs run on a kWorkerThreads pool, like a
 * worker. Pass -1 of the evaluate workloads warms every rung's caches
 * and is neither timed nor gated.
 */
Ladder
runLadder(const Workload &w, const Service &fleet, const std::string &dir)
{
    const perfbench::WorkloadSpec &spec = w.spec();
    const Kind kind = spec.kind;
    const auto count = static_cast<std::size_t>(spec.ladderRequests);

    // The spec the router resolves for these requests.
    EvalSpec eval_spec = service::specFromJson(nullptr);
    eval_spec.layers = spec.layers;
    std::vector<std::unique_ptr<CutEvaluator>> evaluators;
    if (kind != Kind::Pipeline)
        for (const Graph &g : w.graphs())
            evaluators.push_back(makeEvaluator(g, eval_spec));
    EvalEngine engine;
    PipelineOptions pipeline_opts;
    pipeline_opts.noise =
        service::noiseFromJson(json::Value("ibmq_kolkata"));
    pipeline_opts.trajectories = 8;
    auto pipeline_engine = std::make_shared<EvalEngine>();
    service::ServiceRouter router;
    service::ServerOptions server_opts;
    server_opts.shards = perfbench::kShards;
    service::ServiceServer server(server_opts);
    std::vector<std::string> serve_argv{PERFBENCH_SERVE_BIN, "--tcp",
                                        "--port-file", dir + "/serve.port"};
    for (const std::string &arg : workerArgs())
        serve_argv.push_back(arg);
    Service serve(serve_argv, dir, "serve");
    perfbench::LineClient serve_client(serve.port());
    perfbench::LineClient lb_client(fleet.port());

    Ladder ladder;
    ladder.rungs.push_back({kind == Kind::Evaluate   ? "quantum"
                            : kind == Kind::Optimize ? "opt"
                                                     : "core",
                            {}});
    if (kind == Kind::Evaluate)
        ladder.rungs.push_back({"engine", {}});
    for (const char *name : {"router", "server", "tcp", "lb"})
        ladder.rungs.push_back({name, {}});

    for (int pass = kind == Kind::Evaluate ? -1 : 0;
         pass < spec.ladderPasses; ++pass) {
        Workload::Stream stream(w, perfbench::kLadderStream +
                                       static_cast<std::uint64_t>(pass + 1));
        std::vector<Draw> draws;
        std::vector<std::string> lines;
        for (std::size_t i = 0; i < count; ++i) {
            draws.push_back(stream.next());
            lines.push_back(w.render(draws.back(), i + 1, false));
        }
        std::vector<std::vector<std::string>> keys(ladder.rungs.size());
        std::size_t rung = 0;
        auto timed = [&](auto &&body) {
            const Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < count; ++i)
                body(i);
            if (pass >= 0)
                ladder.rungs[rung].passUs.push_back(
                    microsOf(Clock::now() - t0) /
                    static_cast<double>(count));
        };
        auto graphOf = [&](std::size_t i) -> const Graph & {
            return w.graphs()[static_cast<std::size_t>(draws[i].graph)];
        };

        if (kind == Kind::Evaluate) {
            std::vector<std::vector<double>> values(count);
            timed([&](std::size_t i) {
                values[i] =
                    evaluators[static_cast<std::size_t>(draws[i].graph)]
                        ->batchExpectation(draws[i].points);
            });
            for (const auto &v : values)
                keys[rung].push_back(valuesKey(v));
            ++rung;
            timed([&](std::size_t i) {
                values[i] =
                    engine.evaluate(graphOf(i), eval_spec, draws[i].points);
            });
            for (const auto &v : values)
                keys[rung].push_back(valuesKey(v));
        } else if (kind == Kind::Optimize) {
            // handleOptimize's search over a directly built evaluator.
            double eval_s = 0.0;
            timed([&](std::size_t i) {
                CutEvaluator &ev =
                    *evaluators[static_cast<std::size_t>(draws[i].graph)];
                Objective objective = [&](const std::vector<double> &x) {
                    const Clock::time_point t0 = Clock::now();
                    const double v =
                        -ev.expectation(QaoaParams::unflatten(x));
                    eval_s += secondsOf(Clock::now() - t0);
                    return v;
                };
                OptOptions opt_opts;
                opt_opts.maxEvaluations = 60;
                CobylaLite optimizer(opt_opts);
                Rng rng(draws[i].seed);
                const int layers = spec.layers;
                std::vector<OptResult> runs = multiRestart(
                    optimizer, objective, 8,
                    [layers](Rng &r) {
                        return QaoaParams::random(layers, r).flatten();
                    },
                    rng);
                keys[rung].push_back(bitsHex(-runs[bestRun(runs)].value));
            });
            if (pass >= 0)
                ladder.evalUs.push_back(1e6 * eval_s /
                                        static_cast<double>(count));
        } else {
            // RedQaoaPipeline::run, with its reduction repeated apart
            // so it can be timed; the rung counts the run alone.
            double reduce_s = 0.0;
            timed([&](std::size_t i) {
                const Clock::time_point t0 = Clock::now();
                Rng reduce_rng(draws[i].seed);
                const ReductionResult red =
                    RedQaoaReducer(pipeline_opts.reducer)
                        .reduce(graphOf(i), reduce_rng);
                reduce_s += secondsOf(Clock::now() - t0);
                Rng rng(draws[i].seed);
                const PipelineResult res =
                    RedQaoaPipeline(pipeline_opts, pipeline_engine)
                        .run(graphOf(i), rng);
                keys[rung].push_back(
                    bitsHex(res.approxRatio) + "/" +
                    std::to_string(res.reduction.reduced.graph.numNodes()));
                int evals = res.refineRun.evaluations;
                for (const OptResult &r : res.searchRuns)
                    evals += r.evaluations;
                if (pass >= 0) {
                    ladder.annealerRuns.push_back(red.annealerRuns);
                    ladder.evaluations.push_back(evals);
                }
            });
            const double reduce_us =
                1e6 * reduce_s / static_cast<double>(count);
            if (pass >= 0) {
                ladder.rungs[rung].passUs.back() -= reduce_us;
                ladder.reduceUs.push_back(reduce_us);
            }
        }
        ++rung;

        std::vector<json::Value> results(count);
        timed([&](std::size_t i) {
            try {
                results[i] =
                    router.dispatch(service::parseRequest(lines[i]));
            } catch (const std::exception &) {
                results[i] = json::Value();
            }
        });
        for (const json::Value &r : results) {
            try {
                keys[rung].push_back(keyOf(kind, r));
            } catch (const std::exception &) {
                keys[rung].push_back("");
            }
        }
        ++rung;
        std::vector<std::string> responses(count);
        timed([&](std::size_t i) {
            responses[i] = server.handleLine(lines[i]);
        });
        for (const std::string &r : responses)
            keys[rung].push_back(keyOfResponse(kind, r));
        ++rung;
        for (perfbench::LineClient *client : {&serve_client, &lb_client}) {
            std::vector<char> answered(count);
            timed([&](std::size_t i) {
                answered[i] =
                    client->exchange(lines[i], responses[i], kTimeoutMs);
            });
            for (std::size_t i = 0; i < count; ++i)
                keys[rung].push_back(
                    answered[i] ? keyOfResponse(kind, responses[i]) : "");
            ++rung;
        }

        if (pass < 0)
            continue;
        for (std::size_t r = 1; r < keys.size(); ++r)
            for (std::size_t i = 0; i < count; ++i)
                ladder.tally.add(keys[r][i].empty() ? Outcome::Error
                                 : keys[r][i] == keys[0][i]
                                     ? Outcome::Ok
                                     : Outcome::Mismatch);
    }
    return ladder;
}

// ---------------------------------------------------------------------
// Counters and report
// ---------------------------------------------------------------------

/** Summed counters of every worker (`stats`) and the front (`health`). */
struct Counters
{
    EngineStats engine;
    double executed = 0.0; //!< Requests of the workload's method.
    double rejectedOverload = 0.0;
    double expiredDeadline = 0.0;
    double replays = 0.0;
    double restarts = 0.0;
};

Counters
collectCounters(const Service &fleet, const char *method)
{
    Counters c;
    const json::Value health = call(fleet.port(), "health");
    c.replays = member(health, "replays").asNumber();
    for (const json::Value &lane : member(health, "workers").asArray()) {
        c.restarts += member(lane, "restarts").asNumber();
        const json::Value stats = call(
            static_cast<int>(member(lane, "port").asNumber()), "stats");
        c.engine += engineStatsFromJson(member(stats, "engine"));
        const json::Value &server = member(stats, "server");
        c.rejectedOverload += member(server, "rejected_overload").asNumber();
        c.expiredDeadline += member(server, "expired_deadline").asNumber();
        if (const json::Value *n = member(server, "methods").find(method))
            c.executed += n->asNumber();
    }
    return c;
}

/** Metric name -> (value, unit). */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

json::Value
metricsJson(const Metrics &metrics)
{
    json::Value doc = json::Value::object();
    for (const auto &[name, value_unit] : metrics) {
        json::Value m = json::Value::object();
        m["value"] = value_unit.first;
        m["unit"] = value_unit.second;
        doc[name] = std::move(m);
    }
    return doc;
}

json::Value
fingerprint(const Options &o)
{
    json::Value fp = json::Value::object();
    fp["perfbench"] = "fingerprint";
    fp["cpu_model"] = perfbench::cpuModel();
    fp["nproc"] = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
    fp["batched_kernels"] = batched::activeKernels().name;
    fp["compiler"] = PERFBENCH_COMPILER;
    fp["build_type"] = PERFBENCH_BUILD_TYPE;
    fp["git_sha"] = PERFBENCH_GIT_SHA;
    fp["source_digest"] = o.sourceDigest;
    std::string worker_args;
    for (const std::string &arg : workerArgs())
        worker_args += " " + arg;
    fp["deployment"] = "redqaoa_lb --workers " + std::to_string(kWorkers) +
                       ", workers:" + worker_args + ", store off";
    return fp;
}

/** The per-layer metrics of a traced run. */
void
layerMetrics(const perfbench::WorkloadSpec &spec, const Ladder &ladder,
             const Gate &gate, const Gate &traced, const Counters &counters,
             const std::vector<double> &overhead_ratios, Metrics &metrics,
             json::Value &report)
{
    // Ladder self times: median over passes of (rung - rung beneath).
    // The four service rungs are always last.
    for (const char *name :
         {"quantum.eval_us", "engine.self_us", "core.reduce_us",
          "core.search_us"})
        metrics[name] = {0.0, "us"};
    const char *service_layers[] = {
        "service.router.self_us", "service.server.self_us",
        "service.tcp.self_us", "service.lb.self_us"};
    const std::size_t first_service = ladder.rungs.size() - 4;
    json::Value rungs = json::Value::object();
    json::Value flags = json::Value::array();
    for (std::size_t r = 0; r < ladder.rungs.size(); ++r) {
        const Rung &rung = ladder.rungs[r];
        rungs[rung.name] = perfbench::median(rung.passUs);
        if (r == 0)
            continue;
        std::vector<double> diffs;
        for (std::size_t p = 0; p < rung.passUs.size(); ++p)
            diffs.push_back(rung.passUs[p] - ladder.rungs[r - 1].passUs[p]);
        const double self = perfbench::median(diffs);
        if (self < 0.0 && -self > perfbench::iqr(diffs))
            flags.push(rung.name + " faster than " +
                       ladder.rungs[r - 1].name);
        metrics[r >= first_service ? service_layers[r - first_service]
                                   : "engine.self_us"] = {self, "us"};
    }
    if (spec.kind == Kind::Evaluate)
        metrics["quantum.eval_us"] = {
            perfbench::median(ladder.rungs[0].passUs), "us"};
    if (spec.kind == Kind::Optimize)
        metrics["quantum.eval_us"] = {perfbench::median(ladder.evalUs),
                                      "us"};
    if (spec.kind == Kind::Pipeline) {
        std::vector<double> search;
        for (std::size_t p = 0; p < ladder.reduceUs.size(); ++p)
            search.push_back(ladder.rungs[0].passUs[p] - ladder.reduceUs[p]);
        metrics["core.reduce_us"] = {perfbench::median(ladder.reduceUs),
                                     "us"};
        metrics["core.search_us"] = {perfbench::median(search), "us"};
    }
    metrics["ladder.flagged_rungs"] = {static_cast<double>(flags.size()),
                                       "count"};

    // Traced load: span aggregates per request.
    std::vector<double> lb_queue, server_queue, forward_self, execute_self,
        backend_us, backend_calls, restarts_self, unattributed;
    for (std::size_t i = 0; i < traced.spans.size(); ++i) {
        const std::vector<perfbench::Span> &spans = traced.spans[i];
        lb_queue.push_back(perfbench::spanUs(spans, "lb.queue"));
        server_queue.push_back(perfbench::spanUs(spans, "shard.queue"));
        forward_self.push_back(perfbench::selfUs(spans, "lb.forward"));
        execute_self.push_back(perfbench::selfUs(spans, "worker.execute"));
        const double backend = perfbench::spanUs(spans, "backend.evaluate");
        backend_us.push_back(backend);
        backend_calls.push_back(
            perfbench::spanCount(spans, "backend.evaluate"));
        if (perfbench::spanCount(spans, "optimize.restarts") > 0)
            restarts_self.push_back(
                perfbench::spanUs(spans, "optimize.restarts") - backend);
        const double latency = traced.spanLatencyUs[i];
        unattributed.push_back(
            (latency - perfbench::coveredUs(spans)) / latency);
    }
    metrics["service.lb.queue_us"] = {mean(lb_queue), "us"};
    metrics["service.server.queue_us"] = {mean(server_queue), "us"};
    metrics["service.lb.forward_self_us"] = {mean(forward_self), "us"};
    metrics["service.server.execute_self_us"] = {mean(execute_self), "us"};
    metrics["quantum.backend_evaluate_us"] = {mean(backend_us), "us"};
    metrics["quantum.backend_evaluate_calls"] = {mean(backend_calls),
                                                 "count"};
    metrics["opt.restarts_self_us"] = {mean(restarts_self), "us"};
    metrics["service.unattributed_share"] = {mean(unattributed), "ratio"};
    metrics["trace_overhead"] = {
        1.0 - perfbench::median(overhead_ratios), "ratio"};

    // Counters of the workers and the front.
    const EngineStats &e = counters.engine;
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    metrics["engine.memo_hit_rate"] = {e.memoHitRate(), "ratio"};
    // Points the engines computed (memo misses, trajectory points too):
    // the memo's size only while memos never evict.
    metrics["engine.points_computed"] = {u(e.evaluated), "count"};
    metrics["engine.evaluated_per_req"] = {
        ratio(u(e.evaluated), counters.executed), "count"};
    metrics["engine.evaluator_hit_rate"] = {e.evaluatorHitRate(), "ratio"};
    metrics["engine.artifact_hit_rate"] = {
        ratio(u(e.artifacts.hits), u(e.artifacts.hits + e.artifacts.misses)),
        "ratio"};
    metrics["engine.jobs_per_drain"] = {
        ratio(u(e.jobsDrained), u(e.drains)), "count"};
    metrics["service.server.rejected_overload"] = {counters.rejectedOverload,
                                                   "count"};
    metrics["service.server.expired_deadline"] = {counters.expiredDeadline,
                                                  "count"};
    metrics["service.lb.replays"] = {counters.replays, "count"};
    metrics["service.lb.worker_restarts"] = {counters.restarts, "count"};
    metrics["opt.evaluations_per_req"] = {
        spec.kind == Kind::Pipeline ? mean(ladder.evaluations)
                                    : mean(gate.evaluations),
        "count"};
    metrics["core.annealer_runs_per_req"] = {mean(ladder.annealerRuns),
                                             "count"};
    metrics["core.node_reduction"] = {mean(gate.nodeReduction), "ratio"};

    json::Value lad = json::Value::object();
    lad["rungs_us"] = std::move(rungs);
    lad["flags"] = std::move(flags);
    lad["passes"] = spec.ladderPasses;
    lad["requests_per_pass"] = spec.ladderRequests;
    lad["tally"] = ladder.tally.toJson();
    report["ladder"] = std::move(lad);
    json::Value ratios = json::Value::array();
    for (double r : overhead_ratios)
        ratios.push(r);
    report["traced_to_plain_rates"] = std::move(ratios);
    report["traced"] = traced.tally.toJson();
}

/** The workload's measured properties line. */
json::Value
properties(const Workload &w, const Gate &gate)
{
    json::Value props = json::Value::object();
    props["perfbench"] = "workload";
    props["workload"] = w.spec().name;
    props["connections"] = w.spec().connections;
    props["requests"] = static_cast<double>(gate.requests);
    props["repeat_share"] = ratio(static_cast<double>(gate.repeats),
                                  static_cast<double>(gate.requests));
    json::Value mix = json::Value::object();
    for (const auto &[nodes, n] : gate.nodesMix)
        mix[std::to_string(nodes)] = static_cast<double>(n);
    props["nodes_mix"] = std::move(mix);
    json::Value lanes = json::Value::array();
    for (std::size_t n : gate.lanes)
        lanes.push(static_cast<double>(n));
    props["lane_split"] = std::move(lanes);
    // Connections are pinned to lanes, so lane_split is even by
    // construction. Unpinned traffic, drawing every graph alike, would
    // split as the route key splits the graph set.
    json::Value route_split = json::Value::array();
    for (int lane = 0; lane < perfbench::kWorkers; ++lane) {
        int graphs = 0;
        for (int g = 0; g < static_cast<int>(w.graphs().size()); ++g)
            graphs += w.lane(g) == lane ? 1 : 0;
        route_split.push(graphs);
    }
    props["unpinned_lane_split"] = std::move(route_split);
    double edges = 0.0;
    for (const Graph &g : w.graphs())
        edges += g.numEdges();
    props["graphs"] = static_cast<double>(w.graphs().size());
    props["mean_edges"] = edges / static_cast<double>(w.graphs().size());
    return props;
}

void
addTally(perfbench::Tally &into, const perfbench::Tally &from)
{
    into.attempted += from.attempted;
    into.succeeded += from.succeeded;
    into.errors += from.errors;
    into.mismatches += from.mismatches;
    into.timeouts += from.timeouts;
}

int
run(const Options &o)
{
    const perfbench::WorkloadSpec &spec =
        *perfbench::findWorkload(o.workload);
    const Workload w(spec, o.seed);
    const int hw =
        std::max(2, static_cast<int>(std::thread::hardware_concurrency()));

    // Everything a run writes lives under its own directory.
    const std::string dir =
        o.workDir + "/" + spec.name + "." + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    struct RemoveDir
    {
        std::string path;
        ~RemoveDir() { std::filesystem::remove_all(path); }
    } remove_dir{dir};

    std::printf("%s\n", fingerprint(o).dump().c_str());
    std::fflush(stdout);

    std::vector<double> setups;
    std::unique_ptr<Service> fleet;
    for (int i = 0; i < (o.trace ? 1 : kSetups); ++i) {
        if (fleet)
            fleet->shutdown();
        fleet = launchFleet(dir, i);
        setups.push_back(fleet->setupS());
    }

    Gate gate;
    Gate traced_gate;
    Metrics metrics;
    json::Value report = json::Value::object();
    report["perfbench"] = "report";
    report["workload"] = spec.name;
    report["seed"] = static_cast<double>(o.seed);
    json::Value setup_runs = json::Value::array();
    for (double s : setups)
        setup_runs.push(s);
    report["setup_runs_s"] = std::move(setup_runs);
    perfbench::Tally tally;

    if (!o.trace) {
        const Load load =
            drive(w, fleet->port(), perfbench::kLoadStream, o.seconds, false,
                  static_cast<std::size_t>(spec.minPerConnection));
        const double rss = peakRssMb(*fleet);
        fleet->shutdown();
        ThreadPool::setGlobalThreads(hw);
        gatePhase(w, load, perfbench::kLoadStream, false, gate);

        std::vector<double> sorted = gate.latencyUs;
        std::sort(sorted.begin(), sorted.end());
        const double q = spec.tailQuantile;
        std::size_t per_window = 0;
        std::size_t p50_per_window = 0;
        const double tail_us = perfbench::windowedPercentile(
            load.completions(), q, kWindows, per_window);
        if (perfbench::samplesBeyond(per_window, q) < 10)
            throw std::runtime_error("too few answers for the tail");
        const double p50_us = perfbench::windowedPercentile(
            load.completions(), 0.5, kWindows, p50_per_window);
        metrics["throughput_rps"] = {load.rps(), "1/s"};
        metrics["latency_p50_ms"] = {p50_us / 1e3, "ms"};
        metrics["latency_tail_ms"] = {tail_us / 1e3, "ms"};
        metrics["setup_s"] = {perfbench::median(setups), "s"};
        metrics["peak_rss_mb"] = {rss, "MB"};
        metrics["approx_ratio"] = {mean(gate.approx), "ratio"};

        json::Value tail = json::Value::object();
        tail["percentile"] = 100.0 * q;
        tail["samples"] = static_cast<double>(sorted.size());
        tail["samples_per_window"] = static_cast<double>(per_window);
        tail["beyond_per_window"] =
            static_cast<double>(perfbench::samplesBeyond(per_window, q));
        tail["whole_run_ms"] = perfbench::percentile(sorted, q) / 1e3;
        report["latency_tail"] = std::move(tail);
        json::Value p50 = json::Value::object();
        p50["samples_per_window"] = static_cast<double>(p50_per_window);
        p50["whole_run_ms"] = perfbench::percentile(sorted, 0.5) / 1e3;
        report["latency_p50"] = std::move(p50);
        json::Value rates = json::Value::array();
        for (double r : perfbench::windowRates(load.completions(), kWindows))
            rates.push(r);
        report["window_rates"] = std::move(rates);
        report["elapsed_s"] = load.elapsedS;
    } else {
        // A plain warm-up phase, whose answers give the quality sample,
        // then short plain and traced phases in turn on the same fleet
        // (ABBA order). Every phase sends fresh points of its own
        // streams. trace_overhead comes from the pairwise rate ratios,
        // so drift of the machine falls on both sides of each pair.
        const Load warm =
            drive(w, fleet->port(), perfbench::kLoadStream, o.seconds * 0.2,
                  false, static_cast<std::size_t>(spec.minPerConnection));
        const double sub_s = o.seconds * 0.8 / (2 * kOverheadPairs);
        std::vector<Load> plain(kOverheadPairs);
        std::vector<Load> traced(kOverheadPairs);
        for (std::size_t j = 0; j < kOverheadPairs; ++j) {
            for (bool trace_phase : {j % 2 == 1, j % 2 == 0}) {
                const std::uint64_t base = (trace_phase
                                                ? perfbench::kTracedStream
                                                : perfbench::kPlainStream) +
                                           perfbench::kShards * j;
                (trace_phase ? traced : plain)[j] =
                    drive(w, fleet->port(), base, sub_s, trace_phase,
                          kOverheadMinPerConnection);
            }
        }
        const Counters counters =
            collectCounters(*fleet, perfbench::methodName(spec.kind));
        ThreadPool::setGlobalThreads(kWorkerThreads);
        const Ladder ladder = runLadder(w, *fleet, dir);
        fleet->shutdown();
        ThreadPool::setGlobalThreads(hw);
        gatePhase(w, warm, perfbench::kLoadStream, false, gate);
        Gate plain_gate;
        std::vector<double> ratios;
        for (std::size_t j = 0; j < kOverheadPairs; ++j) {
            const std::uint64_t step = perfbench::kShards * j;
            gatePhase(w, plain[j], perfbench::kPlainStream + step, false,
                      plain_gate);
            gatePhase(w, traced[j], perfbench::kTracedStream + step, true,
                      traced_gate);
            ratios.push_back(traced[j].rate() / plain[j].rate());
        }
        addTally(tally, plain_gate.tally);
        addTally(tally, traced_gate.tally);
        addTally(tally, ladder.tally);
        layerMetrics(spec, ladder, gate, traced_gate, counters, ratios,
                     metrics, report);
    }
    addTally(tally, gate.tally);

    std::printf("%s\n", properties(w, gate).dump().c_str());
    report["tally"] = tally.toJson();
    report["failed_frac"] = tally.failedFrac();
    report["approx_ratio"] = mean(gate.approx);
    if (spec.kind == Kind::Pipeline)
        report["node_reduction"] = mean(gate.nodeReduction);
    report["server_queue_ms_p50"] = perfbench::median(gate.queueMs);
    report["metrics"] = metricsJson(metrics);
    std::printf("%s\n", report.dump().c_str());

    json::Value result = json::Value::object();
    result["correct"] = tally.failed() == 0;
    result["attempted"] = static_cast<double>(tally.attempted);
    result["failed"] = static_cast<double>(tally.failed());
    result["metrics"] = metricsJson(metrics);
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return tally.failed() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    try {
        return run(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
