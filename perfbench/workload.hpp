/**
 * @file
 * The benchmark's workloads and the pure helpers its report is built
 * from: seeded request generation, the tail-percentile rule, failure
 * accounting, and span self times. Nothing here touches a process or
 * a socket, so test_perfbench.cpp pins all of it directly.
 *
 * A workload is a fixed graph set plus request streams. Stream k of a
 * workload is a deterministic function of (seed, workload, k): the
 * same seed gives byte-identical request lines. Connections, traced
 * connections and ladder passes each draw from their own stream, so
 * every phase sends fresh points to a deployment whose memos already
 * hold the earlier phases' points.
 */

#ifndef PERFBENCH_WORKLOAD_HPP
#define PERFBENCH_WORKLOAD_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "quantum/maxcut.hpp"

namespace perfbench {

using redqaoa::Graph;
using redqaoa::QaoaParams;
namespace json = redqaoa::json;

/** Worker processes behind the front, and so its routing lanes. */
inline constexpr int kWorkers = 2;

/**
 * Engine shards per worker, each with its own executor. The front and
 * the workers place a request by the same key (route hash % lanes, then
 * % shards), so with 2 lanes and 4 shards the graphs of lane k land on
 * shards k and k + 2 of worker k: two executors per worker, enough for
 * four single-threaded requests at a time, one per core.
 */
inline constexpr int kShards = 4;

enum class Kind
{
    Evaluate,
    Optimize,
    Pipeline,
};

/** One workload's fixed shape (see BENCHMARK.json for the why). */
struct WorkloadSpec
{
    std::string name;
    Kind kind = Kind::Evaluate;
    /**
     * Closed-loop client connections: a multiple of kWorkers dividing
     * kShards. Each is pinned to one lane and, at four, to one shard.
     */
    int connections = 2;
    int graphs = 1;      //!< Distinct graphs requests cycle over.
    int minNodes = 6;    //!< Node counts cycle minNodes..maxNodes.
    int maxNodes = 6;
    double edgeProb = 0.5; //!< connectedGnp edge probability.
    /** > 0: connected G(n, m) graphs with this many edges, not G(n, p). */
    int edges = 0;
    int layers = 1;        //!< QAOA depth p.
    int points = 1;        //!< Points per evaluate request.
    double repeatShare = 0.0; //!< Share of evaluate requests repeating
                              //!< an earlier point of their stream.
    /**
     * Requests every connection completes even past the deadline. The
     * quality metrics (approx_ratio, node_reduction) average over
     * exactly these, so they repeat exactly for a seed, and the tail
     * percentile always has its ten samples.
     */
    int minPerConnection = 1;
    double tailQuantile = 0.99; //!< Fixed per workload; see tailQuantile().
    int ladderRequests = 1;     //!< Requests per ladder pass.
    int ladderPasses = 3;       //!< Ladder passes (medians over these).
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloads();

/** The workload named @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** The wire method a workload's requests call. */
const char *methodName(Kind kind);

/** One generated request, before rendering. */
struct Draw
{
    int graph = 0; //!< Index into Workload::graphs().
    std::vector<QaoaParams> points; //!< Evaluate only.
    std::uint64_t seed = 0; //!< Optimize seed / pipeline rng_seed.
    bool repeat = false;    //!< Repeats an earlier draw of its stream.
};

/** A workload instantiated for one seed: graphs plus request streams. */
class Workload
{
  public:
    Workload(const WorkloadSpec &spec, std::uint64_t seed);

    const WorkloadSpec &spec() const { return spec_; }
    const std::vector<Graph> &graphs() const { return graphs_; }
    /** Brute-force max cut of graph @p i (approximation ratios). */
    int maxCut(int i) const { return maxCuts_[static_cast<std::size_t>(i)]; }
    /** Graph @p i's route hash % kShards: its shard on its lane's worker. */
    int slot(int i) const { return slots_[static_cast<std::size_t>(i)]; }
    /** The front lane graph @p i routes to (route hash % kWorkers). */
    int lane(int i) const { return slot(i) % kWorkers; }

    /** The wire request of @p draw with id @p id (schema v2). */
    std::string render(const Draw &draw, std::uint64_t id,
                       bool trace) const;

    /** The deterministic request sequence of one stream. */
    class Stream
    {
      public:
        Stream(const Workload &workload, std::uint64_t stream_id);

        /** The next request of this stream. */
        Draw next();

      private:
        const Workload &workload_;
        std::uint64_t streamId_;
        redqaoa::Rng rng_;
        std::size_t fresh_ = 0;
        std::vector<Draw> history_; //!< Fresh draws (repeat targets).
    };

  private:
    WorkloadSpec spec_;
    std::uint64_t seed_;
    std::vector<Graph> graphs_;
    std::vector<std::string> graphJson_; //!< Rendered once per graph.
    std::vector<int> maxCuts_;
    std::vector<int> slots_;              //!< Route slot per graph.
    std::vector<std::vector<int>> pools_; //!< Graphs per connection
                                          //!< (never empty: all then).
};

/**
 * Stream ids: load connections, traced and plain phases of the traced
 * run (each phase's connections start at a multiple of kShards, so
 * connection c keeps pool c), and ladder passes.
 */
inline constexpr std::uint64_t kLoadStream = 0;
inline constexpr std::uint64_t kTracedStream = 100;
inline constexpr std::uint64_t kPlainStream = 200;
inline constexpr std::uint64_t kLadderStream = 1000;

// ---------------------------------------------------------------------
// Latency statistics
// ---------------------------------------------------------------------

/** Samples strictly beyond the nearest-rank @p q percentile of @p n. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * The tail rule: the highest of p99, p90 and p50 with at least ten
 * samples beyond it, or 0 when not even p50 qualifies.
 */
double tailQuantile(std::size_t n);

/** Nearest-rank percentile of an ascending @p sorted (non-empty). */
double percentile(const std::vector<double> &sorted, double q);

/** One answered request: completion time since the phase began, and
 *  its latency. */
struct Completion
{
    double doneS = 0.0;
    double latencyUs = 0.0;
};

/**
 * Completion rates per window: the completions, in time order, are cut
 * into @p windows runs of equal count, each rated count / duration (the
 * first window starts at 0). Their median is a throughput robust to
 * stalls of the machine. Needs at least @p windows completions.
 */
std::vector<double> windowRates(std::vector<Completion> done,
                                std::size_t windows);

/**
 * A latency percentile robust to stalls: the median, over time-ordered
 * windows of equal count, of each window's @p q percentile (µs).
 * Windows are as many as keep ten samples beyond q in each, at most
 * @p max_windows; below five, the whole run is one window. @p per_window
 * receives the samples per window.
 */
double windowedPercentile(std::vector<Completion> done, double q,
                          std::size_t max_windows, std::size_t &per_window);

/**
 * Quartiles as Python's statistics.quantiles(xs, n=4) gives them (the
 * exclusive method); {q1, median, q3}. Needs at least 2 values.
 */
std::vector<double> quartiles(std::vector<double> xs);

/** q3 - q1 of @p xs (0 for fewer than two values). */
double iqr(const std::vector<double> &xs);

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

/** How one request ended. */
enum class Outcome
{
    Ok,       //!< ok response, bit-identical to the reference.
    Error,    //!< ok: false, or an unparseable response line.
    Mismatch, //!< ok response whose result differs from the reference.
    Timeout,  //!< No response (timeout or torn connection).
};

/** Per-workload request accounting. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t errors = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t timeouts = 0;

    void add(Outcome outcome);
    std::uint64_t failed() const { return errors + mismatches + timeouts; }
    /** failed / attempted (0 without traffic). */
    double failedFrac() const;
    json::Value toJson() const;
};

/**
 * Judge an evaluate response: Ok only when it is an ok response whose
 * values are bit-identical to @p expected. The parsed response lands
 * in @p parsed when given (null when the line is not JSON).
 */
Outcome judgeEvaluate(const std::string &response,
                      const std::vector<double> &expected,
                      json::Value *parsed = nullptr);

/**
 * Judge an optimize/pipeline response: Ok only when its "result"
 * member renders byte-identically to @p expected_result.
 */
Outcome judgeResult(const std::string &response,
                    const std::string &expected_result,
                    json::Value *parsed = nullptr);

// ---------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------

/** One span of a response's trace document. */
struct Span
{
    std::string name;
    std::string parent;
    double startUs = 0.0;
    double durUs = 0.0;
    double count = 0.0;
};

/** The spans of a trace document ({"spans": [...]}). */
std::vector<Span> spansOf(const json::Value &trace);

/** Summed duration of the spans named @p name (0 when absent). */
double spanUs(const std::vector<Span> &spans, const std::string &name);

/** Summed merge count of the spans named @p name. */
double spanCount(const std::vector<Span> &spans, const std::string &name);

/**
 * Self time of span @p name: its duration minus the part of its
 * interval covered by the union of its descendants' intervals
 * (descendants by parent name, transitively). 0 when absent.
 */
double selfUs(const std::vector<Span> &spans, const std::string &name);

/** Length of the union of every span's interval. */
double coveredUs(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HPP
