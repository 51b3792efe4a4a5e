/**
 * @file
 * EvalEngine: the shared evaluation service between the kernels and
 * the pipelines. One engine owns
 *
 *  - an ArtifactCache (per-graph cut tables, analytic edge tables,
 *    cone decompositions, built once and shared across evaluators),
 *  - an evaluator cache for deterministic backends (one shared
 *    instance per (graph, resolved spec)),
 *  - a point memo: identical (graph, spec, params) evaluations are
 *    served from the memo instead of recomputed. It is one flat
 *    PointTable per (graph, resolved spec), kept in the evaluator
 *    cache's entry, that stores each point's exact bits in an arena
 *    (about 60-85 bytes per p = 2 point; stats() reports memo_entries
 *    and memo_bytes). The tables share a fixed byte budget
 *    (kMemoBudgetBytes): a drain that leaves them above it clears
 *    whole tables, least recently looked up first, until they fit
 *    (memo_evictions), and
 *  - a job queue: callers submit batches of parameter points and get
 *    tickets; drain() shards every pending deterministic point and
 *    lane group from EVERY job across the global thread pool in one
 *    fan-out, instead of parallelizing only within a single batch
 *    (lane groups of states whose kernels use the pool themselves go
 *    one at a time after it).
 *
 * Determinism contracts (pinned by tests/test_engine.cpp):
 *  - engine-routed values are bit-identical to constructing the same
 *    evaluator directly, at any thread count (deterministic backends
 *    are pure functions of (graph, spec, params); a memoized value is
 *    the value a fresh computation would produce);
 *  - trajectory jobs run as whole batches on a fresh evaluator seeded
 *    from the spec, exactly like a direct NoisyEvaluator batch call,
 *    so they inherit the simulator's serial-stream-presplit guarantee;
 *  - a 1-thread pool executes the same work as a serial loop, in job
 *    submission order.
 *
 * The engine is thread-safe: pipeline-fleet scenarios running on pool
 * workers share one engine (nested parallel sections run inline), and
 * workers may submit jobs and get() their own tickets — that drain
 * runs inline on the worker. Any thread may drain at any time: a
 * get() whose job another drain claimed waits only for that drain to
 * publish, and a drain never waits for the pool, because a fan-out
 * that finds the pool held by another caller's job runs its chunks
 * inline on the draining thread until the pool is free
 * (ThreadPool::forRange). So an external drain that claims a pool
 * worker's queued job while a pool fan-out is in flight finishes the
 * job on its own thread and wakes the worker.
 */

#ifndef REDQAOA_ENGINE_EVAL_ENGINE_HPP
#define REDQAOA_ENGINE_EVAL_ENGINE_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "engine/artifact_cache.hpp"
#include "engine/backend_registry.hpp"
#include "engine/eval_spec.hpp"
#include "engine/point_table.hpp"
#include "engine/result_store.hpp"
#include "opt/optimizer.hpp"
#include "quantum/evaluator.hpp"

namespace redqaoa {

class EvalEngine;

namespace detail {

/** Shared state behind one submitted job. */
struct EngineJobState
{
    EvalEngine *engine = nullptr;
    Graph graph;
    EvalSpec spec;
    std::vector<QaoaParams> params;
    std::vector<double> results;
    std::atomic<bool> ready{false};
};

} // namespace detail

/**
 * Handle to a submitted job. get() triggers a drain when the job is
 * still pending and blocks if another thread is already executing it.
 * The engine must outlive every ticket it issued.
 */
class EvalJobTicket
{
  public:
    EvalJobTicket() = default;

    /** The job's expectation values, in point order (drains if needed). */
    const std::vector<double> &get();

    bool ready() const { return state_ && state_->ready.load(); }

  private:
    friend class EvalEngine;
    explicit EvalJobTicket(std::shared_ptr<detail::EngineJobState> state)
        : state_(std::move(state))
    {}

    std::shared_ptr<detail::EngineJobState> state_;
};

/**
 * Engine traffic counters (tests, bench metrics, service stats, fleet
 * reports). toJson() is THE serialization — every surface that reports
 * engine traffic (the fleet report's metadata.engine, the service
 * layer's `stats` method) emits this one document, so field sets can
 * never drift apart.
 */
struct EngineStats
{
    std::uint64_t jobs = 0;     //!< Jobs submitted.
    std::uint64_t jobsDrained = 0; //!< Jobs executed by drains.
    std::uint64_t drains = 0;   //!< drain() calls that found work.
    std::uint64_t points = 0;   //!< Parameter points across all jobs.
    std::uint64_t evaluated = 0; //!< Points actually computed (memo misses).
    std::uint64_t memoHits = 0; //!< Points served from the memo.
    std::uint64_t memoEntries = 0; //!< Points the point memo holds.
    std::uint64_t memoBytes = 0; //!< Point-memo arena + slot bytes.
    std::uint64_t memoEvictions = 0; //!< Memo tables cleared by the budget.
    std::uint64_t trajectoryJobs = 0; //!< Jobs on the noisy backend.
    std::uint64_t evaluatorHits = 0; //!< evaluator() served from cache.
    std::uint64_t evaluatorMisses = 0; //!< evaluator() cache fills.
    ArtifactCache::Stats artifacts; //!< Cache traffic.
    ResultStore::Stats store; //!< Warm-start store traffic (0s when none).

    /** memoHits / points (0 when no points were submitted). */
    double memoHitRate() const
    {
        return points == 0 ? 0.0
                           : static_cast<double>(memoHits) /
                                 static_cast<double>(points);
    }

    /** evaluatorHits / (hits + misses) (0 without traffic). */
    double evaluatorHitRate() const
    {
        std::uint64_t total = evaluatorHits + evaluatorMisses;
        return total == 0 ? 0.0
                          : static_cast<double>(evaluatorHits) /
                                static_cast<double>(total);
    }

    /**
     * The shared traffic document:
     *   {jobs, jobs_drained, drains, points, evaluated, memo_hits,
     *    memo_hit_rate, memo_entries, memo_bytes, memo_evictions,
     *    trajectory_jobs, evaluator_hits, evaluator_misses,
     *    artifact_hits, artifact_misses, graphs,
     *    store_warm_hits, store_cold_misses, store_records,
     *    store_appends, store_recovered_drops}
     * The store_* counters are present (zero) even without an attached
     * store — the key set never varies, which is the single-shape rule
     * the service's per-shard/aggregate key-set-equality test pins.
     */
    json::Value toJson() const;

    /**
     * Counter-wise sum (EngineShardSet aggregation; the derived rates
     * recompute from the summed counters).
     */
    EngineStats &operator+=(const EngineStats &rhs);
};

/**
 * Inverse of EngineStats::toJson for the raw counters (derived rates
 * recompute). Missing keys read as zero, so documents from older
 * workers still aggregate — redqaoa_lb uses this to sum the engine
 * blocks its health probes collect from the fleet.
 */
EngineStats engineStatsFromJson(const json::Value &doc);

class EvalEngine
{
  public:
    /**
     * Point-memo bytes one engine keeps (memo_bytes; arenas and slot
     * arrays): about 50k p = 2 points, or 50 of the largest figure
     * grids (32 x 32). Values are pure, so an evicted point is
     * recomputed bit for bit.
     */
    static constexpr std::size_t kMemoBudgetBytes = std::size_t{4} << 20;

    EvalEngine() = default;
    EvalEngine(const EvalEngine &) = delete;
    EvalEngine &operator=(const EvalEngine &) = delete;

    /**
     * Evaluator for (graph, spec). Deterministic backends come from
     * the evaluator cache — one shared, artifact-backed instance per
     * (graph, resolved spec), safe for concurrent expectation() calls.
     * Trajectory specs get a fresh instance per call (stateful RNG;
     * sharing would tie results to global call order), identical to
     * direct construction with the same arguments.
     */
    std::shared_ptr<CutEvaluator> evaluator(const Graph &g,
                                            const EvalSpec &spec);

    /**
     * Minimization objective -<H_c>(unflatten(x)) over an evaluator()
     * handle — the one adapter pipeline stages and optimizers use.
     */
    Objective objective(const Graph &g, const EvalSpec &spec);

    /**
     * Batch form of objective() for the lockstep multiRestart: the same
     * value per point, bit for bit. Deterministic backends only (throws
     * std::invalid_argument for Trajectory, whose values depend on call
     * order). On the statevector evaluator every batch goes through
     * ExactEvaluator::batchExpectationInto, whose lane rule sweeps
     * lane groups at batched::kBatchLanes points or more; smaller
     * batches and other backends go point by point on the calling
     * thread.
     */
    BatchObjective batchObjective(const Graph &g, const EvalSpec &spec);

    /** Queue a batch-evaluation job; runs at the next drain()/get(). */
    EvalJobTicket submit(const Graph &g, const EvalSpec &spec,
                         std::vector<QaoaParams> params);

    /**
     * Execute every pending job: deterministic points from all jobs
     * (minus memo hits) fan out over the global pool in one shot;
     * trajectory jobs then run as whole batches in submission order.
     * Each job resolves with resolveBackend(spec, g), so a statevector
     * job shares one evaluator, memo table and store keys with every
     * other statevector job on its graph, whatever its size. A job
     * whose pending points get a lane plan from its ExactEvaluator (at
     * least batched::kBatchLanes of them; ExactEvaluator::lanePlan)
     * adds one fan-out index per lane group, each writing disjoint
     * slots of the job; every other point is its own index. The groups
     * of a state whose kernels use the pool themselves
     * (laneSweepUsesPool) are swept one at a time after the fan-out
     * instead, so one lane set serves them rather than one per pool
     * thread. Values are byte-identical either way. Real lane sweeps
     * here and in batchObjective() bump the profiler counters
     * batched.sweeps (lane groups) and batched.points; the backend
     * counters are the router's, once per request. A drain whose memo
     * inserts (fresh points and store warm hits) leave the memo above
     * kMemoBudgetBytes clears whole (graph, spec) tables, the one
     * looked up longest ago first, until it is back under.
     */
    void drain();

    /** Submit + drain + get in one call (synchronous convenience). */
    std::vector<double> evaluate(const Graph &g, const EvalSpec &spec,
                                 std::vector<QaoaParams> params);

    ArtifactCache &artifacts() { return cache_; }

    /**
     * Attach the disk-backed warm-start tier: drains consult it on
     * point-memo misses and append newly computed deterministic values
     * (trajectory batches stay process-local — their values depend on
     * batch stream order). Attach before traffic: the pointer itself
     * is unsynchronized by design, like the constructor.
     */
    void attachStore(std::shared_ptr<ResultStore> store)
    {
        store_ = std::move(store);
    }

    const std::shared_ptr<ResultStore> &store() const { return store_; }

    /**
     * The store key of @p g (ResultStore::graphKey), computed once per
     * distinct structure and cached by graph id — the canonical
     * certificate behind it is far too heavy for per-request work.
     */
    std::string storeKeyFor(const Graph &g);

    /**
     * Apart from the point memo's budget, caches grow monotonically
     * with distinct traffic (one artifact set and evaluator per
     * distinct graph, one trajectory batch memo entry per distinct
     * batch); a service looping over ever-fresh graphs should clear
     * between phases. Empties every point-memo table (memo_entries and
     * memo_bytes read 0 after) and the trajectory batch memo; values
     * are pure, so later recomputation is identical. Shared evaluators
     * and artifacts stay.
     */
    void clearMemos();

    EngineStats stats() const;

  private:
    friend class EvalJobTicket;

    using JobPtr = std::shared_ptr<detail::EngineJobState>;
    /** (graph id, resolved spec key, whole batch as exact bits). */
    using BatchKey = std::tuple<std::uint64_t, std::string,
                                std::vector<std::uint64_t>>;

    /** One (graph id, resolved spec key): evaluator and point memo. */
    struct Entry
    {
        std::shared_ptr<CutEvaluator> evaluator; //!< Set once, shared.
        PointMemo memo; //!< Guarded by mutex_.
        /** The drain clock (stats_.drains) at its latest lookup. */
        std::uint64_t lastUse = 0;
    };

    /**
     * Evaluator-cache lookup/fill; requires a deterministic kind.
     * Stamps the entry with the drain clock. Entries are never erased,
     * so the reference stays valid.
     */
    Entry &cachedEntry(const Graph &g, const EvalSpec &spec,
                       EvalBackend kind);

    /** memo.insert, keeping memoBytes_ in step; caller holds mutex_. */
    void memoInsert(PointMemo &memo, std::span<const std::uint64_t> key,
                    std::uint32_t hash, double value);

    /**
     * Clear non-empty memo tables, oldest lastUse first, until
     * memoBytes_ is within kMemoBudgetBytes; caller holds mutex_.
     */
    void evictMemos();

    /** Run one trajectory job (fresh evaluator or whole-batch memo). */
    void runTrajectoryJob(detail::EngineJobState &job);

    ArtifactCache cache_;

    mutable std::mutex mutex_; //!< Queue, memo, evaluator cache, stats.
    std::condition_variable jobDone_; //!< get() waits on foreign drains.
    std::vector<JobPtr> pending_;
    std::map<std::pair<std::uint64_t, std::string>, Entry> evaluators_;
    std::size_t memoBytes_ = 0; //!< Sum of the memo tables' bytes().
    /** Whole-batch memo for the trajectory backend (see drain()). */
    std::map<BatchKey, std::shared_ptr<const std::vector<double>>>
        batchMemo_;
    std::shared_ptr<ResultStore> store_; //!< Null without --store-dir.
    std::map<std::uint64_t, std::string> storeKeys_; //!< By graph id.
    EngineStats stats_;
};

} // namespace redqaoa

#endif // REDQAOA_ENGINE_EVAL_ENGINE_HPP
