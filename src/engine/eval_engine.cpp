#include "engine/eval_engine.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "obs/profiler.hpp"

namespace redqaoa {

namespace {

/**
 * Append the exact-bits encoding of one parameter point to @p out: the
 * layer count, then every gamma and beta bit pattern (memo and store
 * keys must treat 0.1 + 0.2 and 0.3 as different points, so no
 * rounding anywhere).
 */
void
appendParamBits(const QaoaParams &p, std::vector<std::uint64_t> &out)
{
    out.push_back(static_cast<std::uint64_t>(p.gamma.size()));
    for (double g : p.gamma)
        out.push_back(std::bit_cast<std::uint64_t>(g));
    for (double b : p.beta)
        out.push_back(std::bit_cast<std::uint64_t>(b));
}

/** Exact-bits encoding of a whole batch (trajectory batch memo). */
std::vector<std::uint64_t>
batchBits(const std::vector<QaoaParams> &params)
{
    std::vector<std::uint64_t> bits;
    bits.push_back(params.size());
    for (const QaoaParams &p : params)
        appendParamBits(p, bits);
    return bits;
}

/**
 * Lane-occupancy counters of one batch's lane groups (occupancy is
 * points / (kBatchLanes * sweeps)); a batch that went point by point
 * swept nothing and counts nothing.
 */
void
countLaneSweeps(std::size_t sweeps, std::size_t points)
{
    obs::Profiler &profiler = obs::Profiler::global();
    if (sweeps == 0 || !profiler.enabled())
        return;
    profiler.count("batched.sweeps", sweeps);
    profiler.count("batched.points", points);
}

} // namespace

const std::vector<double> &
EvalJobTicket::get()
{
    if (!state_)
        throw std::logic_error("EvalJobTicket::get: empty ticket");
    if (state_->ready.load())
        return state_->results;
    state_->engine->drain();
    if (state_->ready.load())
        return state_->results;
    // Another thread's drain took the job; wait for its publication.
    EvalEngine &engine = *state_->engine;
    std::unique_lock<std::mutex> lock(engine.mutex_);
    engine.jobDone_.wait(lock, [&] { return state_->ready.load(); });
    return state_->results;
}

std::shared_ptr<CutEvaluator>
EvalEngine::evaluator(const Graph &g, const EvalSpec &spec)
{
    EvalBackend kind = resolveBackend(spec, g);
    if (!deterministicBackend(kind))
        return makeEvaluator(g, spec, &cache_);
    return cachedEntry(g, spec, kind).evaluator;
}

EvalEngine::Entry &
EvalEngine::cachedEntry(const Graph &g, const EvalSpec &spec,
                        EvalBackend kind)
{
    std::uint64_t gid = cache_.graphId(g);
    std::pair<std::uint64_t, std::string> key{gid,
                                              backendCacheKey(spec, kind)};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = evaluators_.find(key);
        if (it != evaluators_.end()) {
            ++stats_.evaluatorHits;
            it->second.lastUse = stats_.drains;
            return it->second;
        }
        ++stats_.evaluatorMisses;
    }
    // Construct outside the engine mutex (artifact builds are heavy);
    // losers of a construction race share the winner's artifacts via
    // the cache, so discarding their instance changes nothing.
    std::shared_ptr<CutEvaluator> built = makeEvaluator(g, spec, &cache_);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = evaluators_.try_emplace(
        std::move(key), Entry{std::move(built), {}, 0});
    (void)inserted;
    it->second.lastUse = stats_.drains;
    return it->second;
}

void
EvalEngine::memoInsert(PointMemo &memo, std::span<const std::uint64_t> key,
                       std::uint32_t hash, double value)
{
    const std::size_t before = memo.bytes();
    memo.insert(key, hash, value);
    memoBytes_ += memo.bytes() - before;
}

void
EvalEngine::evictMemos()
{
    // Only a drain that went over the budget scans the tables.
    std::vector<Entry *> tables;
    for (auto &[key, entry] : evaluators_)
        if (entry.memo.size() != 0)
            tables.push_back(&entry);
    std::stable_sort(tables.begin(), tables.end(),
                     [](const Entry *a, const Entry *b) {
                         return a->lastUse < b->lastUse;
                     });
    for (Entry *entry : tables) {
        if (memoBytes_ <= kMemoBudgetBytes)
            break;
        memoBytes_ -= entry->memo.bytes();
        entry->memo.clear();
        ++stats_.memoEvictions;
    }
}

Objective
EvalEngine::objective(const Graph &g, const EvalSpec &spec)
{
    std::shared_ptr<CutEvaluator> ev = evaluator(g, spec);
    return [ev](const std::vector<double> &x) {
        return -ev->expectation(QaoaParams::unflatten(x));
    };
}

BatchObjective
EvalEngine::batchObjective(const Graph &g, const EvalSpec &spec)
{
    EvalBackend kind = resolveBackend(spec, g);
    if (!deterministicBackend(kind))
        throw std::invalid_argument(
            std::string("EvalEngine::batchObjective: backend '") +
            backendName(kind) + "' depends on call order");
    std::shared_ptr<CutEvaluator> ev = cachedEntry(g, spec, kind).evaluator;
    // The lane sweep needs the cut table only the exact evaluator has.
    const auto *exact = dynamic_cast<const ExactEvaluator *>(ev.get());
    return [ev, exact](std::span<const std::vector<double>> xs) {
        std::vector<QaoaParams> params;
        params.reserve(xs.size());
        for (const std::vector<double> &x : xs)
            params.push_back(QaoaParams::unflatten(x));
        std::vector<double> values(params.size());
        if (exact) {
            std::vector<const QaoaParams *> points(params.size());
            for (std::size_t i = 0; i < params.size(); ++i)
                points[i] = &params[i];
            countLaneSweeps(exact->batchExpectationInto(points, values),
                            points.size());
        } else {
            for (std::size_t i = 0; i < params.size(); ++i)
                values[i] = ev->expectation(params[i]);
        }
        for (double &v : values)
            v = -v;
        return values;
    };
}

EvalJobTicket
EvalEngine::submit(const Graph &g, const EvalSpec &spec,
                   std::vector<QaoaParams> params)
{
    auto state = std::make_shared<detail::EngineJobState>();
    state->engine = this;
    state->graph = g;
    state->spec = spec;
    state->params = std::move(params);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.jobs;
    stats_.points += state->params.size();
    pending_.push_back(state);
    return EvalJobTicket(state);
}

void
EvalEngine::drain()
{
    std::vector<JobPtr> jobs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs.swap(pending_);
        if (!jobs.empty()) {
            ++stats_.drains;
            stats_.jobsDrained += jobs.size();
        }
    }
    if (jobs.empty())
        return;

    /** One point the fan-out computes, memoized after it. */
    struct Fresh
    {
        PointMemo *memo;
        std::size_t key;    //!< Offset of its bits in keyWords.
        std::size_t words;  //!< Length of its bits.
        std::uint32_t hash; //!< PointMemo::hash of its bits.
        double *slot;
    };
    /** One deterministic point computed on its own fan-out index. */
    struct WorkItem
    {
        CutEvaluator *eval;
        const QaoaParams *params;
        double *slot;
    };
    /** One job's lane groups and the values they sweep. */
    struct LaneJob
    {
        const ExactEvaluator *eval;
        std::vector<LaneGroup> groups;
        std::vector<double *> slots;
        std::vector<double> values; //!< Indexed like the plan's points.
    };
    /** One job's freshly computed points, persisted after the fan-out. */
    struct StoreAppend
    {
        std::string graphKey;
        std::string specKey;
        std::uint64_t presentation = 0;
        std::vector<std::pair<std::vector<std::uint64_t>, double *>>
            points;
    };
    std::vector<std::uint64_t> keyWords; //!< Bits of every fresh point.
    std::vector<Fresh> fresh;
    std::vector<WorkItem> items;
    std::vector<LaneJob> laneJobs;
    std::vector<StoreAppend> storeAppends;
    /** Intra-drain duplicates: (copy destination, computed slot). */
    std::vector<std::pair<double *, const double *>> aliases;
    /** Per memo table, the slot computing each of its fresh points. */
    std::vector<std::pair<const PointMemo *, PointTable<double *>>>
        firstSlots;
    std::vector<JobPtr> deterministicJobs;
    std::vector<JobPtr> trajectoryJobs;
    std::uint64_t memoHits = 0;

    // Classification + memo/alias/store-lookup pass ("memo" stage of
    // the drain split; the compute fan-out and the store writeback
    // time separately below).
    std::optional<obs::StageTimer> memoStage;
    memoStage.emplace("engine.drain.memo", "worker.execute");
    for (const JobPtr &job : jobs) {
        EvalBackend kind = resolveBackend(job->spec, job->graph);
        if (!deterministicBackend(kind)) {
            trajectoryJobs.push_back(job);
            continue;
        }
        deterministicJobs.push_back(job);
        Entry &entry = cachedEntry(job->graph, job->spec, kind);
        // Store key + presentation hash come before the memo lock: the
        // canonical certificate behind the key is heavy.
        ResultStore *rs = store_.get();
        const std::string storeKey =
            rs ? storeKeyFor(job->graph) : std::string();
        const std::string specKey =
            rs ? backendCacheKey(job->spec, kind) : std::string();
        const std::uint64_t presentation =
            rs ? graphStructureHash(job->graph) : 0;
        StoreAppend append;
        std::vector<const QaoaParams *> points; //!< This job's fresh ones.
        std::vector<double *> slots;
        job->results.resize(job->params.size());
        auto seen = std::find_if(
            firstSlots.begin(), firstSlots.end(),
            [&](const auto &t) { return t.first == &entry.memo; });
        if (seen == firstSlots.end()) {
            firstSlots.emplace_back(&entry.memo, PointTable<double *>());
            seen = std::prev(firstSlots.end());
        }
        PointTable<double *> &firstSlot = seen->second;
        {
            // One lock per job, not per point: memo entries are only
            // ever inserted (never mutated), so holding the mutex across
            // the whole lookup loop is semantically identical and keeps
            // a large batch from hammering the lock.
            std::lock_guard<std::mutex> lock(mutex_);
            for (std::size_t i = 0; i < job->params.size(); ++i) {
                const std::size_t at = keyWords.size();
                appendParamBits(job->params[i], keyWords);
                const std::span<const std::uint64_t> key(
                    keyWords.data() + at, keyWords.size() - at);
                const std::uint32_t hash = PointMemo::hash(key);
                double *slot = &job->results[i];
                if (const double *hit = entry.memo.find(key, hash)) {
                    *slot = *hit;
                    ++memoHits;
                    keyWords.resize(at);
                    continue;
                }
                if (double *const *first = firstSlot.find(key, hash)) {
                    // Same point twice in this drain: compute once, copy.
                    aliases.emplace_back(slot, *first);
                    ++memoHits;
                    keyWords.resize(at);
                    continue;
                }
                if (rs) {
                    // RAM-memo miss: the disk tier may have the value
                    // from a previous process lifetime (same presentation
                    // only; see result_store.hpp on ULP purity). A hit
                    // enters the RAM memo so later drains stay memo-fast.
                    std::vector<std::uint64_t> bits(key.begin(), key.end());
                    double warm = 0.0;
                    if (rs->lookupPoint(storeKey, specKey, presentation,
                                        bits, warm)) {
                        *slot = warm;
                        memoInsert(entry.memo, key, hash, warm);
                        keyWords.resize(at);
                        continue;
                    }
                    append.points.emplace_back(std::move(bits), slot);
                }
                firstSlot.insert(key, hash, slot);
                fresh.push_back(
                    {&entry.memo, at, keyWords.size() - at, hash, slot});
                points.push_back(&job->params[i]);
                slots.push_back(slot);
            }
        }
        if (rs && !append.points.empty()) {
            append.graphKey = storeKey;
            append.specKey = specKey;
            append.presentation = presentation;
            storeAppends.push_back(std::move(append));
        }
        // The lane sweep needs the cut-table access only the exact
        // evaluator has; a foreign registration goes point by point
        // (values are identical either way).
        CutEvaluator *ev = entry.evaluator.get();
        const auto *exact = dynamic_cast<const ExactEvaluator *>(ev);
        std::vector<LaneGroup> groups;
        if (exact)
            groups = exact->lanePlan(points);
        if (groups.empty()) {
            for (std::size_t k = 0; k < points.size(); ++k)
                items.push_back({ev, points[k], slots[k]});
        } else {
            laneJobs.push_back({exact, std::move(groups), std::move(slots),
                                std::vector<double>(points.size())});
        }
    }
    memoStage.reset();

    // The cross-job fan-out: every pending point from every job in one
    // parallelFor, scalar points first, then every lane group of a
    // state too small for its kernels to use the pool. Each index
    // writes its own slots with pure values, so results are independent
    // of the thread count, and a 1-thread pool runs them serially in
    // submission order. The groups of larger states follow one at a
    // time on this thread, their kernels spreading each pass over the
    // pool: as fan-out indices, every thread would hold a lane set of
    // its own (2^n * kBatchLanes amplitudes) while its kernels ran
    // nested, inline.
    std::vector<std::pair<LaneJob *, const LaneGroup *>> groups;
    std::vector<std::pair<LaneJob *, const LaneGroup *>> wideGroups;
    for (LaneJob &lj : laneJobs) {
        auto &dst =
            laneSweepUsesPool(lj.eval->numQubits()) ? wideGroups : groups;
        for (const LaneGroup &g : lj.groups)
            dst.emplace_back(&lj, &g);
    }
    {
        obs::StageTimer evaluate("backend.evaluate", "worker.execute");
        parallelFor(items.size() + groups.size(), [&](std::size_t i) {
            if (i < items.size()) {
                *items[i].slot =
                    items[i].eval->expectation(*items[i].params);
                return;
            }
            const auto &[lj, group] = groups[i - items.size()];
            lj->eval->sweepLanes(*group, lj->values);
        });
        for (const auto &[lj, group] : wideGroups)
            lj->eval->sweepLanes(*group, lj->values);
    }

    for (const LaneJob &lj : laneJobs) {
        countLaneSweeps(lj.groups.size(), lj.slots.size());
        for (std::size_t k = 0; k < lj.slots.size(); ++k)
            *lj.slots[k] = lj.values[k];
    }
    for (const auto &[dst, src] : aliases)
        *dst = *src;
    // Publish the deterministic jobs before the (potentially long)
    // noisy batches below, so their waiters wake as soon as the
    // fan-out lands.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.evaluated += fresh.size();
        stats_.memoHits += memoHits;
        for (const Fresh &f : fresh)
            memoInsert(*f.memo, {keyWords.data() + f.key, f.words}, f.hash,
                       *f.slot);
        if (memoBytes_ > kMemoBudgetBytes)
            evictMemos();
        for (const JobPtr &job : deterministicJobs)
            job->ready.store(true);
    }
    jobDone_.notify_all();

    // Persist the freshly computed deterministic values AFTER waking
    // the waiters: disk latency never sits between a computed value and
    // its consumer. Slots are stable (job states are shared_ptr-held).
    if (!storeAppends.empty()) {
        obs::StageTimer storeStage("engine.drain.store",
                                   "worker.execute");
        for (const StoreAppend &ap : storeAppends) {
            std::vector<std::pair<std::vector<std::uint64_t>, double>>
                pts;
            pts.reserve(ap.points.size());
            for (const auto &[bits, slot] : ap.points)
                pts.emplace_back(bits, *slot);
            store_->appendPoints(ap.graphKey, ap.specKey,
                                 ap.presentation, pts);
        }
    }

    // Trajectory jobs keep whole-batch semantics, in submission order,
    // each published as soon as it completes.
    if (!trajectoryJobs.empty()) {
        obs::StageTimer trajectoryStage("engine.drain.trajectory",
                                        "worker.execute");
        for (const JobPtr &job : trajectoryJobs) {
            runTrajectoryJob(*job);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                job->ready.store(true);
            }
            jobDone_.notify_all();
        }
    }
}

void
EvalEngine::runTrajectoryJob(detail::EngineJobState &job)
{
    BatchKey key{cache_.graphId(job.graph),
                 backendCacheKey(job.spec, EvalBackend::Trajectory),
                 batchBits(job.params)};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.trajectoryJobs;
        auto hit = batchMemo_.find(key);
        if (hit != batchMemo_.end()) {
            job.results = *hit->second;
            stats_.memoHits += job.params.size();
            return;
        }
    }
    // Fresh evaluator seeded from the spec: bit-identical to a direct
    // NoisyEvaluator batch call with the same arguments (the simulator
    // presplits the per-(point, trajectory) RNG streams serially, so
    // the batch itself is thread-count invariant). Point-level memo is
    // deliberately NOT applied here: a point's value depends on its
    // position in the batch's stream order.
    std::unique_ptr<CutEvaluator> ev =
        makeEvaluator(job.graph, job.spec, &cache_);
    job.results = ev->batchExpectation(job.params);
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.evaluated += job.params.size();
    batchMemo_.emplace(
        std::move(key),
        std::make_shared<const std::vector<double>>(job.results));
}

std::vector<double>
EvalEngine::evaluate(const Graph &g, const EvalSpec &spec,
                     std::vector<QaoaParams> params)
{
    EvalJobTicket ticket = submit(g, spec, std::move(params));
    return ticket.get();
}

std::string
EvalEngine::storeKeyFor(const Graph &g)
{
    std::uint64_t gid = cache_.graphId(g);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = storeKeys_.find(gid);
        if (it != storeKeys_.end())
            return it->second;
    }
    // The certificate search runs outside the engine mutex (it can be
    // expensive); a compute race just inserts the same string twice.
    std::string key = ResultStore::graphKey(g);
    std::lock_guard<std::mutex> lock(mutex_);
    return storeKeys_.emplace(gid, std::move(key)).first->second;
}

void
EvalEngine::clearMemos()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[key, entry] : evaluators_)
        entry.memo.clear();
    memoBytes_ = 0;
    batchMemo_.clear();
}

json::Value
EngineStats::toJson() const
{
    auto u64 = [](std::uint64_t v) {
        return json::Value(static_cast<std::size_t>(v));
    };
    json::Value doc = json::Value::object();
    doc["jobs"] = u64(jobs);
    doc["jobs_drained"] = u64(jobsDrained);
    doc["drains"] = u64(drains);
    doc["points"] = u64(points);
    doc["evaluated"] = u64(evaluated);
    doc["memo_hits"] = u64(memoHits);
    doc["memo_hit_rate"] = memoHitRate();
    doc["memo_entries"] = u64(memoEntries);
    doc["memo_bytes"] = u64(memoBytes);
    doc["memo_evictions"] = u64(memoEvictions);
    doc["trajectory_jobs"] = u64(trajectoryJobs);
    doc["evaluator_hits"] = u64(evaluatorHits);
    doc["evaluator_misses"] = u64(evaluatorMisses);
    doc["artifact_hits"] = u64(artifacts.hits);
    doc["artifact_misses"] = u64(artifacts.misses);
    doc["graphs"] = u64(artifacts.graphs);
    doc["store_warm_hits"] = u64(store.warmHits);
    doc["store_cold_misses"] = u64(store.coldMisses);
    doc["store_records"] = u64(store.records);
    doc["store_appends"] = u64(store.appends);
    doc["store_recovered_drops"] = u64(store.recoveredDrops);
    return doc;
}

EngineStats &
EngineStats::operator+=(const EngineStats &rhs)
{
    jobs += rhs.jobs;
    jobsDrained += rhs.jobsDrained;
    drains += rhs.drains;
    points += rhs.points;
    evaluated += rhs.evaluated;
    memoHits += rhs.memoHits;
    memoEntries += rhs.memoEntries;
    memoBytes += rhs.memoBytes;
    memoEvictions += rhs.memoEvictions;
    trajectoryJobs += rhs.trajectoryJobs;
    evaluatorHits += rhs.evaluatorHits;
    evaluatorMisses += rhs.evaluatorMisses;
    artifacts.hits += rhs.artifacts.hits;
    artifacts.misses += rhs.artifacts.misses;
    artifacts.graphs += rhs.artifacts.graphs;
    store += rhs.store;
    return *this;
}

EngineStats
engineStatsFromJson(const json::Value &doc)
{
    EngineStats out;
    if (!doc.isObject())
        return out;
    auto u64 = [&](const char *key) -> std::uint64_t {
        const json::Value *v = doc.find(key);
        if (v == nullptr || !v->isNumber() || v->asNumber() <= 0)
            return 0;
        return static_cast<std::uint64_t>(v->asNumber());
    };
    out.jobs = u64("jobs");
    out.jobsDrained = u64("jobs_drained");
    out.drains = u64("drains");
    out.points = u64("points");
    out.evaluated = u64("evaluated");
    out.memoHits = u64("memo_hits");
    out.memoEntries = u64("memo_entries");
    out.memoBytes = u64("memo_bytes");
    out.memoEvictions = u64("memo_evictions");
    out.trajectoryJobs = u64("trajectory_jobs");
    out.evaluatorHits = u64("evaluator_hits");
    out.evaluatorMisses = u64("evaluator_misses");
    out.artifacts.hits = u64("artifact_hits");
    out.artifacts.misses = u64("artifact_misses");
    out.artifacts.graphs = u64("graphs");
    out.store.warmHits = u64("store_warm_hits");
    out.store.coldMisses = u64("store_cold_misses");
    out.store.records = u64("store_records");
    out.store.appends = u64("store_appends");
    out.store.recoveredDrops = u64("store_recovered_drops");
    return out;
}

EngineStats
EvalEngine::stats() const
{
    EngineStats out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = stats_;
        out.memoBytes = memoBytes_;
        for (const auto &[key, entry] : evaluators_)
            out.memoEntries += entry.memo.size();
    }
    out.artifacts = cache_.stats();
    if (store_)
        out.store = store_->stats();
    return out;
}

} // namespace redqaoa
