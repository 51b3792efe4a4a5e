#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>

namespace redqaoa {

namespace {

/**
 * Set while the current thread executes chunks (worker or participating
 * caller, or an inline run); nested forRange calls then run inline
 * instead of deadlocking on the submit lock.
 */
thread_local bool t_running_chunks = false;

struct ChunkScope
{
    bool prev;
    ChunkScope() : prev(t_running_chunks) { t_running_chunks = true; }
    ~ChunkScope() { t_running_chunks = prev; }
};

std::mutex g_global_mutex;

std::unique_ptr<ThreadPool> &
globalSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

/**
 * Cached size of the global pool (0 = not created yet). The statevector
 * kernels consult the thread count on every call, so reads must not
 * take the global mutex.
 */
std::atomic<int> g_global_threads{0};

} // namespace

struct ThreadPool::Job
{
    std::size_t n = 0;
    std::size_t chunkSize = 1;
    const std::function<void(std::size_t, std::size_t)> *fn = nullptr;
    std::atomic<std::size_t> nextChunk{0};
    int inFlight = 0; //!< Workers currently running chunks (pool mutex).
    std::mutex errMutex;
    std::exception_ptr error;
    std::size_t errorChunk = std::numeric_limits<std::size_t>::max();

    bool
    hasChunksLeft() const
    {
        return nextChunk.load(std::memory_order_relaxed) * chunkSize < n;
    }
};

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads))
{
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int t = 0; t + 1 < threads_; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::runChunks(Job &job)
{
    ChunkScope scope;
    for (;;) {
        std::size_t ci = job.nextChunk.fetch_add(1);
        std::size_t begin = ci * job.chunkSize;
        if (begin >= job.n)
            return;
        std::size_t end = std::min(job.n, begin + job.chunkSize);
        try {
            (*job.fn)(begin, end);
        } catch (...) {
            // Keep the error of the lowest chunk index so the exception
            // surfaced to the caller is scheduling-independent.
            std::lock_guard<std::mutex> lock(job.errMutex);
            if (ci < job.errorChunk) {
                job.errorChunk = ci;
                job.error = std::current_exception();
            }
        }
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] {
            return stop_ || (job_ != nullptr && job_->hasChunksLeft());
        });
        if (stop_)
            return;
        Job &job = *job_;
        ++job.inFlight;
        lock.unlock();
        runChunks(job);
        lock.lock();
        --job.inFlight;
        if (job.inFlight == 0)
            done_.notify_all();
    }
}

void
ThreadPool::forRange(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)> &chunk,
    std::size_t grain)
{
    if (n == 0)
        return;
    grain = std::max<std::size_t>(1, grain);
    // One chunk runs here outside any chunk scope, so parallel code
    // inside it can still use the pool.
    if (n <= grain) {
        chunk(0, n);
        return;
    }
    if (threads_ == 1 || t_running_chunks) {
        ChunkScope scope;
        chunk(0, n);
        return;
    }

    Job job;
    job.n = n;
    // ~4 chunks per thread balances load without shrinking chunks so far
    // that the atomic claim shows up next to real work.
    std::size_t target = 4 * static_cast<std::size_t>(threads_);
    job.chunkSize = std::max(grain, (n + target - 1) / target);
    job.fn = &chunk;

    // While another caller's job holds the pool, run chunks here one at
    // a time instead of waiting for it, and hand what is left to the
    // pool as soon as it is free.
    std::unique_lock<std::mutex> submit(submitMutex_, std::defer_lock);
    std::size_t next = 0;
    while (!submit.try_lock()) {
        ChunkScope scope;
        const std::size_t begin = next * job.chunkSize;
        chunk(begin, std::min(n, begin + job.chunkSize));
        if (begin + job.chunkSize >= n)
            return;
        ++next;
    }
    job.nextChunk.store(next, std::memory_order_relaxed);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &job;
    }
    wake_.notify_all();
    runChunks(job);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&job] { return job.inFlight == 0; });
        job_ = nullptr;
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    auto &slot = globalSlot();
    if (!slot) {
        slot = std::make_unique<ThreadPool>(defaultThreads());
        g_global_threads.store(slot->threadCount(),
                               std::memory_order_relaxed);
    }
    return *slot;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    auto pool = std::make_unique<ThreadPool>(std::max(1, threads));
    std::lock_guard<std::mutex> lock(g_global_mutex);
    globalSlot() = std::move(pool);
    g_global_threads.store(globalSlot()->threadCount(),
                           std::memory_order_relaxed);
}

int
ThreadPool::globalThreadCount()
{
    int cached = g_global_threads.load(std::memory_order_relaxed);
    if (cached != 0)
        return cached;
    return global().threadCount();
}

int
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("REDQAOA_THREADS")) {
        int t = std::atoi(env);
        if (t >= 1)
            return t;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
            std::size_t grain)
{
    ThreadPool::global().forRange(
        n,
        [&body](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                body(i);
        },
        grain);
}

void
parallelForChunks(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)> &chunk,
                  std::size_t grain)
{
    ThreadPool::global().forRange(n, chunk, grain);
}

} // namespace redqaoa
