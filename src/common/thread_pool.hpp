/**
 * @file
 * Fork-join thread pool and the parallelFor() primitives built on it.
 *
 * Every embarrassingly parallel surface in Red-QAOA (landscape grids,
 * noise trajectories, per-edge light cones, SA candidate batches) funnels
 * through here. Design rules that keep results reproducible:
 *  - callers write one output slot per index (or per fixed chunk) and
 *    reduce serially in index order, so values are independent of the
 *    thread count and of scheduling;
 *  - random streams are pre-split serially with Rng::splitN before the
 *    fan-out, so noisy results are identical at any thread count;
 *  - with 1 thread the body runs inline on the calling thread as a
 *    single chunk, which makes the threads=1 path bit-identical to a
 *    plain serial loop;
 *  - code that picks a reduction shape reads globalThreadCount(), never
 *    which thread runs its chunks, because a call can run inline (a
 *    nested call, or one that finds the pool busy with another
 *    caller's job).
 *
 * The pool size defaults to the REDQAOA_THREADS environment variable,
 * falling back to std::thread::hardware_concurrency().
 */

#ifndef REDQAOA_COMMON_THREAD_POOL_HPP
#define REDQAOA_COMMON_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace redqaoa {

/**
 * Fixed-size chunked fork-join pool. A pool of size T spawns T - 1
 * worker threads; the caller of forRange participates as the T-th
 * runner, so a size-1 pool never leaves the calling thread.
 */
class ThreadPool
{
  public:
    /** @param threads total concurrency, including the calling thread. */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return threads_; }

    /**
     * Partition [0, n) into chunks of at least @p grain indices and run
     * @p chunk(begin, end) over them on the pool. Blocks until every
     * chunk finished. The first exception (lowest chunk index) thrown
     * by @p chunk is rethrown here after the join. Nested calls from
     * inside a chunk body run inline on the current thread, so code
     * that is parallel at one level can safely call parallel code.
     * A busy pool runs the call inline too: while another caller's job
     * holds the pool, this call does not wait for it to end but runs
     * its chunks on the calling thread one at a time, and hands the
     * chunks left to the pool once that job is done. With one thread
     * the whole range is likewise executed as a single inline
     * chunk(0, n). A range that fits one chunk (n <= grain) runs as
     * chunk(0, n) on the calling thread without counting as a chunk
     * body, so parallel calls inside it may still use the pool. By the
     * design rules above, inline and pooled runs give the same values.
     */
    void forRange(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)> &chunk,
                  std::size_t grain = 1);

    /**
     * Process-wide pool used by parallelFor. Created on first use with
     * defaultThreads() threads.
     */
    static ThreadPool &global();

    /**
     * Replace the global pool (1 <= threads). Not safe to call while
     * parallel work is in flight; intended for tests and program setup.
     */
    static void setGlobalThreads(int threads);

    /**
     * Thread count of the global pool (creating it on first use).
     * Served from a cached atomic, so hot kernels may call this per
     * invocation without touching the pool mutex.
     */
    static int globalThreadCount();

    /** REDQAOA_THREADS if set (clamped to >= 1), else hardware threads. */
    static int defaultThreads();

  private:
    struct Job;

    void workerLoop();
    static void runChunks(Job &job);

    int threads_;
    std::vector<std::thread> workers_;
    std::mutex mutex_;              //!< Guards job_ / stop_ / inFlight.
    std::mutex submitMutex_;        //!< Held by the job that owns the pool.
    std::condition_variable wake_;  //!< Workers wait here for a job.
    std::condition_variable done_;  //!< Caller waits here for the join.
    Job *job_ = nullptr;
    bool stop_ = false;
};

/** body(i) for every i in [0, n) on the global pool. */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
                 std::size_t grain = 1);

/** chunk(begin, end) over a partition of [0, n) on the global pool. */
void parallelForChunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)> &chunk,
    std::size_t grain = 1);

} // namespace redqaoa

#endif // REDQAOA_COMMON_THREAD_POOL_HPP
