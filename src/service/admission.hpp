/**
 * @file
 * The one admission queue behind both serving fronts, and the record
 * a front keeps per admitted request. ServiceServer runs one FIFO per
 * engine shard with one executor each; WorkerFleetService runs one
 * FIFO per worker lane with a pool of forwarders each.
 *
 * Accounting contract: `admitted` is counted inside push, under the
 * lock that makes the item visible to a consumer, so no consumer runs
 * an item its counts do not include yet (a `stats` request counts
 * itself). A front marks every admitted item answered BEFORE invoking
 * its callback, so a client holding all its answers reads in_flight 0.
 */

#ifndef REDQAOA_SERVICE_ADMISSION_HPP
#define REDQAOA_SERVICE_ADMISSION_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "service/protocol.hpp"

namespace redqaoa {
namespace service {

/**
 * Receives exactly one response line per submitted request. Invoked
 * from a consumer thread (or inline from submitLine for immediate
 * rejections); must not block and must not call back into the server.
 */
using ResponseCallback = std::function<void(std::string)>;

/** One admitted request, as a front keeps it until its answer. */
struct Admission
{
    using Clock = std::chrono::steady_clock;

    /**
     * Stamp @p req's arrival now and its deadline from deadline_ms; a
     * traced request gets a recorder that starts ticking here, under
     * the caller's trace id or a freshly minted one.
     */
    Admission(const Request &req, ResponseCallback callback)
        : id(req.id), schemaVersion(req.schemaVersion),
          done(std::move(callback))
    {
        if (req.deadlineMs > 0.0)
            deadline = arrival +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               req.deadlineMs));
        if (req.trace)
            trace = std::make_shared<obs::TraceRecorder>(
                req.traceId.empty() ? obs::mintTraceId() : req.traceId);
    }

    /** True once the request's deadline_ms has lapsed. */
    bool expired() const { return Clock::now() > deadline; }

    /** The error line answering this request with @p e. */
    std::string error(const ServiceError &e, const RouteInfo &route) const
    {
        return makeErrorLine(id, e.code(), e.what(), schemaVersion, &route);
    }

    json::Value id;
    int schemaVersion = kSchemaVersion;
    ResponseCallback done;
    Clock::time_point arrival = Clock::now();
    Clock::time_point deadline = Clock::time_point::max(); //!< max: none.
    /** Non-null for traced requests; finished when the answer is built. */
    std::shared_ptr<obs::TraceRecorder> trace;
};

/** AdmissionQueue::push's verdict. */
enum class AdmitVerdict
{
    Queued, //!< Admitted; a consumer will handle it.
    Full,   //!< The FIFO holds its capacity already (`overloaded`).
    Closed, //!< close() was called (`shutting_down`).
};

/** One consistent snapshot of an AdmissionQueue's counters. */
struct AdmissionCounts
{
    std::uint64_t admitted = 0; //!< Pushes that were queued.
    std::uint64_t dequeued = 0; //!< Handed to a consumer, drained too.
    std::uint64_t inFlight = 0; //!< Admitted, not yet marked answered.
    bool closed = false;
    std::vector<std::size_t> depths;    //!< Per FIFO: waiting items.
    std::vector<std::size_t> consumers; //!< Per FIFO: consumer threads.
    std::vector<std::size_t> busy;      //!< Per FIFO: items in hand.
};

template <typename Item>
class AdmissionQueue
{
  public:
    /**
     * @p fifos FIFOs of @p capacity items each; refusals read
     * "<fifo_name> <i> full (<capacity> pending requests); retry later"
     * and @p closed_message. No consumer runs before start().
     */
    AdmissionQueue(std::size_t fifos, std::size_t capacity,
                   std::string fifo_name, std::string closed_message)
        : fifos_(fifos), capacity_(capacity),
          fifoName_(std::move(fifo_name)),
          closedMessage_(std::move(closed_message))
    {}

    ~AdmissionQueue() { stop(); }

    AdmissionQueue(const AdmissionQueue &) = delete;
    AdmissionQueue &operator=(const AdmissionQueue &) = delete;

    /**
     * Start consumers[i] threads on FIFO i (call once). Each thread
     * calls make_consumer(i) and hands every item it pops to the
     * returned callable as (Item &, bool draining) — what it captures
     * is that thread's own state. Items still queued at close() are
     * handed over with draining set: answer them shutting_down.
     */
    template <typename MakeConsumer>
    void start(const std::vector<std::size_t> &consumers,
               MakeConsumer make_consumer)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (std::size_t i = 0; i < fifos_.size(); ++i)
                fifos_[i].consumers = consumers.at(i);
        }
        for (std::size_t i = 0; i < fifos_.size(); ++i)
            for (std::size_t k = 0; k < consumers[i]; ++k)
                threads_.emplace_back([this, i, make_consumer] {
                    auto consume = make_consumer(i);
                    run(i, consume);
                });
    }

    /** Queue @p item without blocking; moved from only when Queued
     *  (otherwise answer it with refusal(verdict, fifo)). */
    AdmitVerdict push(std::size_t fifo, Item &&item)
    {
        Fifo &target = fifos_.at(fifo);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return AdmitVerdict::Closed;
            if (target.items.size() >= capacity_)
                return AdmitVerdict::Full;
            target.items.push_back(std::move(item));
            ++admitted_;
        }
        target.wake.notify_one();
        return AdmitVerdict::Queued;
    }

    /** The typed error a Full/Closed verdict or a drained item gets. */
    ServiceError refusal(AdmitVerdict verdict, std::size_t fifo) const
    {
        if (verdict == AdmitVerdict::Full)
            return ServiceError(ServiceErrorCode::Overloaded,
                                fifoName_ + " " + std::to_string(fifo) +
                                    " full (" + std::to_string(capacity_) +
                                    " pending requests); retry later");
        return ServiceError(ServiceErrorCode::ShuttingDown, closedMessage_);
    }

    /** One admitted item was answered; call BEFORE its callback. */
    void markAnswered()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++answered_;
    }

    /** Refuse further pushes; consumers drain what is queued, then
     *  exit. Never joins, so a consumer (`shutdown`) may call it. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        closedWake_.notify_all();
        for (Fifo &fifo : fifos_)
            fifo.wake.notify_all();
    }

    /** close(), then join every consumer. Idempotent. */
    void stop()
    {
        close();
        std::lock_guard<std::mutex> lock(joinMutex_);
        for (std::thread &thread : threads_)
            if (thread.joinable())
                thread.join();
    }

    bool closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /** Block until closed, at most @p seconds (<= 0: just poll). */
    bool waitClosedFor(double seconds)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (seconds <= 0.0)
            return closed_;
        return closedWake_.wait_for(lock,
                                    std::chrono::duration<double>(seconds),
                                    [&] { return closed_; });
    }

    AdmissionCounts counts() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        AdmissionCounts out;
        out.admitted = admitted_;
        out.dequeued = dequeued_;
        out.inFlight = admitted_ - answered_;
        out.closed = closed_;
        for (const Fifo &fifo : fifos_) {
            out.depths.push_back(fifo.items.size());
            out.consumers.push_back(fifo.consumers);
            out.busy.push_back(fifo.busy);
        }
        return out;
    }

  private:
    struct Fifo
    {
        std::deque<Item> items;
        std::condition_variable wake; //!< Waits on mutex_.
        std::size_t consumers = 0;
        std::size_t busy = 0;
    };

    template <typename Consume>
    void run(std::size_t index, Consume &consume)
    {
        Fifo &fifo = fifos_[index];
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            fifo.wake.wait(lock,
                           [&] { return closed_ || !fifo.items.empty(); });
            if (fifo.items.empty())
                return; // Closed and drained.
            Item item = std::move(fifo.items.front());
            fifo.items.pop_front();
            ++dequeued_;
            ++fifo.busy;
            const bool draining = closed_;
            lock.unlock();
            consume(item, draining);
            lock.lock();
            --fifo.busy;
        }
    }

    mutable std::mutex mutex_; //!< Guards all below but threads_.
    std::condition_variable closedWake_; //!< waitClosedFor waiters.
    std::vector<Fifo> fifos_;
    const std::size_t capacity_;
    const std::string fifoName_;
    const std::string closedMessage_;
    std::uint64_t admitted_ = 0;
    std::uint64_t dequeued_ = 0;
    std::uint64_t answered_ = 0;
    bool closed_ = false;

    std::mutex joinMutex_; //!< Serializes stop() callers.
    std::vector<std::thread> threads_; //!< Written by start() only.
};

} // namespace service
} // namespace redqaoa

#endif // REDQAOA_SERVICE_ADMISSION_HPP
