/**
 * @file
 * Fixed-size worker thread pool behind the parallel experiment engine.
 *
 * Tasks are executed in FIFO submission order (a single-threaded pool
 * is therefore a plain deferred executor), exceptions propagate to the
 * caller through the returned futures, and destruction drains every
 * already-submitted task before joining — submitted work is never
 * dropped.
 */

#ifndef FOOTPRINT_EXEC_THREAD_POOL_HPP
#define FOOTPRINT_EXEC_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace footprint {

class ThreadPool
{
  public:
    /**
     * Start @p threads workers; @p threads == 0 uses the hardware
     * concurrency (at least 1).
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains the queue, then stops and joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Enqueue @p fn and return a future for its result. An exception
     * thrown by @p fn is captured and rethrown by future::get().
     */
    template <typename Fn>
    std::future<std::invoke_result_t<Fn>>
    submit(Fn&& fn)
    {
        using R = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> result = task->get_future();
        post([task]() { (*task)(); });
        return result;
    }

    /** Enqueue fire-and-forget work (FIFO with submit()). */
    void post(std::function<void()> fn);

    /**
     * Run fn(begin, end) over every chunk of [0, n) and return when
     * all chunks are done. Chunking is static: the range is split into
     * @p chunks near-equal contiguous pieces (0 = one per worker plus
     * one for the caller, the default); pass chunks == n for
     * item-granularity chunks that the FIFO queue balances
     * dynamically. The calling thread executes chunk 0 itself, so a
     * pool of W workers runs up to W + 1 chunks concurrently.
     *
     * Exceptions thrown by @p fn are captured per chunk; the first (in
     * chunk order) is rethrown after every chunk has finished.
     *
     * Calls must not overlap on one pool: the chunk countdown is pool
     * state (it must outlive the call's stack frame — the last
     * worker's wakeup notification can land after the caller has
     * already observed completion and returned).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t chunks = 0);

    /** Hardware concurrency, clamped to at least 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    /** parallelFor's chunk countdown; see that method's lifetime note. */
    std::atomic<std::size_t> forRemaining_{0};
};

} // namespace footprint

#endif // FOOTPRINT_EXEC_THREAD_POOL_HPP
