/**
 * @file
 * A fixed-size thread pool with a single locked FIFO queue — no work
 * stealing, no per-thread deques. Tasks are type-erased
 * `std::packaged_task`s, so exceptions thrown inside a task are
 * captured into the future `submit()` returned and rethrown at
 * `future::get()`.
 *
 * Rules of use (what keeps the pool deadlock-free):
 *  - A task may `submit()` further tasks (continuation style), but it
 *    must never *block* on another task's future. The experiment
 *    executor follows this rule: capture tasks enqueue replay tasks
 *    and return; only the coordinating (non-worker) thread waits.
 *  - `wait()` blocks the calling thread until the queue is drained
 *    and every running task has finished; it must not be called from
 *    a worker.
 */

#ifndef PMODV_COMMON_THREAD_POOL_HH
#define PMODV_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pmodv::common
{

/** A fixed-size FIFO thread pool (see file comment for usage rules). */
class ThreadPool
{
  public:
    /** Most workers one pool may spawn. */
    static constexpr unsigned kMaxThreads = 1024;

    /**
     * Spawn @p threads workers; 0 means defaultThreads() (the
     * hardware concurrency, never less than one). More than
     * kMaxThreads is a fatal error, raised before any worker starts.
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * What `threads == 0` resolves to: the hardware concurrency,
     * clamped to [1, kMaxThreads].
     */
    static unsigned defaultThreads();

    /**
     * Enqueue @p fn for execution on a worker; returns the future of
     * its result. An exception escaping @p fn is stored in the
     * future.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using Result = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(fn));
        std::future<Result> future = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace_back([task] { (*task)(); });
            ++unfinished_;
        }
        workCv_.notify_one();
        return future;
    }

    /**
     * Block until every submitted task — including tasks submitted
     * by other tasks meanwhile — has finished.
     */
    void wait();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable workCv_; ///< Signals queued work / stop.
    std::condition_variable idleCv_; ///< Signals the pool drained.
    std::size_t unfinished_ = 0;     ///< Queued + currently running.
    bool stopping_ = false;
};

} // namespace pmodv::common

#endif // PMODV_COMMON_THREAD_POOL_HH
