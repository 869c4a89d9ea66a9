#include "common/thread_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pmodv::common
{

unsigned
ThreadPool::defaultThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u,
                      kMaxThreads);
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads > kMaxThreads)
        fatal("cannot start %u worker threads (at most %u)", threads,
              kMaxThreads);
    if (threads == 0)
        threads = defaultThreads();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
            // Drain the queue even when stopping: a destructed pool
            // still runs everything that was submitted.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // packaged_task: exceptions land in the future.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--unfinished_ == 0)
                idleCv_.notify_all();
        }
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] { return unfinished_ == 0; });
}

} // namespace pmodv::common
