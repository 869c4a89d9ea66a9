/**
 * @file
 * Unit tests for common::ThreadPool: submit/wait semantics, result
 * and exception propagation through futures, nested submission (the
 * pattern the experiment executor relies on) and drain-on-destroy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.hh"

namespace pmodv::common
{
namespace
{

TEST(ThreadPool, SubmitReturnsResultsThroughFutures)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), ThreadPool::defaultThreads());
    EXPECT_GE(pool.size(), 1u);
    EXPECT_LE(pool.size(), ThreadPool::kMaxThreads);
}

TEST(ThreadPoolDeathTest, OversizedPoolIsRejectedBeforeAnyWorkerStarts)
{
    // The bound check fires in the constructor before the first
    // worker is spawned, so this starts no thread at all.
    EXPECT_EXIT(
        { ThreadPool pool(ThreadPool::kMaxThreads + 1); },
        ::testing::ExitedWithCode(1), "at most 1024");
}

TEST(ThreadPool, WaitBlocksUntilAllTasksFinished)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 32; ++i)
        pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 32);
    // wait() on an idle pool returns immediately.
    pool.wait();
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    auto good = pool.submit([] { return 7; });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(good.get(), 7);
    EXPECT_EQ(pool.submit([] { return 8; }).get(), 8);
}

TEST(ThreadPool, TasksMaySubmitContinuations)
{
    // The executor's capture→replay pattern: a task enqueues further
    // tasks and returns without blocking on them. Must work even with
    // a single worker.
    ThreadPool pool(1);
    std::atomic<int> replays{0};
    auto capture = pool.submit([&] {
        for (int i = 0; i < 8; ++i)
            pool.submit([&replays] { ++replays; });
    });
    capture.get();
    pool.wait();
    EXPECT_EQ(replays.load(), 8);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 16; ++i)
            pool.submit([&done] { ++done; });
        // No wait: destruction must still run everything submitted.
    }
    EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, ManyProducersOneQueue)
{
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&pool, &sum, p] {
            for (int i = 0; i < 100; ++i) {
                pool.submit([&sum, p, i] {
                    sum += static_cast<std::uint64_t>(p * 1000 + i);
                });
            }
        });
    }
    for (auto &t : producers)
        t.join();
    pool.wait();
    std::uint64_t expect = 0;
    for (int p = 0; p < 4; ++p) {
        for (int i = 0; i < 100; ++i)
            expect += static_cast<std::uint64_t>(p * 1000 + i);
    }
    EXPECT_EQ(sum.load(), expect);
}

} // namespace
} // namespace pmodv::common
