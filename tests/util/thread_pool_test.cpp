#include "pipetune/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace pipetune::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
    ThreadPool pool(4);
    auto f = pool.submit([] { return 21 * 2; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SizeClampedToAtLeastOne) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, FuturesFromMultipleSubmits) {
    ThreadPool pool(2);
    std::vector<std::future<std::size_t>> futures;
    for (std::size_t i = 0; i < 20; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ShutdownDrainRunsEveryQueuedTask) {
    ThreadPool pool(1);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.submit([&] { ran.fetch_add(1); }));
    pool.shutdown(/*drain=*/true);
    EXPECT_EQ(ran.load(), 8);
    for (auto& f : futures) EXPECT_NO_THROW(f.get());
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
    pool.shutdown();  // idempotent
}

TEST(ThreadPool, ShutdownWithoutDrainDiscardsQueuedTasks) {
    ThreadPool pool(1);
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    auto running = pool.submit([&] {
        started.store(true);
        while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
    });
    // Make sure the worker holds this task before we queue the victims;
    // otherwise shutdown(false) could discard all six.
    while (!started.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::vector<std::future<void>> queued;
    for (int i = 0; i < 5; ++i)
        queued.push_back(pool.submit([&] { ran.fetch_add(1); }));
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        release.store(true);
    });
    pool.shutdown(/*drain=*/false);
    releaser.join();
    EXPECT_EQ(ran.load(), 1);  // only the in-flight task completed
    EXPECT_NO_THROW(running.get());
    for (auto& f : queued) EXPECT_THROW(f.get(), std::future_error);
}

}  // namespace
}  // namespace pipetune::util
