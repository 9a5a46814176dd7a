#include "pipetune/sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace pipetune::sched {
namespace {

using namespace std::chrono_literals;

// Spin until `id` has left the queue and occupies a worker slot.
void wait_until_running(const ClusterScheduler& scheduler, std::uint64_t id) {
    while (scheduler.state(id) == JobState::kQueued) std::this_thread::sleep_for(1ms);
    ASSERT_EQ(scheduler.state(id), JobState::kRunning);
}

TEST(ClusterScheduler, RunsJobsToCompletion) {
    ClusterScheduler scheduler({.worker_slots = 2, .queue_capacity = 8});
    std::atomic<int> ran{0};
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
        auto ticket = scheduler.submit([&](JobContext&) { ran.fetch_add(1); });
        ASSERT_TRUE(ticket.has_value());
        ids.push_back(ticket->id);
    }
    scheduler.drain();
    EXPECT_EQ(ran.load(), 6);
    for (const auto id : ids) EXPECT_EQ(scheduler.state(id), JobState::kCompleted);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 6u);
    EXPECT_EQ(stats.completed, 6u);
    EXPECT_EQ(stats.running, 0u);
    EXPECT_EQ(stats.queued, 0u);
}

TEST(ClusterScheduler, LifecycleTimestampsAreOrdered) {
    ClusterScheduler scheduler({.worker_slots = 1});
    auto ticket = scheduler.submit([](JobContext&) { std::this_thread::sleep_for(5ms); },
                                   {.label = "job-a"});
    ASSERT_TRUE(ticket);
    ASSERT_TRUE(scheduler.wait(ticket->id, 5.0));
    const auto info = scheduler.info(ticket->id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->label, "job-a");
    EXPECT_LE(info->submit_s, info->start_s);
    EXPECT_LT(info->start_s, info->finish_s);
}

TEST(ClusterScheduler, FailedJobCarriesError) {
    ClusterScheduler scheduler({.worker_slots = 1});
    auto ticket = scheduler.submit(
        [](JobContext&) { throw std::runtime_error("simulated job failure"); });
    ASSERT_TRUE(ticket);
    ASSERT_TRUE(scheduler.wait(ticket->id, 5.0));
    EXPECT_EQ(scheduler.state(ticket->id), JobState::kFailed);
    EXPECT_EQ(scheduler.info(ticket->id)->error, "simulated job failure");
    EXPECT_EQ(scheduler.stats().failed, 1u);
}

TEST(ClusterScheduler, CancelQueuedJobNeverRuns) {
    ClusterScheduler scheduler({.worker_slots = 1, .queue_capacity = 8});
    std::atomic<bool> release{false};
    std::atomic<bool> victim_ran{false};
    // Occupy the only slot so the victim stays queued.
    auto blocker = scheduler.submit([&](JobContext& ctx) {
        while (!release.load() && !ctx.cancel_requested()) std::this_thread::sleep_for(1ms);
    });
    ASSERT_TRUE(blocker);
    wait_until_running(scheduler, blocker->id);
    auto victim = scheduler.submit([&](JobContext&) { victim_ran.store(true); });
    ASSERT_TRUE(victim);

    // cancel() while queued discards immediately.
    EXPECT_TRUE(scheduler.cancel(victim->id));
    EXPECT_EQ(scheduler.state(victim->id), JobState::kCancelled);
    release.store(true);
    scheduler.drain();
    EXPECT_FALSE(victim_ran.load());
    EXPECT_EQ(scheduler.stats().cancelled, 1u);
}

TEST(ClusterScheduler, DiscardCallbackFiresForQueuedCancel) {
    ClusterScheduler scheduler({.worker_slots = 1});
    std::atomic<bool> release{false};
    auto blocker = scheduler.submit([&](JobContext& ctx) {
        while (!release.load() && !ctx.cancel_requested()) std::this_thread::sleep_for(1ms);
    });
    ASSERT_TRUE(blocker);
    wait_until_running(scheduler, blocker->id);
    std::atomic<bool> discard_fired{false};
    auto victim = scheduler.submit([](JobContext&) {}, {},
                                   [&](const JobInfo& info, std::exception_ptr failure) {
                                       EXPECT_EQ(info.state, JobState::kCancelled);
                                       EXPECT_EQ(failure, nullptr);
                                       discard_fired.store(true);
                                   });
    ASSERT_TRUE(victim);
    EXPECT_TRUE(scheduler.cancel(victim->id));
    EXPECT_TRUE(discard_fired.load());
    release.store(true);
    scheduler.drain();
}

TEST(ClusterScheduler, RunningJobCancelsCooperatively) {
    ClusterScheduler scheduler({.worker_slots = 1});
    std::atomic<bool> started{false};
    auto ticket = scheduler.submit([&](JobContext& ctx) {
        started.store(true);
        while (!ctx.cancel_requested()) std::this_thread::sleep_for(1ms);
    });
    ASSERT_TRUE(ticket);
    while (!started.load()) std::this_thread::sleep_for(1ms);
    EXPECT_EQ(scheduler.state(ticket->id), JobState::kRunning);
    EXPECT_TRUE(scheduler.cancel(ticket->id));
    ASSERT_TRUE(scheduler.wait(ticket->id, 5.0));
    EXPECT_EQ(scheduler.state(ticket->id), JobState::kCancelled);
}

TEST(ClusterScheduler, QueueDeadlineShedsStaleJobs) {
    ClusterScheduler scheduler({.worker_slots = 1});
    std::atomic<bool> release{false};
    auto blocker = scheduler.submit([&](JobContext& ctx) {
        while (!release.load() && !ctx.cancel_requested()) std::this_thread::sleep_for(1ms);
    });
    ASSERT_TRUE(blocker);
    wait_until_running(scheduler, blocker->id);
    std::atomic<bool> stale_ran{false};
    // 1 ms budget; the blocker holds the slot much longer.
    auto stale = scheduler.submit([&](JobContext&) { stale_ran.store(true); },
                                  {.deadline_s = 0.001});
    ASSERT_TRUE(stale);
    std::this_thread::sleep_for(20ms);
    release.store(true);
    scheduler.drain();
    EXPECT_EQ(scheduler.state(stale->id), JobState::kTimedOut);
    EXPECT_FALSE(stale_ran.load());
    EXPECT_EQ(scheduler.stats().timed_out, 1u);
}

TEST(ClusterScheduler, HighPriorityOvertakesQueuedBatchWork) {
    ClusterScheduler scheduler({.worker_slots = 1});
    std::atomic<bool> release{false};
    std::vector<int> order;
    std::mutex order_mutex;
    auto record = [&](int tag) {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(tag);
    };
    auto blocker = scheduler.submit([&](JobContext& ctx) {
        while (!release.load() && !ctx.cancel_requested()) std::this_thread::sleep_for(1ms);
    });
    ASSERT_TRUE(blocker);
    wait_until_running(scheduler, blocker->id);
    // Both queued behind the blocker: batch first, high second.
    ASSERT_TRUE(scheduler.submit([&](JobContext&) { record(1); }, {.priority = Priority::kBatch}));
    ASSERT_TRUE(scheduler.submit([&](JobContext&) { record(2); }, {.priority = Priority::kHigh}));
    release.store(true);
    scheduler.drain();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(ClusterScheduler, RejectOverflowShedsAtSubmit) {
    ClusterScheduler scheduler(
        {.worker_slots = 1, .queue_capacity = 1, .overflow = OverflowPolicy::kReject});
    std::atomic<bool> release{false};
    auto blocker = scheduler.submit([&](JobContext& ctx) {
        while (!release.load() && !ctx.cancel_requested()) std::this_thread::sleep_for(1ms);
    });
    ASSERT_TRUE(blocker);
    wait_until_running(scheduler, blocker->id);
    auto queued = scheduler.submit([](JobContext&) {});
    ASSERT_TRUE(queued);
    // Slot busy + queue full -> shed.
    const auto shed = scheduler.submit([](JobContext&) {});
    EXPECT_FALSE(shed.has_value());
    release.store(true);
    scheduler.drain();
    EXPECT_EQ(scheduler.stats().submitted, 2u);
}

TEST(ClusterScheduler, TraceFeedsSummarizeTrace) {
    ClusterScheduler scheduler({.worker_slots = 2});
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(scheduler.submit([](JobContext&) { std::this_thread::sleep_for(2ms); },
                                     {.label = "w" + std::to_string(i)}));
    }
    scheduler.drain();
    const auto records = scheduler.trace();
    ASSERT_EQ(records.size(), 5u);
    const auto stats = cluster::summarize_trace(records, scheduler.config().worker_slots);
    EXPECT_GT(stats.mean_response_s, 0.0);
    EXPECT_GT(stats.p50_response_s, 0.0);
    EXPECT_LE(stats.p50_response_s, stats.p95_response_s + 1e-12);
    EXPECT_GT(stats.makespan_s, 0.0);
}

TEST(ClusterScheduler, ShutdownWithoutDrainDiscardsQueuedJobs) {
    ClusterScheduler scheduler({.worker_slots = 1, .queue_capacity = 16});
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    auto blocker = scheduler.submit([&](JobContext& ctx) {
        while (!release.load() && !ctx.cancel_requested()) std::this_thread::sleep_for(1ms);
        ran.fetch_add(1);
    });
    ASSERT_TRUE(blocker);
    wait_until_running(scheduler, blocker->id);
    std::vector<std::uint64_t> queued;
    for (int i = 0; i < 4; ++i) {
        auto t = scheduler.submit([&](JobContext&) { ran.fetch_add(1); });
        ASSERT_TRUE(t);
        queued.push_back(t->id);
    }
    std::thread releaser([&] {
        std::this_thread::sleep_for(10ms);
        release.store(true);
    });
    scheduler.shutdown(/*drain_queue=*/false);
    releaser.join();
    EXPECT_EQ(ran.load(), 1);  // only the running job finished
    for (const auto id : queued) EXPECT_EQ(scheduler.state(id), JobState::kCancelled);
    // Submitting after shutdown is refused, not fatal.
    EXPECT_FALSE(scheduler.submit([](JobContext&) {}).has_value());
}

}  // namespace
}  // namespace pipetune::sched
