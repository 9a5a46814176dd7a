// Scheduler-level retry tests (DESIGN.md §10): a job that dies of an
// ft::TransientFailure is requeued under its ORIGINAL id at the front of its
// priority class; anything else is terminal and lands in the DoneFn.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>

#include "pipetune/ft/errors.hpp"
#include "pipetune/sched/scheduler.hpp"

namespace pipetune::sched {
namespace {

SchedulerConfig retrying_config(std::size_t max_retries, std::size_t workers = 1) {
    SchedulerConfig config;
    config.worker_slots = workers;
    config.queue_capacity = 8;
    config.retry.max_retries = max_retries;
    config.retry.initial_backoff_s = 0.001;
    config.retry.max_backoff_s = 0.002;
    return config;
}

TEST(SchedulerRetry, TransientFailureIsRequeuedUntilSuccess) {
    ClusterScheduler scheduler(retrying_config(3));
    std::atomic<int> attempts{0};
    // The DoneFn fires once for the job, not once per attempt: set_value
    // throws on a second call.
    std::promise<JobState> done;
    auto done_future = done.get_future();
    auto ticket = scheduler.submit(
        [&](JobContext&) {
            if (attempts.fetch_add(1) < 2) throw ft::TransientFailure("flaky");
        },
        {},
        [&](const JobInfo& info, std::exception_ptr failure) {
            EXPECT_EQ(failure, nullptr);
            done.set_value(info.state);
        });
    ASSERT_TRUE(ticket);
    ASSERT_EQ(done_future.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    EXPECT_EQ(done_future.get(), JobState::kCompleted);
    ASSERT_TRUE(scheduler.wait(ticket->id, 10.0));
    EXPECT_EQ(scheduler.state(ticket->id), JobState::kCompleted);
    EXPECT_EQ(attempts.load(), 3);
    const auto info = scheduler.info(ticket->id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->attempts, 3u);
    EXPECT_EQ(scheduler.stats().requeued, 2u);
    EXPECT_EQ(scheduler.stats().completed, 1u);
    EXPECT_EQ(scheduler.stats().failed, 0u);
}

TEST(SchedulerRetry, ExhaustedRetriesDeliverTheFailure) {
    ClusterScheduler scheduler(retrying_config(1));
    std::atomic<int> attempts{0};
    // wait() observes the terminal state, which the scheduler publishes
    // BEFORE delivering the DoneFn — so the test must synchronize on the
    // callback itself, not on wait() returning.
    std::promise<std::string> delivered;
    auto delivered_future = delivered.get_future();
    auto ticket = scheduler.submit(
        [&](JobContext&) {
            attempts.fetch_add(1);
            throw ft::TransientFailure("still flaky");
        },
        {},
        [&](const JobInfo& info, std::exception_ptr failure) {
            EXPECT_EQ(info.state, JobState::kFailed);
            EXPECT_GE(info.finish_s, 0.0);
            std::string what;
            try {
                std::rethrow_exception(failure);
            } catch (const ft::TransientFailure& e) {
                what = e.what();
            }
            delivered.set_value(what);
        });
    ASSERT_TRUE(ticket);
    ASSERT_TRUE(scheduler.wait(ticket->id, 10.0));
    EXPECT_EQ(scheduler.state(ticket->id), JobState::kFailed);
    EXPECT_EQ(attempts.load(), 2);  // first run + one retry
    EXPECT_EQ(scheduler.stats().requeued, 1u);
    ASSERT_EQ(delivered_future.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    EXPECT_EQ(delivered_future.get(), "still flaky");
}

TEST(SchedulerRetry, NonTransientFailureIsNeverRetried) {
    ClusterScheduler scheduler(retrying_config(5));
    std::atomic<int> attempts{0};
    std::promise<void> failed_delivered;
    auto failed_future = failed_delivered.get_future();
    auto ticket = scheduler.submit(
        [&](JobContext&) {
            attempts.fetch_add(1);
            throw std::runtime_error("hard failure");
        },
        {},
        [&](const JobInfo& info, std::exception_ptr failure) {
            EXPECT_EQ(info.state, JobState::kFailed);
            EXPECT_NE(failure, nullptr);
            failed_delivered.set_value();
        });
    ASSERT_TRUE(ticket);
    ASSERT_TRUE(scheduler.wait(ticket->id, 10.0));
    EXPECT_EQ(scheduler.state(ticket->id), JobState::kFailed);
    EXPECT_EQ(attempts.load(), 1);
    EXPECT_EQ(scheduler.stats().requeued, 0u);
    EXPECT_EQ(scheduler.info(ticket->id)->error, "hard failure");
    // set_value throws on a second call, so reaching ready proves exactly one
    // delivery.
    ASSERT_EQ(failed_future.wait_for(std::chrono::seconds(10)), std::future_status::ready);
}

TEST(SchedulerRetry, RetryDisabledFailsOnFirstTransient) {
    ClusterScheduler scheduler({.worker_slots = 1});  // retry.max_retries = 0
    std::atomic<int> attempts{0};
    auto ticket = scheduler.submit([&](JobContext&) {
        attempts.fetch_add(1);
        throw ft::TransientFailure("flaky");
    });
    ASSERT_TRUE(ticket);
    ASSERT_TRUE(scheduler.wait(ticket->id, 10.0));
    EXPECT_EQ(scheduler.state(ticket->id), JobState::kFailed);
    EXPECT_EQ(attempts.load(), 1);
    EXPECT_EQ(scheduler.stats().requeued, 0u);
}

TEST(SchedulerRetry, RequeuedJobKeepsItsIdAndCompletesAheadOfItsClass) {
    // One worker, one high-priority flaky job submitted BEFORE a batch job:
    // the retry goes to the front of the high class, so the flaky job must
    // still finish before the batch job starts.
    ClusterScheduler scheduler(retrying_config(3));
    std::atomic<int> flaky_attempts{0};
    std::atomic<bool> batch_ran{false};
    std::atomic<bool> batch_ran_before_flaky_done{false};
    auto flaky = scheduler.submit(
        [&](JobContext&) {
            if (flaky_attempts.fetch_add(1) < 1) throw ft::TransientFailure("flaky");
            batch_ran_before_flaky_done.store(batch_ran.load());
        },
        {.priority = Priority::kHigh});
    auto batch = scheduler.submit([&](JobContext&) { batch_ran.store(true); },
                                  {.priority = Priority::kBatch});
    ASSERT_TRUE(flaky);
    ASSERT_TRUE(batch);
    scheduler.drain();
    EXPECT_EQ(scheduler.state(flaky->id), JobState::kCompleted);
    EXPECT_EQ(scheduler.state(batch->id), JobState::kCompleted);
    EXPECT_EQ(flaky_attempts.load(), 2);
    EXPECT_FALSE(batch_ran_before_flaky_done.load());
    // Same id throughout: jobs() reports exactly two jobs, none cloned.
    EXPECT_EQ(scheduler.jobs().size(), 2u);
}

}  // namespace
}  // namespace pipetune::sched
