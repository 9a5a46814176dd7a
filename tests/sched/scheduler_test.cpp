#include "pipetune/sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pipetune/obs/obs_context.hpp"

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

TEST(ClusterScheduler, DrainThenShutdownIsIdempotentAndFinal) {
    ClusterScheduler scheduler({.worker_slots = 2, .queue_capacity = 8});
    std::atomic<int> ran{0};
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(scheduler.submit([&](JobContext&) { ran.fetch_add(1); }).has_value());
    scheduler.shutdown(true);
    scheduler.shutdown(true);  // idempotent
    EXPECT_EQ(ran.load(), 4);
    EXPECT_FALSE(scheduler.submit([](JobContext&) {}).has_value());
}

TEST(ClusterScheduler, StressManySubmittersDrainCleanly) {
    ClusterScheduler scheduler({.worker_slots = 4, .queue_capacity = 4096});
    std::atomic<int> ran{0};
    const int kThreads = 4, kPerThread = 250;
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t)
        submitters.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i)
                ASSERT_TRUE(
                    scheduler.submit([&](JobContext&) { ran.fetch_add(1); }).has_value());
        });
    for (auto& t : submitters) t.join();
    scheduler.drain();
    EXPECT_EQ(ran.load(), kThreads * kPerThread);
    EXPECT_EQ(scheduler.stats().completed,
              static_cast<std::size_t>(kThreads * kPerThread));
}

// ------------------------------------------------------------- queue behaviour

TEST(ClusterScheduler, BlockingSubmitParksUntilAWorkerFreesASlot) {
    ClusterScheduler scheduler(
        {.worker_slots = 1, .queue_capacity = 1, .overflow = OverflowPolicy::kBlock});
    std::atomic<bool> release{false};
    auto blocker = scheduler.submit([&](JobContext&) {
        while (!release.load()) std::this_thread::sleep_for(1ms);
    });
    ASSERT_TRUE(blocker);
    wait_until_running(scheduler, blocker->id);
    ASSERT_TRUE(scheduler.submit([](JobContext&) {}));  // fills the queue

    std::atomic<bool> returned{false};
    std::optional<JobTicket> parked;
    std::thread submitter([&] {
        parked = scheduler.submit([](JobContext&) {});
        returned.store(true);
    });
    std::this_thread::sleep_for(50ms);
    EXPECT_FALSE(returned.load()) << "kBlock submit into a full queue must park";
    release.store(true);  // the worker frees its slot, the queued job moves up
    submitter.join();
    ASSERT_TRUE(parked.has_value());
    scheduler.drain();
    EXPECT_EQ(scheduler.state(parked->id), JobState::kCompleted);
    EXPECT_EQ(scheduler.stats().completed, 3u);
}

TEST(ClusterScheduler, ShutdownWithoutDrainReleasesAParkedSubmitter) {
    ClusterScheduler scheduler(
        {.worker_slots = 1, .queue_capacity = 1, .overflow = OverflowPolicy::kBlock});
    constexpr int kJobs = 3;  // running blocker, queued filler, parked submit
    std::array<std::atomic<int>, kJobs> done{};
    const auto done_fn = [&](int index) {
        return [&done, index](const JobInfo&, std::exception_ptr) { done[index].fetch_add(1); };
    };
    std::array<std::optional<JobTicket>, kJobs> tickets;
    tickets[0] = scheduler.submit(
        [](JobContext& ctx) {
            while (!ctx.cancel_requested()) std::this_thread::sleep_for(1ms);
        },
        {}, done_fn(0));
    ASSERT_TRUE(tickets[0]);
    wait_until_running(scheduler, tickets[0]->id);
    tickets[1] = scheduler.submit([](JobContext&) {}, {}, done_fn(1));
    ASSERT_TRUE(tickets[1]);
    std::thread submitter(
        [&] { tickets[2] = scheduler.submit([](JobContext&) {}, {}, done_fn(2)); });
    // The parked submit has registered its record before blocking on the push.
    while (scheduler.stats().submitted < kJobs) std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(20ms);

    const auto begin = std::chrono::steady_clock::now();
    scheduler.shutdown(/*drain_queue=*/false);
    submitter.join();
    EXPECT_LT(std::chrono::steady_clock::now() - begin, 2s);

    // Every admitted job settled exactly once; a submit that returned
    // nullopt never fires its DoneFn.
    for (int i = 0; i < kJobs; ++i)
        EXPECT_EQ(done[i].load(), tickets[i].has_value() ? 1 : 0) << "job " << i;
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, stats.completed + stats.failed + stats.cancelled +
                                   stats.timed_out + stats.queued + stats.running);
    EXPECT_EQ(stats.queued + stats.running, 0u);
}

TEST(ClusterScheduler, StatsRecordTheQueueHighWaterMark) {
    ClusterScheduler scheduler({.worker_slots = 1, .queue_capacity = 16});
    std::atomic<bool> release{false};
    auto blocker = scheduler.submit([&](JobContext&) {
        while (!release.load()) std::this_thread::sleep_for(1ms);
    });
    ASSERT_TRUE(blocker);
    wait_until_running(scheduler, blocker->id);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(scheduler.submit([](JobContext&) {}));
    EXPECT_EQ(scheduler.stats().max_queue_depth, 5u);
    release.store(true);
    scheduler.drain();
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.max_queue_depth, 5u);  // a high-water mark, not a level
}

// The FIFO property a one-slot service's determinism rests on: same-priority
// jobs start in submit order.
TEST(ClusterScheduler, OneSlotStartsSamePriorityJobsInSubmitOrder) {
    ClusterScheduler scheduler({.worker_slots = 1, .queue_capacity = 64});
    std::atomic<bool> release{false};
    auto blocker = scheduler.submit([&](JobContext&) {
        while (!release.load()) std::this_thread::sleep_for(1ms);
    });
    ASSERT_TRUE(blocker);
    wait_until_running(scheduler, blocker->id);
    std::mutex order_mutex;
    std::vector<int> order;
    constexpr int kJobs = 32;
    for (int i = 0; i < kJobs; ++i)
        ASSERT_TRUE(scheduler.submit([&, i](JobContext&) {
            std::lock_guard<std::mutex> lock(order_mutex);
            order.push_back(i);
        }));
    release.store(true);
    scheduler.drain();
    std::vector<int> expected(kJobs);
    for (int i = 0; i < kJobs; ++i) expected[i] = i;
    EXPECT_EQ(order, expected);
}

// ------------------------------------------------------------------ forced ids

TEST(ClusterScheduler, ForcedIdIsUsedVerbatimAndAutoIdsFollowIt) {
    ClusterScheduler scheduler({.worker_slots = 1});
    const auto noop = [](JobContext&) {};
    auto first = scheduler.submit(noop);
    ASSERT_TRUE(first);
    EXPECT_EQ(first->id, 1u);
    auto forced = scheduler.submit(noop, {.id = 42, .label = "forced"});
    ASSERT_TRUE(forced);
    EXPECT_EQ(forced->id, 42u);
    auto next = scheduler.submit(noop);
    ASSERT_TRUE(next);
    EXPECT_EQ(next->id, 43u);
    // A free id below the counter is honoured too, and leaves it alone.
    auto low = scheduler.submit(noop, {.id = 7});
    ASSERT_TRUE(low);
    EXPECT_EQ(low->id, 7u);
    auto after = scheduler.submit(noop);
    ASSERT_TRUE(after);
    EXPECT_EQ(after->id, 44u);
    scheduler.drain();
    EXPECT_EQ(scheduler.state(42), JobState::kCompleted);
    EXPECT_EQ(scheduler.info(42)->label, "forced");
    EXPECT_EQ(scheduler.jobs().size(), 5u);
}

TEST(ClusterScheduler, DuplicateForcedIdThrowsAndLeavesNothingBehind) {
    obs::ObsContext obs;
    ClusterScheduler scheduler({.worker_slots = 1, .obs = &obs});
    std::atomic<bool> release{false};
    auto original = scheduler.submit(
        [&](JobContext&) {
            while (!release.load()) std::this_thread::sleep_for(1ms);
        },
        {.id = 5, .label = "original"});
    ASSERT_TRUE(original);
    wait_until_running(scheduler, 5);

    std::atomic<bool> duplicate_ran{false};
    std::atomic<int> duplicate_done{0};
    EXPECT_THROW((void)scheduler.submit([&](JobContext&) { duplicate_ran.store(true); },
                                        {.id = 5, .label = "duplicate"},
                                        [&](const JobInfo&, std::exception_ptr) {
                                            duplicate_done.fetch_add(1);
                                        }),
                 std::invalid_argument);
    release.store(true);
    scheduler.drain();
    // Also refused once the original is terminal: its record still holds the id.
    EXPECT_THROW((void)scheduler.submit([](JobContext&) {}, {.id = 5}), std::invalid_argument);

    EXPECT_FALSE(duplicate_ran.load());
    EXPECT_EQ(duplicate_done.load(), 0);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(obs.metrics().counter("pipetune_sched_jobs_submitted_total").value(), 1.0);
    ASSERT_EQ(scheduler.jobs().size(), 1u);
    EXPECT_EQ(scheduler.info(5)->label, "original");
    auto next = scheduler.submit([](JobContext&) {});
    ASSERT_TRUE(next);
    EXPECT_EQ(next->id, 6u);
}

TEST(ClusterScheduler, ForcedAndAutoIdsRacingNeverShareAnId) {
    ClusterScheduler scheduler({.worker_slots = 2, .queue_capacity = 1024});
    constexpr int kPerThread = 200;
    std::atomic<int> forced_refused{0};
    std::thread automatic([&] {
        for (int i = 0; i < kPerThread; ++i)
            ASSERT_TRUE(scheduler.submit([](JobContext&) {}).has_value());
    });
    std::thread forced([&] {
        // Every id the auto submitter will also reach for.
        for (int i = 1; i <= kPerThread; ++i) {
            try {
                auto ticket = scheduler.submit([](JobContext&) {},
                                               {.id = static_cast<std::uint64_t>(i)});
                ASSERT_TRUE(ticket.has_value());
                EXPECT_EQ(ticket->id, static_cast<std::uint64_t>(i));
            } catch (const std::invalid_argument&) {
                forced_refused.fetch_add(1);
            }
        }
    });
    automatic.join();
    forced.join();
    scheduler.drain();
    const auto jobs = scheduler.jobs();
    std::set<std::uint64_t> ids;
    for (const JobInfo& info : jobs) ids.insert(info.id);
    EXPECT_EQ(ids.size(), jobs.size());
    EXPECT_EQ(jobs.size(), static_cast<std::size_t>(2 * kPerThread - forced_refused.load()));
    EXPECT_EQ(scheduler.stats().completed, jobs.size());
}

}  // namespace
}  // namespace pipetune::sched
