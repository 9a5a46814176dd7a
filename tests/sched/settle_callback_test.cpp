// Exactly-once completion hooks: the scheduler's DoneFn and the service's
// SubmitOptions::on_settled fire once per admitted job on every terminal
// path — completed, failed, retried-then-completed, cancelled or timed out
// while queued, discard_queued, cancelled while running — only after the job
// shows as terminal, and never for a submit that was shed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "pipetune/ft/errors.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"
#include "pipetune/workload/types.hpp"

namespace pipetune::sched {
namespace {

using namespace std::chrono_literals;

/// SimBackend wrapper whose start_trial can be held at a gate (to keep a job
/// running while others queue) or made to throw a scripted failure.
class ScriptedBackend final : public workload::Backend {
public:
    std::unique_ptr<workload::TrialSession> start_trial(
        const workload::Workload& workload, const workload::HyperParams& hyper) override {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ++entered_;
            entered_cv_.notify_all();
            gate_cv_.wait(lock, [this] { return !held_; });
            if (hard_failures_ > 0) {
                --hard_failures_;
                throw std::runtime_error("scripted hard failure");
            }
            if (transient_failures_ > 0) {
                --transient_failures_;
                throw ft::TransientFailure("scripted transient failure");
            }
        }
        return inner_.start_trial(workload, hyper);
    }
    std::string name() const override { return "scripted"; }

    void hold() {
        std::lock_guard<std::mutex> lock(mutex_);
        held_ = true;
    }
    void release() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            held_ = false;
        }
        gate_cv_.notify_all();
    }
    /// Block until some job has reached the gate.
    void wait_entered() {
        std::unique_lock<std::mutex> lock(mutex_);
        entered_cv_.wait(lock, [this] { return entered_ > 0; });
    }
    void fail_hard(int n) {
        std::lock_guard<std::mutex> lock(mutex_);
        hard_failures_ = n;
    }
    void fail_transient(int n) {
        std::lock_guard<std::mutex> lock(mutex_);
        transient_failures_ = n;
    }

private:
    sim::SimBackend inner_;
    std::mutex mutex_;
    std::condition_variable gate_cv_;
    std::condition_variable entered_cv_;
    bool held_ = false;
    int entered_ = 0;
    int hard_failures_ = 0;
    int transient_failures_ = 0;
};

hpt::HptJobConfig tiny_job() {
    hpt::HptJobConfig job;
    job.parallel_slots = 1;
    job.hyperband_resource = 1;
    job.final_epochs = 1;
    return job;
}

const workload::Workload& lenet() { return workload::find_workload("lenet-mnist"); }

/// One job's hook: counts calls and records whether the service already
/// listed the job (found by its unique label) as terminal when it ran.
struct Hook {
    std::atomic<int> calls{0};
    std::atomic<bool> terminal_before{true};

    core::SubmitOptions options(core::TuningService& service, const std::string& label,
                                double deadline_s = 0.0) {
        core::SubmitOptions out;
        out.label = label;
        out.deadline_s = deadline_s;
        out.on_settled = [this, &service, label] {
            bool terminal = false;
            for (const core::JobTiming& t : service.job_timings())
                if (t.label == label) terminal = t.finish_s >= 0.0;
            if (!terminal) terminal_before.store(false);
            calls.fetch_add(1);
        };
        return out;
    }

    void wait_fired() const {
        for (int i = 0; i < 5000 && calls.load() == 0; ++i) std::this_thread::sleep_for(1ms);
    }
};

core::ServiceOptions concurrent_options(std::size_t queue_capacity = 8) {
    core::ServiceOptions options;
    options.concurrency = 1;  // one slot: a held job keeps the rest queued
    options.queue_capacity = queue_capacity;
    return options;
}

template <typename Exception>
void expect_throws(std::future<core::PipeTuneJobResult>& future) {
    EXPECT_THROW(future.get(), Exception);
}

// ------------------------------------------------------- concurrent service

TEST(SettleCallback, ConcurrentCompletedFiresOnce) {
    ScriptedBackend backend;
    Hook hook;
    {
        ConcurrentPipeTuneService service(backend, concurrent_options());
        auto submission = service.submit(lenet(), tiny_job(), hook.options(service, "done"));
        ASSERT_TRUE(submission);
        EXPECT_NO_THROW(submission->result.get());
        hook.wait_fired();
        EXPECT_EQ(service.stats().completed, 1u);
    }
    EXPECT_EQ(hook.calls.load(), 1);
    EXPECT_TRUE(hook.terminal_before.load());
}

TEST(SettleCallback, ConcurrentHardFailureFiresOnce) {
    ScriptedBackend backend;
    backend.fail_hard(1);
    Hook hook;
    {
        ConcurrentPipeTuneService service(backend, concurrent_options());
        auto submission = service.submit(lenet(), tiny_job(), hook.options(service, "hard"));
        ASSERT_TRUE(submission);
        expect_throws<std::runtime_error>(submission->result);
        hook.wait_fired();
        EXPECT_EQ(service.stats().failed, 1u);
    }
    EXPECT_EQ(hook.calls.load(), 1);
    EXPECT_TRUE(hook.terminal_before.load());
}

TEST(SettleCallback, ConcurrentTransientRetryFiresOnceNotPerAttempt) {
    ScriptedBackend backend;
    backend.fail_transient(2);
    Hook hook;
    {
        core::ServiceOptions options = concurrent_options();
        options.retry.max_retries = 3;
        options.retry.initial_backoff_s = 0.001;
        options.retry.max_backoff_s = 0.002;
        ConcurrentPipeTuneService service(backend, options);
        auto submission = service.submit(lenet(), tiny_job(), hook.options(service, "flaky"));
        ASSERT_TRUE(submission);
        EXPECT_NO_THROW(submission->result.get());
        hook.wait_fired();
        EXPECT_EQ(service.scheduler_stats().requeued, 2u);
        EXPECT_EQ(service.stats().completed, 1u);
    }
    EXPECT_EQ(hook.calls.load(), 1);
    EXPECT_TRUE(hook.terminal_before.load());
}

TEST(SettleCallback, ConcurrentCancelledWhileQueuedFiresOnce) {
    ScriptedBackend backend;
    backend.hold();
    Hook running, queued;
    {
        ConcurrentPipeTuneService service(backend, concurrent_options());
        auto first = service.submit(lenet(), tiny_job(), running.options(service, "running"));
        ASSERT_TRUE(first);
        backend.wait_entered();
        auto second = service.submit(lenet(), tiny_job(), queued.options(service, "queued"));
        ASSERT_TRUE(second);
        EXPECT_TRUE(service.cancel(second->id));
        EXPECT_EQ(queued.calls.load(), 1);  // fired on the cancelling thread
        expect_throws<JobDiscarded>(second->result);
        backend.release();
        EXPECT_NO_THROW(first->result.get());
        running.wait_fired();
    }
    EXPECT_EQ(queued.calls.load(), 1);
    EXPECT_EQ(running.calls.load(), 1);
    EXPECT_TRUE(queued.terminal_before.load());
    EXPECT_TRUE(running.terminal_before.load());
}

TEST(SettleCallback, ConcurrentDeadlineTimeoutWhileQueuedFiresOnce) {
    ScriptedBackend backend;
    backend.hold();
    Hook running, late;
    {
        ConcurrentPipeTuneService service(backend, concurrent_options());
        auto first = service.submit(lenet(), tiny_job(), running.options(service, "running"));
        ASSERT_TRUE(first);
        backend.wait_entered();
        auto second =
            service.submit(lenet(), tiny_job(), late.options(service, "late", /*deadline_s=*/0.01));
        ASSERT_TRUE(second);
        std::this_thread::sleep_for(50ms);  // the queueing budget runs out
        backend.release();
        expect_throws<JobDiscarded>(second->result);
        late.wait_fired();
        running.wait_fired();
        EXPECT_EQ(service.stats().timed_out, 1u);
    }
    EXPECT_EQ(late.calls.load(), 1);
    EXPECT_EQ(running.calls.load(), 1);
    EXPECT_TRUE(late.terminal_before.load());
}

TEST(SettleCallback, ConcurrentDiscardQueuedFiresOncePerJob) {
    ScriptedBackend backend;
    backend.hold();
    Hook running;
    Hook queued[3];
    {
        ConcurrentPipeTuneService service(backend, concurrent_options());
        auto first = service.submit(lenet(), tiny_job(), running.options(service, "running"));
        ASSERT_TRUE(first);
        backend.wait_entered();
        std::vector<core::TuningService::Submission> rest;
        for (int i = 0; i < 3; ++i) {
            auto s = service.submit(lenet(), tiny_job(),
                                    queued[i].options(service, "queued-" + std::to_string(i)));
            ASSERT_TRUE(s);
            rest.push_back(std::move(*s));
        }
        EXPECT_EQ(service.discard_queued(), 3u);
        for (auto& s : rest) expect_throws<JobDiscarded>(s.result);
        backend.release();
        EXPECT_NO_THROW(first->result.get());
        running.wait_fired();
    }
    for (const Hook& h : queued) {
        EXPECT_EQ(h.calls.load(), 1);
        EXPECT_TRUE(h.terminal_before.load());
    }
    EXPECT_EQ(running.calls.load(), 1);
}

TEST(SettleCallback, ConcurrentCancelledWhileRunningFiresOnce) {
    ScriptedBackend backend;
    backend.hold();
    Hook hook;
    {
        ConcurrentPipeTuneService service(backend, concurrent_options());
        auto submission = service.submit(lenet(), tiny_job(), hook.options(service, "victim"));
        ASSERT_TRUE(submission);
        backend.wait_entered();
        EXPECT_TRUE(service.cancel(submission->id));  // cooperative: only flags it
        EXPECT_EQ(hook.calls.load(), 0);
        backend.release();
        // The body ran to the end, so the future carries its result; the
        // scheduler still accounts the job as cancelled.
        EXPECT_NO_THROW(submission->result.get());
        hook.wait_fired();
        EXPECT_EQ(service.state(submission->id), JobState::kCancelled);
    }
    EXPECT_EQ(hook.calls.load(), 1);
    EXPECT_TRUE(hook.terminal_before.load());
}

TEST(SettleCallback, ConcurrentShedSubmitNeverFires) {
    ScriptedBackend backend;
    backend.hold();
    Hook running, queued, shed;
    {
        core::ServiceOptions options = concurrent_options(/*queue_capacity=*/1);
        options.reject_when_full = true;
        ConcurrentPipeTuneService service(backend, options);
        auto first = service.submit(lenet(), tiny_job(), running.options(service, "running"));
        ASSERT_TRUE(first);
        backend.wait_entered();
        auto second = service.submit(lenet(), tiny_job(), queued.options(service, "queued"));
        ASSERT_TRUE(second);
        auto third = service.submit(lenet(), tiny_job(), shed.options(service, "shed"));
        EXPECT_FALSE(third.has_value());
        backend.release();
        EXPECT_NO_THROW(first->result.get());
        EXPECT_NO_THROW(second->result.get());
        service.drain();
    }
    EXPECT_EQ(running.calls.load(), 1);
    EXPECT_EQ(queued.calls.load(), 1);
    EXPECT_EQ(shed.calls.load(), 0);
}

// ----------------------------------------------------------------- scheduler

TEST(SettleCallback, SchedulerDoneFnSeesThePublishedTerminalState) {
    ClusterScheduler scheduler({.worker_slots = 2});
    std::atomic<int> calls{0};
    std::atomic<bool> published{true};
    auto on_done = [&](const JobInfo& info, std::exception_ptr) {
        const auto seen = scheduler.info(info.id);
        if (!seen || !is_terminal(seen->state) || seen->finish_s < 0 || info.finish_s < 0)
            published.store(false);
        calls.fetch_add(1);
    };
    constexpr int kJobs = 64;
    for (int i = 0; i < kJobs; ++i) {
        auto ticket = scheduler.submit(
            [i](JobContext&) {
                if (i % 3 == 0) throw std::runtime_error("boom");
            },
            {}, on_done);
        ASSERT_TRUE(ticket);
        if (i % 5 == 0) scheduler.cancel(ticket->id);
    }
    scheduler.shutdown(true);
    EXPECT_EQ(calls.load(), kJobs);
    EXPECT_TRUE(published.load());
}

}  // namespace
}  // namespace pipetune::sched
