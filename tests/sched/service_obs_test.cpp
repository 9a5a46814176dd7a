// Observability through the tuning service: scheduler gauges/counters under
// concurrent load and span coverage per job.

#include <gtest/gtest.h>

#include <algorithm>

#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"

namespace pipetune::sched {
namespace {

hpt::HptJobConfig quick_job(std::uint64_t seed) {
    hpt::HptJobConfig job;
    job.seed = seed;
    return job;
}

TEST(ServiceObs, SchedulerCountersAndGaugesUnderConcurrentLoad) {
    obs::ObsContext obs;
    sim::SimBackend backend({.seed = 31});
    constexpr std::size_t kJobs = 8;
    {
        core::ServiceOptions options;
        options.concurrency = 4;
        options.obs = &obs;
        ConcurrentPipeTuneService service(backend, options);
        std::vector<core::TuningService::Submission> submissions;
        for (std::size_t i = 0; i < kJobs; ++i) {
            auto submission =
                service.submit(workload::find_workload("lenet-mnist"), quick_job(100 + i));
            ASSERT_TRUE(submission.has_value());
            submissions.push_back(std::move(*submission));
        }
        for (auto& submission : submissions) submission.result.get();
        service.drain();
    }
    auto& metrics = obs.metrics();
    EXPECT_EQ(metrics.counter("pipetune_sched_jobs_submitted_total").value(), kJobs);
    EXPECT_EQ(metrics.counter("pipetune_sched_jobs_completed_total").value(), kJobs);
    EXPECT_EQ(metrics.counter("pipetune_service_jobs_served_total").value(), kJobs);
    // Everything drained: instantaneous levels are back to zero.
    EXPECT_DOUBLE_EQ(metrics.gauge("pipetune_sched_queue_depth").value(), 0.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("pipetune_sched_jobs_running").value(), 0.0);
    // Every job waited in the queue (possibly ~0s) exactly once.
    EXPECT_EQ(metrics
                  .histogram("pipetune_sched_queue_wait_seconds",
                             {0.001, 0.01, 0.1, 1.0, 10.0, 60.0})
                  .count(),
              kJobs);
    // The tuner underneath reported work too.
    EXPECT_GT(metrics.counter("pipetune_hpt_trials_started_total").value(), 0u);
    EXPECT_GT(metrics.counter("pipetune_hpt_epochs_total").value(), 0u);
}

TEST(ServiceObs, EveryJobGetsASpanTree) {
    obs::ObsContext obs;
    sim::SimBackend backend({.seed = 32});
    constexpr std::size_t kJobs = 3;
    {
        core::ServiceOptions options;
        options.concurrency = 2;
        options.obs = &obs;
        ConcurrentPipeTuneService service(backend, options);
        std::vector<core::TuningService::Submission> submissions;
        for (std::size_t i = 0; i < kJobs; ++i) {
            auto submission =
                service.submit(workload::find_workload("lenet-mnist"), quick_job(200 + i));
            ASSERT_TRUE(submission.has_value());
            submissions.push_back(std::move(*submission));
        }
        for (auto& submission : submissions) submission.result.get();
        service.drain();
    }
    const auto spans = obs.tracer().completed();
    const auto count_named = [&](const char* name) {
        return static_cast<std::size_t>(std::count_if(
            spans.begin(), spans.end(),
            [&](const obs::SpanRecord& s) { return s.name == name; }));
    };
    EXPECT_EQ(count_named("job"), kJobs);
    EXPECT_GE(count_named("trial"), kJobs);  // at least one trial per job
    EXPECT_GT(count_named("epoch"), 0u);
    // Trials nest under a job span.
    for (const auto& span : spans)
        if (span.name == "trial") {
            const auto parent = std::find_if(
                spans.begin(), spans.end(),
                [&](const obs::SpanRecord& s) { return s.id == span.parent_id; });
            ASSERT_NE(parent, spans.end());
            EXPECT_EQ(parent->name, "job");
        }
}

}  // namespace
}  // namespace pipetune::sched
