// Acceptance test for the tentpole: >= 8 jobs at concurrency >= 4 against one
// shared ground-truth store, with later jobs hitting configurations recorded
// by earlier concurrent jobs (§7.4 sharing on real threads).

#include "pipetune/sched/concurrent_service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "pipetune/sim/sim_backend.hpp"
#include "pipetune/workload/types.hpp"

namespace pipetune::sched {
namespace {

struct TempDir {
    TempDir() : path(std::filesystem::temp_directory_path() / "pt_concurrent_service_test") {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::filesystem::path path;
};

hpt::HptJobConfig quick_job(std::uint64_t seed) {
    hpt::HptJobConfig config;
    config.parallel_slots = 2;
    config.hyperband_resource = 9;
    config.final_epochs = 3;
    config.seed = seed;
    return config;
}

TEST(ConcurrentPipeTuneService, EightJobsAtConcurrencyFourShareOneStore) {
    sim::SimBackend backend;
    ConcurrentPipeTuneService service(backend, {.concurrency = 4, .queue_capacity = 16});
    const auto& lenet = workload::find_workload("lenet-mnist");

    // Wave 1: four jobs run genuinely concurrently against the empty store
    // and populate it.
    std::vector<ConcurrentPipeTuneService::Submission> wave1;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        auto submission = service.submit(lenet, quick_job(seed));
        ASSERT_TRUE(submission.has_value());
        wave1.push_back(std::move(*submission));
    }
    service.drain();
    std::size_t wave1_probes = 0;
    for (auto& submission : wave1) {
        const auto result = submission.result.get();
        wave1_probes += result.probes_started;
        EXPECT_EQ(service.state(submission.id), JobState::kCompleted);
    }
    EXPECT_GT(wave1_probes, 0u);  // cold store: somebody had to probe
    const std::size_t store_after_wave1 = service.cluster_state().ground_truth_size();
    EXPECT_GT(store_after_wave1, 0u);

    // Wave 2: four more jobs with fresh seeds find the store already warm
    // with wave-1 recordings and reuse them.
    std::vector<ConcurrentPipeTuneService::Submission> wave2;
    for (std::uint64_t seed = 5; seed <= 8; ++seed) {
        auto submission = service.submit(lenet, quick_job(seed));
        ASSERT_TRUE(submission.has_value());
        wave2.push_back(std::move(*submission));
    }
    service.drain();
    std::size_t wave2_hits = 0;
    for (auto& submission : wave2) {
        const auto result = submission.result.get();
        wave2_hits += result.ground_truth_hits;
        EXPECT_GE(result.ground_truth_size, store_after_wave1);
    }
    EXPECT_GT(wave2_hits, 0u);  // later jobs reused earlier jobs' configurations

    EXPECT_EQ(service.jobs_served(), 8u);
    const auto stats = service.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_GT(service.cluster_state().metric_points(), 0u);

    // The wall-clock trace of a real concurrent run feeds the same analysis
    // path as the virtual-time simulator.
    const auto records = service.trace();
    EXPECT_EQ(records.size(), 8u);
    const auto trace_stats = cluster::summarize_trace(records, 4);
    EXPECT_GT(trace_stats.makespan_s, 0.0);
    EXPECT_LE(trace_stats.p50_response_s, trace_stats.p95_response_s + 1e-12);
}

TEST(ConcurrentPipeTuneService, PersistsAndWarmStartsAcrossRestarts) {
    TempDir dir;
    sim::SimBackend backend;
    const auto& lenet = workload::find_workload("lenet-mnist");
    std::size_t first_run_size = 0;
    {
        ConcurrentPipeTuneService service(
            backend, {.state_dir = dir.path.string(), .concurrency = 2});
        auto a = service.submit(lenet, quick_job(1));
        auto b = service.submit(lenet, quick_job(2));
        ASSERT_TRUE(a && b);
        (void)a->result.get();
        (void)b->result.get();
        first_run_size = service.cluster_state().ground_truth_size();
        EXPECT_GT(first_run_size, 0u);
    }  // dtor drains + persists

    ASSERT_TRUE(std::filesystem::exists(SharedClusterState::ground_truth_path(dir.path.string())));
    ASSERT_TRUE(std::filesystem::exists(SharedClusterState::metrics_path(dir.path.string())));
    // Atomic rename leaves no temp files behind.
    for (const auto& entry : std::filesystem::directory_iterator(dir.path))
        EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos) << entry.path();

    ConcurrentPipeTuneService restarted(backend,
                                        {.state_dir = dir.path.string(), .concurrency = 2});
    EXPECT_EQ(restarted.cluster_state().ground_truth_size(), first_run_size);
    // A restarted service is warm from the persisted store.
    auto warm = restarted.submit(lenet, quick_job(3));
    ASSERT_TRUE(warm.has_value());
    EXPECT_GT(warm->result.get().ground_truth_hits, 0u);
}

TEST(ConcurrentPipeTuneService, DiscardedJobSurfacesAsFutureError) {
    sim::SimBackend backend;
    ConcurrentPipeTuneService service(backend, {.concurrency = 1});
    const auto& lenet = workload::find_workload("lenet-mnist");
    auto running = service.submit(lenet, quick_job(1));
    ASSERT_TRUE(running.has_value());
    // Queued behind the running job with a microscopic queue budget: shed as
    // kTimedOut before it ever runs, and the future reports it.
    auto stale = service.submit(lenet, quick_job(2), {.deadline_s = 1e-6});
    ASSERT_TRUE(stale.has_value());
    service.drain();
    EXPECT_EQ(service.state(stale->id), JobState::kTimedOut);
    EXPECT_THROW(stale->result.get(), std::runtime_error);
    (void)running->result.get();
    EXPECT_EQ(service.jobs_served(), 1u);
}

TEST(ConcurrentPipeTuneService, OneSlotMetricsAccumulateAcrossJobs) {
    sim::SimBackend backend({.seed = 6});
    ConcurrentPipeTuneService service(backend, {});  // no state dir: in memory
    (void)service.run(workload::find_workload("jacobi-rodinia"), quick_job(8));
    const auto after_first = service.metrics_snapshot().total_points();
    EXPECT_GT(after_first, 0u);
    (void)service.run(workload::find_workload("bfs-rodinia"), quick_job(9));
    EXPECT_GT(service.metrics_snapshot().total_points(), after_first);
    EXPECT_TRUE(service.ground_truth_path().empty());
}

TEST(ConcurrentPipeTuneService, OneSlotWarmStartCampaignRunsWhenStoreIsCold) {
    sim::SimBackend backend({.seed = 4});
    core::ServiceOptions options;
    options.warm_start_on_first_use = true;
    options.warm_start_workloads = {workload::find_workload("lenet-mnist")};
    ConcurrentPipeTuneService service(backend, options);
    EXPECT_GT(service.ground_truth_snapshot().size(), 0u);
    const auto result = service.run(workload::find_workload("lenet-mnist"), quick_job(6));
    EXPECT_GT(result.ground_truth_hits, 0u);
}

TEST(ConcurrentPipeTuneService, OneSlotPersistedStoreSkipsWarmStart) {
    TempDir dir;
    sim::SimBackend backend({.seed = 5});
    std::size_t persisted_size = 0;
    {
        ConcurrentPipeTuneService service(backend, {.state_dir = dir.path.string()});
        (void)service.run(workload::find_workload("lenet-mnist"), quick_job(7));
        persisted_size = service.ground_truth_snapshot().size();
        EXPECT_GT(persisted_size, 0u);
    }
    core::ServiceOptions options;
    options.state_dir = dir.path.string();
    options.warm_start_on_first_use = true;  // must be ignored: the store exists
    options.warm_start_workloads = workload::workloads_of_type(workload::WorkloadType::kType1);
    ConcurrentPipeTuneService service(backend, options);
    EXPECT_EQ(service.ground_truth_snapshot().size(), persisted_size);
}

}  // namespace
}  // namespace pipetune::sched
