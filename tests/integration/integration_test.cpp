// Cross-module integration tests:
//  * the full tuning stack end-to-end on the REAL backend (actual SGD);
//  * calibration cross-checks between the simulator and the real engine;
//  * persistence round-trips spanning core + metricsdb + mlcore;
//  * every searcher driving a real tuning job on the sim backend (TEST_P).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "pipetune/core/experiment.hpp"
#include "pipetune/core/warm_start.hpp"
#include "pipetune/hpt/searchers.hpp"
#include "pipetune/sim/real_backend.hpp"
#include "pipetune/sim/sim_backend.hpp"

namespace pipetune {
namespace {

using workload::HyperParams;
using workload::SystemParams;

TEST(EndToEndReal, PipeTuneJobOnRealTraining) {
    // A miniature HyperBand job (R = 4) where every epoch is a real SGD pass
    // of the bundled NN engine: the complete stack — search, runner, policy,
    // profiling, ground truth — exercised without any simulation.
    sim::RealBackendConfig config;
    config.train_samples = 64;
    config.test_samples = 24;
    config.image_size = 16;
    config.seed = 42;
    sim::RealBackend backend(config);

    core::PipeTunePolicy policy;
    hpt::RunnerConfig runner_config;
    runner_config.parallel_slots = 1;
    hpt::TuningJobRunner runner(backend, workload::find_workload("lenet-mnist"), runner_config,
                                &policy);
    hpt::HyperBand searcher(hpt::hyperband_hyperparameter_space(), 4, 2, 42);
    const auto result = runner.run(searcher);
    EXPECT_GT(result.trials, 3u);
    EXPECT_GT(result.best_accuracy, 20.0);  // tiny model, tiny budget — but it learned
    EXPECT_GT(result.tuning_duration_s, 0.0);
}

TEST(EndToEndReal, KernelWorkloadThroughTheRunner) {
    sim::RealBackend backend({.seed = 43});
    hpt::TuningJobRunner runner(backend, workload::find_workload("jacobi-rodinia"),
                                {.parallel_slots = 1});
    hpt::RandomSearch searcher(hpt::hyperband_hyperparameter_space(), 3, 5, 43);
    const auto result = runner.run(searcher);
    EXPECT_EQ(result.trials, 3u);
    EXPECT_GT(result.best_accuracy, 10.0);
}

TEST(Calibration, BatchSizeEffectAgreesAcrossBackends) {
    // Both substrates must agree on the direction of the batch-size effect:
    // bigger batches -> fewer update/sync rounds -> shorter epochs.
    const auto& workload = workload::find_workload("lenet-mnist");

    sim::SimBackend simulated({.seed = 44});
    auto time_sim = [&](std::size_t batch) {
        HyperParams hp;
        hp.batch_size = batch;
        auto session = simulated.start_trial(workload, hp);
        return session->run_epoch({.cores = 4, .memory_gb = 16}).duration_s;
    };

    sim::RealBackendConfig config;
    config.train_samples = 256;
    config.test_samples = 16;
    config.image_size = 16;
    config.seed = 44;
    config.max_workers = 2;
    sim::RealBackend real(config);
    // Wall-clock epochs only ever gain time from interference (a parallel
    // build, another test), so compare the fastest of several epochs per
    // batch size, alternating the two sizes so a slow spell hits both.
    HyperParams large_hp, small_hp;
    large_hp.batch_size = 1024;  // scaled internally by /8
    small_hp.batch_size = 32;
    auto large = real.start_trial(workload, large_hp);
    auto small = real.start_trial(workload, small_hp);
    double large_s = 1e9, small_s = 1e9;
    for (int e = 0; e < 7; ++e) {
        large_s = std::min(large_s, large->run_epoch({.cores = 2, .memory_gb = 16}).duration_s);
        small_s = std::min(small_s, small->run_epoch({.cores = 2, .memory_gb = 16}).duration_s);
    }

    const bool sim_direction = time_sim(1024) < time_sim(32);
    const bool real_direction = large_s < small_s;
    EXPECT_TRUE(sim_direction);
    EXPECT_EQ(sim_direction, real_direction);
}

TEST(Calibration, AccuracyCurvesAgreeOnLearningRateQuality) {
    // Both substrates should rank a sane learning rate above a wild one.
    const auto& workload = workload::find_workload("lenet-mnist");
    auto final_accuracy = [&](workload::Backend& backend, double lr) {
        HyperParams hp;
        hp.batch_size = 64;
        hp.learning_rate = lr;
        auto session = backend.start_trial(workload, hp);
        double acc = 0;
        for (int e = 0; e < 8; ++e) acc = session->run_epoch({.cores = 2, .memory_gb = 8}).accuracy;
        return acc;
    };
    sim::SimBackend simulated({.seed = 45});
    sim::RealBackendConfig config;
    config.train_samples = 96;
    config.test_samples = 32;
    config.image_size = 16;
    config.seed = 45;
    sim::RealBackend real(config);
    // 2.0 is far outside the paper's [0.001, 0.1] range — training diverges.
    EXPECT_GT(final_accuracy(simulated, 0.02), final_accuracy(simulated, 2.0));
    EXPECT_GT(final_accuracy(real, 0.05), final_accuracy(real, 2.0));
}

TEST(Persistence, FullStateRoundTripAcrossProcessBoundary) {
    const auto dir = std::filesystem::temp_directory_path();
    const auto gt_path = (dir / "pt_it_gt.json").string();
    const auto metrics_path = (dir / "pt_it_metrics.json").string();

    sim::SimBackend backend({.seed = 46});
    const auto& workload = workload::find_workload("cnn-news20");

    // Phase 1: a tuning job records ground truth + metrics, both persisted.
    std::size_t first_probes = 0;
    {
        metricsdb::TimeSeriesDb metrics;
        core::GroundTruth store;
        core::PipeTuneConfig config;
        config.metrics = &metrics;
        hpt::HptJobConfig job;
        job.seed = 46;
        const auto result = core::run_pipetune(backend, workload, job, config, &store);
        first_probes = result.probes_started;
        EXPECT_GT(first_probes, 0u);
        EXPECT_GT(metrics.total_points(), 0u);
        store.save(gt_path);
        metrics.save(metrics_path);
    }

    // Phase 2: a "new process" reloads both and warm-starts.
    {
        core::GroundTruth restored = core::GroundTruth::load(gt_path);
        EXPECT_TRUE(restored.model_ready());
        const auto metrics = metricsdb::TimeSeriesDb::load(metrics_path);
        EXPECT_GT(metrics.count({.series = "epoch_duration"}), 0u);

        hpt::HptJobConfig job;
        job.seed = 47;
        const auto result = core::run_pipetune(backend, workload, job, {}, &restored);
        EXPECT_LT(result.probes_started, first_probes);  // warm start reuses
        EXPECT_GT(result.ground_truth_hits, 0u);
    }
    std::filesystem::remove(gt_path);
    std::filesystem::remove(metrics_path);
}

TEST(WarmStart, CampaignCoversAllRequestedWorkloads) {
    sim::SimBackend backend({.seed = 48});
    core::WarmStartConfig config;
    config.batch_sizes = {32, 1024};
    config.repeats = 1;
    const auto mix = workload::workloads_of_type(workload::WorkloadType::kType1);
    const auto store = core::build_warm_ground_truth(backend, mix, config);
    EXPECT_EQ(store.size(), mix.size() * 2);  // workloads x batches x 1 repeat
    EXPECT_TRUE(store.model_ready());
}

// Every supported searcher must drive a complete tuning job on the simulation
// backend and find a configuration that beats a random guess.
class SearcherIntegration : public ::testing::TestWithParam<const char*> {};

TEST_P(SearcherIntegration, CompletesAndFindsReasonableConfig) {
    sim::SimBackend backend({.seed = 49});
    const auto& workload = workload::find_workload("lenet-mnist");
    hpt::TuningJobRunner runner(backend, workload, {.parallel_slots = 4});

    const std::string name = GetParam();
    std::unique_ptr<hpt::Searcher> searcher;
    const auto space = hpt::hyperband_hyperparameter_space();
    if (name == "grid") searcher = std::make_unique<hpt::GridSearch>(space.prefix(2), 2, 5);
    else if (name == "random") searcher = std::make_unique<hpt::RandomSearch>(space, 12, 5, 49);
    else if (name == "hyperband") searcher = std::make_unique<hpt::HyperBand>(space, 9, 3, 49);
    else if (name == "tpe") searcher = std::make_unique<hpt::TpeSearch>(space, 12, 5, 49);
    else if (name == "genetic")
        searcher = std::make_unique<hpt::GeneticSearch>(space, 6, 3, 5, 49);
    else if (name == "pbt") searcher = std::make_unique<hpt::PbtSearch>(space, 4, 10, 5, 49);
    ASSERT_NE(searcher, nullptr) << name;

    const auto result = runner.run(*searcher);
    EXPECT_GT(result.trials, 0u) << name;
    EXPECT_GT(result.epochs, 0u) << name;
    EXPECT_GT(result.best_accuracy, 40.0) << name;
    EXPECT_GT(result.tuning_duration_s, 0.0) << name;
    // Convergence trace is complete and monotone in best accuracy.
    double best = 0;
    for (const auto& point : result.convergence) {
        EXPECT_GE(point.best_accuracy, best) << name;
        best = point.best_accuracy;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSearchers, SearcherIntegration,
                         ::testing::Values("grid", "random", "hyperband", "tpe", "genetic",
                                           "pbt"));

}  // namespace
}  // namespace pipetune
