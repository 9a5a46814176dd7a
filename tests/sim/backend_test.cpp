#include <gtest/gtest.h>

#include "pipetune/sim/real_backend.hpp"
#include "pipetune/sim/sim_backend.hpp"

namespace pipetune::sim {
namespace {

using workload::HyperParams;
using workload::SystemParams;

HyperParams quick_hp() {
    HyperParams hp;
    hp.batch_size = 64;
    hp.learning_rate = 0.02;
    hp.epochs = 5;
    return hp;
}

TEST(SimBackend, EpochResultsArePopulated) {
    SimBackend backend({.seed = 1});
    auto session = backend.start_trial(workload::find_workload("lenet-mnist"), quick_hp());
    const auto result = session->run_epoch({.cores = 8, .memory_gb = 16});
    EXPECT_EQ(result.epoch, 1u);
    EXPECT_GT(result.duration_s, 0.0);
    EXPECT_GT(result.energy_j, 0.0);
    EXPECT_GT(result.accuracy, 0.0);
    EXPECT_GT(result.train_loss, 0.0);
    double counter_sum = 0;
    for (double c : result.counters) counter_sum += c;
    EXPECT_GT(counter_sum, 0.0);
}

TEST(SimBackend, EpochsAdvance) {
    SimBackend backend({.seed = 2});
    auto session = backend.start_trial(workload::find_workload("cnn-news20"), quick_hp());
    for (std::size_t e = 1; e <= 4; ++e) {
        const auto result = session->run_epoch({.cores = 8, .memory_gb = 16});
        EXPECT_EQ(result.epoch, e);
        EXPECT_EQ(session->epochs_done(), e);
    }
}

TEST(SimBackend, AccuracyImprovesOverEpochs) {
    SimBackend backend({.seed = 3});
    auto session = backend.start_trial(workload::find_workload("lenet-mnist"), quick_hp());
    const double first = session->run_epoch({.cores = 8, .memory_gb = 16}).accuracy;
    double last = first;
    for (int e = 0; e < 15; ++e) last = session->run_epoch({.cores = 8, .memory_gb = 16}).accuracy;
    EXPECT_GT(last, first);
}

TEST(SimBackend, SystemParamsChangeDurations) {
    SimBackend backend({.seed = 4});
    HyperParams hp = quick_hp();
    hp.batch_size = 1024;
    auto session = backend.start_trial(workload::find_workload("lenet-mnist"), hp);
    const double slow = session->run_epoch({.cores = 4, .memory_gb = 4}).duration_s;
    const double fast = session->run_epoch({.cores = 16, .memory_gb = 32}).duration_s;
    EXPECT_GT(slow, fast);
}

TEST(SimBackend, DeterministicAcrossIdenticalBackends) {
    SimBackend a({.seed = 9}), b({.seed = 9});
    auto sa = a.start_trial(workload::find_workload("lenet-mnist"), quick_hp());
    auto sb = b.start_trial(workload::find_workload("lenet-mnist"), quick_hp());
    for (int e = 0; e < 3; ++e) {
        const auto ra = sa->run_epoch({.cores = 8, .memory_gb = 16});
        const auto rb = sb->run_epoch({.cores = 8, .memory_gb = 16});
        EXPECT_DOUBLE_EQ(ra.duration_s, rb.duration_s);
        EXPECT_DOUBLE_EQ(ra.accuracy, rb.accuracy);
        EXPECT_DOUBLE_EQ(ra.energy_j, rb.energy_j);
    }
}

TEST(SimBackend, SessionMetadataAccessible) {
    SimBackend backend({.seed = 5});
    const auto& workload = workload::find_workload("lstm-news20");
    auto session = backend.start_trial(workload, quick_hp());
    EXPECT_EQ(session->workload().name, "lstm-news20");
    EXPECT_EQ(session->hyperparams().batch_size, 64u);
    EXPECT_EQ(backend.name(), "sim");
}

TEST(SimBackend, EnergyTracksDurationAndCores) {
    SimBackend backend({.seed = 6});
    HyperParams hp = quick_hp();
    hp.batch_size = 512;
    auto session = backend.start_trial(workload::find_workload("lenet-mnist"), hp);
    const auto few = session->run_epoch({.cores = 4, .memory_gb = 16});
    const auto many = session->run_epoch({.cores = 16, .memory_gb = 16});
    // Power is higher with 16 cores but duration shorter; energy must stay
    // positive and plausibly scaled (tens of W times tens of seconds).
    EXPECT_GT(few.energy_j, 100.0);
    EXPECT_GT(many.energy_j, 100.0);
    const double few_watts = few.energy_j / few.duration_s;
    const double many_watts = many.energy_j / many.duration_s;
    EXPECT_GT(many_watts, few_watts);
}

TEST(RealBackend, DnnWorkloadsActuallyTrain) {
    RealBackendConfig config;
    config.train_samples = 96;
    config.test_samples = 32;
    config.seed = 7;
    RealBackend backend(config);
    HyperParams hp = quick_hp();
    hp.batch_size = 128;  // scaled to 16 inside the backend
    auto session = backend.start_trial(workload::find_workload("lenet-mnist"), hp);
    double first = 0, last = 0;
    for (int e = 0; e < 6; ++e) {
        const auto result = session->run_epoch({.cores = 2, .memory_gb = 8});
        if (e == 0) first = result.accuracy;
        last = result.accuracy;
        EXPECT_GT(result.duration_s, 0.0);
        EXPECT_GT(result.energy_j, 0.0);
    }
    EXPECT_GT(last, first);  // the real engine really learns
}

TEST(RealBackend, TextWorkloadRuns) {
    RealBackendConfig config;
    config.train_samples = 48;
    config.test_samples = 16;
    config.seed = 8;
    RealBackend backend(config);
    auto session = backend.start_trial(workload::find_workload("cnn-news20"), quick_hp());
    const auto result = session->run_epoch({.cores = 2, .memory_gb = 8});
    EXPECT_EQ(result.epoch, 1u);
    EXPECT_GE(result.accuracy, 0.0);
}

TEST(RealBackend, KernelWorkloadConverges) {
    RealBackend backend({.seed = 9});
    auto session = backend.start_trial(workload::find_workload("jacobi-rodinia"), quick_hp());
    double score = 0;
    for (int e = 0; e < 30; ++e) score = session->run_epoch({.cores = 2, .memory_gb = 8}).accuracy;
    EXPECT_GT(score, 30.0);
}

TEST(RealBackend, CountersComeFromSameSignatureModel) {
    // Real and simulated backends must emit comparable PMU vectors for the
    // same workload so ground truth transfers across them.
    RealBackend real({.seed = 10});
    SimBackend simulated({.seed = 10});
    auto rs = real.start_trial(workload::find_workload("lenet-mnist"), quick_hp());
    auto ss = simulated.start_trial(workload::find_workload("lenet-mnist"), quick_hp());
    // The real backend's epochs are about a millisecond long, so one epoch's
    // multiplexed counters carry sub-sampling noise of roughly 0.3 relative
    // (perf's short-window weakness, SS5.3), and whether a given draw lands
    // inside the band would depend on the host's speed. Per-event means over
    // kEpochs epochs of each trial cut that noise by sqrt(kEpochs); the
    // band stays generous.
    constexpr std::size_t kEpochs = 16;
    perf::EventVector rr{};
    perf::EventVector sr{};
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
        const auto real_epoch = rs->run_epoch({.cores = 4, .memory_gb = 8});
        const auto sim_epoch = ss->run_epoch({.cores = 4, .memory_gb = 8});
        for (std::size_t e = 0; e < perf::kEventCount; ++e) {
            rr[e] += real_epoch.counters[e] / kEpochs;
            sr[e] += sim_epoch.counters[e] / kEpochs;
        }
    }
    for (std::size_t e = 0; e < perf::kEventCount; ++e) {
        if (rr[e] <= 0 || sr[e] <= 0) continue;
        const double ratio = rr[e] / sr[e];
        EXPECT_GT(ratio, 0.2) << "event " << e;
        EXPECT_LT(ratio, 5.0) << "event " << e;
    }
}

}  // namespace
}  // namespace pipetune::sim
