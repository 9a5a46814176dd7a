// Satellite requirement: N threads interleaving lookup() and record() on one
// GroundTruth through SharedClusterState, crossing refit_interval boundaries,
// with no torn reads and a consistent post-run entry count. Run under the
// tsan preset (ctest -L concurrency) to get data-race checking on top of the
// semantic assertions.

#include "pipetune/sched/shared_state.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

namespace pipetune::sched {
namespace {

std::vector<double> feature_vector(std::size_t thread_id, std::size_t i) {
    // Well-separated per-(thread, i) profiles so clustering has structure.
    const double base = static_cast<double>(thread_id) * 10.0;
    return {base + static_cast<double>(i % 5), base + 1.0, base + 2.0, base + 3.0};
}

workload::SystemParams params_for(std::size_t thread_id, std::size_t i) {
    workload::SystemParams params;
    params.cores = 4 + (thread_id * 31 + i) % 13;
    params.memory_gb = 4 + (thread_id * 17 + i) % 29;
    return params;
}

TEST(SharedClusterState, ConcurrentLookupRecordAcrossRefits) {
    // refit_interval = 4: with kThreads * kPerThread = 160 inserts the model
    // refits ~40 times while other threads are mid-lookup.
    core::GroundTruthConfig config;
    config.k = 2;
    config.min_entries_for_model = 4;
    config.refit_interval = 4;
    config.similarity_threshold = 0.0;  // every confident match reuses
    SharedClusterState state(config);

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 20;

    // Every SystemParams any thread may legally record, to detect torn reads:
    // a lookup must return nothing or exactly one of these.
    std::set<std::pair<std::size_t, std::size_t>> legal;
    for (std::size_t t = 0; t < kThreads; ++t)
        for (std::size_t i = 0; i < kPerThread; ++i) {
            const auto p = params_for(t, i);
            legal.insert({p.cores, p.memory_gb});
        }

    std::atomic<std::size_t> torn_reads{0};
    std::atomic<std::size_t> hits{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                // Interleave: lookup what others wrote, then record our own.
                double score = 0.0;
                const auto found = state.ground_truth().lookup(feature_vector(t, i), &score);
                if (found) {
                    hits.fetch_add(1);
                    if (legal.find({found->cores, found->memory_gb}) == legal.end())
                        torn_reads.fetch_add(1);
                }
                state.ground_truth().record(feature_vector(t, i), params_for(t, i),
                                            static_cast<double>(i));
                // And a few extra reads to widen the interleaving window.
                (void)state.ground_truth().size();
                (void)state.ground_truth().model_ready();
            }
        });
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(torn_reads.load(), 0u);
    EXPECT_EQ(state.ground_truth_size(), kThreads * kPerThread);
    EXPECT_TRUE(state.model_ready());
    EXPECT_GT(hits.load(), 0u);  // concurrent readers really saw writers' work

    // The store must still be coherent: a final lookup of a recorded profile
    // resolves against the refitted model without throwing.
    double score = 0.0;
    (void)state.ground_truth().lookup(feature_vector(0, 0), &score);
}

TEST(SharedClusterState, ConcurrentMetricAppendsStayMonotone) {
    SharedClusterState state;
    constexpr std::size_t kThreads = 6;
    constexpr std::size_t kPerThread = 50;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                // Each job generates locally monotone pseudo-times that
                // interleave arbitrarily across jobs; the shared sink must
                // absorb that without tripping the TSDB monotonicity check.
                state.metrics().append("epoch_duration", static_cast<double>(i), 1.0,
                                       {{"trial", std::to_string(t)}});
            }
        });
    for (auto& thread : threads) thread.join();

    const auto snapshot = state.metrics_snapshot();
    EXPECT_EQ(snapshot.total_points(), kThreads * kPerThread);
    const auto points = snapshot.select({.series = "epoch_duration"});
    for (std::size_t i = 1; i < points.size(); ++i)
        EXPECT_GE(points[i].time, points[i - 1].time);
}

TEST(SharedClusterState, SeededStateContinuesSeriesClock) {
    metricsdb::TimeSeriesDb metrics;
    metrics.append("epoch_duration", 10.0, 1.0);
    SharedClusterState state(core::GroundTruth{}, std::move(metrics));
    // An append with a smaller pseudo-time clamps up to the persisted clock.
    state.metrics().append("epoch_duration", 0.0, 2.0, {});
    const auto points = state.metrics_snapshot().select({.series = "epoch_duration"});
    ASSERT_EQ(points.size(), 2u);
    EXPECT_GE(points[1].time, 10.0);
}

TEST(SharedClusterState, SaveLoadRoundTrip) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "pt_shared_state_test").string();
    std::filesystem::remove_all(dir);
    {
        SharedClusterState state;
        state.ground_truth().record({1.0, 2.0}, {}, 1.0);
        state.metrics().append("epoch_duration", 0.0, 1.5, {});
        state.save(dir);
    }
    SharedClusterState restored;
    restored.set_ground_truth(core::GroundTruth::load(SharedClusterState::ground_truth_path(dir)));
    restored.set_metrics(metricsdb::TimeSeriesDb::load(SharedClusterState::metrics_path(dir)));
    EXPECT_EQ(restored.ground_truth_size(), 1u);
    EXPECT_EQ(restored.metric_points(), 1u);
    // Atomic writes leave no temp droppings behind.
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(entry.path().extension().string().find(".tmp"), std::string::npos)
            << entry.path();
    std::filesystem::remove_all(dir);
}

TEST(SharedClusterState, LoadedStateClampsNextAppendToLastPersistedTime) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "pt_shared_state_clamp_test").string();
    std::filesystem::remove_all(dir);
    {
        SharedClusterState state;
        state.metrics().append("epoch_duration", 0.0, 1.0, {});
        state.metrics().append("epoch_duration", 41.0, 1.0, {{"trial", "1"}});
        state.metrics().append("epoch_energy", 7.0, 1.0, {});
        state.save(dir);
    }
    SharedClusterState restored;
    restored.metrics().append("epoch_duration", 99.0, 1.0, {});  // replaced by set_metrics()
    restored.set_metrics(metricsdb::TimeSeriesDb::load(SharedClusterState::metrics_path(dir)));
    restored.metrics().append("epoch_duration", 3.0, 2.0, {});
    restored.metrics().append("epoch_energy", 9.0, 2.0, {});  // already past: kept as is
    restored.metrics().append("epoch_accuracy", 0.5, 2.0, {});  // new series: kept as is
    const auto snapshot = restored.metrics_snapshot();
    EXPECT_EQ(snapshot.select({.series = "epoch_duration"}).back().time, 41.0);
    EXPECT_EQ(snapshot.select({.series = "epoch_energy"}).back().time, 9.0);
    EXPECT_EQ(snapshot.select({.series = "epoch_accuracy"}).back().time, 0.5);
    EXPECT_EQ(restored.metric_points(), 6u);
    EXPECT_EQ(restored.metrics().count({.series = "epoch_duration"}), 3u);
    std::filesystem::remove_all(dir);
}

TEST(SharedClusterState, ConcurrentAppendersKeepEverySeriesMonotone) {
    // Four jobs, each with its own locally monotone clock starting at a
    // different offset, writing all three epoch series, while count() (the
    // policy's pseudo-clock) reads alongside.
    SharedClusterState state;
    const std::vector<std::string> series = {"epoch_duration", "epoch_energy", "epoch_accuracy"};
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 200;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            std::size_t last_count = 0;
            for (std::size_t i = 0; i < kPerThread; ++i) {
                const double time = static_cast<double>(t * 50 + i);
                for (const auto& name : series)
                    state.metrics().append(name, time, 1.0, {{"trial", std::to_string(t)}});
                const std::size_t now = state.metrics().count({.series = "epoch_duration"});
                EXPECT_GE(now, last_count);
                last_count = now;
            }
        });
    for (auto& thread : threads) thread.join();

    const auto snapshot = state.metrics_snapshot();
    EXPECT_EQ(state.metric_points(), kThreads * kPerThread * series.size());
    for (const auto& name : series) {
        const auto points = snapshot.select({.series = name});
        ASSERT_EQ(points.size(), kThreads * kPerThread) << name;
        for (std::size_t i = 1; i < points.size(); ++i)
            ASSERT_GE(points[i].time, points[i - 1].time) << name << " at " << i;
        for (std::size_t t = 0; t < kThreads; ++t)
            EXPECT_EQ(snapshot.count({.series = name, .tags = {{"trial", std::to_string(t)}}}),
                      kPerThread);
    }
}

}  // namespace
}  // namespace pipetune::sched
