#include "pipetune/sched/shared_state.hpp"

#include <filesystem>
#include <utility>

#include "pipetune/util/logging.hpp"

namespace pipetune::sched {

SharedClusterState::SharedClusterState(core::GroundTruthConfig config)
    : truth_(config), truth_view_(*this), metrics_view_(*this) {
    republish_truth_locked();  // single-threaded in the constructor
    refresh_truth_stats_locked();
}

SharedClusterState::SharedClusterState(core::GroundTruth ground_truth,
                                       metricsdb::TimeSeriesDb metrics)
    : truth_(std::move(ground_truth)),
      metrics_(std::move(metrics)),
      truth_view_(*this),
      metrics_view_(*this) {
    republish_truth_locked();
    refresh_truth_stats_locked();
    refresh_metrics_stats_locked();
}

core::GroundTruthStore& SharedClusterState::ground_truth() { return truth_view_; }
metricsdb::MetricsSink& SharedClusterState::metrics() { return metrics_view_; }

void SharedClusterState::republish_truth_locked() {
    // The O(n) copy happens OUTSIDE the snapshot mutex; only the pointer
    // swap is inside, so lookups are never blocked behind it.
    auto fresh = std::make_shared<const core::GroundTruth>(truth_);
    std::shared_ptr<const core::GroundTruth> old;
    {
        std::lock_guard<std::mutex> lock(snapshot_mutex_);
        old = std::exchange(truth_snapshot_, std::move(fresh));
    }
    // `old` destructs here — outside the mutex, in case this is the last ref.
}

std::shared_ptr<const core::GroundTruth> SharedClusterState::truth_snapshot_ptr() const {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    return truth_snapshot_;
}

void SharedClusterState::refresh_truth_stats_locked() {
    const std::uint64_t size = truth_.size();
    const bool ready = truth_.model_ready();
    stats_.update([&](StateStats& s) {
        s.truth_size = size;
        s.model_ready = ready;
    });
}

void SharedClusterState::refresh_metrics_stats_locked() {
    const std::uint64_t points = metrics_.total_points();
    stats_.update([&](StateStats& s) { s.metric_points = points; });
}

std::size_t SharedClusterState::ground_truth_size() const {
    return static_cast<std::size_t>(stats_.read().truth_size);
}

bool SharedClusterState::model_ready() const { return stats_.read().model_ready; }

std::size_t SharedClusterState::metric_points() const {
    return static_cast<std::size_t>(stats_.read().metric_points);
}

core::GroundTruth SharedClusterState::ground_truth_snapshot() const {
    // The RCU snapshot IS a consistent copy — copy from it directly.
    return *truth_snapshot_ptr();
}

metricsdb::TimeSeriesDb SharedClusterState::metrics_snapshot() const {
    std::shared_lock lock(metrics_mutex_);
    return metrics_;
}

std::string SharedClusterState::ground_truth_path(const std::string& state_dir) {
    return state_dir.empty() ? std::string() : state_dir + "/ground_truth.json";
}

std::string SharedClusterState::metrics_path(const std::string& state_dir) {
    return state_dir.empty() ? std::string() : state_dir + "/metrics.json";
}

void SharedClusterState::set_ground_truth(core::GroundTruth truth) {
    std::unique_lock lock(truth_mutex_);
    truth_ = std::move(truth);
    republish_truth_locked();
    refresh_truth_stats_locked();
}

void SharedClusterState::set_metrics(metricsdb::TimeSeriesDb metrics) {
    std::unique_lock lock(metrics_mutex_);
    metrics_ = std::move(metrics);
    refresh_metrics_stats_locked();
}

void SharedClusterState::save(const std::string& state_dir) const {
    if (state_dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(state_dir, ec);
    if (ec)
        throw std::runtime_error("SharedClusterState::save: cannot create '" + state_dir +
                                 "': " + ec.message());
    // Ground truth serializes from the RCU snapshot (no lock at all); the
    // metrics store is copied under a shared lock and written outside it.
    truth_snapshot_ptr()->save(ground_truth_path(state_dir));
    metrics_snapshot().save(metrics_path(state_dir));
}

std::optional<workload::SystemParams> SharedClusterState::LockedGroundTruth::lookup(
    const std::vector<double>& features, double* score_out) const {
    // Hot path (every trial of every job): one micro-mutexed shared_ptr
    // copy, then a lookup against the immutable snapshot with no lock held.
    // The snapshot may lag a concurrent record() by one publish — the same
    // staleness a reader arriving a moment earlier would have seen.
    const auto snap = state_.truth_snapshot_ptr();
    return snap->lookup(features, score_out);
}

void SharedClusterState::LockedGroundTruth::record(const std::vector<double>& features,
                                                   const workload::SystemParams& best,
                                                   double metric) {
    std::unique_lock lock(state_.truth_mutex_);
    state_.truth_.record(features, best, metric);
    // Copy-on-write republish: O(store size), but records are rare (one per
    // finished campaign) and lookups are the hot path.
    state_.republish_truth_locked();
    state_.refresh_truth_stats_locked();
}

std::size_t SharedClusterState::LockedGroundTruth::size() const {
    return static_cast<std::size_t>(state_.stats_.read().truth_size);
}

bool SharedClusterState::LockedGroundTruth::model_ready() const {
    return state_.stats_.read().model_ready;
}

void SharedClusterState::LockedMetrics::append(const std::string& series, double time,
                                               double value, metricsdb::TagSet tags) {
    std::unique_lock lock(state_.metrics_mutex_);
    // Each job's policy generates locally monotone pseudo-times; interleaved
    // jobs would violate the per-series monotonicity the TSDB enforces, so
    // clamp to the series' last stored time, which the columnar store keeps
    // at the back of its time column.
    if (const auto last = state_.metrics_.last_time(series); last && time < *last) time = *last;
    state_.metrics_.append(series, time, value, std::move(tags));
    // Incremental: one seqlock publish, not a full total_points() rescan.
    state_.stats_.update([](StateStats& s) { ++s.metric_points; });
}

std::size_t SharedClusterState::LockedMetrics::count(const metricsdb::Query& query) const {
    std::shared_lock lock(state_.metrics_mutex_);
    return state_.metrics_.count(query);
}

}  // namespace pipetune::sched
