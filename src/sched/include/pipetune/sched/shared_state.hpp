#pragma once
// Thread-safe shared cluster state: the one ground-truth store and metrics
// database that every concurrent tuning job reads and warms (paper §5.4 —
// "the ground truth is shared across jobs"; what makes multi-tenant
// concurrency pay off is that early finishers shorten the probing of jobs
// still in the queue).
//
// Read-path architecture (DESIGN.md §8, §12). The hot reads are wait-bounded:
//  - GroundTruth lookup goes through an RCU-style snapshot: readers copy a
//    shared_ptr to an immutable GroundTruth under a dedicated micro-mutex
//    whose critical section is just the refcount bump — never the store
//    mutation, the O(n) copy-on-write, or serialization, which all happen
//    outside it. record()/set_ground_truth() mutate the master under the
//    write lock and republish a fresh snapshot (records are rare, one per
//    finished campaign, while lookups happen on every trial of every queued
//    job).
//    (A std::atomic<shared_ptr> would make this fully lock-free, but GCC's
//    implementation synchronizes through pointer-bit spinlocks that
//    ThreadSanitizer cannot see; the micro-mutex is tsan-clean.)
//  - The scalar stats (size / model_ready / total points) are read through a
//    util::Seqlock snapshot, refreshed by every writer.
// Writers keep the original discipline:
//  - Each of the two stores has its own std::shared_mutex; they are never
//    held together, so lock ordering is a non-issue.
//  - record / append / set_* take unique locks; whole-store snapshots
//    (metrics_snapshot / save) take shared locks.
//  - The metrics view additionally clamps pseudo-times per series under the
//    write lock, up to the series' last stored time: concurrent jobs each
//    generate locally monotone times, and interleaving them raw would
//    violate the TSDB's per-series monotonicity invariant.

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "pipetune/core/ground_truth.hpp"
#include "pipetune/metricsdb/tsdb.hpp"
#include "pipetune/util/seqlock.hpp"
#include "pipetune/workload/types.hpp"

namespace pipetune::sched {

class SharedClusterState {
public:
    explicit SharedClusterState(core::GroundTruthConfig config = {});
    /// Seed from existing state (e.g. a warm-start campaign's store).
    SharedClusterState(core::GroundTruth ground_truth, metricsdb::TimeSeriesDb metrics);

    SharedClusterState(const SharedClusterState&) = delete;
    SharedClusterState& operator=(const SharedClusterState&) = delete;

    /// Locked views, safe to hand to concurrently running PipeTunePolicy
    /// instances. Both are owned by (and valid as long as) this object.
    core::GroundTruthStore& ground_truth();
    metricsdb::MetricsSink& metrics();

    // Synchronized reads of the underlying stores. The scalar reads are
    // lock-free (seqlock snapshot); ground_truth_snapshot is the RCU copy.
    std::size_t ground_truth_size() const;
    bool model_ready() const;
    std::size_t metric_points() const;
    core::GroundTruth ground_truth_snapshot() const;
    metricsdb::TimeSeriesDb metrics_snapshot() const;

    /// Replace the stores' contents (a service loading its state dir).
    void set_ground_truth(core::GroundTruth truth);
    void set_metrics(metricsdb::TimeSeriesDb metrics);

    /// Persist both live stores under `state_dir` (atomic temp-file + rename
    /// per file). Copies under shared locks, serializes and writes outside
    /// them. A service's state dir is written by its own snapshots instead
    /// (DESIGN.md §10), from committed entries only.
    void save(const std::string& state_dir) const;

    static std::string ground_truth_path(const std::string& state_dir);
    static std::string metrics_path(const std::string& state_dir);

private:
    /// Scalar hot-read snapshot, published through a seqlock by every writer.
    struct StateStats {
        std::uint64_t truth_size = 0;
        std::uint64_t metric_points = 0;
        bool model_ready = false;
    };

    class LockedGroundTruth final : public core::GroundTruthStore {
    public:
        explicit LockedGroundTruth(SharedClusterState& state) : state_(state) {}
        std::optional<workload::SystemParams> lookup(const std::vector<double>& features,
                                                     double* score_out) const override;
        void record(const std::vector<double>& features, const workload::SystemParams& best,
                    double metric) override;
        std::size_t size() const override;
        bool model_ready() const override;

    private:
        SharedClusterState& state_;
    };

    class LockedMetrics final : public metricsdb::MetricsSink {
    public:
        explicit LockedMetrics(SharedClusterState& state) : state_(state) {}
        void append(const std::string& series, double time, double value,
                    metricsdb::TagSet tags) override;
        std::size_t count(const metricsdb::Query& query) const override;

    private:
        SharedClusterState& state_;
    };

    /// Republish the RCU snapshot from truth_. Caller holds truth_mutex_
    /// exclusively.
    void republish_truth_locked();
    /// Copy the current snapshot pointer (micro-critical-section).
    std::shared_ptr<const core::GroundTruth> truth_snapshot_ptr() const;
    /// Refresh the seqlock scalars. Caller holds the respective write lock
    /// (values are read from the stores, so they must be quiescent).
    void refresh_truth_stats_locked();
    void refresh_metrics_stats_locked();

    mutable std::shared_mutex truth_mutex_;
    mutable std::shared_mutex metrics_mutex_;
    core::GroundTruth truth_;
    metricsdb::TimeSeriesDb metrics_;
    /// Immutable copy for near-lock-free lookup; swapped whole on every
    /// record. snapshot_mutex_ guards ONLY the pointer copy/swap.
    mutable std::mutex snapshot_mutex_;
    std::shared_ptr<const core::GroundTruth> truth_snapshot_;
    util::Seqlock<StateStats> stats_;
    LockedGroundTruth truth_view_;
    LockedMetrics metrics_view_;
};

/// Backend adapter that serializes start_trial() calls. Backend
/// implementations draw per-trial seeds from an internal RNG, which is the
/// one mutation concurrent jobs would race on; the sessions themselves are
/// per-trial objects and safe to drive from their own threads.
class SerializedBackend final : public workload::Backend {
public:
    explicit SerializedBackend(workload::Backend& inner) : inner_(inner) {}

    std::unique_ptr<workload::TrialSession> start_trial(
        const workload::Workload& workload, const workload::HyperParams& hyper) override {
        std::lock_guard<std::mutex> lock(mutex_);
        return inner_.start_trial(workload, hyper);
    }

    std::string name() const override { return inner_.name(); }

private:
    workload::Backend& inner_;
    std::mutex mutex_;
};

}  // namespace pipetune::sched
