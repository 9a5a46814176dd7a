#pragma once
// PipeTuneService — the serial deployment façade: what §5.2's middleware
// looks like to a cluster operator with one tuning slot. One service
// instance owns the persistent state of a cluster (ground-truth store +
// metrics database, both auto-saved to a state directory) and serves HPT
// jobs one after another, warm-starting each from everything the cluster
// has learned so far.
//
//   core::PipeTuneService service(backend, {.state_dir = "/var/lib/pipetune"});
//   auto result = service.run(workload::find_workload("lenet-mnist"), {});
//
// Jobs are FIFO as in the paper (§5.1): submit() executes inline on the
// caller's thread and hands back an already-resolved future, so the
// TuningService surface behaves identically across serial and concurrent
// implementations. For genuine worker-thread concurrency construct the
// service through sched::make_tuning_service with concurrency > 1 instead.

#include <chrono>
#include <optional>
#include <string>

#include "pipetune/core/tuning_service.hpp"
#include "pipetune/core/warm_start.hpp"
#include "pipetune/metricsdb/tsdb.hpp"

namespace pipetune::core {

class PipeTuneService final : public TuningService {
public:
    /// Loads persisted state from `options.state_dir` when present; otherwise
    /// starts cold (optionally running the warm-start campaign). Concurrency
    /// fields of ServiceOptions (queue_capacity, reject_when_full) are
    /// ignored here — use the factory for a queued service.
    PipeTuneService(workload::Backend& backend, ServiceOptions options = {});

    /// Runs the job inline; the returned future is already resolved and
    /// options.on_settled has already run. Never returns nullopt (a serial
    /// service has no queue to overflow).
    std::optional<Submission> submit(const workload::Workload& workload,
                                     const hpt::HptJobConfig& job_config = {},
                                     SubmitOptions options = {}) override;

    void drain() override {}  // nothing is ever in flight

    /// Force a state flush (also happens after every job when
    /// persist_after_each_job is set).
    void persist() const override;

    std::size_t jobs_served() const override { return jobs_served_; }
    ServiceStats stats() const override;
    std::vector<JobTiming> job_timings() const override { return timings_; }

    GroundTruth ground_truth_snapshot() const override { return ground_truth_; }
    metricsdb::TimeSeriesDb metrics_snapshot() const override { return metrics_; }

    /// Replay recovered ground-truth mutations (ft::Recovery) into the store.
    void seed_ground_truth(const std::vector<GroundTruthEntry>& entries) override;

    /// Paths used for persistence (empty when running in-memory).
    std::string ground_truth_path() const override;
    std::string metrics_path() const override;

    obs::ObsContext* obs() const override { return options_.obs; }

    /// Direct views of the owned state (valid between jobs; serial services
    /// never mutate them concurrently with the caller).
    const GroundTruth& ground_truth() const { return ground_truth_; }
    const metricsdb::TimeSeriesDb& metrics() const { return metrics_; }

private:
    double clock_s() const;

    workload::Backend& backend_;
    ServiceOptions options_;
    GroundTruth ground_truth_;
    metricsdb::TimeSeriesDb metrics_;
    std::size_t jobs_served_ = 0;
    std::size_t jobs_failed_ = 0;
    std::uint64_t next_id_ = 0;
    std::vector<JobTiming> timings_;
    std::chrono::steady_clock::time_point epoch_;
    // Instrument references cached at construction (the obs pattern,
    // DESIGN.md §12): per-job/per-flush touches must not pay a registry
    // lookup. Null when options_.obs is null.
    obs::Counter* obs_flush_total_ = nullptr;
    obs::Histogram* obs_flush_seconds_ = nullptr;
    obs::Gauge* obs_points_ = nullptr;
    obs::Counter* obs_jobs_served_ = nullptr;
    obs::Counter* obs_job_retries_ = nullptr;
};

}  // namespace pipetune::core
