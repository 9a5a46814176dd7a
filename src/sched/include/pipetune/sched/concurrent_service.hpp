#pragma once
// ConcurrentPipeTuneService — the implementation of core::TuningService.
// submit() returns immediately with a future: jobs queue FIFO (per priority
// class) behind `concurrency` worker slots and run against one
// SharedClusterState, so an early finisher's recorded configurations are
// visible to every job still probing (the paper's §7.4 sharing effect, on
// real threads instead of virtual time). A serial deployment is the same
// service with one slot: jobs then run one after another in submit order,
// as in §5.1.
//
//   sim::SimBackend backend;
//   sched::ConcurrentPipeTuneService service(backend, {.concurrency = 4});
//   auto a = service.submit(workload::find_workload("lenet-mnist"), {});
//   auto b = service.submit(workload::find_workload("lenet-fashion"), {});
//   core::PipeTuneJobResult rb = b->result.get();  // may have warm-started from a
//
// Futures surface failure as the job's exception; a job discarded before
// running (cancelled while queued, queue-deadline exceeded, or dropped by
// discard_queued) reports a sched::JobDiscarded naming the terminal state.
// A job shed by a full reject-mode queue is never admitted: submit returns
// nullopt. Every admitted job's future is settled in one place, the
// scheduler's DoneFn, after the job shows as terminal in stats() and
// job_timings(); SubmitOptions::on_settled runs right after.
//
// With a state_dir the service keeps it as a snapshot plus, with a journal,
// the journal's tail (DESIGN.md §10). A job's completion is durable before
// its future settles; the snapshot files are written off the worker slots.

#include <future>
#include <memory>
#include <optional>
#include <stdexcept>

#include "pipetune/core/tuning_service.hpp"
#include "pipetune/sched/scheduler.hpp"
#include "pipetune/sched/shared_state.hpp"

namespace pipetune::sched {

/// A job's future carries this when the job was dropped before it ran
/// (cancelled or timed out while queued, or discarded by discard_queued()):
/// the job never failed, so a server answers "resubmit" rather than "fault".
class JobDiscarded : public std::runtime_error {
public:
    explicit JobDiscarded(const std::string& what) : std::runtime_error(what) {}
};

class DurableState;

class ConcurrentPipeTuneService final : public core::TuningService {
public:
    /// `options.concurrency` (clamped to >= 1) sets the worker slots; the
    /// warm-start fields seed the shared store when no persisted state is
    /// found. A state_dir is loaded here: the manifest's prefix of its
    /// ground truth plus, with a journal, the journal's completed jobs past
    /// it.
    ConcurrentPipeTuneService(workload::Backend& backend, core::ServiceOptions options = {});
    /// Drains in-flight jobs, persists, joins the workers.
    ~ConcurrentPipeTuneService();
    ConcurrentPipeTuneService(const ConcurrentPipeTuneService&) = delete;
    ConcurrentPipeTuneService& operator=(const ConcurrentPipeTuneService&) = delete;

    /// Enqueue one HPT job. Returns nullopt when admission control rejected
    /// it (reject_when_full and the queue is full, or the service is shutting
    /// down); otherwise the call may block for queue space. A forced
    /// options.job_id the scheduler already holds throws
    /// std::invalid_argument.
    std::optional<Submission> submit(const workload::Workload& workload,
                                     const hpt::HptJobConfig& job_config = {},
                                     core::SubmitOptions options = {}) override;

    /// Cooperative cancel (see ClusterScheduler::cancel).
    bool cancel(std::uint64_t id) override { return scheduler_.cancel(id); }
    JobState state(std::uint64_t id) const { return scheduler_.state(id); }
    /// Block until every submitted job is terminal, then snapshot the
    /// state dir if anything was committed since the last snapshot.
    void drain() override;
    /// Drop every still-queued job (stays journal-pending; see the interface
    /// contract) — the SIGTERM fast-drain hook used by net::TuningServer.
    std::size_t discard_queued() override { return scheduler_.discard_queued(); }

    std::size_t jobs_served() const override {
        return jobs_served_.load(std::memory_order_relaxed);
    }
    core::ServiceStats stats() const override;
    std::vector<core::JobTiming> job_timings() const override;

    core::GroundTruth ground_truth_snapshot() const override {
        return state_.ground_truth_snapshot();
    }
    metricsdb::TimeSeriesDb metrics_snapshot() const override {
        return state_.metrics_snapshot();
    }

    /// Replay recovered ground-truth mutations (ft::Recovery) into the
    /// shared store. Call before submitting resumed jobs. A service with a
    /// state dir and a journal has already applied that journal's completed
    /// jobs while loading, so seeding it with exactly those mutations (the
    /// plan ft::Recovery yields for the same journal) changes nothing.
    void seed_ground_truth(const std::vector<core::GroundTruthEntry>& entries) override;

    /// Scheduler-native stats (richer than the interface's ServiceStats).
    SchedulerStats scheduler_stats() const { return scheduler_.stats(); }
    /// Completed-job wall-clock trace; feed to cluster::summarize_trace.
    std::vector<cluster::JobRecord> trace() const { return scheduler_.trace(); }

    SharedClusterState& cluster_state() { return state_; }
    const ClusterScheduler& scheduler() const { return scheduler_; }

    /// Write a snapshot of the state dir now, on the calling thread (also
    /// runs on destruction). A no-op without a state dir, and once a job has
    /// died of an ft::SimulatedCrash: the modelled process is dead, so the
    /// files keep what the last snapshot before the crash wrote.
    void persist() const override;
    std::string ground_truth_path() const override;
    std::string metrics_path() const override;

    obs::ObsContext* obs() const override { return options_.obs; }

private:
    core::ServiceOptions options_;
    SerializedBackend backend_;
    SharedClusterState state_;
    std::atomic<std::size_t> jobs_served_{0};
    // Instrument references cached at construction (the obs pattern,
    // DESIGN.md §12): the per-job and per-flush paths must not pay a
    // registry lookup. Null when options_.obs is null.
    obs::Counter* obs_flush_total_ = nullptr;
    obs::Histogram* obs_flush_seconds_ = nullptr;
    obs::Gauge* obs_points_ = nullptr;
    obs::Counter* obs_jobs_served_ = nullptr;
    std::unique_ptr<DurableState> durable_;  ///< null without a state_dir
    ClusterScheduler scheduler_;  ///< after state_ and durable_: jobs reference them
};

}  // namespace pipetune::sched
