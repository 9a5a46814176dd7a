#pragma once
// TuningService — the one deployment API, implemented by
// sched::ConcurrentPipeTuneService (jobs queue behind `concurrency` worker
// slots; one slot is the paper's serial FIFO deployment). The CLI, the
// benches and the examples drive this surface, and decorators such as a
// timing probe can wrap it:
//
//   core::ServiceOptions options{.state_dir = dir, .concurrency = 4};
//   sched::ConcurrentPipeTuneService service(backend, options);
//   auto submission = service.submit(workload, job_config);
//   core::PipeTuneJobResult result = submission->result.get();
//
// Observability is injected the same way everywhere: an obs::ObsContext
// pointer in the options, threaded by the service into every layer below
// (scheduler, runner, policy, metricsdb flushes). Null = telemetry off.

#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "pipetune/core/experiment.hpp"
#include "pipetune/ft/retry_policy.hpp"
#include "pipetune/obs/obs_context.hpp"

namespace pipetune::core {

/// Queue class (maps onto sched::Priority).
enum class SubmitPriority { kHigh = 0, kNormal = 1, kBatch = 2 };
const char* to_string(SubmitPriority priority);

/// Per-job submission knobs. Everything is optional; a default-constructed
/// SubmitOptions is always valid.
struct SubmitOptions {
    std::string label;  ///< for traces/spans; defaults to the workload name
    SubmitPriority priority = SubmitPriority::kNormal;
    /// Queueing budget in seconds (0 = none): a job still queued past it is
    /// discarded without running.
    double deadline_s = 0.0;
    /// Backend reseed value recorded verbatim in the journal's job_submitted
    /// payload (services do not interpret it). A driver that reseeds a
    /// ft::ReseedingBackend per job stores the FULLY DERIVED per-job seed
    /// here (ReseedingBackend::job_seed(base, id), not the base), so resume
    /// can begin_job(backend_seed) directly and reproduce the job's trial
    /// stream exactly regardless of what id the resumed service assigns the
    /// re-run. 0 = caller does not use reseeding.
    std::uint64_t backend_seed = 0;
    /// Force the job id (0 = service assigns the next one). The resume path
    /// re-runs a pending job UNDER ITS ORIGINAL ID so the journal's eventual
    /// job_completed record marks that job terminal — re-running under a
    /// fresh id would leave the original pending forever. Later assigned ids
    /// come after every forced one; forcing an id the service already holds
    /// makes submit() throw std::invalid_argument.
    std::uint64_t job_id = 0;
    /// Completion hook for callers that must not block on (or poll) the
    /// future. Runs exactly once, on whichever thread settled the job, after
    /// the future is ready and after the job shows as terminal in
    /// job_timings() and stats(). Never runs when submit() returns nullopt.
    std::function<void()> on_settled{};
};

/// Service configuration.
struct ServiceOptions {
    /// Directory for the state snapshot (ground_truth.json, metrics.json and,
    /// with a journal, the snapshot.json manifest; DESIGN.md §10); empty =
    /// in-memory.
    std::string state_dir;
    PipeTuneConfig pipetune{};
    /// Worker slots (§7.4 multi-tenancy). <= 1 means one slot: jobs run one
    /// after another in submit order, FIFO as in §5.1.
    std::size_t concurrency = 1;
    std::size_t queue_capacity = 64;
    /// Full queue at submit: true = shed the job (submit returns nullopt),
    /// false = block until space.
    bool reject_when_full = false;
    /// Run the §7.2 offline profiling campaign on construction when the
    /// store starts empty (skipped if persisted state is found).
    bool warm_start_on_first_use = false;
    std::vector<workload::Workload> warm_start_workloads{};
    /// Telemetry sink (metrics + spans) threaded through every layer the
    /// service touches. Not owned; null disables instrumentation.
    obs::ObsContext* obs = nullptr;
    /// Write-ahead journal (DESIGN.md §10). When set, the service durably
    /// records job lifecycle (job_submitted / job_completed / job_failed)
    /// and threads the journal into each job's PipeTunePolicy for trial,
    /// epoch and ground-truth records. Not owned; may be null.
    ft::Journal* journal = nullptr;
    /// Retry policy for jobs that fail with an ft::TransientFailure: the
    /// scheduler requeues the job (same id, original priority and deadline).
    /// max_retries = 0 disables retrying.
    ft::RetryPolicy retry{.max_retries = 0};
};

/// Lifetime job counters (the service maps sched::SchedulerStats onto
/// this).
struct ServiceStats {
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::size_t timed_out = 0;
    std::size_t running = 0;
    std::size_t queued = 0;
    std::size_t max_queue_depth = 0;
};

/// Wall-clock lifecycle of one submitted job, on the service's own clock
/// (seconds since construction). The replay CLI turns these into a
/// cluster::JobRecord trace for response-time summaries.
struct JobTiming {
    std::uint64_t id = 0;
    std::string label;
    double submit_s = 0.0;
    double start_s = -1.0;   ///< -1 = never started (discarded while queued)
    double finish_s = -1.0;  ///< -1 = not terminal yet
    bool ok = false;         ///< completed without error
    std::string error;       ///< failure/discard reason when !ok
};

class TuningService {
public:
    virtual ~TuningService() = default;

    struct Submission {
        std::uint64_t id = 0;
        std::future<PipeTuneJobResult> result;
    };

    /// Admit one HPT job; the returned future settles when it finishes.
    /// Returns nullopt only when admission control sheds the job
    /// (reject_when_full and the queue is full, or the service is shutting
    /// down). Job failure travels through the future as its exception, never
    /// through the optional.
    virtual std::optional<Submission> submit(const workload::Workload& workload,
                                             const hpt::HptJobConfig& job_config = {},
                                             SubmitOptions options = {}) = 0;

    /// Blocking convenience: submit + get. Throws if the job was shed or
    /// failed.
    PipeTuneJobResult run(const workload::Workload& workload,
                          const hpt::HptJobConfig& job_config = {}, SubmitOptions options = {});

    /// Block until every admitted job is terminal.
    virtual void drain() = 0;

    /// Best-effort cancel: a queued job is discarded (its future reports the
    /// cancellation), a running job gets its cooperative flag set. A
    /// cancelled-while-queued job gets NO terminal journal record — it stays
    /// pending, and `pipetune resume` re-runs it.
    virtual bool cancel(std::uint64_t id) {
        (void)id;
        return false;
    }

    /// Discard every still-queued job (their futures report the discard) and
    /// return how many were dropped. Running jobs are untouched. This is the
    /// fast-drain half of a SIGTERM: running jobs finish and journal their
    /// completion, queued jobs stay journal-pending so a `pipetune resume`
    /// completes the remainder (DESIGN.md §11 overload/drain semantics).
    virtual std::size_t discard_queued() { return 0; }

    /// Write a snapshot of the state files now (no-op when state_dir is
    /// empty). Services also snapshot on their own, off the job path.
    virtual void persist() const = 0;

    /// Jobs that ran to completion over the service's lifetime.
    virtual std::size_t jobs_served() const = 0;
    virtual ServiceStats stats() const = 0;
    /// Lifecycle timings for every job ever submitted, in id order.
    virtual std::vector<JobTiming> job_timings() const = 0;

    /// Synchronized copies of the cluster state (safe while jobs run).
    virtual GroundTruth ground_truth_snapshot() const = 0;
    virtual metricsdb::TimeSeriesDb metrics_snapshot() const = 0;

    /// Bulk-insert recovered ground-truth entries (ft::Recovery's replay of
    /// completed jobs' gt_record mutations) before any new job runs. Entries
    /// are applied in order through the same record() path a live probe uses,
    /// unless the service already recovered them from its own state dir and
    /// journal.
    virtual void seed_ground_truth(const std::vector<GroundTruthEntry>& entries) = 0;

    /// Persistence paths (empty when running in-memory).
    virtual std::string ground_truth_path() const = 0;
    virtual std::string metrics_path() const = 0;

    /// The telemetry context this service reports into (null = disabled).
    virtual obs::ObsContext* obs() const = 0;
};

/// job_submitted journal payload for one submission — the schema ft::Recovery
/// and the resume CLI read back.
util::Json journal_submit_payload(std::uint64_t job_id, const std::string& label,
                                  const workload::Workload& workload,
                                  const hpt::HptJobConfig& job_config,
                                  const SubmitOptions& options);
/// Inverse of journal_submit_payload (the resume path): rebuild the
/// workload, job config and submit options a recovered job was originally
/// submitted with. workload_from_journal throws std::invalid_argument for a
/// workload name the catalogue does not know.
workload::Workload workload_from_journal(const util::Json& payload);
hpt::HptJobConfig job_config_from_journal(const util::Json& payload);
SubmitOptions submit_options_from_journal(const util::Json& payload);

}  // namespace pipetune::core
