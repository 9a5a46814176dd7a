#include "pipetune/sched/concurrent_service.hpp"

#include "durable_state.hpp"

#include "pipetune/core/warm_start.hpp"
#include "pipetune/ft/errors.hpp"
#include "pipetune/ft/journal.hpp"
#include "pipetune/util/logging.hpp"

namespace pipetune::sched {

namespace {

SchedulerConfig scheduler_config(const core::ServiceOptions& options) {
    SchedulerConfig config;
    config.worker_slots = std::max<std::size_t>(1, options.concurrency);
    config.queue_capacity = options.queue_capacity;
    config.overflow =
        options.reject_when_full ? OverflowPolicy::kReject : OverflowPolicy::kBlock;
    config.retry = options.retry;
    config.obs = options.obs;
    return config;
}

/// One job's view of the shared ground truth: forwards everything and keeps
/// the entries the job records, which the job commits when it completes. It
/// outlives retries, so a requeued job commits every attempt's records, as
/// ft::Recovery replays them.
class RecordingGroundTruth final : public core::GroundTruthStore {
public:
    explicit RecordingGroundTruth(core::GroundTruthStore& inner) : inner_(inner) {}
    std::optional<workload::SystemParams> lookup(const std::vector<double>& features,
                                                 double* score_out) const override {
        return inner_.lookup(features, score_out);
    }
    void record(const std::vector<double>& features, const workload::SystemParams& best,
                double metric) override {
        inner_.record(features, best, metric);
        recorded.push_back({features, best, metric});
    }
    std::size_t size() const override { return inner_.size(); }
    bool model_ready() const override { return inner_.model_ready(); }

    std::vector<core::GroundTruthEntry> recorded;

private:
    core::GroundTruthStore& inner_;
};

Priority to_sched_priority(core::SubmitPriority priority) {
    switch (priority) {
        case core::SubmitPriority::kHigh: return Priority::kHigh;
        case core::SubmitPriority::kNormal: return Priority::kNormal;
        case core::SubmitPriority::kBatch: return Priority::kBatch;
    }
    return Priority::kNormal;
}

}  // namespace

ConcurrentPipeTuneService::ConcurrentPipeTuneService(workload::Backend& backend,
                                                     core::ServiceOptions options)
    : options_(std::move(options)),
      backend_(backend),
      state_(options_.pipetune.ground_truth),
      scheduler_(scheduler_config(options_)) {
    if (options_.obs != nullptr) {
        auto& registry = options_.obs->metrics();
        obs_flush_total_ = &registry.counter(
            "pipetune_metricsdb_flush_total", {},
            "State-dir snapshots (ground truth + metrics db), written off the job path");
        obs_flush_seconds_ =
            &registry.histogram("pipetune_metricsdb_flush_seconds",
                                {0.001, 0.005, 0.02, 0.1, 0.5, 2.0}, {},
                                "Wall-clock latency of one state-dir snapshot");
        obs_points_ =
            &registry.gauge("pipetune_metricsdb_points", {}, "Points in the metrics database");
        obs_jobs_served_ =
            &registry.counter("pipetune_service_jobs_served_total", {},
                              "HPT jobs run to completion by a tuning service");
    }
    if (options_.journal != nullptr && options_.obs != nullptr)
        options_.journal->attach_metrics(options_.obs->metrics());
    if (!options_.state_dir.empty()) {
        durable_ = std::make_unique<DurableState>(
            state_, options_.state_dir, options_.journal, options_.pipetune.ground_truth,
            DurableState::Instruments{options_.obs, obs_flush_total_, obs_flush_seconds_,
                                      obs_points_});
        if (state_.ground_truth_size() > 0)
            PT_LOG_INFO("sched").field("profiles", state_.ground_truth_size())
                << "loaded shared ground truth from " << ground_truth_path();
    }
    if (state_.ground_truth_size() == 0 && options_.warm_start_on_first_use &&
        !options_.warm_start_workloads.empty()) {
        core::WarmStartConfig warm;
        warm.ground_truth = options_.pipetune.ground_truth;
        const core::GroundTruth seeded =
            core::build_warm_ground_truth(backend_, options_.warm_start_workloads, warm);
        for (const auto& entry : seeded.entries())
            state_.ground_truth().record(entry.features, entry.best_system, entry.metric);
        if (durable_) durable_->commit_base(seeded.entries());
        PT_LOG_INFO("sched").field("profiles", state_.ground_truth_size())
            << "warm-start campaign finished";
    }
}

ConcurrentPipeTuneService::~ConcurrentPipeTuneService() {
    scheduler_.shutdown(true);
    if (durable_) {
        durable_->stop_compactor();
        try {
            persist();
        } catch (const std::exception& e) {
            PT_LOG_ERROR("sched") << "final persist failed: " << e.what();
        }
    }
}

void ConcurrentPipeTuneService::drain() {
    scheduler_.drain();
    if (durable_) durable_->snapshot_if_dirty();
}

std::string ConcurrentPipeTuneService::ground_truth_path() const {
    return options_.state_dir.empty()
               ? std::string()
               : SharedClusterState::ground_truth_path(options_.state_dir);
}

std::string ConcurrentPipeTuneService::metrics_path() const {
    return options_.state_dir.empty() ? std::string()
                                      : SharedClusterState::metrics_path(options_.state_dir);
}

void ConcurrentPipeTuneService::persist() const {
    if (durable_) durable_->snapshot();
}

void ConcurrentPipeTuneService::seed_ground_truth(
    const std::vector<core::GroundTruthEntry>& entries) {
    if (durable_ && !entries.empty() && entries == durable_->recovered()) {
        PT_LOG_INFO("sched").field("entries", entries.size())
            << "ground truth already recovered from the state dir and journal";
        return;
    }
    for (const core::GroundTruthEntry& entry : entries)
        state_.ground_truth().record(entry.features, entry.best_system, entry.metric);
    if (durable_ && !entries.empty()) durable_->commit_base(entries);
    if (!entries.empty())
        PT_LOG_INFO("sched").field("entries", entries.size())
            << "ground truth seeded from recovery";
}

core::ServiceStats ConcurrentPipeTuneService::stats() const {
    const SchedulerStats sched = scheduler_.stats();
    core::ServiceStats out;
    out.submitted = sched.submitted;
    out.completed = sched.completed;
    out.failed = sched.failed;
    out.cancelled = sched.cancelled;
    out.timed_out = sched.timed_out;
    out.running = sched.running;
    out.queued = sched.queued;
    out.max_queue_depth = sched.max_queue_depth;
    return out;
}

std::vector<core::JobTiming> ConcurrentPipeTuneService::job_timings() const {
    std::vector<core::JobTiming> out;
    for (const JobInfo& info : scheduler_.jobs()) {
        core::JobTiming timing;
        timing.id = info.id;
        timing.label = info.label;
        timing.submit_s = info.submit_s;
        timing.start_s = info.start_s;
        timing.finish_s = info.finish_s;
        timing.ok = info.state == JobState::kCompleted;
        timing.error = info.state == JobState::kCompleted ? std::string()
                       : info.error.empty() ? std::string(to_string(info.state))
                                            : info.error;
        out.push_back(std::move(timing));
    }
    return out;
}

std::optional<core::TuningService::Submission> ConcurrentPipeTuneService::submit(
    const workload::Workload& workload, const hpt::HptJobConfig& job_config,
    core::SubmitOptions options) {
    JobOptions sched_options;
    sched_options.id = options.job_id;
    sched_options.label = options.label.empty() ? workload.name : options.label;
    sched_options.priority = to_sched_priority(options.priority);
    sched_options.deadline_s = options.deadline_s;

    // Settlement state shared by the job body and its DoneFn. The body only
    // stores its result; the DoneFn — fired once, after the scheduler has
    // published the terminal state — is the single place that settles the
    // promise and then tells the submitter.
    struct Settlement {
        std::promise<core::PipeTuneJobResult> promise;
        std::optional<core::PipeTuneJobResult> result;  ///< set by the body
    };
    auto settlement = std::make_shared<Settlement>();
    auto future = settlement->promise.get_future();
    // With a state dir the job commits what it records when it completes.
    auto recording =
        durable_ ? std::make_shared<RecordingGroundTruth>(state_.ground_truth()) : nullptr;

    // The job body runs on a scheduler worker slot. Copies of the workload
    // and job config keep it self-contained; shared state is reached only
    // through the locked views. Exceptions PROPAGATE to the scheduler: a
    // transient failure under the service retry policy is requeued (same id,
    // front of its priority class) instead of reaching the DoneFn.
    ClusterScheduler::JobFn run = [this, workload, job_config, settlement,
                                   recording](JobContext& ctx) mutable {
        core::PipeTuneConfig pipetune = options_.pipetune;
        pipetune.metrics = &state_.metrics();
        pipetune.obs = options_.obs;
        pipetune.journal = options_.journal;
        pipetune.journal_job_id = ctx.id();
        hpt::HptJobConfig job = job_config;
        job.obs = options_.obs;
        core::GroundTruthStore* store =
            recording ? static_cast<core::GroundTruthStore*>(recording.get())
                      : &state_.ground_truth();
        auto result = core::run_pipetune(backend_, workload, job, pipetune, store);
        jobs_served_.fetch_add(1, std::memory_order_relaxed);
        // The job's completion is durable before its future settles.
        if (durable_) {
            durable_->commit_job(ctx.id(), std::move(recording->recorded));
        } else if (options_.journal != nullptr) {
            util::Json payload = util::Json::object();
            payload["job_id"] = ctx.id();
            (void)options_.journal->append(ft::record_type::kJobCompleted,
                                           std::move(payload));
        }
        if (obs_jobs_served_ != nullptr) obs_jobs_served_->inc();
        PT_LOG_INFO("sched")
                .field("workload", workload.name)
                .field("hits", result.ground_truth_hits)
                .field("probes", result.probes_started)
                .field("store", result.ground_truth_size)
            << "job " << ctx.id() << " done";
        settlement->result = std::move(result);
    };
    // A terminal failure (retries exhausted or non-transient) is journaled
    // and forwarded to the future as the original exception. A SimulatedCrash
    // models process death instead: a dead process writes nothing, neither a
    // job_failed record nor state files (snapshots are off from then on), so
    // recovery re-runs the job from the journal against the state as of the
    // last completed job. A job that never produced a result was discarded
    // before running: the future reports why.
    ClusterScheduler::DoneFn on_done = [this, settlement,
                                        on_settled = std::move(options.on_settled)](
                                           const JobInfo& info, std::exception_ptr failure) {
        if (failure != nullptr) {
            bool crashed = false;
            try {
                std::rethrow_exception(failure);
            } catch (const ft::SimulatedCrash&) {
                crashed = true;
            } catch (...) {
            }
            if (crashed) {
                if (durable_) durable_->mark_crashed();
            } else if (options_.journal != nullptr) {
                util::Json payload = util::Json::object();
                payload["job_id"] = info.id;
                payload["error"] = info.error;
                (void)options_.journal->append(ft::record_type::kJobFailed, std::move(payload));
            }
            settlement->promise.set_exception(failure);
        } else if (settlement->result.has_value()) {
            settlement->promise.set_value(std::move(*settlement->result));
        } else {
            settlement->promise.set_exception(std::make_exception_ptr(
                JobDiscarded("pipetune job " + std::to_string(info.id) + " " +
                             to_string(info.state) + " before running")));
        }
        if (on_settled) on_settled();
    };

    const std::string job_label = sched_options.label;
    auto ticket =
        scheduler_.submit(std::move(run), std::move(sched_options), std::move(on_done));
    if (!ticket) return std::nullopt;
    if (options_.journal != nullptr)
        (void)options_.journal->append(
            ft::record_type::kJobSubmitted,
            core::journal_submit_payload(ticket->id, job_label, workload, job_config,
                                         options));
    return Submission{ticket->id, std::move(future)};
}

}  // namespace pipetune::sched
