#include "pipetune/core/service.hpp"

#include <filesystem>

#include "pipetune/ft/errors.hpp"
#include "pipetune/ft/journal.hpp"
#include "pipetune/util/logging.hpp"

namespace pipetune::core {

namespace {
bool file_exists(const std::string& path) {
    std::error_code ec;
    return !path.empty() && std::filesystem::exists(path, ec);
}
}  // namespace

PipeTuneService::PipeTuneService(workload::Backend& backend, ServiceOptions options)
    : backend_(backend),
      options_(std::move(options)),
      ground_truth_(options_.pipetune.ground_truth),
      next_id_(options_.first_job_id),
      epoch_(std::chrono::steady_clock::now()) {
    if (options_.obs != nullptr) {
        auto& registry = options_.obs->metrics();
        obs_flush_total_ = &registry.counter("pipetune_metricsdb_flush_total", {},
                                             "State flushes (ground truth + metrics db)");
        obs_flush_seconds_ =
            &registry.histogram("pipetune_metricsdb_flush_seconds",
                                {0.001, 0.005, 0.02, 0.1, 0.5, 2.0}, {},
                                "Wall-clock latency of one state flush");
        obs_points_ =
            &registry.gauge("pipetune_metricsdb_points", {}, "Points in the metrics database");
        obs_jobs_served_ =
            &registry.counter("pipetune_service_jobs_served_total", {},
                              "HPT jobs run to completion by a tuning service");
        obs_job_retries_ = &registry.counter("pipetune_ft_job_retries_total", {},
                                             "Jobs re-run after a transient failure");
    }
    if (!options_.state_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options_.state_dir, ec);
        if (ec)
            throw std::runtime_error("PipeTuneService: cannot create state dir '" +
                                     options_.state_dir + "': " + ec.message());
    }
    if (file_exists(ground_truth_path())) {
        ground_truth_ =
            GroundTruth::load(ground_truth_path(), options_.pipetune.ground_truth);
        PT_LOG_INFO("service").field("profiles", ground_truth_.size())
            << "loaded ground truth from " << ground_truth_path();
    } else if (options_.warm_start_on_first_use && !options_.warm_start_workloads.empty()) {
        WarmStartConfig warm;
        warm.ground_truth = options_.pipetune.ground_truth;
        ground_truth_ = build_warm_ground_truth(backend_, options_.warm_start_workloads, warm);
        PT_LOG_INFO("service").field("profiles", ground_truth_.size())
            << "warm-start campaign finished";
    }
    if (file_exists(metrics_path())) metrics_ = metricsdb::TimeSeriesDb::load(metrics_path());
    persist();
}

double PipeTuneService::clock_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

std::string PipeTuneService::ground_truth_path() const {
    return options_.state_dir.empty() ? std::string()
                                      : options_.state_dir + "/ground_truth.json";
}

std::string PipeTuneService::metrics_path() const {
    return options_.state_dir.empty() ? std::string() : options_.state_dir + "/metrics.json";
}

void PipeTuneService::persist() const {
    if (options_.state_dir.empty()) return;
    const double start_s = options_.obs ? options_.obs->tracer().now_s() : 0.0;
    ground_truth_.save(ground_truth_path());
    metrics_.save(metrics_path());
    if (options_.obs) {
        obs_flush_total_->inc();
        obs_flush_seconds_->observe(options_.obs->tracer().now_s() - start_s);
        obs_points_->set(static_cast<double>(metrics_.total_points()));
    }
}

ServiceStats PipeTuneService::stats() const {
    ServiceStats stats;
    stats.submitted = jobs_served_ + jobs_failed_;
    stats.completed = jobs_served_;
    stats.failed = jobs_failed_;
    return stats;
}

void PipeTuneService::seed_ground_truth(const std::vector<GroundTruthEntry>& entries) {
    for (const GroundTruthEntry& entry : entries)
        ground_truth_.record(entry.features, entry.best_system, entry.metric);
    if (!entries.empty())
        PT_LOG_INFO("service").field("entries", entries.size())
            << "ground truth seeded from recovery";
}

std::optional<TuningService::Submission> PipeTuneService::submit(
    const workload::Workload& workload, const hpt::HptJobConfig& job_config,
    SubmitOptions options) {
    const std::uint64_t id = options.job_id != 0 ? options.job_id : ++next_id_;
    if (id > next_id_) next_id_ = id;  // keep assigned ids ahead of forced ones
    JobTiming timing;
    timing.id = id;
    timing.label = options.label.empty() ? workload.name : options.label;
    timing.submit_s = timing.start_s = clock_s();

    std::promise<PipeTuneJobResult> promise;
    auto future = promise.get_future();

    obs::Tracer::Span span;
    if (options_.obs) {
        span = options_.obs->tracer().span("job", "service");
        span.arg("workload", workload.name);
        span.arg("job_id", std::to_string(id));
    }
    if (options_.journal != nullptr)
        (void)options_.journal->append(
            ft::record_type::kJobSubmitted,
            journal_submit_payload(id, timing.label, workload, job_config, options));
    // Inline retry: a job that dies of a transient failure (injected fault,
    // flaky substrate) re-runs on the caller's thread per the retry policy;
    // anything else — including ft::SimulatedCrash — is terminal on the
    // first throw.
    std::size_t failures = 0;
    util::Rng retry_rng(id ^ 0x5bd1e995ULL);
    for (;;) {
        try {
            PipeTuneConfig config = options_.pipetune;
            config.metrics = &metrics_;
            config.obs = options_.obs;
            config.journal = options_.journal;
            config.journal_job_id = id;
            hpt::HptJobConfig job = job_config;
            job.obs = options_.obs;
            PipeTuneJobResult result =
                run_pipetune(backend_, workload, job, config, &ground_truth_);
            ++jobs_served_;
            if (options_.journal != nullptr) {
                util::Json payload = util::Json::object();
                payload["job_id"] = id;
                (void)options_.journal->append(ft::record_type::kJobCompleted,
                                               std::move(payload));
            }
            if (options_.persist_after_each_job) persist();
            if (obs_jobs_served_ != nullptr) obs_jobs_served_->inc();
            PT_LOG_INFO("service")
                    .field("workload", workload.name)
                    .field("accuracy_pct", result.baseline.final_accuracy)
                    .field("tuning_s", result.baseline.tuning.tuning_duration_s)
                    .field("hits", result.ground_truth_hits)
                    .field("probes", result.probes_started)
                << "job " << jobs_served_ << " done";
            timing.ok = true;
            promise.set_value(std::move(result));
            break;
        } catch (const ft::TransientFailure& e) {
            ++failures;
            if (options_.retry.should_retry(failures, clock_s() - timing.submit_s)) {
                if (obs_job_retries_ != nullptr) obs_job_retries_->inc();
                PT_LOG_WARN("service").field("job", id).field("attempt", failures + 1)
                    << "transient job failure, retrying: " << e.what();
                (void)options_.retry.backoff_s(failures, retry_rng);  // charged nowhere:
                // the serial service runs inline; sleeping would only stall the caller.
                continue;
            }
            ++jobs_failed_;
            timing.error = e.what();
            if (options_.journal != nullptr) {
                util::Json payload = util::Json::object();
                payload["job_id"] = id;
                payload["error"] = std::string(e.what());
                (void)options_.journal->append(ft::record_type::kJobFailed, std::move(payload));
            }
            promise.set_exception(std::current_exception());
            break;
        } catch (const std::exception& e) {
            ++jobs_failed_;
            timing.error = e.what();
            // A SimulatedCrash models process death: the journal must NOT
            // gain a job_failed record (a dead process writes nothing), so
            // recovery sees the job as pending and re-runs it.
            if (options_.journal != nullptr &&
                dynamic_cast<const ft::SimulatedCrash*>(&e) == nullptr) {
                util::Json payload = util::Json::object();
                payload["job_id"] = id;
                payload["error"] = std::string(e.what());
                (void)options_.journal->append(ft::record_type::kJobFailed, std::move(payload));
            }
            promise.set_exception(std::current_exception());
            break;
        } catch (...) {
            ++jobs_failed_;
            timing.error = "unknown error";
            promise.set_exception(std::current_exception());
            break;
        }
    }
    timing.finish_s = clock_s();
    timings_.push_back(timing);
    if (options.on_settled) options.on_settled();
    return Submission{id, std::move(future)};
}

}  // namespace pipetune::core
