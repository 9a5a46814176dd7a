#pragma once
// Timing from outside the program: decorators over the public seams
// (core::TuningService, workload::Backend / TrialSession) that record when
// each call entered and returned, plus the Chrome trace writer. Only the
// traced run installs them; the untraced run drives the bare stack.

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "pipetune/core/tuning_service.hpp"
#include "pipetune/workload/types.hpp"

namespace ptbench {

namespace core = pipetune::core;
namespace workload = pipetune::workload;

/// One TuningService::submit call.
struct SubmitCall {
    std::string label;
    Clock::time_point entered{};
    Clock::time_point returned{};
    std::uint64_t job_id = 0;  ///< 0 when the service shed the job
};

/// One Backend::start_trial or TrialSession::run_epoch call.
struct BackendCall {
    bool epoch = false;  ///< false: start_trial
    std::string family;  ///< model family of the trial's workload
    Clock::time_point begin{};
    Clock::time_point end{};
    std::uint32_t thread = 0;  ///< small per-log thread index
};

/// Thread-safe store the decorators append to.
class ProbeLog {
public:
    void add(SubmitCall call);
    void add(BackendCall call);
    std::vector<SubmitCall> submits() const;
    std::vector<BackendCall> backend_calls() const;

private:
    std::uint32_t thread_index_locked();

    mutable std::mutex mutex_;
    std::vector<SubmitCall> submits_;
    std::vector<BackendCall> backend_calls_;
    std::vector<std::thread::id> threads_;
};

/// Backend decorator: times start_trial and every run_epoch of the sessions
/// it hands out.
class TimedBackend final : public workload::Backend {
public:
    TimedBackend(workload::Backend& inner, ProbeLog& log) : inner_(inner), log_(log) {}
    std::unique_ptr<workload::TrialSession> start_trial(const workload::Workload& workload,
                                                        const workload::HyperParams& hyper) override;
    std::string name() const override { return inner_.name(); }

private:
    workload::Backend& inner_;
    ProbeLog& log_;
};

/// TuningService decorator: times submit; forwards everything else.
class TimedService final : public core::TuningService {
public:
    TimedService(core::TuningService& inner, ProbeLog& log) : inner_(inner), log_(log) {}

    std::optional<Submission> submit(const workload::Workload& workload,
                                     const pipetune::hpt::HptJobConfig& job_config,
                                     core::SubmitOptions options) override;
    void drain() override { inner_.drain(); }
    bool cancel(std::uint64_t id) override { return inner_.cancel(id); }
    std::size_t discard_queued() override { return inner_.discard_queued(); }
    void persist() const override { inner_.persist(); }
    std::size_t jobs_served() const override { return inner_.jobs_served(); }
    core::ServiceStats stats() const override { return inner_.stats(); }
    std::vector<core::JobTiming> job_timings() const override { return inner_.job_timings(); }
    core::GroundTruth ground_truth_snapshot() const override {
        return inner_.ground_truth_snapshot();
    }
    pipetune::metricsdb::TimeSeriesDb metrics_snapshot() const override {
        return inner_.metrics_snapshot();
    }
    void seed_ground_truth(const std::vector<core::GroundTruthEntry>& entries) override {
        inner_.seed_ground_truth(entries);
    }
    std::string ground_truth_path() const override { return inner_.ground_truth_path(); }
    std::string metrics_path() const override { return inner_.metrics_path(); }
    pipetune::obs::ObsContext* obs() const override { return inner_.obs(); }

private:
    core::TuningService& inner_;
    ProbeLog& log_;
};

/// One request's path, every point on the steady clock. `enqueued`, `start`
/// and `finish` are the scheduler's job timings mapped onto it.
struct RequestPath {
    std::size_t index = 0;
    Clock::time_point due, sent, submit_entered, submit_returned, enqueued, start, finish,
        replied;
};

/// Chrome trace-event document: one async track per request (due → late →
/// ingress → submit → queue_wait → run → egress) and one thread track per
/// worker with its start_trial / epoch calls. Times in µs from `origin`.
util::Json chrome_trace(const std::vector<RequestPath>& paths,
                        const std::vector<BackendCall>& calls, Clock::time_point origin);

}  // namespace ptbench
