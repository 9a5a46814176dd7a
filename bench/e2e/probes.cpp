#include "probes.hpp"

#include <algorithm>

namespace ptbench {

namespace {

class TimedSession final : public workload::TrialSession {
public:
    TimedSession(std::unique_ptr<workload::TrialSession> inner, ProbeLog& log)
        : inner_(std::move(inner)), log_(log) {}

    workload::EpochResult run_epoch(const workload::SystemParams& system) override {
        BackendCall call{.epoch = true, .family = inner_->workload().model_family};
        call.begin = Clock::now();
        workload::EpochResult result = inner_->run_epoch(system);
        call.end = Clock::now();
        log_.add(std::move(call));
        return result;
    }
    std::size_t epochs_done() const override { return inner_->epochs_done(); }
    const workload::Workload& workload() const override { return inner_->workload(); }
    const workload::HyperParams& hyperparams() const override { return inner_->hyperparams(); }

private:
    std::unique_ptr<workload::TrialSession> inner_;
    ProbeLog& log_;
};

double us_since(Clock::time_point origin, Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
}

}  // namespace

void ProbeLog::add(SubmitCall call) {
    std::lock_guard<std::mutex> lock(mutex_);
    submits_.push_back(std::move(call));
}

void ProbeLog::add(BackendCall call) {
    std::lock_guard<std::mutex> lock(mutex_);
    call.thread = thread_index_locked();
    backend_calls_.push_back(std::move(call));
}

std::vector<SubmitCall> ProbeLog::submits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return submits_;
}

std::vector<BackendCall> ProbeLog::backend_calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return backend_calls_;
}

std::uint32_t ProbeLog::thread_index_locked() {
    const std::thread::id self = std::this_thread::get_id();
    const auto it = std::find(threads_.begin(), threads_.end(), self);
    if (it != threads_.end()) return static_cast<std::uint32_t>(it - threads_.begin());
    threads_.push_back(self);
    return static_cast<std::uint32_t>(threads_.size() - 1);
}

std::unique_ptr<workload::TrialSession> TimedBackend::start_trial(
    const workload::Workload& workload, const workload::HyperParams& hyper) {
    BackendCall call{.epoch = false, .family = workload.model_family};
    call.begin = Clock::now();
    auto session = inner_.start_trial(workload, hyper);
    call.end = Clock::now();
    log_.add(std::move(call));
    return std::make_unique<TimedSession>(std::move(session), log_);
}

std::optional<core::TuningService::Submission> TimedService::submit(
    const workload::Workload& workload, const pipetune::hpt::HptJobConfig& job_config,
    core::SubmitOptions options) {
    SubmitCall call{.label = options.label};
    call.entered = Clock::now();
    auto submission = inner_.submit(workload, job_config, std::move(options));
    call.returned = Clock::now();
    if (submission) call.job_id = submission->id;
    log_.add(std::move(call));
    return submission;
}

util::Json chrome_trace(const std::vector<RequestPath>& paths,
                        const std::vector<BackendCall>& calls, Clock::time_point origin) {
    util::Json events = util::Json::array();
    auto async = [&](const char* name, const char* phase, std::size_t id, Clock::time_point t) {
        util::Json event = util::Json::object();
        event["name"] = name;
        event["cat"] = "request";
        event["ph"] = phase;
        event["id"] = id;
        event["pid"] = 1;
        event["tid"] = 0;
        event["ts"] = us_since(origin, t);
        events.push_back(std::move(event));
    };
    for (const RequestPath& p : paths) {
        // Contiguous children inside the request slice, so async nesting holds.
        const std::pair<const char*, Clock::time_point> stages[] = {
            {"late", p.sent},        {"ingress", p.submit_entered}, {"submit", p.enqueued},
            {"queue_wait", p.start}, {"run", p.finish},             {"egress", p.replied},
        };
        async("request", "b", p.index, p.due);
        Clock::time_point from = p.due;
        for (const auto& [name, to] : stages) {
            const Clock::time_point end = std::max(from, to);
            async(name, "b", p.index, from);
            async(name, "e", p.index, end);
            from = end;
        }
        async("request", "e", p.index, std::max(from, p.replied));
    }
    for (const BackendCall& call : calls) {
        util::Json event = util::Json::object();
        event["name"] = call.epoch ? "epoch" : "start_trial";
        event["cat"] = "backend";
        event["ph"] = "X";
        event["pid"] = 1;
        event["tid"] = call.thread + 1;
        event["ts"] = us_since(origin, call.begin);
        event["dur"] = us_since(call.begin, call.end);
        util::Json args = util::Json::object();
        args["family"] = call.family;
        event["args"] = std::move(args);
        events.push_back(std::move(event));
    }
    util::Json doc = util::Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    return doc;
}

}  // namespace ptbench
