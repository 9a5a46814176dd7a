#include "run.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "load.hpp"
#include "pipetune/core/experiment.hpp"
#include "pipetune/ft/journal.hpp"
#include "pipetune/net/auth.hpp"
#include "pipetune/net/protocol.hpp"
#include "pipetune/net/server.hpp"
#include "pipetune/obs/build_info.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/real_backend.hpp"
#include "pipetune/sim/sim_backend.hpp"
#include "pipetune/util/fs.hpp"
#include "pipetune/util/stats.hpp"
#include "probes.hpp"

namespace ptbench {

namespace {

namespace fs = std::filesystem;
namespace ft = pipetune::ft;
namespace hpt = pipetune::hpt;
namespace net = pipetune::net;
namespace sched = pipetune::sched;
namespace sim = pipetune::sim;

constexpr std::size_t kWorkerSlots = 2;
/// Gate errors listed by name before the rest are only counted.
constexpr std::size_t kMaxListedErrors = 8;

Clock::duration seconds_to_duration(double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : util::median(v); }
double percentile_or_zero(const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : util::percentile(v, p);
}

/// `pipetune serve` in-process: backend → ConcurrentPipeTuneService (2 worker
/// slots) → TuningServer with one bearer token per tenant, on loopback, with
/// the live ObsContext serve always runs with. With a probe log, the timing
/// decorators sit between the layers.
class Stack {
public:
    Stack(const WorkloadSpec& spec, std::uint64_t seed, const std::string& state_dir,
          ProbeLog* probes)
        : state_dir_(state_dir) {
        obs_.mirror_logs();
        pipetune::obs::register_build_info(obs_.metrics());
        if (spec.real_backend) {
            sim::RealBackendConfig config;
            config.seed = seed;
            config.max_workers = 2;
            backend_ = std::make_unique<sim::RealBackend>(config);
        } else {
            backend_ = std::make_unique<sim::SimBackend>(sim::SimBackendConfig{.seed = seed});
        }
        workload::Backend* backend = backend_.get();
        if (probes != nullptr) {
            timed_backend_ = std::make_unique<TimedBackend>(*backend_, *probes);
            backend = timed_backend_.get();
        }

        core::ServiceOptions options;
        options.concurrency = kWorkerSlots;
        // The default queue (64) never fills at these loads; a full one
        // sheds with 429, as `pipetune serve` does.
        options.reject_when_full = true;
        options.obs = &obs_;
        if (spec.durable) {
            fs::create_directories(state_dir);
            options.state_dir = state_dir;
            journal_ = std::make_unique<ft::Journal>(state_dir + "/journal.jsonl");
            options.journal = journal_.get();
        }
        if (spec.real_backend) {
            options.warm_start_on_first_use = true;
            for (const std::string& name : spec.workloads)
                options.warm_start_workloads.push_back(workload::find_workload(name));
        }
        service_ = std::make_unique<sched::ConcurrentPipeTuneService>(*backend, options);
        core::TuningService* facade = service_.get();
        if (probes != nullptr) {
            timed_service_ = std::make_unique<TimedService>(*service_, *probes);
            facade = timed_service_.get();
        }

        std::vector<net::TenantConfig> tenants;
        for (std::size_t t = 0; t < spec.tenants; ++t) {
            tokens_.push_back("tok-t" + std::to_string(t));
            tenants.push_back({"t" + std::to_string(t), tokens_.back(), 0});
        }
        tenants_ = std::make_unique<net::TenantRegistry>(tenants);
        net::ServerConfig config;
        config.service = facade;
        config.tenants = tenants_.get();
        config.obs = &obs_;
        server_ = std::make_unique<net::TuningServer>(config);
        auto started = server_->start();
        if (!started.ok()) throw std::runtime_error("server start: " + started.error());
    }
    ~Stack() {
        server_->stop(net::DrainMode::kFull);
        service_->drain();
    }
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    std::uint16_t port() const { return server_->port(); }
    const std::vector<std::string>& tokens() const { return tokens_; }
    sched::ConcurrentPipeTuneService& service() { return *service_; }
    const net::TuningServer& server() const { return *server_; }
    const ft::Journal* journal() const { return journal_.get(); }
    const std::string& state_dir() const { return state_dir_; }

private:
    std::string state_dir_;
    pipetune::obs::ObsContext obs_;
    std::unique_ptr<workload::Backend> backend_;
    std::unique_ptr<TimedBackend> timed_backend_;
    std::unique_ptr<ft::Journal> journal_;
    std::unique_ptr<sched::ConcurrentPipeTuneService> service_;
    std::unique_ptr<TimedService> timed_service_;
    std::vector<std::string> tokens_;
    std::unique_ptr<net::TenantRegistry> tenants_;
    std::unique_ptr<net::TuningServer> server_;
};

std::unique_ptr<Stack> timed_setup(const WorkloadSpec& spec, std::uint64_t seed,
                                   const std::string& state_dir, ProbeLog* probes,
                                   std::vector<double>& seconds) {
    const Clock::time_point begin = Clock::now();
    auto stack = std::make_unique<Stack>(spec, seed, state_dir, probes);
    seconds.push_back(ms_between(begin, Clock::now()) / 1e3);
    return stack;
}

/// Costs read off the live stack at the end of a traced pass.
struct StateProbe {
    std::size_t points = 0;
    double count_ms = 0.0;
    std::size_t gt_size = 0;
    double gt_lookup_us = 0.0;
    double persist_ms = 0.0;
    double state_mb = 0.0;
    double journal_mb = 0.0;
};

double file_mb(const std::string& path) {
    std::error_code ec;
    const auto bytes = fs::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

StateProbe probe_state(Stack& stack, const WorkloadSpec& spec, const std::string& dir) {
    StateProbe probe;
    sched::SharedClusterState& state = stack.service().cluster_state();
    probe.points = state.metric_points();
    Clock::time_point begin = Clock::now();
    (void)state.metrics().count({.series = "epoch_duration"});  // what each job's policy calls
    probe.count_ms = ms_between(begin, Clock::now());

    const core::GroundTruth truth = stack.service().ground_truth_snapshot();
    probe.gt_size = truth.size();
    const std::vector<double> features =
        truth.entries().empty() ? std::vector<double>{} : truth.entries().front().features;
    std::vector<double> lookups;
    for (int i = 0; i < 101; ++i) {
        begin = Clock::now();
        (void)state.ground_truth().lookup(features, nullptr);
        lookups.push_back(1e3 * ms_between(begin, Clock::now()));
    }
    probe.gt_lookup_us = util::median(lookups);

    // Durable stacks persist into their state dir, as after every job; the
    // in-memory ones are timed on the same save() into a scratch dir.
    const std::string persist_dir = spec.durable ? stack.state_dir() : dir + "/persist-probe";
    fs::create_directories(persist_dir);
    begin = Clock::now();
    if (spec.durable) {
        stack.service().persist();
    } else {
        state.save(persist_dir);
    }
    probe.persist_ms = ms_between(begin, Clock::now());
    probe.state_mb = file_mb(sched::SharedClusterState::ground_truth_path(persist_dir)) +
                     file_mb(sched::SharedClusterState::metrics_path(persist_dir));
    if (stack.journal() != nullptr) probe.journal_mb = file_mb(stack.journal()->path());
    return probe;
}

/// Set the stack up `setups` times, drive the plan against the last one,
/// collect what the gate and the metrics need.
struct Pass {
    std::vector<double> setup_s;
    LoadResult load;
    Clock::time_point end{};  ///< last reply read
    net::TuningServer::Counters counters;
    core::ServiceStats stats;
    std::vector<core::JobTiming> timings;
    std::vector<SubmitCall> submits;       ///< traced only
    std::vector<BackendCall> backend_calls;  ///< traced only, from the run itself
    StateProbe state;                        ///< traced only
};

Pass run_pass(const RunOptions& options, const std::vector<PlannedRequest>& plan,
              std::size_t setups, bool traced, const std::string& dir) {
    const WorkloadSpec& spec = *options.spec;
    Pass pass;
    ProbeLog probes;
    std::unique_ptr<Stack> stack;
    for (std::size_t k = 0; k < setups; ++k) {
        stack.reset();  // teardown of the previous setup is not timed
        stack = timed_setup(spec, options.seed, dir + "/state-" + std::to_string(k),
                            traced ? &probes : nullptr, pass.setup_s);
    }

    LoadConfig config;
    config.port = stack->port();
    config.spec = &spec;
    config.plan = &plan;
    config.tokens = stack->tokens();
    auto loaded = run_load(config);
    if (!loaded) throw std::runtime_error("load generator: " + loaded.error());
    pass.load = std::move(loaded.value());
    pass.end = pass.load.start;
    for (const RequestRecord& r : pass.load.records)
        if (r.answered) pass.end = std::max(pass.end, r.replied);

    stack->service().drain();
    pass.counters = stack->server().counters();
    pass.stats = stack->service().stats();
    pass.timings = stack->service().job_timings();
    if (traced) {
        pass.state = probe_state(*stack, spec, dir);
        pass.submits = probes.submits();
        for (BackendCall& call : probes.backend_calls())
            if (call.begin >= pass.load.start) pass.backend_calls.push_back(std::move(call));
    }
    stack.reset();
    return pass;
}

// ------------------------------------------------------------------ the gate

/// What a valid 200 reply carried.
struct ReplyFacts {
    std::uint64_t job_id = 0;
    double accuracy = 0.0;
    double makespan_s = 0.0;
    double gt_hits = 0.0;
    double probes = 0.0;
};

/// Checks one submit reply. Returns the HTTP-style status (0 when the frame
/// does not parse) and, for a 200, either the facts or why it is wrong.
int check_reply(const std::string& frame, std::optional<ReplyFacts>* facts, std::string* why) {
    auto parsed = net::parse_response(frame);
    if (!parsed) {
        *why = parsed.error();
        return 0;
    }
    const net::Response& response = parsed.value();
    if (!response.ok()) return response.status;
    static const std::set<std::string> kGrid = [] {
        std::set<std::string> grid;
        for (const auto& system : workload::system_param_grid()) grid.insert(system.to_string());
        return grid;
    }();
    const util::Json& body = response.result;
    if (!body.is_object() || !body.contains("job_id") || !body.at("job_id").is_number() ||
        body.at("job_id").as_number() < 1) {
        *why = "no job_id";
        return response.status;
    }
    if (!body.contains("result") || !body.at("result").is_object()) {
        *why = "no result object";
        return response.status;
    }
    const util::Json& result = body.at("result");
    const double trials = result.get_number("trials", 0.0);
    const double epochs = result.get_number("epochs", 0.0);
    const double accuracy = result.get_number("final_accuracy", -1.0);
    const std::string system = result.get_string("final_system", "");
    if (trials < 1 || epochs < 1) {
        *why = "trials/epochs below 1";
    } else if (!(accuracy >= 0.0 && accuracy <= 100.0)) {
        *why = "final_accuracy outside [0,100]";
    } else if (kGrid.count(system) == 0) {
        *why = "final_system '" + system + "' is off the grid";
    } else {
        ReplyFacts f;
        f.job_id = static_cast<std::uint64_t>(body.at("job_id").as_number());
        f.accuracy = accuracy;
        f.makespan_s = result.get_number("tuning_duration_s", 0.0);
        f.gt_hits = result.get_number("ground_truth_hits", 0.0);
        f.probes = result.get_number("probes_started", 0.0);
        *facts = f;
    }
    return response.status;
}

/// The gate's verdict on one pass.
struct Verdict {
    std::vector<std::optional<ReplyFacts>> facts;  ///< by request; set for valid 200s
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;
};

void add_error(std::vector<std::string>& errors, std::size_t* unlisted, std::string message) {
    if (errors.size() < kMaxListedErrors) {
        errors.push_back(std::move(message));
    } else {
        ++*unlisted;
    }
}

Verdict gate(const Pass& pass) {
    Verdict v;
    const auto& records = pass.load.records;
    v.facts.resize(records.size());
    std::map<std::uint64_t, std::string> label_of_job;
    for (const core::JobTiming& t : pass.timings) label_of_job[t.id] = t.label;
    std::set<std::uint64_t> seen_jobs;
    std::size_t unlisted = 0;
    std::size_t sent = 0, s200 = 0, rejected = 0, job_failed = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RequestRecord& r = records[i];
        if (r.sent != Clock::time_point{}) ++sent;
        if (!r.answered) continue;
        std::string why;
        const int status = check_reply(r.reply, &v.facts[i], &why);
        if (status == net::status::kOk) ++s200;
        if (status == net::status::kRejected || status == net::status::kDraining) ++rejected;
        if (status == net::status::kJobFailed) ++job_failed;
        if (status != net::status::kOk && status != net::status::kRejected &&
            status != net::status::kDraining && status != net::status::kJobFailed && why.empty())
            why = "unexpected status " + std::to_string(status);
        if (status == net::status::kOk && v.facts[i]) {
            const std::uint64_t job = v.facts[i]->job_id;
            if (!seen_jobs.insert(job).second) {
                why = "job_id " + std::to_string(job) + " answered twice";
            } else if (label_of_job[job] != request_label(i)) {
                why = "job_id " + std::to_string(job) + " belongs to '" + label_of_job[job] + "'";
            }
        }
        if (!why.empty()) {
            v.facts[i].reset();
            add_error(v.errors, &unlisted, "request " + std::to_string(i) + ": " + why);
        }
    }
    for (const auto& f : v.facts) v.ok += f ? 1 : 0;
    v.failed = records.size() - v.ok;

    // Conservation: what the client saw = what the server counted = what the
    // service ran.
    const auto& c = pass.counters;
    const auto& s = pass.stats;
    auto expect_eq = [&](const char* what, std::size_t got, std::size_t want) {
        if (got != want)
            add_error(v.errors, &unlisted,
                      std::string(what) + ": " + std::to_string(got) + " != " + std::to_string(want));
    };
    expect_eq("server requests vs client frames", c.requests, sent + pass.load.pings);
    expect_eq("server jobs_completed vs client 200s", c.jobs_completed, s200);
    expect_eq("server rejects vs client 429/503s", c.rejects, rejected);
    expect_eq("service submitted vs server jobs_submitted", s.submitted, c.jobs_submitted);
    expect_eq("service completed vs client 200s", s.completed, s200);
    expect_eq("service failed vs client 500s", s.failed, job_failed);
    expect_eq("service queued+running after drain", s.queued + s.running, 0);
    if (unlisted > 0) v.errors.push_back(std::to_string(unlisted) + " more gate errors");
    return v;
}

/// One fixed sim job over the wire against core::run_pipetune in-process;
/// the serialized results must match byte for byte.
std::string determinism_check(std::uint64_t seed, bool corrupt) {
    const WorkloadSpec one{.name = "determinism",
                           .open_loop = false,
                           .per_s = 1.0,
                           .clients = 1,
                           .tenants = 1,
                           .resource = 3,
                           .workloads = {"lenet-mnist"}};
    const std::vector<PlannedRequest> plan = plan_requests(one, seed, 1.0);
    std::string wire;
    {
        Stack stack(one, seed, "", nullptr);
        LoadConfig config;
        config.port = stack.port();
        config.spec = &one;
        config.plan = &plan;
        config.tokens = stack.tokens();
        auto loaded = run_load(config);
        if (!loaded) return "determinism: " + loaded.error();
        auto response = net::parse_response(loaded.value().records[0].reply);
        if (!response || !response.value().ok() || !response.value().result.contains("result"))
            return "determinism: no 200 reply";
        wire = response.value().result.at("result").dump();
    }
    if (corrupt) wire[wire.size() / 2] = wire[wire.size() / 2] == '1' ? '2' : '1';

    sim::SimBackend backend(sim::SimBackendConfig{.seed = seed});
    hpt::HptJobConfig job;
    job.parallel_slots = 2;
    job.hyperband_resource = one.resource;
    job.hyperband_eta = 3;
    job.final_epochs = one.resource;
    job.seed = plan[0].job_seed;
    const std::string reference =
        net::job_result_to_json(
            core::run_pipetune(backend, workload::find_workload(plan[0].workload), job))
            .dump();
    return wire == reference ? std::string()
                             : "determinism: wire result " + wire + " != in-process " + reference;
}

/// Self-test: break one valid reply in a way the gate must notice; `kind`
/// picks which check should fire.
void corrupt_one_reply(Pass& pass, std::uint64_t seed, std::uint64_t kind) {
    auto& records = pass.load.records;
    for (std::size_t k = 0; k < records.size(); ++k) {
        RequestRecord& r = records[(seed + k) % records.size()];
        if (!r.answered) continue;
        auto parsed = util::Json::try_parse(r.reply);
        if (!parsed || parsed.value().get_number("status", 0) != net::status::kOk) continue;
        util::Json doc = parsed.value();
        util::Json& body = doc["result"];
        switch (kind) {
            case 0: body["result"]["final_accuracy"] = 150.0; break;
            case 1: body.as_object().erase("job_id"); break;
            case 2: body["result"]["trials"] = 0; break;
            default: body["result"]["final_system"] = "{cores=3, mem=5GB}"; break;
        }
        r.reply = doc.dump();
        return;
    }
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Latency (ms, from due) of every request the gate accepted, by request.
std::vector<std::optional<double>> latencies(const Pass& pass, const Verdict& verdict) {
    std::vector<std::optional<double>> out(pass.load.records.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        if (verdict.facts[i])
            out[i] = ms_between(pass.load.records[i].due, pass.load.records[i].replied);
    return out;
}

std::vector<double> present(const std::vector<std::optional<double>>& values) {
    std::vector<double> out;
    for (const auto& v : values)
        if (v) out.push_back(*v);
    return out;
}

std::vector<Metric> end_to_end_metrics(const RunOptions& options, const Pass& pass,
                                       const Verdict& verdict, util::Json& details) {
    const WorkloadSpec& spec = *options.spec;
    const std::vector<double> lat = present(latencies(pass, verdict));
    const double tail_p = tail_percentile(pass.load.records.size());
    std::size_t within_slo = 0;
    for (double l : lat) within_slo += l <= spec.slo_ms ? 1 : 0;
    std::vector<double> accuracy, makespan;
    for (const auto& f : verdict.facts) {
        if (!f) continue;
        accuracy.push_back(f->accuracy);
        makespan.push_back(f->makespan_s);
    }
    const double attempted = static_cast<double>(pass.load.records.size());
    const double elapsed_s = ms_between(pass.load.start, pass.end) / 1e3;
    details["tail_percentile"] = tail_p;
    details["latency_samples"] = lat.size();
    details["elapsed_s"] = elapsed_s;
    details["failed_frac"] = static_cast<double>(verdict.failed) / attempted;
    std::vector<double> setups = pass.setup_s;
    setups.insert(setups.end(), options.child_setup_s.begin(), options.child_setup_s.end());
    details["setup_s_samples"] = util::Json::array_of(setups);
    return {
        {"setup_s", "s", util::median(setups)},
        {"latency_p50_ms", "ms", median_or_zero(lat)},
        {"latency_tail_ms", "ms", percentile_or_zero(lat, tail_p)},
        {"slo_frac", "frac", static_cast<double>(within_slo) / attempted},
        {"throughput_jobs_per_s", "jobs/s",
         elapsed_s > 0 ? static_cast<double>(verdict.ok) / elapsed_s : 0.0},
        {"final_accuracy_pct", "%", accuracy.empty() ? 0.0 : util::mean(accuracy)},
        {"tuned_makespan_s", "s", makespan.empty() ? 0.0 : util::mean(makespan)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
}

std::vector<Metric> per_layer_metrics(const RunOptions& options, const Pass& pass,
                                      const Verdict& verdict, util::Json& details,
                                      std::vector<std::string>& errors) {
    const auto& records = pass.load.records;
    std::map<std::uint64_t, const core::JobTiming*> timing_of;
    for (const core::JobTiming& t : pass.timings) timing_of[t.id] = &t;

    // The scheduler stamps jobs in seconds since its own construction. Each
    // submit call brackets one stamp on the steady clock; the latest lower
    // bound over all calls pins the scheduler's epoch to within the
    // shortest call.
    std::optional<Clock::time_point> sched_epoch;
    std::vector<std::optional<SubmitCall>> submit_of(records.size());
    for (const SubmitCall& call : pass.submits) {
        std::size_t index = 0;
        if (!parse_request_label(call.label, &index) || index >= records.size()) continue;
        submit_of[index] = call;
        const auto it = timing_of.find(call.job_id);
        if (it == timing_of.end()) continue;
        const Clock::time_point lower = call.entered - seconds_to_duration(it->second->submit_s);
        if (!sched_epoch || lower > *sched_epoch) sched_epoch = lower;
    }

    std::vector<double> late, ingress, egress, submit_us, queue_wait, run_ms;
    std::vector<RequestPath> paths;
    std::vector<std::optional<std::vector<double>>> stages_of(records.size());
    double run_total_ms = 0.0;
    std::size_t jobs = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RequestRecord& r = records[i];
        if (r.sent != Clock::time_point{}) late.push_back(ms_between(r.due, r.sent));
        if (!verdict.facts[i] || !submit_of[i] || !sched_epoch) continue;
        const SubmitCall& call = *submit_of[i];
        const core::JobTiming& t = *timing_of.at(verdict.facts[i]->job_id);
        if (t.start_s < 0 || t.finish_s < 0) continue;
        RequestPath p{.index = i,
                      .due = r.due,
                      .sent = r.sent,
                      .submit_entered = call.entered,
                      .submit_returned = call.returned,
                      .enqueued = *sched_epoch + seconds_to_duration(t.submit_s),
                      .start = *sched_epoch + seconds_to_duration(t.start_s),
                      .finish = *sched_epoch + seconds_to_duration(t.finish_s),
                      .replied = r.replied};
        ingress.push_back(ms_between(p.sent, p.submit_entered));
        submit_us.push_back(1e3 * ms_between(p.submit_entered, p.submit_returned));
        queue_wait.push_back(1e3 * (t.start_s - t.submit_s));
        run_ms.push_back(1e3 * (t.finish_s - t.start_s));
        egress.push_back(ms_between(p.finish, p.replied));
        run_total_ms += run_ms.back();
        ++jobs;
        // Contiguous stages from due to reply. The job can start before
        // submit returns (the journal append follows the enqueue), so the
        // submit stage ends at the enqueue stamp.
        stages_of[i] = {ms_between(p.due, p.sent), ingress.back(),
                        ms_between(p.submit_entered, p.enqueued), queue_wait.back(),
                        run_ms.back(), egress.back()};
        paths.push_back(p);
    }

    // The median request's stages must add up to its latency within 5%. A
    // stage that reads negative means the scheduler's clock was mapped onto
    // the load generator's wrongly, and the stages then overlap instead of adding up.
    const std::vector<std::optional<double>> lat = latencies(pass, verdict);
    std::vector<std::pair<double, std::size_t>> by_latency;
    for (std::size_t i = 0; i < lat.size(); ++i)
        if (lat[i] && stages_of[i]) by_latency.emplace_back(*lat[i], i);
    std::sort(by_latency.begin(), by_latency.end());
    if (!by_latency.empty()) {
        const auto [latency, index] = by_latency[by_latency.size() / 2];
        double covered = 0.0;
        for (double stage : *stages_of[index]) covered += std::max(0.0, stage);
        const double error = latency > 0 ? std::abs(covered - latency) / latency : 0.0;
        details["median_request_stages_ms"] = util::Json::array_of(*stages_of[index]);
        details["median_request_sum_error_frac"] = error;
        if (error > 0.05)
            errors.push_back("traced median request: stages miss its latency by " +
                             std::to_string(100 * error) + "%");
    }

    std::vector<double> start_trial_ms, epoch_ms;
    std::map<std::string, std::vector<double>> epoch_by_family;
    double backend_ms = 0.0;
    for (const BackendCall& call : pass.backend_calls) {
        const double ms = ms_between(call.begin, call.end);
        backend_ms += ms;
        if (call.epoch) {
            epoch_ms.push_back(ms);
            epoch_by_family[call.family].push_back(ms);
        } else {
            start_trial_ms.push_back(ms);
        }
    }
    double hits = 0.0, probes = 0.0;
    for (const auto& f : verdict.facts) {
        if (!f) continue;
        hits += f->gt_hits;
        probes += f->probes;
    }
    const double window_ms = ms_between(pass.load.start, pass.end);
    const double per_job = jobs > 0 ? 1.0 / static_cast<double>(jobs) : 0.0;
    const double traced_p50 = median_or_zero(present(lat));

    if (!options.trace_out.empty()) {
        const auto written = util::try_write_file_atomic(
            options.trace_out, chrome_trace(paths, pass.backend_calls, pass.load.start).dump());
        if (!written.ok()) errors.push_back("trace write: " + written.error());
        details["trace_file"] = options.trace_out;
    }

    const LayerTimings layers = time_layers(options.seed);
    const StateProbe& s = pass.state;
    return {
        {"load.late_ms_p99", "ms", percentile_or_zero(late, 99)},
        {"net.ingress_ms_p50", "ms", median_or_zero(ingress)},
        {"net.ingress_ms_p99", "ms", percentile_or_zero(ingress, 99)},
        {"net.egress_ms_p50", "ms", median_or_zero(egress)},
        {"net.egress_ms_p99", "ms", percentile_or_zero(egress, 99)},
        {"sched.submit_us_p50", "us", median_or_zero(submit_us)},
        {"sched.queue_wait_ms_p50", "ms", median_or_zero(queue_wait)},
        {"sched.queue_wait_ms_p99", "ms", percentile_or_zero(queue_wait, 99)},
        {"sched.run_ms_p50", "ms", median_or_zero(run_ms)},
        {"backend.start_trial_ms_p50", "ms", median_or_zero(start_trial_ms)},
        {"backend.epoch_ms_p50", "ms", median_or_zero(epoch_ms)},
        {"backend.epoch_ms_p50.lenet", "ms", median_or_zero(epoch_by_family["lenet"])},
        {"backend.epoch_ms_p50.cnn", "ms", median_or_zero(epoch_by_family["cnn"])},
        {"backend.epoch_ms_p50.lstm", "ms", median_or_zero(epoch_by_family["lstm"])},
        {"backend.epochs_per_job", "count", static_cast<double>(epoch_ms.size()) * per_job},
        {"backend.busy_share", "frac",
         window_ms > 0 ? backend_ms / (static_cast<double>(kWorkerSlots) * window_ms) : 0.0},
        {"tensor.conv2d_us", "us", layers.conv2d_us},
        {"tensor.matmul_us", "us", layers.matmul_us},
        {"nn.lenet_epoch_ms", "ms", layers.lenet_epoch_ms},
        {"nn.lstm_epoch_ms", "ms", layers.lstm_epoch_ms},
        {"nn.textcnn_epoch_ms", "ms", layers.textcnn_epoch_ms},
        {"core.self_ms_per_job", "ms", (run_total_ms - backend_ms) * per_job},
        {"core.gt_hit_ratio", "frac", hits + probes > 0 ? hits / (hits + probes) : 0.0},
        {"core.gt_lookup_us", "us", s.gt_lookup_us},
        {"core.gt_store_size", "count", static_cast<double>(s.gt_size)},
        {"metricsdb.points", "count", static_cast<double>(s.points)},
        {"metricsdb.count_ms", "ms", s.count_ms},
        {"ft.persist_ms", "ms", s.persist_ms},
        {"ft.state_mb", "MB", s.state_mb},
        {"ft.journal_mb", "MB", s.journal_mb},
        {"trace.overhead_frac", "frac",
         options.untraced_p50_ms > 0 ? traced_p50 / options.untraced_p50_ms - 1.0 : 0.0},
    };
}

util::Json pass_summary(const Pass& pass, const Verdict& verdict) {
    util::Json doc = util::Json::object();
    doc["requests"] = pass.load.records.size();
    doc["ok"] = verdict.ok;
    doc["failed"] = verdict.failed;
    doc["pings"] = pass.load.pings;
    doc["load_error"] = pass.load.error;
    doc["server_requests"] = pass.counters.requests;
    doc["server_jobs_completed"] = pass.counters.jobs_completed;
    doc["service_completed"] = pass.stats.completed;
    doc["max_queue_depth"] = pass.stats.max_queue_depth;
    return doc;
}

}  // namespace

std::size_t setups_per_process(const WorkloadSpec& spec) { return spec.real_backend ? 1 : 5; }

std::vector<double> time_setups(const WorkloadSpec& spec, std::uint64_t seed,
                                const std::string& work_dir) {
    std::vector<double> seconds;
    for (std::size_t k = 0; k < setups_per_process(spec); ++k)
        timed_setup(spec, seed, work_dir + "/state-" + std::to_string(k), nullptr, seconds);
    fs::remove_all(work_dir);
    return seconds;
}

RunOutcome run_benchmark(const RunOptions& options) {
    const WorkloadSpec& spec = *options.spec;
    RunOutcome out;
    out.details = util::Json::object();
    const std::vector<PlannedRequest> plan = plan_requests(spec, options.seed, options.seconds);
    fs::remove_all(options.work_dir);
    fs::create_directories(options.work_dir);

    // Self-test kinds 0-3 corrupt a reply, kind 4 the determinism comparison.
    const std::uint64_t corruption = options.seed % 5;
    Pass pass = run_pass(options, plan, options.trace ? 1 : setups_per_process(spec),
                         options.trace, options.work_dir);
    if (options.self_test && corruption < 4) corrupt_one_reply(pass, options.seed, corruption);
    const Verdict verdict = gate(pass);
    out.errors = verdict.errors;
    out.attempted = plan.size();
    out.failed = verdict.failed;
    out.details["pass"] = pass_summary(pass, verdict);
    out.metrics = options.trace ? per_layer_metrics(options, pass, verdict, out.details, out.errors)
                                : end_to_end_metrics(options, pass, verdict, out.details);

    const std::string determinism =
        determinism_check(options.seed, options.self_test && corruption == 4);
    if (!determinism.empty()) out.errors.push_back(determinism);
    fs::remove_all(options.work_dir);
    out.correct = out.errors.empty();
    return out;
}

}  // namespace ptbench
