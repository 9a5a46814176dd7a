// pipetune — command-line front end for the library.
//
//   pipetune list-workloads
//   pipetune tune <workload> [--approach pipetune|v1|v2] [--seed N]
//                 [--slots N] [--resource R] [--state-dir DIR] [--dvfs]
//                 [--objective duration|energy] [--backend sim|real]
//   pipetune compare <workload> [--seed N]          # all approaches side by side
//   pipetune warm-start --state-dir DIR [--seed N]  # §7.2 offline campaign
//   pipetune replay [--jobs N] [--workers N] ...    # §7.4 multi-tenant trace on
//                                                   # the concurrent scheduler
//   pipetune resume <journal>                       # re-run a crashed run's
//                                                   # pending jobs from its journal
//
// `tune` and `replay` accept --metrics-out FILE (Prometheus text snapshot)
// and --trace-out FILE (Chrome trace-event JSON) to dump the run's telemetry,
// plus the fault-tolerance flags (DESIGN.md §10): --journal FILE records a
// durable write-ahead journal, --inject-faults RATE injects seeded epoch
// failures (absorbed by epoch-level retry), --crash-after N kills the run
// with a simulated crash on the Nth epoch (then `pipetune resume` finishes
// the work).
//
// Everything runs on the simulation backend by default (instant, virtual
// time); --backend real trains the bundled NN engine instead.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <system_error>
#include <thread>

#include "pipetune/cluster/cluster_sim.hpp"
#include "pipetune/core/experiment.hpp"
#include "pipetune/core/warm_start.hpp"
#include "pipetune/ft/errors.hpp"
#include "pipetune/ft/fault_injector.hpp"
#include "pipetune/ft/ft_backend.hpp"
#include "pipetune/ft/journal.hpp"
#include "pipetune/ft/recovery.hpp"
#include "pipetune/net/auth.hpp"
#include "pipetune/net/client.hpp"
#include "pipetune/net/loadgen.hpp"
#include "pipetune/net/server.hpp"
#include "pipetune/obs/build_info.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/real_backend.hpp"
#include "pipetune/sim/sim_backend.hpp"
#include "pipetune/util/args.hpp"
#include "pipetune/util/build_info.hpp"
#include "pipetune/util/fs.hpp"
#include "pipetune/util/table.hpp"

namespace {

using namespace pipetune;

// ---------------------------------------------------------------- signals
// One flag + one server pointer, both async-signal-safe to touch. `serve`
// points g_server at its live instance so SIGTERM/SIGINT start a fast drain
// (running jobs finish and journal; queued jobs stay journal-pending for
// `pipetune resume`). `tune` has no server: its observer sees the flag and
// throws ft::SimulatedCrash, unwinding the run WITHOUT a terminal journal
// record — the same resumable shape a --crash-after run leaves behind.
std::atomic<int> g_signal{0};
std::atomic<net::TuningServer*> g_server{nullptr};

extern "C" void pipetune_handle_signal(int sig) {
    g_signal.store(sig, std::memory_order_relaxed);
    net::TuningServer* server = g_server.load(std::memory_order_relaxed);
    if (server != nullptr) server->request_stop(net::DrainMode::kFast);
}

void install_signal_handlers() {
    std::signal(SIGINT, pipetune_handle_signal);
    std::signal(SIGTERM, pipetune_handle_signal);
}

/// EpochObserver that aborts the run (ft::SimulatedCrash) once a signal has
/// arrived, checking before each epoch so the journal stays consistent; any
/// inner observer (the fault injector) is consulted after the signal check.
class SignalAbortObserver final : public workload::EpochObserver {
public:
    explicit SignalAbortObserver(workload::EpochObserver* inner) : inner_(inner) {}

    void before_epoch(const workload::Workload& workload, const workload::HyperParams& hyper,
                      std::size_t epoch, const workload::SystemParams& system) override {
        int sig = g_signal.load(std::memory_order_relaxed);
        if (sig != 0)
            throw ft::SimulatedCrash("interrupted by signal " + std::to_string(sig));
        if (inner_ != nullptr) inner_->before_epoch(workload, hyper, epoch, system);
    }

    void after_epoch(const workload::Workload& workload, std::size_t epoch,
                     workload::EpochResult& result) override {
        if (inner_ != nullptr) inner_->after_epoch(workload, epoch, result);
    }

private:
    workload::EpochObserver* inner_;
};

std::vector<std::string> split_csv(const std::string& text) {
    std::vector<std::string> out;
    std::stringstream stream(text);
    std::string item;
    while (std::getline(stream, item, ','))
        if (!item.empty()) out.push_back(item);
    return out;
}

int usage() {
    std::cout <<
        R"(pipetune — pipelined hyper & system parameter tuning

usage:
  pipetune list-workloads
  pipetune tune <workload> [--approach pipetune|v1|v2] [--seed N] [--slots N]
                [--resource R] [--state-dir DIR] [--dvfs]
                [--objective duration|energy] [--backend sim|real]
                [--metrics-out FILE] [--trace-out FILE]
                [--journal FILE] [--inject-faults RATE] [--crash-after N]
  pipetune compare <workload> [--seed N] [--backend sim|real]
  pipetune warm-start --state-dir DIR [--seed N] [--backend sim|real]
  pipetune replay [--jobs N] [--interarrival S] [--unseen F] [--mix type1|type2|type3|all]
                  [--workers N] [--queue-capacity N] [--compress X] [--slots N]
                  [--state-dir DIR] [--seed N] [--backend sim|real]
                  [--metrics-out FILE] [--trace-out FILE]
                  [--journal FILE] [--inject-faults RATE] [--crash-after N]
  pipetune resume <journal> [--state-dir DIR] [--backend sim|real]
                  [--metrics-out FILE] [--trace-out FILE]
  pipetune serve [--port N] [--bind ADDR] [--workers N] [--queue-capacity N]
                 [--tenants name=token[:quota],...] [--anonymous-quota N]
                 [--max-connections N] [--state-dir DIR] [--journal FILE]
                 [--seed N] [--backend sim|real] [--slots N] [--resource R]
                 [--port-file FILE] [--metrics-out FILE] [--trace-out FILE]
  pipetune loadgen --port N [--host ADDR] [--rate R | --sweep R1,R2,...]
                   [--requests N] [--tokens T1,T2,...] [--workloads W1,W2,...]
                   [--resource R] [--slots N] [--seed N] [--timeout S]
                   [--out FILE]
  pipetune --version

replay generates a §7.4 arrival trace and runs it through the tuning service
(concurrent scheduler when --workers > 1) on real worker threads; arrival
gaps are multiplied by --compress (default 2e-5) before sleeping.

--metrics-out dumps a Prometheus text snapshot of every counter/gauge/
histogram the run touched; --trace-out dumps the hierarchical span tree
(job -> trial -> epoch -> probe) as Chrome trace-event JSON (load in
chrome://tracing or Perfetto).

serve turns the tuning service into a network daemon speaking the
newline-delimited JSON protocol of DESIGN.md §11 (submit/status/cancel/
stats/metrics/drain) with per-tenant bearer-token auth and quotas; the same
port answers HTTP `GET /metrics` with the Prometheus export. SIGINT/SIGTERM
drain gracefully: running jobs finish and journal, queued jobs stay
journal-pending so `pipetune resume` completes them. loadgen drives a
running server open-loop (Poisson arrivals at --rate, or one point per
--sweep rate) and reports p50/p99/p999 latency, goodput and reject rate.

resume replays the journal of a crashed run: jobs with a completed record
contribute their ground truth, jobs without one re-run deterministically
with their recorded config and seeds. Exit codes: 0 jobs were resumed,
3 nothing to resume, 4 journal unreadable.

workloads: run `pipetune list-workloads` for the catalogue (paper Table 3).
)";
    return 2;
}

std::unique_ptr<workload::Backend> make_backend(const util::Args& args, std::uint64_t seed,
                                                workload::EpochObserver* observer = nullptr) {
    if (args.get_or("backend", "sim") == "real") {
        sim::RealBackendConfig config;
        config.seed = seed;
        config.epoch_observer = observer;
        return std::make_unique<sim::RealBackend>(config);
    }
    sim::SimBackendConfig config;
    config.seed = seed;
    config.epoch_observer = observer;
    return std::make_unique<sim::SimBackend>(config);
}

// Fault-tolerance wiring shared by tune/replay/resume: an optional durable
// journal, an optional seeded fault injector observing every epoch, and —
// whenever faults are injected — a FaultTolerantBackend decorator so the
// injected epoch failures are retried instead of killing the job.
struct FtSetup {
    std::unique_ptr<ft::Journal> journal;
    std::unique_ptr<ft::FaultInjector> injector;
    std::unique_ptr<ft::FaultTolerantBackend> retry_backend;

    static FtSetup from_args(const util::Args& args, std::uint64_t seed,
                             obs::ObsContext* obs) {
        FtSetup out;
        const std::string journal_path = args.get_or("journal", "");
        if (!journal_path.empty()) out.journal = std::make_unique<ft::Journal>(journal_path);
        const double fault_rate = args.get_number_or("inject-faults", 0.0);
        const auto crash_after = static_cast<std::size_t>(args.get_uint_or("crash-after", 0));
        if (fault_rate > 0.0 || crash_after > 0) {
            ft::FaultInjectorConfig config;
            config.epoch_failure_rate = fault_rate;
            config.crash_after_epochs = crash_after;
            config.seed = seed;
            config.obs = obs;
            out.injector = std::make_unique<ft::FaultInjector>(config);
        }
        return out;
    }

    /// Decorate `inner` with epoch-level retry when faults are injected.
    workload::Backend& wrap(workload::Backend& inner, std::uint64_t seed,
                            obs::ObsContext* obs) {
        if (!injector) return inner;
        ft::FaultTolerantBackendConfig config;
        config.retry.max_retries = 8;
        config.seed = seed;
        config.obs = obs;
        retry_backend = std::make_unique<ft::FaultTolerantBackend>(inner, config);
        return *retry_backend;
    }

    void report() const {
        if (injector)
            std::cout << "fault injection: " << injector->injected_epoch_failures()
                      << " epoch failures, " << injector->injected_stalls() << " stalls, "
                      << injector->injected_crashes() << " crashes over "
                      << injector->epochs_seen() << " epochs\n";
        if (retry_backend)
            std::cout << "epoch retry: " << retry_backend->retries_total() << " retries, "
                      << retry_backend->recoveries_total() << " recoveries, "
                      << retry_backend->gave_up_total() << " gave up\n";
        if (journal)
            std::cout << "journal: " << journal->last_seq() << " records in "
                      << journal->path() << "\n";
    }
};

// Telemetry sinks requested on the command line. The context is only
// constructed when at least one output flag is present, so default runs pay
// nothing (services see a null obs pointer).
struct ObsOutputs {
    std::unique_ptr<obs::ObsContext> context;
    std::string metrics_out;
    std::string trace_out;

    static ObsOutputs from_args(const util::Args& args) {
        ObsOutputs out;
        out.metrics_out = args.get_or("metrics-out", "");
        out.trace_out = args.get_or("trace-out", "");
        if (!out.metrics_out.empty() || !out.trace_out.empty()) {
            out.context = std::make_unique<obs::ObsContext>();
            out.context->mirror_logs();
        }
        return out;
    }

    obs::ObsContext* get() const { return context.get(); }

    void write() const {
        if (!context) return;
        if (!metrics_out.empty()) {
            context->write_prometheus(metrics_out);
            std::cout << "metrics snapshot (" << context->metrics().series_count()
                      << " series) written to " << metrics_out << "\n";
        }
        if (!trace_out.empty()) {
            context->write_chrome_trace(trace_out);
            std::cout << "trace (" << context->tracer().completed().size()
                      << " spans) written to " << trace_out << "\n";
        }
    }
};

hpt::HptJobConfig job_config(const util::Args& args, std::uint64_t seed) {
    hpt::HptJobConfig job;
    job.seed = seed;
    job.parallel_slots = static_cast<std::size_t>(args.get_uint_or("slots", 4));
    job.hyperband_resource = static_cast<std::size_t>(args.get_uint_or("resource", 27));
    job.final_epochs = job.hyperband_resource;
    return job;
}

void print_result(const std::string& approach, const hpt::BaselineResult& result) {
    util::Table table({"metric", "value"});
    table.add_row({"approach", approach});
    table.add_row({"best hyperparameters", result.best_hyper.to_string()});
    table.add_row({"final system config", result.final_system.to_string()});
    table.add_row({"final accuracy [%]", util::Table::num(result.final_accuracy, 2)});
    table.add_row({"training time [s]", util::Table::num(result.training_time_s, 1)});
    table.add_row({"tuning time [s]", util::Table::num(result.tuning.tuning_duration_s, 1)});
    table.add_row({"tuning energy [kJ]",
                   util::Table::num(result.tuning.tuning_energy_j / 1000.0, 1)});
    table.add_row({"trials / epochs", std::to_string(result.tuning.trials) + " / " +
                                          std::to_string(result.tuning.epochs)});
    std::cout << table.render();
}

int cmd_list_workloads() {
    util::Table table({"name", "type", "model", "dataset", "datasize [MB]", "train files"});
    for (const auto& workload : workload::catalogue())
        table.add_row({workload.name, to_string(workload.type), workload.model_family,
                       workload.dataset_family, util::Table::num(workload.datasize_mb, 0),
                       std::to_string(workload.train_files)});
    std::cout << table.render();
    return 0;
}

int cmd_tune(const util::Args& args) {
    if (args.positionals().empty()) return usage();
    const auto& workload = workload::find_workload(args.positionals()[0]);
    const auto seed = args.get_uint_or("seed", 1);
    const auto job = job_config(args, seed);
    const std::string approach = args.get_or("approach", "pipetune");

    if (approach == "v1") {
        print_result("Tune V1", hpt::run_tune_v1(*make_backend(args, seed), workload, job));
        return 0;
    }
    if (approach == "v2") {
        print_result("Tune V2", hpt::run_tune_v2(*make_backend(args, seed), workload, job));
        return 0;
    }
    if (approach != "pipetune") {
        std::cerr << "unknown --approach '" << approach << "'\n";
        return usage();
    }

    const auto obs_outputs = ObsOutputs::from_args(args);
    auto ft_setup = FtSetup::from_args(args, seed, obs_outputs.get());

    // SIGINT/SIGTERM abort the run between epochs as a simulated crash: no
    // terminal journal record is written, so the journal stays resumable.
    install_signal_handlers();
    SignalAbortObserver signal_observer(ft_setup.injector.get());

    // With a journal the backend is rebuilt per job from an id-derived seed
    // (ReseedingBackend), so `pipetune resume` can re-run the job bit-equal
    // to this attempt; without one a plain backend suffices.
    std::unique_ptr<workload::Backend> plain;
    std::unique_ptr<ft::ReseedingBackend> reseeding;
    workload::Backend* base = nullptr;
    std::uint64_t derived_seed = 0;
    if (ft_setup.journal) {
        reseeding = std::make_unique<ft::ReseedingBackend>(
            [&args, observer = &signal_observer](std::uint64_t job_seed) {
                return make_backend(args, job_seed, observer);
            },
            seed);
        // The service numbers jobs from 1; this run submits exactly one.
        derived_seed = ft::ReseedingBackend::job_seed(seed, 1);
        reseeding->begin_job(derived_seed);
        base = reseeding.get();
    } else {
        plain = make_backend(args, seed, &signal_observer);
        base = plain.get();
    }
    workload::Backend& active = ft_setup.wrap(*base, seed, obs_outputs.get());

    core::ServiceOptions service_options;
    service_options.state_dir = args.get_or("state-dir", "");
    service_options.pipetune.tune_frequency = args.get_flag("dvfs");
    if (args.get_or("objective", "duration") == "energy")
        service_options.pipetune.probe_objective = core::PipeTuneConfig::ProbeObjective::kEnergy;
    service_options.obs = obs_outputs.get();
    service_options.journal = ft_setup.journal.get();
    sched::ConcurrentPipeTuneService service(active, service_options);
    core::SubmitOptions submit_options;
    submit_options.backend_seed = derived_seed;
    core::PipeTuneJobResult result;
    try {
        result = service.run(workload, job, submit_options);
    } catch (const ft::SimulatedCrash& crash) {
        if (g_signal.load(std::memory_order_relaxed) == 0) throw;  // --crash-after path
        std::cout << "interrupted (" << crash.what() << ")\n";
        if (ft_setup.journal)
            std::cout << "journal " << ft_setup.journal->path()
                      << " left resumable; run `pipetune resume " << ft_setup.journal->path()
                      << "` to finish\n";
        obs_outputs.write();
        return 130;
    }
    print_result("PipeTune", result.baseline);
    if (args.get_flag("verbose")) {
        util::Table decisions({"trial", "similarity", "decision", "applied config"});
        for (const auto& decision : result.decisions)
            // Reserved high ids mark the post-search final-training run.
            decisions.add_row({decision.trial_id > (1ULL << 62) ? "final"
                                                                : std::to_string(decision.trial_id),
                               util::Table::num(decision.similarity_score, 3),
                               decision.hit ? "reuse" : "probe",
                               decision.applied_known ? decision.applied.to_string()
                                                      : "(probe incomplete)"});
        std::cout << "\nPer-trial decisions:\n" << decisions.render();
    }
    std::cout << "ground truth: " << result.ground_truth_hits << " hits, "
              << result.probes_started << " probes, store size " << result.ground_truth_size
              << "\n";
    if (!service.ground_truth_path().empty())
        std::cout << "state persisted under " << args.get_or("state-dir", "") << "\n";
    ft_setup.report();
    obs_outputs.write();
    return 0;
}

int cmd_compare(const util::Args& args) {
    if (args.positionals().empty()) return usage();
    const auto& workload = workload::find_workload(args.positionals()[0]);
    const auto seed = args.get_uint_or("seed", 1);
    auto backend = make_backend(args, seed);
    const auto comparison = core::compare_approaches(*backend, workload, job_config(args, seed));

    util::Table table({"approach", "accuracy [%]", "training [s]", "tuning [s]"});
    auto row = [&](const char* name, const hpt::BaselineResult& r, bool tuned) {
        table.add_row({name, util::Table::num(r.final_accuracy, 2),
                       util::Table::num(r.training_time_s, 0),
                       tuned ? util::Table::num(r.tuning.tuning_duration_s, 0) : "-"});
    };
    row("Arbitrary", comparison.arbitrary, false);
    row("Tune V1", comparison.tune_v1, true);
    row("Tune V2", comparison.tune_v2, true);
    row("PipeTune", comparison.pipetune.baseline, true);
    std::cout << table.render();
    return 0;
}

int cmd_warm_start(const util::Args& args) {
    const std::string state_dir = args.get_or("state-dir", "");
    if (state_dir.empty()) {
        std::cerr << "warm-start requires --state-dir\n";
        return usage();
    }
    const auto seed = args.get_uint_or("seed", 1);
    auto backend = make_backend(args, seed);
    core::WarmStartConfig config;
    config.seed = seed;
    const auto store = core::build_warm_ground_truth(*backend, workload::catalogue(), config);
    std::error_code ec;
    std::filesystem::create_directories(state_dir, ec);
    store.save(state_dir + "/ground_truth.json");
    std::cout << "recorded " << store.size() << " profiles into " << state_dir
              << "/ground_truth.json\n";
    return 0;
}

int cmd_replay(const util::Args& args) {
    const auto seed = args.get_uint_or("seed", 1);
    const auto obs_outputs = ObsOutputs::from_args(args);
    auto ft_setup = FtSetup::from_args(args, seed, obs_outputs.get());
    auto backend = make_backend(args, seed, ft_setup.injector.get());
    workload::Backend& active = ft_setup.wrap(*backend, seed, obs_outputs.get());

    std::vector<workload::Workload> mix;
    const std::string mix_name = args.get_or("mix", "all");
    if (mix_name == "all") mix = workload::catalogue();
    else if (mix_name == "type1") mix = workload::workloads_of_type(workload::WorkloadType::kType1);
    else if (mix_name == "type2") mix = workload::workloads_of_type(workload::WorkloadType::kType2);
    else if (mix_name == "type3") mix = workload::workloads_of_type(workload::WorkloadType::kType3);
    else {
        std::cerr << "unknown --mix '" << mix_name << "'\n";
        return usage();
    }

    cluster::ArrivalConfig arrivals;
    arrivals.job_count = static_cast<std::size_t>(args.get_uint_or("jobs", 12));
    arrivals.mean_interarrival_s = args.get_number_or("interarrival", 2000.0);
    arrivals.unseen_fraction = args.get_number_or("unseen", 0.2);
    arrivals.seed = seed;
    const auto jobs = cluster::generate_arrivals(mix, arrivals);

    core::ServiceOptions options;
    options.state_dir = args.get_or("state-dir", "");
    // The scheduler clamps 0 slots to 1 internally; mirror that here so the
    // trace summary sees the same node count.
    options.concurrency = std::max<std::size_t>(1, args.get_uint_or("workers", 4));
    options.queue_capacity = static_cast<std::size_t>(args.get_uint_or("queue-capacity", 64));
    options.obs = obs_outputs.get();
    options.journal = ft_setup.journal.get();
    // Injected faults are mostly absorbed by the epoch-level retry decorator;
    // give the scheduler a job-level retry budget for the ones that escape.
    if (ft_setup.injector) options.retry.max_retries = 3;
    sched::ConcurrentPipeTuneService service(active, options);
    const double compress = args.get_number_or("compress", 2e-5);

    struct Pending {
        core::TuningService::Submission submission;
        std::string name;
        bool unseen;
    };
    std::vector<Pending> pending;
    double prev_arrival_s = 0.0;
    std::uint64_t job_seed = seed;
    for (const auto& job : jobs) {
        const double gap_s = (job.arrival_s - prev_arrival_s) * compress;
        prev_arrival_s = job.arrival_s;
        if (gap_s > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(gap_s));
        auto submission =
            service.submit(job.workload, job_config(args, ++job_seed),
                           {.label = job.workload.name, .backend_seed = seed});
        if (!submission.has_value()) {
            std::cerr << "job " << job.index << " (" << job.workload.name << ") rejected\n";
            continue;
        }
        pending.push_back({std::move(*submission), job.workload.name, job.unseen});
    }

    std::size_t total_hits = 0;
    std::vector<std::pair<std::string, std::string>> outcomes;  // (hits, probes) per job
    for (auto& p : pending) {
        std::string hits = "-";
        std::string probes = "-";
        try {
            const auto result = p.submission.result.get();
            total_hits += result.ground_truth_hits;
            hits = std::to_string(result.ground_truth_hits);
            probes = std::to_string(result.probes_started);
        } catch (const std::exception&) {
            // state column already tells the story (cancelled / timed out)
        }
        outcomes.emplace_back(hits, probes);
    }
    std::map<std::uint64_t, core::JobTiming> timings;
    for (auto& timing : service.job_timings()) timings[timing.id] = std::move(timing);
    util::Table table({"job", "workload", "unseen", "state", "response [s]", "GT hits",
                       "probes"});
    for (std::size_t i = 0; i < pending.size(); ++i) {
        const auto& p = pending[i];
        const auto it = timings.find(p.submission.id);
        const bool timed = it != timings.end() && it->second.finish_s >= 0;
        const double response = timed ? it->second.finish_s - it->second.submit_s : 0.0;
        const std::string state = it == timings.end() ? "unknown"
                                  : it->second.ok      ? "completed"
                                                       : it->second.error;
        table.add_row({std::to_string(p.submission.id), p.name, p.unseen ? "yes" : "no",
                       state, util::Table::num(response, 3), outcomes[i].first,
                       outcomes[i].second});
    }
    std::cout << table.render();

    const auto stats = service.stats();
    util::Table summary({"metric", "value"});
    summary.add_row({"jobs completed", std::to_string(stats.completed)});
    summary.add_row({"jobs failed", std::to_string(stats.failed)});
    summary.add_row({"max queue depth", std::to_string(stats.max_queue_depth)});
    summary.add_row({"ground-truth hits (total)", std::to_string(total_hits)});
    const auto& cluster_state = service.cluster_state();
    summary.add_row({"store entries", std::to_string(cluster_state.ground_truth_size())});
    summary.add_row({"metric points", std::to_string(cluster_state.metric_points())});
    const auto trace = service.trace();
    if (!trace.empty()) {
        const auto trace_stats = cluster::summarize_trace(trace, options.concurrency);
        summary.add_row({"p50 response [s]", util::Table::num(trace_stats.p50_response_s, 3)});
        summary.add_row({"p95 response [s]", util::Table::num(trace_stats.p95_response_s, 3)});
        summary.add_row({"makespan [s]", util::Table::num(trace_stats.makespan_s, 3)});
        summary.add_row({"utilization", util::Table::num(trace_stats.utilization, 2)});
    }
    std::cout << summary.render();
    if (!options.state_dir.empty())
        std::cout << "state persisted under " << options.state_dir << "\n";
    ft_setup.report();
    obs_outputs.write();
    return 0;
}

int cmd_resume(const util::Args& args) {
    if (args.positionals().empty()) {
        std::cerr << "resume requires a journal path\n";
        return usage();
    }
    const std::string journal_path = args.positionals()[0];
    const auto analyzed = ft::Recovery::analyze(journal_path);
    if (!analyzed) {
        std::cerr << "error: unreadable journal '" << journal_path << "': " << analyzed.error()
                  << "\n";
        return 4;
    }
    const ft::RecoveryPlan& plan = analyzed.value();
    const auto pending = plan.pending_jobs();
    std::cout << "journal " << journal_path << ": " << plan.records_read << " records ("
              << plan.completed_count() << " jobs completed, " << plan.failed_count()
              << " failed, " << pending.size() << " pending)"
              << (plan.truncated_tail ? ", truncated tail dropped" : "") << "\n";
    // Consume the run options before the nothing-to-resume exit, or a clean
    // second resume would warn about "unrecognized" flags it simply never
    // needed.
    const std::string state_dir = args.get_or("state-dir", "");
    const auto obs_outputs = ObsOutputs::from_args(args);
    if (pending.empty()) {
        std::cout << "nothing to resume\n";
        return 3;
    }

    // Pending jobs re-run from scratch on a per-job reseeded backend: the
    // recorded backend_seed plus the job id reproduce the exact seed stream
    // the crashed attempt used, so the re-run regenerates precisely the
    // observations the crash threw away (see DESIGN.md §10).
    ft::ReseedingBackend backend(
        [&args](std::uint64_t job_seed) { return make_backend(args, job_seed); }, 1);
    ft::Journal journal(journal_path);  // resumed run extends the same journal
    core::ServiceOptions service_options;
    service_options.state_dir = state_dir;
    service_options.obs = obs_outputs.get();
    service_options.journal = &journal;
    // One slot: the re-runs share `backend`'s per-job seed, so they must run
    // one after another. Each is submitted under its original id.
    sched::ConcurrentPipeTuneService service(backend, service_options);

    // With --state-dir the service has already loaded the completed jobs'
    // entries (its snapshot plus the journal's tail) and ignores this seed.
    std::vector<core::GroundTruthEntry> recovered;
    recovered.reserve(plan.ground_truth.size());
    for (const ft::RecoveredGtMutation& mutation : plan.ground_truth)
        recovered.push_back({mutation.features, mutation.best_system, mutation.metric});
    service.seed_ground_truth(recovered);

    util::Table table({"job", "workload", "state", "accuracy [%]", "GT hits", "probes"});
    std::size_t resumed = 0;
    for (const ft::RecoveredJob& job : pending) {
        if (job.workload.empty()) {
            std::cerr << "job " << job.job_id
                      << ": no job_submitted record in the journal, skipping\n";
            continue;
        }
        auto submit_options = core::submit_options_from_journal(job.submit);
        // Re-run under the original id: its journal completion record is what
        // marks the pending job terminal, making resume idempotent.
        submit_options.job_id = job.job_id;
        // backend_seed is the fully derived per-job seed the crashed attempt
        // used (or 0: derive a deterministic one from the job id).
        backend.begin_job(submit_options.backend_seed != 0
                              ? submit_options.backend_seed
                              : ft::ReseedingBackend::job_seed(1, job.job_id));
        try {
            // Inside the try: a workload this build cannot rebuild fails
            // its job, not the whole resume.
            const auto result = service.run(core::workload_from_journal(job.submit),
                                            core::job_config_from_journal(job.submit),
                                            submit_options);
            ++resumed;
            table.add_row({std::to_string(job.job_id), job.workload, "completed",
                           util::Table::num(result.baseline.final_accuracy, 2),
                           std::to_string(result.ground_truth_hits),
                           std::to_string(result.probes_started)});
        } catch (const std::exception& error) {
            table.add_row(
                {std::to_string(job.job_id), job.workload, error.what(), "-", "-", "-"});
        }
    }
    std::cout << table.render();
    std::cout << "resumed " << resumed << "/" << pending.size() << " pending jobs; store size "
              << service.ground_truth_snapshot().size() << "\n";
    if (!service.ground_truth_path().empty())
        std::cout << "state persisted under " << service_options.state_dir << "\n";
    obs_outputs.write();
    return 0;
}

int cmd_serve(const util::Args& args) {
    const auto seed = args.get_uint_or("seed", 1);

    // /metrics is part of the served surface, so serve always runs with a
    // live ObsContext (unlike the batch commands, which only build one when
    // an output flag asks for it).
    auto obs_outputs = ObsOutputs::from_args(args);
    if (!obs_outputs.context) {
        obs_outputs.context = std::make_unique<obs::ObsContext>();
        obs_outputs.context->mirror_logs();
    }
    obs::register_build_info(obs_outputs.context->metrics());

    auto ft_setup = FtSetup::from_args(args, seed, obs_outputs.get());
    auto backend = make_backend(args, seed, ft_setup.injector.get());
    workload::Backend& active = ft_setup.wrap(*backend, seed, obs_outputs.get());

    core::ServiceOptions service_options;
    service_options.state_dir = args.get_or("state-dir", "");
    service_options.concurrency = std::max<std::size_t>(1, args.get_uint_or("workers", 2));
    service_options.queue_capacity =
        static_cast<std::size_t>(args.get_uint_or("queue-capacity", 16));
    // Overload must surface as a 429 on the wire, not as a parked dispatch
    // thread: the server's bounded-queueing contract.
    service_options.reject_when_full = true;
    service_options.obs = obs_outputs.get();
    service_options.journal = ft_setup.journal.get();
    sched::ConcurrentPipeTuneService service(active, service_options);

    auto tenants = net::TenantRegistry::from_spec(
        args.get_or("tenants", ""),
        static_cast<std::size_t>(args.get_uint_or("anonymous-quota", 0)));
    if (!tenants) {
        std::cerr << "error: --tenants: " << tenants.error() << "\n";
        return 2;
    }

    net::ServerConfig server_config;
    server_config.bind_address = args.get_or("bind", "127.0.0.1");
    server_config.port = static_cast<std::uint16_t>(args.get_uint_or("port", 0));
    server_config.max_connections =
        static_cast<std::size_t>(args.get_uint_or("max-connections", 256));
    server_config.service = &service;
    server_config.tenants = &tenants.value();
    server_config.obs = obs_outputs.get();
    server_config.default_job = job_config(args, seed);
    // Keep default served jobs small unless the operator says otherwise:
    // a daemon's default should answer in seconds, not minutes.
    if (!args.has("resource")) {
        server_config.default_job.hyperband_resource = 9;
        server_config.default_job.final_epochs = 9;
    }

    net::TuningServer server(server_config);
    auto started = server.start();
    if (!started) {
        std::cerr << "error: " << started.error() << "\n";
        return 1;
    }
    std::cout << "pipetune serve: listening on " << server_config.bind_address << ":"
              << server.port() << " (" << service_options.concurrency << " worker(s), queue "
              << service_options.queue_capacity << ", "
              << (tenants.value().open_mode()
                      ? "open mode"
                      : std::to_string(tenants.value().tenant_count()) + " tenant(s)")
              << ")\n"
              << "GET /metrics on the same port; SIGTERM drains gracefully\n";
    const std::string port_file = args.get_or("port-file", "");
    if (!port_file.empty())
        util::write_file_atomic(port_file, std::to_string(server.port()) + "\n");

    g_server.store(&server, std::memory_order_relaxed);
    install_signal_handlers();
    server.wait();
    g_server.store(nullptr, std::memory_order_relaxed);

    service.drain();
    const auto counters = server.counters();
    util::Table summary({"metric", "value"});
    summary.add_row({"connections", std::to_string(counters.connections)});
    summary.add_row({"requests", std::to_string(counters.requests)});
    summary.add_row({"jobs submitted", std::to_string(counters.jobs_submitted)});
    summary.add_row({"jobs completed", std::to_string(counters.jobs_completed)});
    summary.add_row({"rejects", std::to_string(counters.rejects)});
    summary.add_row({"bad frames", std::to_string(counters.bad_frames)});
    summary.add_row({"auth failures", std::to_string(counters.auth_failures)});
    std::cout << "server stopped\n" << summary.render();
    ft_setup.report();
    obs_outputs.write();
    return 0;
}

int cmd_loadgen(const util::Args& args) {
    net::LoadGenConfig config;
    config.host = args.get_or("host", "127.0.0.1");
    config.port = static_cast<std::uint16_t>(args.get_uint_or("port", 0));
    if (config.port == 0) {
        std::cerr << "loadgen requires --port\n";
        return usage();
    }
    config.tokens = split_csv(args.get_or("tokens", ""));
    const auto workloads = split_csv(args.get_or("workloads", ""));
    if (!workloads.empty()) config.workloads = workloads;
    config.total_requests = static_cast<std::size_t>(args.get_uint_or("requests", 32));
    config.seed = args.get_uint_or("seed", 1);
    config.request_timeout_s = args.get_number_or("timeout", 120.0);
    if (args.has("resource")) {
        config.submit_params["hyperband_resource"] = args.get_number_or("resource", 9);
        config.submit_params["final_epochs"] = args.get_number_or("resource", 9);
    }
    if (args.has("slots"))
        config.submit_params["parallel_slots"] = args.get_number_or("slots", 4);

    std::vector<double> rates;
    for (const auto& token : split_csv(args.get_or("sweep", "")))
        rates.push_back(std::stod(token));
    if (rates.empty()) rates.push_back(args.get_number_or("rate", 4.0));

    util::Table table({"offered [req/s]", "completed", "rejected", "errors", "goodput [/s]",
                       "p50 [s]", "p99 [s]", "p999 [s]"});
    util::Json points = util::Json::array();
    for (double rate : rates) {
        config.rate_per_s = rate;
        auto run = net::run_loadgen(config);
        if (!run) {
            std::cerr << "error: " << run.error() << "\n";
            return 1;
        }
        const net::LoadGenReport& report = run.value();
        table.add_row({util::Table::num(report.offered_rate_per_s, 2),
                       std::to_string(report.completed), std::to_string(report.rejected),
                       std::to_string(report.errors), util::Table::num(report.goodput_per_s, 2),
                       util::Table::num(report.latency_p50_s, 3),
                       util::Table::num(report.latency_p99_s, 3),
                       util::Table::num(report.latency_p999_s, 3)});
        points.push_back(report.to_json());
    }
    std::cout << table.render();

    const std::string out = args.get_or("out", "");
    if (!out.empty()) {
        util::Json doc = util::Json::object();
        doc["bench"] = "serve";
        doc["requests_per_point"] = config.total_requests;
        doc["seed"] = config.seed;
        doc["points"] = std::move(points);
        util::write_file_atomic(out, doc.dump(2) + "\n");
        std::cout << "report written to " << out << "\n";
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const auto args = util::Args::parse(argc, argv);
        if (args.get_flag("version") || args.command() == "version") {
            std::cout << util::build_banner() << "\n";
            return 0;
        }
        int status;
        if (args.command() == "list-workloads") status = cmd_list_workloads();
        else if (args.command() == "tune") status = cmd_tune(args);
        else if (args.command() == "compare") status = cmd_compare(args);
        else if (args.command() == "warm-start") status = cmd_warm_start(args);
        else if (args.command() == "replay") status = cmd_replay(args);
        else if (args.command() == "resume") status = cmd_resume(args);
        else if (args.command() == "serve") status = cmd_serve(args);
        else if (args.command() == "loadgen") status = cmd_loadgen(args);
        else return usage();

        for (const auto& key : args.unused_keys())
            std::cerr << "warning: unrecognized option --" << key << "\n";
        return status;
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
}
