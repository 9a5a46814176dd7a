// Figure 13 reproduction: multi-tenancy — HPT jobs arrive with exponential
// interarrival times on the 4-node cluster and are scheduled FIFO; reported
// metric is the average response time for Type-I jobs, Type-II jobs, and an
// equally balanced mix ("all"), with 20% unseen jobs (§7.4).
//
// Paper shape: PipeTune cuts average response time by up to ~30% vs both
// Tune V1 and Tune V2; its ground truth persists across jobs, so later
// similar jobs skip probing entirely.

#include <iostream>

#include "bench_common.hpp"
#include "bench_sched.hpp"
#include "bench_timing.hpp"
#include "pipetune/cluster/cluster_sim.hpp"
#include "pipetune/core/experiment.hpp"
#include "pipetune/core/warm_start.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"
#include "pipetune/util/csv.hpp"

namespace {

using namespace pipetune;

enum class Approach { kV1, kV2, kPipeTune };

double run_trace(const std::vector<cluster::ArrivedJob>& jobs,
                 const std::vector<workload::Workload>& base_mix, Approach approach,
                 std::size_t nodes, std::uint64_t seed) {
    sim::SimBackend backend({.seed = seed});
    cluster::FifoClusterSim sim({.nodes = nodes});
    // PipeTune jobs share one persistent ground truth (§5.4); this is what
    // turns the probing investment of early/unseen jobs into warm starts for
    // later ones.
    // The shared ground truth starts from the paper's offline profiling
    // campaign over the base workload catalogue (SS7.2); the 20% unseen job
    // variants are NOT in it and must probe.
    core::GroundTruth shared = approach == Approach::kPipeTune
                                   ? core::build_warm_ground_truth(backend, base_mix)
                                   : core::GroundTruth{};
    std::uint64_t job_seed = seed;
    const auto records = sim.run(jobs, [&](const cluster::ArrivedJob& job) {
        hpt::HptJobConfig config;
        config.seed = ++job_seed;
        // Each HPT job runs its trials on its assigned node's slots.
        config.parallel_slots = 4;
        switch (approach) {
            case Approach::kV1: {
                const auto r = hpt::run_tune_v1(backend, job.workload, config);
                return r.tuning.tuning_duration_s + r.training_time_s;
            }
            case Approach::kV2: {
                const auto r = hpt::run_tune_v2(backend, job.workload, config);
                return r.tuning.tuning_duration_s + r.training_time_s;
            }
            case Approach::kPipeTune: {
                const auto r = core::run_pipetune(backend, job.workload, config, {}, &shared);
                return r.baseline.tuning.tuning_duration_s + r.baseline.training_time_s;
            }
        }
        return 0.0;
    });
    return cluster::average_response_time(records);
}

}  // namespace

int main() {
    bench::print_header("Figure 13", "Multi-tenancy avg response time (Type-I / Type-II / all)");

    struct Scenario {
        const char* label;
        std::vector<workload::Workload> mix;
        std::size_t jobs;
    };
    std::vector<Scenario> scenarios;
    scenarios.push_back({"Type-I", workload::workloads_of_type(workload::WorkloadType::kType1), 10});
    scenarios.push_back({"Type-II", workload::workloads_of_type(workload::WorkloadType::kType2), 10});
    {
        auto mix = workload::workloads_of_type(workload::WorkloadType::kType1);
        for (const auto& w : workload::workloads_of_type(workload::WorkloadType::kType2))
            mix.push_back(w);
        scenarios.push_back({"all", std::move(mix), 14});
    }

    util::Table table({"scenario", "Tune V1 [s]", "Tune V2 [s]", "PipeTune [s]",
                       "PT vs V1", "PT vs V2"});
    util::CsvWriter csv("fig13_multitenant_type12.csv",
                        {"scenario", "v1_response_s", "v2_response_s", "pipetune_response_s"});
    double worst_gain_vs_v1 = 1e9;
    bool always_better = true;
    for (const auto& scenario : scenarios) {
        cluster::ArrivalConfig arrivals;
        arrivals.mean_interarrival_s = 2500.0;
        arrivals.job_count = scenario.jobs;
        arrivals.unseen_fraction = 0.2;
        arrivals.seed = 13;
        const auto jobs = cluster::generate_arrivals(scenario.mix, arrivals);

        const double v1 = run_trace(jobs, scenario.mix, Approach::kV1, 4, 1300);
        const double v2 = run_trace(jobs, scenario.mix, Approach::kV2, 4, 1300);
        const double pipetune = run_trace(jobs, scenario.mix, Approach::kPipeTune, 4, 1300);
        const double gain_v1 = 100.0 * (1.0 - pipetune / v1);
        const double gain_v2 = 100.0 * (1.0 - pipetune / v2);
        worst_gain_vs_v1 = std::min(worst_gain_vs_v1, gain_v1);
        always_better = always_better && pipetune < v1 && pipetune < v2;
        table.add_row({scenario.label, util::Table::num(v1, 0), util::Table::num(v2, 0),
                       util::Table::num(pipetune, 0), "-" + util::Table::num(gain_v1, 1) + "%",
                       "-" + util::Table::num(gain_v2, 1) + "%"});
        csv.add_row(std::vector<std::string>{scenario.label, util::Table::num(v1, 1),
                                             util::Table::num(v2, 1),
                                             util::Table::num(pipetune, 1)});
    }
    std::cout << table.render();

    // Scheduler-backed mode: the "all" trace once more, but on real worker
    // threads through sched::ConcurrentPipeTuneService (arrival gaps
    // compressed ~50000x). Same sharing effect, genuine concurrency.
    cluster::ArrivalConfig replay_arrivals;
    replay_arrivals.mean_interarrival_s = 2500.0;
    replay_arrivals.job_count = scenarios.back().jobs;
    replay_arrivals.unseen_fraction = 0.2;
    replay_arrivals.seed = 13;
    const auto replay_jobs = cluster::generate_arrivals(scenarios.back().mix, replay_arrivals);
    const auto replay =
        bench::run_scheduler_replay(replay_jobs, scenarios.back().mix, /*worker_slots=*/4,
                                    /*parallel_slots=*/4, /*compress=*/2e-5, 1300);
    util::Table replay_table({"mode", "jobs", "p50 resp [s]", "mean resp [s]",
                              "max queue depth", "GT hits", "store entries"});
    replay_table.add_row({"sched (4 slots)", util::Table::num(replay.jobs_completed, 0),
                          util::Table::num(replay.stats.p50_response_s, 3),
                          util::Table::num(replay.stats.mean_response_s, 3),
                          util::Table::num(replay.stats.max_queue_depth, 0),
                          util::Table::num(replay.ground_truth_hits, 0),
                          util::Table::num(replay.store_size, 0)});
    std::cout << replay_table.render();

    // Telemetry overhead (DESIGN.md §9 budget): the same job stream through
    // a one-slot service with an ObsContext attached vs detached. Spans plus
    // cached-counter increments must stay under 5%. Machine drift on this
    // scale dwarfs the signal, so the two modes are interleaved one ~20ms
    // job at a time with alternating order — every drift regime taxes both
    // accumulators equally and only the telemetry delta survives the sum.
    obs::ObsContext obs;
    sim::SimBackend backend_off({.seed = 1300});
    sim::SimBackend backend_on({.seed = 1300});
    sched::ConcurrentPipeTuneService service_off(backend_off, {});
    core::ServiceOptions on_options;
    on_options.obs = &obs;
    sched::ConcurrentPipeTuneService service_on(backend_on, on_options);
    std::uint64_t off_seed = 9000;
    std::uint64_t on_seed = 9000;
    const auto run_one = [](core::TuningService& service, const workload::Workload& w,
                            std::uint64_t seed) {
        hpt::HptJobConfig config;
        config.seed = seed;
        config.parallel_slots = 1;  // keep pool scheduling out of the clock
        return bench::time_once([&] { service.run(w, config); });
    };
    for (const auto& job : replay_jobs) {  // warm-up: code + allocator, untimed
        run_one(service_off, job.workload, ++off_seed);
        run_one(service_on, job.workload, ++on_seed);
    }
    double total_off = 0.0;
    double total_on = 0.0;
    for (int pass = 0; pass < 10; ++pass) {
        std::size_t index = 0;
        for (const auto& job : replay_jobs) {
            // Identical job, back to back, order alternating: both modes see
            // the same ~20ms slice of whatever the machine is doing.
            if ((pass + index++) % 2 == 0) {
                total_off += run_one(service_off, job.workload, ++off_seed);
                total_on += run_one(service_on, job.workload, ++on_seed);
            } else {
                total_on += run_one(service_on, job.workload, ++on_seed);
                total_off += run_one(service_off, job.workload, ++off_seed);
            }
        }
    }
    const double overhead_pct = 100.0 * (total_on - total_off) / total_off;

    // And the scheduler path with telemetry on: the full metric surface
    // (queue depth, wait histogram, per-phase counters) from one replay.
    obs::ObsContext replay_obs;
    bench::run_scheduler_replay(replay_jobs, scenarios.back().mix, /*worker_slots=*/4,
                                /*parallel_slots=*/4, /*compress=*/2e-5, 1300, &replay_obs);
    util::Table obs_table({"telemetry", "value"});
    obs_table.add_row(
        {"overhead (one slot, interleaved)", util::Table::num(overhead_pct, 2) + "%"});
    obs_table.add_row({"series exported (sched replay)",
                       util::Table::num(replay_obs.metrics().series_count(), 0)});
    obs_table.add_row({"spans recorded (sched replay)",
                       util::Table::num(replay_obs.tracer().completed().size(), 0)});
    std::cout << obs_table.render();

    std::vector<bench::Claim> claims;
    claims.push_back({"Telemetry keeps the hot path within the overhead budget",
                      "< 5% wall-clock vs disabled",
                      util::Table::num(overhead_pct, 2) + "%", overhead_pct < 5.0});
    claims.push_back({"One scheduler replay exports a full metrics snapshot",
                      ">= 10 distinct series",
                      util::Table::num(replay_obs.metrics().series_count(), 0) + " series",
                      replay_obs.metrics().series_count() >= 10});
    claims.push_back({"Concurrent scheduler replays the trace with shared warm starts",
                      "all jobs complete, later jobs reuse recordings",
                      util::Table::num(replay.jobs_completed, 0) + " jobs, " +
                          util::Table::num(replay.ground_truth_hits, 0) + " hits",
                      replay.jobs_completed == replay_jobs.size() &&
                          replay.ground_truth_hits > 0});
    claims.push_back({"PipeTune lowers avg response time vs V1 and V2 in every mix",
                      "up to 30% reduction", always_better ? "all scenarios lower" : "not all",
                      always_better});
    claims.push_back({"Reduction holds even in the worst scenario", "positive everywhere",
                      util::Table::num(worst_gain_vs_v1, 1) + "%", worst_gain_vs_v1 > 3.0});
    bench::print_claims(claims);
    return 0;
}
