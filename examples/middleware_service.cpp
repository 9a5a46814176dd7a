// The middleware deployment view: a one-slot ConcurrentPipeTuneService owns
// one cluster's persistent tuning state (ground truth + metrics database on
// disk) and serves a stream of HPT jobs, each warm-starting from everything
// the cluster has learned — including across service restarts.
//
//   build/examples/middleware_service

#include <filesystem>
#include <iostream>

#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"
#include "pipetune/util/table.hpp"

int main() {
    using namespace pipetune;
    const std::string state_dir =
        (std::filesystem::temp_directory_path() / "pipetune_state").string();
    std::filesystem::remove_all(state_dir);

    sim::SimBackend backend({.seed = 77});
    util::Table table({"job", "workload", "hits", "probes", "tuning [s]", "store size"});

    {
        core::ServiceOptions config;
        config.state_dir = state_dir;
        sched::ConcurrentPipeTuneService service(backend, config);
        std::cout << "== Service instance 1 (state dir: " << state_dir << ")\n";
        std::uint64_t seed = 770;
        for (const char* name : {"lenet-mnist", "cnn-news20", "lenet-mnist"}) {
            hpt::HptJobConfig job;
            job.seed = ++seed;
            const auto result = service.run(workload::find_workload(name), job);
            table.add_row({std::to_string(service.jobs_served()), name,
                           std::to_string(result.ground_truth_hits),
                           std::to_string(result.probes_started),
                           util::Table::num(result.baseline.tuning.tuning_duration_s, 0),
                           std::to_string(service.ground_truth_snapshot().size())});
        }
    }  // service shuts down; state is on disk

    {
        std::cout << "== Service instance 2 (restarted from the same state dir)\n";
        core::ServiceOptions config;
        config.state_dir = state_dir;
        sim::SimBackend backend2({.seed = 78});
        sched::ConcurrentPipeTuneService service(backend2, config);
        hpt::HptJobConfig job;
        job.seed = 780;
        const auto result = service.run(workload::find_workload("cnn-news20"), job);
        table.add_row({"4 (restart)", "cnn-news20", std::to_string(result.ground_truth_hits),
                       std::to_string(result.probes_started),
                       util::Table::num(result.baseline.tuning.tuning_duration_s, 0),
                       std::to_string(service.ground_truth_snapshot().size())});
        std::cout << table.render();
        const auto metrics = service.metrics_snapshot();
        std::cout << "\nMetrics recorded: " << metrics.total_points()
                  << " points across " << metrics.series_names().size()
                  << " series (persisted at " << service.metrics_path() << ")\n"
                  << "Repeat jobs hit the warm store — probing is paid once per workload\n"
                     "per cluster, and the knowledge survives restarts.\n";
    }
    std::filesystem::remove_all(state_dir);
    return 0;
}
