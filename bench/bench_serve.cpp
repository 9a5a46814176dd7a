// Serving bench (DESIGN.md §11, ROADMAP item 1): drive `pipetune serve`'s
// in-process twin — a net::TuningServer over a concurrent sim-backed
// service — with the open-loop Poisson load generator across a rate sweep,
// and record p50/p99/p999 latency, goodput and reject rate per offered-load
// point into BENCH_serve.json (the first perf-trajectory artifact).
//
// The sweep brackets saturation deliberately: capacity is CALIBRATED from
// measured job service time, then offered load runs at 0.5×, 1× and 2× of
// it. The claim under test is the admission-control contract: past
// saturation the server rejects (429) and keeps goodput near capacity with
// bounded latency — it does not collapse into unbounded queueing.

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_timing.hpp"
#include "pipetune/net/loadgen.hpp"
#include "pipetune/net/server.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"
#include "pipetune/util/fs.hpp"
#include "pipetune/util/json.hpp"
#include "pipetune/util/table.hpp"
#include "pipetune/workload/types.hpp"

namespace {

using namespace pipetune;
using bench::Clock;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kQueueCapacity = 8;
constexpr std::size_t kRequestsPerPoint = 80;
constexpr std::uint64_t kSeed = 17;

util::Json small_job_params() {
    util::Json params = util::Json::object();
    params["hyperband_resource"] = 3;
    params["final_epochs"] = 3;
    params["parallel_slots"] = 2;
    return params;
}

// One self-contained server stack per load point, so a saturated point's
// backlog can never leak into the next measurement.
struct ServerStack {
    sim::SimBackend backend;
    std::unique_ptr<sched::ConcurrentPipeTuneService> service;
    std::unique_ptr<net::TuningServer> server;

    ServerStack() : backend(sim::SimBackendConfig{.seed = kSeed}) {
        core::ServiceOptions options;
        options.concurrency = kWorkers;
        options.queue_capacity = kQueueCapacity;
        options.reject_when_full = true;  // overload → 429, never a parked queue
        service = std::make_unique<sched::ConcurrentPipeTuneService>(backend, options);
        net::ServerConfig config;
        config.service = service.get();
        server = std::make_unique<net::TuningServer>(config);
        auto started = server->start();
        if (!started.ok()) throw std::runtime_error(started.error());
    }
    ~ServerStack() {
        server->stop(net::DrainMode::kFull);
        service->drain();
    }
};

// Measure mean job service time with a short closed-loop warmup, giving the
// calibrated capacity (kWorkers / mean_service_time) the sweep hangs off.
double calibrate_capacity_per_s() {
    ServerStack stack;
    net::LoadGenConfig config;
    config.port = stack.server->port();
    config.workloads = {workload::catalogue()[0].name};
    config.rate_per_s = 1e6;  // all-at-once would distort; run serially instead
    config.total_requests = 1;
    config.submit_params = small_job_params();
    const auto start = Clock::now();
    constexpr int kCalibrationJobs = 8;
    for (int i = 0; i < kCalibrationJobs; ++i) {
        config.seed = kSeed + i;
        auto report = net::run_loadgen(config);
        if (!report.ok()) throw std::runtime_error(report.error());
    }
    const double elapsed = bench::seconds_since(start);
    const double mean_service_s = elapsed / kCalibrationJobs;
    return static_cast<double>(kWorkers) / mean_service_s;
}

}  // namespace

int main() {
    bench::print_header("BENCH serve",
                        "open-loop load sweep against the networked tuning daemon");

    const std::vector<double> multipliers = {0.5, 1.0, 2.0};
    util::Table table({"offered x", "rate/s", "completed", "rejected", "errors", "goodput/s",
                       "reject %", "p50 ms", "p99 ms", "p999 ms"});
    util::Json points = util::Json::array();
    std::vector<net::LoadGenReport> reports;
    std::vector<double> capacities;

    for (double multiplier : multipliers) {
        // Recalibrate right before each point: capacity tracks whatever CPU
        // the host is giving us NOW, so background load between points cannot
        // turn "0.5x capacity" into an accidental overload.
        const double capacity = calibrate_capacity_per_s();
        capacities.push_back(capacity);
        std::cout << multiplier << "x point: calibrated capacity ~"
                  << util::Table::num(capacity, 1) << " jobs/s (" << kWorkers
                  << " workers, sim backend, R=3 jobs)\n";
        ServerStack stack;
        net::LoadGenConfig config;
        config.port = stack.server->port();
        config.workloads = {workload::catalogue()[0].name};
        config.rate_per_s = capacity * multiplier;
        config.total_requests = kRequestsPerPoint;
        config.seed = kSeed;
        config.submit_params = small_job_params();
        auto report = net::run_loadgen(config);
        if (!report.ok()) {
            std::cerr << "loadgen failed at " << multiplier << "x: " << report.error() << "\n";
            return 1;
        }
        const net::LoadGenReport& r = report.value();
        reports.push_back(r);
        table.add_row({util::Table::num(multiplier, 1), util::Table::num(r.offered_rate_per_s, 1),
                       std::to_string(r.completed), std::to_string(r.rejected),
                       std::to_string(r.errors), util::Table::num(r.goodput_per_s, 1),
                       bench::pct(r.reject_rate), util::Table::num(1e3 * r.latency_p50_s, 2),
                       util::Table::num(1e3 * r.latency_p99_s, 2),
                       util::Table::num(1e3 * r.latency_p999_s, 2)});
        util::Json point = r.to_json();
        point["offered_multiplier"] = multiplier;
        point["calibrated_capacity_per_s"] = capacity;
        points.push_back(std::move(point));
    }
    std::cout << "\n" << table.render();

    const net::LoadGenReport& light = reports.front();
    const net::LoadGenReport& overload = reports.back();
    const double capacity = capacities.back();  // claims below compare against
                                                // the overload point's own calibration
    bench::print_claims({
        // <= 5% rather than == 0: on a shared host a calibration can still go
        // slightly stale within a point, and a couple of transient 429s out of
        // 80 is noise, not a shedding regime.
        {"below capacity, essentially nothing is shed", "reject rate <= 5%",
         bench::pct(light.reject_rate), light.reject_rate <= 0.05},
        {"past saturation, admission control sheds load", "rejects > 0",
         std::to_string(overload.rejected) + " rejected", overload.rejected > 0},
        {"overload degrades gracefully, not collapse",
         "goodput >= 30% of calibrated capacity",
         util::Table::num(overload.goodput_per_s, 1) + " jobs/s",
         overload.goodput_per_s >= 0.3 * capacity},
        {"queueing stays bounded under overload", "completed-request p99 < 5 s",
         util::Table::num(1e3 * overload.latency_p99_s, 1) + " ms",
         overload.latency_p99_s < 5.0},
    });

    util::Json doc = util::Json::object();
    doc["bench"] = "serve";
    doc["workers"] = kWorkers;
    doc["queue_capacity"] = kQueueCapacity;
    doc["requests_per_point"] = kRequestsPerPoint;
    doc["seed"] = kSeed;
    doc["calibrated_capacity_per_s"] = capacity;  // overload point's calibration
    doc["points"] = std::move(points);
    const std::string out = "BENCH_serve.json";
    auto written = util::try_write_file_atomic(out, doc.dump(2) + "\n");
    if (!written.ok()) {
        std::cerr << "failed to write " << out << ": " << written.error() << "\n";
        return 1;
    }
    std::cout << "\nwrote " << out << "\n";
    return 0;
}
