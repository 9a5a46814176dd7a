#pragma once
// Shared vocabulary of pipetune_bench: workload specs, the pre-drawn request
// schedule, what the load generator records per request, and the metric list a run
// prints. See README.md for why each workload and metric exists.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "pipetune/util/json.hpp"

namespace ptbench {

namespace util = pipetune::util;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One benchmark workload: a traffic mix against one `pipetune serve` stack.
struct WorkloadSpec {
    std::string name;
    bool open_loop = true;
    /// Requests per second of --seconds: the Poisson arrival rate (open
    /// loop) or the job budget (closed loop). The request count is fixed by
    /// --seconds, never by how fast the commit under test is, so a parent
    /// and a change do the same work.
    double per_s = 0.0;
    std::size_t clients = 4;  ///< connections; closed loop: one request each in flight
    std::size_t tenants = 3;
    bool real_backend = false;  ///< sim::RealBackend (+ §7.2 warm start) vs SimBackend
    bool durable = false;       ///< state_dir + ft::Journal
    /// R: every job's hyperband_resource and final_epochs.
    std::size_t resource = 1;
    std::vector<std::string> workloads;  ///< round-robin over requests
    double slo_ms = 0.0;                 ///< latency limit behind slo_frac
};

const std::vector<WorkloadSpec>& workload_specs();
/// Null when no workload has that name.
const WorkloadSpec* find_spec(const std::string& name);
/// Requests one run sends: per_s x seconds, at least 1.
std::size_t request_count(const WorkloadSpec& spec, double seconds);
/// The percentile latency_tail_ms reports: the highest of 99/95/90/80/50 with
/// at least ten samples beyond it.
double tail_percentile(std::size_t samples);
util::Json spec_to_json(const WorkloadSpec& spec);

/// One request of the schedule drawn from --seed before the run starts.
struct PlannedRequest {
    double due_s = 0.0;  ///< open loop: offset from the start of the run; closed loop: 0
    std::string workload;
    std::size_t tenant = 0;  ///< whose bearer token the request carries
    std::uint64_t job_seed = 0;
};
/// request_count(spec, seconds) requests drawn from `seed`.
std::vector<PlannedRequest> plan_requests(const WorkloadSpec& spec, std::uint64_t seed,
                                          double seconds);

/// What the load generator saw for one request.
struct RequestRecord {
    Clock::time_point due{};   ///< scheduled send time (closed loop: previous reply)
    Clock::time_point sent{};  ///< write() returned
    Clock::time_point replied{};
    bool answered = false;
    std::string reply;  ///< raw response frame
};

/// One printed metric.
struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

}  // namespace ptbench
