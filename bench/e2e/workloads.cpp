#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "pipetune/util/rng.hpp"
#include "pipetune/workload/types.hpp"

namespace ptbench {

namespace {

std::vector<std::string> catalogue_names() {
    std::vector<std::string> names;
    for (const auto& w : pipetune::workload::catalogue()) names.push_back(w.name);
    return names;
}

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
    // Why each workload exists (README.md has the long form):
    //  submit-light   near-zero training work, so the request path dominates;
    //  durable-light  the same traffic with a state dir and journal, so the
    //                 per-job state rewrite and journal fsyncs dominate;
    //  train-real     real nn/tensor epochs dominate, request path negligible;
    //  tenant-soak    policy, ground truth and metricsdb, whose cost grows with uptime.
    // submit-light stays at 25 req/s: the completion pump's 2 ms poll makes
    // its latencies cluster at one or two poll periods, and at higher rates
    // the growing metrics series pushes the late jobs' run time up to the
    // period, so the tail flips between clusters from run to run.
    static const std::vector<WorkloadSpec> kSpecs = {
        {.name = "submit-light",
         .open_loop = true,
         .per_s = 25.0,
         .clients = 4,
         .tenants = 3,
         .resource = 1,
         .workloads = catalogue_names(),
         .slo_ms = 25.0},
        {.name = "train-real",
         .open_loop = true,
         .per_s = 3.0,
         .clients = 4,
         .tenants = 3,
         .real_backend = true,
         .resource = 3,
         .workloads = {"lenet-mnist", "cnn-news20", "lstm-news20"},
         .slo_ms = 1500.0},
        {.name = "tenant-soak",
         .open_loop = false,
         .per_s = 34.0,
         .clients = 4,
         .tenants = 4,
         .resource = 9,
         .workloads = catalogue_names(),
         .slo_ms = 500.0},
        {.name = "durable-light",
         .open_loop = true,
         .per_s = 25.0,
         .clients = 4,
         .tenants = 3,
         .durable = true,
         .resource = 1,
         .workloads = catalogue_names(),
         .slo_ms = 50.0},
    };
    return kSpecs;
}

const WorkloadSpec* find_spec(const std::string& name) {
    for (const auto& spec : workload_specs())
        if (spec.name == name) return &spec;
    return nullptr;
}

std::size_t request_count(const WorkloadSpec& spec, double seconds) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(spec.per_s * seconds)));
}

double tail_percentile(std::size_t samples) {
    for (double p : {99.0, 95.0, 90.0, 80.0})
        if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
    return 50.0;
}

util::Json spec_to_json(const WorkloadSpec& spec) {
    util::Json doc = util::Json::object();
    doc["name"] = spec.name;
    doc["loop"] = spec.open_loop ? "open" : "closed";
    doc["per_s"] = spec.per_s;
    doc["clients"] = spec.clients;
    doc["tenants"] = spec.tenants;
    doc["backend"] = spec.real_backend ? "real" : "sim";
    doc["warm_start"] = spec.real_backend;
    doc["durable"] = spec.durable;
    doc["resource"] = spec.resource;
    util::Json names = util::Json::array();
    for (const auto& w : spec.workloads) names.push_back(w);
    doc["workloads"] = std::move(names);
    doc["slo_ms"] = spec.slo_ms;
    return doc;
}

std::vector<PlannedRequest> plan_requests(const WorkloadSpec& spec, std::uint64_t seed,
                                          double seconds) {
    pipetune::util::Rng rng(seed);
    std::vector<PlannedRequest> plan(request_count(spec, seconds));
    // Open loop: a Poisson process conditioned on exactly rate x seconds
    // arrivals, i.e. sorted uniform times over the run, so every seed offers
    // the same load for the same time.
    std::vector<double> due(plan.size(), 0.0);
    if (spec.open_loop)
        for (double& t : due) t = rng.uniform(0.0, seconds);
    std::sort(due.begin(), due.end());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        PlannedRequest& request = plan[i];
        request.due_s = due[i];
        request.workload = spec.workloads[i % spec.workloads.size()];
        request.tenant = i % spec.tenants;
        // Below 2^31 so the seed survives the wire's JSON doubles exactly.
        request.job_seed = rng.next_u64() >> 33;
    }
    return plan;
}

}  // namespace ptbench
