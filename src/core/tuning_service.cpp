#include "pipetune/core/tuning_service.hpp"

#include <algorithm>
#include <stdexcept>

#include "pipetune/ft/codec.hpp"

namespace pipetune::core {

const char* to_string(SubmitPriority priority) {
    switch (priority) {
        case SubmitPriority::kHigh: return "high";
        case SubmitPriority::kNormal: return "normal";
        case SubmitPriority::kBatch: return "batch";
    }
    return "?";
}

PipeTuneJobResult TuningService::run(const workload::Workload& workload,
                                     const hpt::HptJobConfig& job_config,
                                     SubmitOptions options) {
    auto submission = submit(workload, job_config, std::move(options));
    if (!submission)
        throw std::runtime_error("TuningService: job for '" + workload.name +
                                 "' shed at submission (queue full or shutting down)");
    return submission->result.get();
}

util::Json journal_submit_payload(std::uint64_t job_id, const std::string& label,
                                  const workload::Workload& workload,
                                  const hpt::HptJobConfig& job_config,
                                  const SubmitOptions& options) {
    util::Json payload = util::Json::object();
    payload["job_id"] = job_id;
    payload["label"] = label;
    payload["workload"] = workload.name;
    // A catalogue workload is journaled by name alone; any other (an unseen
    // job, cluster::generate_arrivals) whole, so resume can rebuild it.
    const auto& catalogue = workload::catalogue();
    const bool in_catalogue =
        std::any_of(catalogue.begin(), catalogue.end(), [&](const workload::Workload& entry) {
            return entry.name == workload.name &&
                   ft::workload_to_json(entry) == ft::workload_to_json(workload);
        });
    if (!in_catalogue) payload["workload_spec"] = ft::workload_to_json(workload);
    payload["priority"] = to_string(options.priority);
    payload["deadline_s"] = options.deadline_s;
    // Decimal string, not a JSON number: derived seeds use all 64 bits and a
    // double round-trip (53-bit mantissa) would silently corrupt them — the
    // resumed job would replay a DIFFERENT trial stream.
    payload["backend_seed"] = std::to_string(options.backend_seed);
    util::Json config = util::Json::object();
    config["parallel_slots"] = job_config.parallel_slots;
    config["hyperband_resource"] = job_config.hyperband_resource;
    config["hyperband_eta"] = job_config.hyperband_eta;
    config["final_epochs"] = job_config.final_epochs;
    config["v2_cohort_scale"] = job_config.v2_cohort_scale;
    config["default_system"] = ft::system_to_json(job_config.default_system);
    config["seed"] = std::to_string(job_config.seed);  // 64-bit safe (see backend_seed)
    payload["job_config"] = std::move(config);
    return payload;
}

workload::Workload workload_from_journal(const util::Json& payload) {
    if (payload.contains("workload_spec"))
        return ft::workload_from_json(payload.at("workload_spec"));
    return workload::find_workload(payload.get_string("workload", ""));
}

hpt::HptJobConfig job_config_from_journal(const util::Json& payload) {
    hpt::HptJobConfig job_config;
    if (!payload.contains("job_config")) return job_config;
    const util::Json& config = payload.at("job_config");
    job_config.parallel_slots = static_cast<std::size_t>(
        config.get_number("parallel_slots", job_config.parallel_slots));
    job_config.hyperband_resource = static_cast<std::size_t>(
        config.get_number("hyperband_resource", job_config.hyperband_resource));
    job_config.hyperband_eta =
        static_cast<std::size_t>(config.get_number("hyperband_eta", job_config.hyperband_eta));
    job_config.final_epochs =
        static_cast<std::size_t>(config.get_number("final_epochs", job_config.final_epochs));
    job_config.v2_cohort_scale = config.get_number("v2_cohort_scale", job_config.v2_cohort_scale);
    if (config.contains("default_system"))
        job_config.default_system = ft::system_from_json(config.at("default_system"));
    const std::string seed = config.get_string("seed", "");
    if (!seed.empty()) job_config.seed = std::stoull(seed);
    return job_config;
}

SubmitOptions submit_options_from_journal(const util::Json& payload) {
    SubmitOptions options;
    options.label = payload.get_string("label", "");
    const std::string priority = payload.get_string("priority", "normal");
    options.priority = priority == "high"    ? SubmitPriority::kHigh
                       : priority == "batch" ? SubmitPriority::kBatch
                                             : SubmitPriority::kNormal;
    options.deadline_s = payload.get_number("deadline_s", 0.0);
    const std::string backend_seed = payload.get_string("backend_seed", "");
    if (!backend_seed.empty()) options.backend_seed = std::stoull(backend_seed);
    return options;
}

}  // namespace pipetune::core
