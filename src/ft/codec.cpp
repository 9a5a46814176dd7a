#include "pipetune/ft/codec.hpp"

namespace pipetune::ft {

util::Json workload_to_json(const workload::Workload& workload) {
    util::Json json = util::Json::object();
    json["name"] = workload.name;
    json["model_family"] = workload.model_family;
    json["dataset_family"] = workload.dataset_family;
    json["type"] = static_cast<int>(workload.type);
    json["datasize_mb"] = workload.datasize_mb;
    json["train_files"] = workload.train_files;
    json["test_files"] = workload.test_files;
    json["compute_scale"] = workload.compute_scale;
    json["memory_scale"] = workload.memory_scale;
    json["parallel_exponent"] = workload.parallel_exponent;
    json["accuracy_ceiling"] = workload.accuracy_ceiling;
    json["learning_rate_optimum"] = workload.learning_rate_optimum;
    json["convergence_rate"] = workload.convergence_rate;
    return json;
}

workload::Workload workload_from_json(const util::Json& json) {
    workload::Workload w;
    w.name = json.get_string("name", w.name);
    w.model_family = json.get_string("model_family", w.model_family);
    w.dataset_family = json.get_string("dataset_family", w.dataset_family);
    w.type = static_cast<workload::WorkloadType>(
        static_cast<int>(json.get_number("type", static_cast<int>(w.type))));
    w.datasize_mb = json.get_number("datasize_mb", w.datasize_mb);
    w.train_files = static_cast<std::size_t>(json.get_number("train_files", w.train_files));
    w.test_files = static_cast<std::size_t>(json.get_number("test_files", w.test_files));
    w.compute_scale = json.get_number("compute_scale", w.compute_scale);
    w.memory_scale = json.get_number("memory_scale", w.memory_scale);
    w.parallel_exponent = json.get_number("parallel_exponent", w.parallel_exponent);
    w.accuracy_ceiling = json.get_number("accuracy_ceiling", w.accuracy_ceiling);
    w.learning_rate_optimum = json.get_number("learning_rate_optimum", w.learning_rate_optimum);
    w.convergence_rate = json.get_number("convergence_rate", w.convergence_rate);
    return w;
}

util::Json system_to_json(const workload::SystemParams& system) {
    util::Json json = util::Json::object();
    json["cores"] = system.cores;
    json["memory_gb"] = system.memory_gb;
    json["frequency_ghz"] = system.frequency_ghz;
    return json;
}

workload::SystemParams system_from_json(const util::Json& json) {
    workload::SystemParams system;
    system.cores = static_cast<std::size_t>(json.get_number("cores", system.cores));
    system.memory_gb = static_cast<std::size_t>(json.get_number("memory_gb", system.memory_gb));
    system.frequency_ghz = json.get_number("frequency_ghz", system.frequency_ghz);
    return system;
}

util::Json epoch_result_to_json(const workload::EpochResult& result) {
    util::Json json = util::Json::object();
    json["epoch"] = result.epoch;
    json["train_loss"] = result.train_loss;
    json["accuracy"] = result.accuracy;
    json["duration_s"] = result.duration_s;
    json["energy_j"] = result.energy_j;
    json["system"] = system_to_json(result.system);
    std::vector<double> counters(result.counters.begin(), result.counters.end());
    json["counters"] = util::Json::array_of(counters);
    return json;
}

workload::EpochResult epoch_result_from_json(const util::Json& json) {
    workload::EpochResult result;
    result.epoch = static_cast<std::size_t>(json.get_number("epoch", 0.0));
    result.train_loss = json.get_number("train_loss", 0.0);
    result.accuracy = json.get_number("accuracy", 0.0);
    result.duration_s = json.get_number("duration_s", 0.0);
    result.energy_j = json.get_number("energy_j", 0.0);
    if (json.contains("system")) result.system = system_from_json(json.at("system"));
    if (json.contains("counters")) {
        const std::vector<double> counters = json.at("counters").as_double_vector();
        const std::size_t n = std::min(counters.size(), result.counters.size());
        for (std::size_t i = 0; i < n; ++i) result.counters[i] = counters[i];
    }
    return result;
}

}  // namespace pipetune::ft
