#include "pipetune/core/ground_truth.hpp"

#include <limits>
#include <stdexcept>

#include "pipetune/util/stats.hpp"

namespace pipetune::core {

GroundTruth::GroundTruth(GroundTruthConfig config)
    : config_(config),
      similarity_(mlcore::KMeansConfig{.k = config.k,
                                       .max_iterations = 100,
                                       .tolerance = 1e-6,
                                       .seed = config.seed}) {
    if (config.similarity_threshold < 0 || config.similarity_threshold > 1)
        throw std::invalid_argument("GroundTruth: threshold must be in [0, 1]");
    if (config.min_entries_for_model < config.k)
        throw std::invalid_argument("GroundTruth: need at least k entries before modeling");
    if (config.refit_interval == 0)
        throw std::invalid_argument("GroundTruth: refit_interval must be > 0");
}

bool GroundTruth::model_ready() const {
    return fitted_ && entries_.size() >= config_.min_entries_for_model;
}

void GroundTruth::refit() {
    if (entries_.size() < config_.min_entries_for_model) return;
    std::vector<std::vector<double>> features;
    features.reserve(entries_.size());
    for (const auto& entry : entries_) features.push_back(entry.features);
    similarity_.fit(features);
    fitted_ = true;
    inserts_since_fit_ = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i)
        labels_[i] = similarity_.cluster_of(entries_[i].features);
}

void GroundTruth::record(const std::vector<double>& features,
                         const workload::SystemParams& best, double metric) {
    if (features.empty()) throw std::invalid_argument("GroundTruth::record: empty features");
    if (!entries_.empty() && entries_.front().features.size() != features.size())
        throw std::invalid_argument("GroundTruth::record: feature dimension mismatch");
    entries_.push_back({features, best, metric});
    labels_.push_back(fitted_ ? similarity_.cluster_of(features) : 0);
    if (++inserts_since_fit_ >= config_.refit_interval || !fitted_) refit();
}

std::optional<workload::SystemParams> GroundTruth::lookup(const std::vector<double>& features,
                                                          double* score_out) const {
    if (score_out != nullptr) *score_out = 0.0;
    if (!model_ready()) return std::nullopt;
    const auto match = similarity_.match(features);
    if (!match) return std::nullopt;
    if (score_out != nullptr) *score_out = match->score;
    if (match->score < config_.similarity_threshold) return std::nullopt;

    // Configuration of the most similar entry within the matched cluster.
    // (Not the cluster's minimum-metric entry: raw metrics are incomparable
    // across trials with different hyperparameters — a config probed on a
    // fast large-batch trial always has the lowest epoch time, yet is exactly
    // wrong for a small-batch query. The nearest profile shares the query's
    // characteristics, batch effects included.)
    const GroundTruthEntry* nearest = nullptr;
    double nearest_distance = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (labels_[i] != match->cluster) continue;
        const double distance = util::euclidean(entries_[i].features, features);
        if (distance < nearest_distance) {
            nearest_distance = distance;
            nearest = &entries_[i];
        }
    }
    if (nearest == nullptr) return std::nullopt;  // empty cluster
    return nearest->best_system;
}

util::Json GroundTruth::entries_to_json(const std::vector<GroundTruthEntry>& entries) {
    util::Json json;
    util::Json list = util::Json::array();
    for (const auto& entry : entries) {
        util::Json e;
        e["features"] = util::Json::array_of(entry.features);
        e["cores"] = entry.best_system.cores;
        e["memory_gb"] = entry.best_system.memory_gb;
        e["frequency_ghz"] = entry.best_system.frequency_ghz;
        e["metric"] = entry.metric;
        list.push_back(std::move(e));
    }
    json["entries"] = std::move(list);
    return json;
}

util::Json GroundTruth::to_json() const { return entries_to_json(entries_); }

namespace {

std::vector<GroundTruthEntry> entries_from_json(const util::Json& json) {
    std::vector<GroundTruthEntry> entries;
    for (const auto& e : json.at("entries").as_array()) {
        workload::SystemParams system;
        system.cores = static_cast<std::size_t>(e.at("cores").as_int());
        system.memory_gb = static_cast<std::size_t>(e.at("memory_gb").as_int());
        system.frequency_ghz =
            e.get_number("frequency_ghz", workload::SystemParams::kBaseFrequencyGhz);
        entries.push_back(
            {e.at("features").as_double_vector(), system, e.get_number("metric", 0.0)});
    }
    return entries;
}

}  // namespace

GroundTruth GroundTruth::from_json(const util::Json& json, GroundTruthConfig config) {
    GroundTruth gt(config);
    gt.entries_ = entries_from_json(json);
    gt.labels_.assign(gt.entries_.size(), 0);
    gt.refit();
    return gt;
}

GroundTruth GroundTruth::from_entries(std::vector<GroundTruthEntry> entries,
                                      GroundTruthConfig config) {
    // record() fits first once min_entries_for_model entries are in, then
    // every refit_interval inserts; entries after the last fit are labelled
    // under it. Fit once at that point and label the rest the same way.
    GroundTruth gt(config);
    const std::size_t n = entries.size();
    const std::size_t first_fit = config.min_entries_for_model;
    const std::size_t last_fit =
        n < first_fit ? 0
                      : first_fit + (n - first_fit) / config.refit_interval * config.refit_interval;
    for (const GroundTruthEntry& entry : entries) {
        if (entry.features.empty())
            throw std::invalid_argument("GroundTruth::from_entries: empty features");
        if (entry.features.size() != entries.front().features.size())
            throw std::invalid_argument("GroundTruth::from_entries: feature dimension mismatch");
    }
    gt.entries_ = std::move(entries);
    gt.labels_.assign(n, 0);
    if (last_fit == 0) {
        gt.inserts_since_fit_ = n;  // refit() is a no-op below the minimum
        return gt;
    }
    std::vector<GroundTruthEntry> tail(gt.entries_.begin() + static_cast<std::ptrdiff_t>(last_fit),
                                       gt.entries_.end());
    gt.entries_.resize(last_fit);
    gt.labels_.resize(last_fit);
    gt.refit();
    for (GroundTruthEntry& entry : tail) {
        gt.labels_.push_back(gt.similarity_.cluster_of(entry.features));
        gt.entries_.push_back(std::move(entry));
        ++gt.inserts_since_fit_;
    }
    return gt;
}

util::Result<std::vector<GroundTruthEntry>> GroundTruth::try_load_entries(
    const std::string& path) {
    using Out = util::Result<std::vector<GroundTruthEntry>>;
    auto json = util::Json::try_load_file(path);
    if (!json) return Out::failure("ground truth: " + json.error());
    try {
        return entries_from_json(json.value());
    } catch (const std::exception& e) {
        return Out::failure("ground truth " + path + ": " + e.what());
    }
}

void GroundTruth::save(const std::string& path) const { to_json().save_file(path); }

util::Result<GroundTruth> GroundTruth::try_load(const std::string& path,
                                                GroundTruthConfig config) {
    auto json = util::Json::try_load_file(path);
    if (!json) return util::Result<GroundTruth>::failure("ground truth: " + json.error());
    try {
        return from_json(json.value(), config);
    } catch (const std::exception& e) {
        return util::Result<GroundTruth>::failure("ground truth " + path + ": " + e.what());
    }
}

GroundTruth GroundTruth::load(const std::string& path, GroundTruthConfig config) {
    return std::move(try_load(path, config)).value();
}

}  // namespace pipetune::core
