#include "pipetune/mlcore/similarity.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace pipetune::mlcore {

namespace {
double nearest_distance(const std::vector<std::vector<double>>& rows,
                        const std::vector<double>& query, std::size_t skip_index) {
    double best = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i == skip_index) continue;
        best = std::min(best, util::euclidean(rows[i], query));
    }
    return best;
}
}  // namespace

KMeansSimilarity::KMeansSimilarity(KMeansConfig config) : config_(config), model_(config) {}

void KMeansSimilarity::fit(const std::vector<std::vector<double>>& features) {
    standardizer_.fit(features);
    training_z_ = standardizer_.transform(features);
    model_ = KMeans(config_);
    model_.fit(training_z_);
    // Calibration radius: 90th percentile of leave-one-out nearest-neighbour
    // distances. With a single row there is no pair; fall back to the floor.
    if (training_z_.size() >= 2) {
        std::vector<double> nn(training_z_.size());
        for (std::size_t i = 0; i < training_z_.size(); ++i)
            nn[i] = nearest_distance(training_z_, training_z_[i], i);
        neighbor_radius_ = util::percentile(nn, 90.0);
    } else {
        neighbor_radius_ = 0.0;
    }
}

bool KMeansSimilarity::fitted() const { return model_.fitted() && standardizer_.fitted(); }

std::size_t KMeansSimilarity::cluster_of(const std::vector<double>& features) const {
    if (!fitted()) throw std::runtime_error("KMeansSimilarity::cluster_of before fit");
    return model_.predict(standardizer_.transform(features));
}

std::optional<SimilarityMatch> KMeansSimilarity::match(const std::vector<double>& features) const {
    if (!fitted()) return std::nullopt;
    const auto z = standardizer_.transform(features);
    SimilarityMatch result;
    result.cluster = model_.predict(z);
    const double distance = nearest_distance(training_z_, z, training_z_.size());
    // Small-sample correction: the standardizer's per-dimension std is
    // estimated from n training rows, so an *independent* query's z-scores
    // are inflated by ~sqrt((n-1)/(n-3)) relative to the in-sample rows the
    // radius was measured on (chi-squared shrinkage). Without this, a store
    // holding a handful of profiles rejects legitimate repeats.
    const double n = static_cast<double>(training_z_.size());
    const double correction = n > 3.5 ? std::sqrt((n - 1.0) / (n - 3.0)) : 2.0;
    // Floor protects degenerate training sets (identical profiles).
    const double scale = std::max(neighbor_radius_ * correction, 0.5);
    // Gaussian confidence: 1 on top of a stored profile, ~0.61 at one
    // neighbour-radius, near zero for unseen workloads (tens of radii away).
    result.score = std::exp(-0.5 * (distance / scale) * (distance / scale));
    return result;
}

util::Json KMeansSimilarity::to_json() const {
    util::Json json;
    json["model"] = model_.to_json();
    json["means"] = util::Json::array_of(standardizer_.means());
    json["stds"] = util::Json::array_of(standardizer_.stds());
    json["neighbor_radius"] = neighbor_radius_;
    util::Json rows = util::Json::array();
    for (const auto& row : training_z_) rows.push_back(util::Json::array_of(row));
    json["training_z"] = std::move(rows);
    return json;
}

KMeansSimilarity KMeansSimilarity::from_json(const util::Json& json) {
    KMeans model = KMeans::from_json(json.at("model"));
    KMeansSimilarity similarity;
    similarity.model_ = model;
    similarity.neighbor_radius_ = json.get_number("neighbor_radius", 0.0);
    if (json.contains("training_z"))
        for (const auto& row : json.at("training_z").as_array())
            similarity.training_z_.push_back(row.as_double_vector());
    // Rebuild the standardizer from persisted moments. Standardizer has no
    // direct setter, so fit on two synthetic rows that reproduce mean/std.
    const auto means = json.at("means").as_double_vector();
    const auto stds = json.at("stds").as_double_vector();
    std::vector<std::vector<double>> synth(2, means);
    for (std::size_t d = 0; d < means.size(); ++d) {
        synth[0][d] = means[d] - stds[d];
        synth[1][d] = means[d] + stds[d];
    }
    similarity.standardizer_.fit(synth);
    return similarity;
}

NearestNeighborSimilarity::NearestNeighborSimilarity(double length_scale)
    : length_scale_(length_scale) {
    if (length_scale <= 0)
        throw std::invalid_argument("NearestNeighborSimilarity: length_scale must be > 0");
}

void NearestNeighborSimilarity::fit(const std::vector<std::vector<double>>& features) {
    if (features.empty())
        throw std::invalid_argument("NearestNeighborSimilarity::fit: no features");
    standardizer_.fit(features);
    stored_ = standardizer_.transform(features);
}

std::optional<SimilarityMatch> NearestNeighborSimilarity::match(
    const std::vector<double>& features) const {
    if (stored_.empty()) return std::nullopt;
    const auto z = standardizer_.transform(features);
    double best = std::numeric_limits<double>::max();
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < stored_.size(); ++i) {
        const double d = util::euclidean(z, stored_[i]);
        if (d < best) {
            best = d;
            best_i = i;
        }
    }
    return SimilarityMatch{best_i, std::exp(-best / length_scale_)};
}

}  // namespace pipetune::mlcore
