#pragma once
// Pluggable similarity function over workload profiles (paper §5.4: "Our
// design allows the similarity function to be pluggable, and while we do
// settle on k-means in the current implementation, PipeTune allows to easily
// switch to alternative techniques").

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pipetune/mlcore/kmeans.hpp"
#include "pipetune/util/stats.hpp"

namespace pipetune::mlcore {

/// Result of querying the similarity function with a new job's profile.
struct SimilarityMatch {
    std::size_t cluster = 0;  ///< identifier of the matched group
    double score = 0.0;       ///< confidence in [0, 1]; 1 = dead centre of cluster
};

class SimilarityFunction {
public:
    virtual ~SimilarityFunction() = default;

    /// (Re)build the model from profile feature vectors.
    virtual void fit(const std::vector<std::vector<double>>& features) = 0;

    /// Query with a new feature vector; nullopt until fitted.
    virtual std::optional<SimilarityMatch> match(const std::vector<double>& features) const = 0;

    virtual bool fitted() const = 0;
    virtual std::string name() const = 0;
};

/// k-means-backed similarity (paper §5.6: "the threshold matches the distance
/// from the new set of data points to their current cluster's centroid. The
/// distance is compared against the models' inertia").
///
/// Cluster membership comes from the k-means model; the *confidence* score is
/// calibrated against the nearest-neighbour distance distribution of the
/// training profiles rather than centroid distances. Both the query's and the
/// training points' distances are measured in the same standardized space, so
/// the small-sample shrinkage that deflates distance-to-fitted-centroid
/// cancels out — without this, a store holding near-identical profiles
/// rejects legitimate repeats of the same workload.
class KMeansSimilarity : public SimilarityFunction {
public:
    explicit KMeansSimilarity(KMeansConfig config = {});

    void fit(const std::vector<std::vector<double>>& features) override;
    std::optional<SimilarityMatch> match(const std::vector<double>& features) const override;
    /// match()'s cluster without its confidence score: standardize and
    /// predict only, O(k·d) instead of match()'s O(n·d) neighbour scan.
    /// Throws std::runtime_error before fit.
    std::size_t cluster_of(const std::vector<double>& features) const;
    bool fitted() const override;
    std::string name() const override { return "kmeans"; }

    const KMeans& model() const { return model_; }
    /// Calibration scale: ~90th percentile nearest-neighbour distance of the
    /// training set in standardized space.
    double neighbor_radius() const { return neighbor_radius_; }

    util::Json to_json() const;
    static KMeansSimilarity from_json(const util::Json& json);

private:
    KMeansConfig config_;
    KMeans model_;
    util::Standardizer standardizer_;
    std::vector<std::vector<double>> training_z_;  ///< standardized training rows
    double neighbor_radius_ = 0.0;
};

/// Nearest-neighbour similarity (an alternative plug-in): confidence decays
/// with distance to the closest stored profile.
class NearestNeighborSimilarity : public SimilarityFunction {
public:
    explicit NearestNeighborSimilarity(double length_scale = 1.0);

    void fit(const std::vector<std::vector<double>>& features) override;
    std::optional<SimilarityMatch> match(const std::vector<double>& features) const override;
    bool fitted() const override { return !stored_.empty(); }
    std::string name() const override { return "nearest-neighbor"; }

private:
    double length_scale_;
    std::vector<std::vector<double>> stored_;
    util::Standardizer standardizer_;
};

}  // namespace pipetune::mlcore
