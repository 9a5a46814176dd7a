#pragma once
// Persistent ground-truth store (paper §5.4): profiles of completed jobs and
// the system configurations found best for them. New jobs query it with
// their early-epoch profile; a confident match short-circuits probing.
//
// Privacy (§5.5): entries carry only low-level counter features and system
// configurations — never the user's model, dataset or hyperparameters.

#include <optional>
#include <vector>

#include "pipetune/mlcore/similarity.hpp"
#include "pipetune/util/json.hpp"
#include "pipetune/workload/types.hpp"

namespace pipetune::core {

struct GroundTruthEntry {
    std::vector<double> features;  ///< profile feature vector (58 log-rates)
    workload::SystemParams best_system;
    double metric = 0.0;  ///< value of the optimization function under best_system

    bool operator==(const GroundTruthEntry&) const = default;
};

struct GroundTruthConfig {
    std::size_t k = 2;  ///< paper partitions into k = 2 groups
    /// Similarity score required to reuse a stored configuration; below it a
    /// probing phase starts (§5.6). The score is a gaussian confidence of the
    /// query's centroid distance against the model's per-sample inertia.
    double similarity_threshold = 0.15;
    std::size_t min_entries_for_model = 4;  ///< entries needed before matching
    std::size_t refit_interval = 4;         ///< re-cluster every N inserts
    std::uint64_t seed = 1;
};

/// The lookup/record surface of the ground-truth store. PipeTunePolicy talks
/// to this interface so the concurrent scheduler (pipetune::sched) can hand
/// jobs a reader-writer-locked view of one shared GroundTruth instead of the
/// bare object. GroundTruth itself is the unsynchronized implementation.
class GroundTruthStore {
public:
    virtual ~GroundTruthStore() = default;
    virtual std::optional<workload::SystemParams> lookup(const std::vector<double>& features,
                                                         double* score_out = nullptr) const = 0;
    virtual void record(const std::vector<double>& features,
                        const workload::SystemParams& best, double metric) = 0;
    virtual std::size_t size() const = 0;
    virtual bool model_ready() const = 0;
};

class GroundTruth final : public GroundTruthStore {
public:
    explicit GroundTruth(GroundTruthConfig config = {});
    GroundTruth(const GroundTruth&) = default;
    GroundTruth(GroundTruth&&) = default;
    GroundTruth& operator=(const GroundTruth&) = default;
    GroundTruth& operator=(GroundTruth&&) = default;

    /// Known-best configuration for a similar profile, if the similarity
    /// score clears the threshold. `score_out` (optional) receives the score
    /// even on a miss. O(n·d): one match() plus one scan of the matched
    /// cluster, whose labels were cached when entries were written.
    std::optional<workload::SystemParams> lookup(const std::vector<double>& features,
                                                 double* score_out = nullptr) const override;

    /// Store a (profile, best configuration) pair discovered by probing;
    /// triggers re-clustering every `refit_interval` inserts. Between refits
    /// the new entry is labelled under the current model.
    void record(const std::vector<double>& features, const workload::SystemParams& best,
                double metric) override;

    std::size_t size() const override { return entries_.size(); }
    bool model_ready() const override;
    const GroundTruthConfig& config() const { return config_; }
    const std::vector<GroundTruthEntry>& entries() const { return entries_; }

    /// Cluster id of each stored entry under the current model (for Fig 8);
    /// all zeros until the model is fitted.
    const std::vector<std::size_t>& entry_clusters() const { return labels_; }

    // Persistence. try_load is the Result-returning loader (missing file,
    // bad JSON, schema drift all land in the error string); load throws it.
    //
    // Two ways to rebuild a store from its entries, on purpose:
    //  - from_json / try_load / load fit the model once on all entries. A
    //    store saved by hand and loaded later (examples, benches) gets the
    //    freshest model; examples/image_pipeline's output and the
    //    GroundTruthProperty reload oracle pin this.
    //  - from_entries rebuilds the store record() left, model included. A
    //    service reloading its state dir uses it, so a restart in the middle
    //    of a campaign decides exactly as the uninterrupted run.
    // The two agree on the entries and differ only in where the model was
    // last fitted.
    util::Json to_json() const;
    static GroundTruth from_json(const util::Json& json, GroundTruthConfig config = {});
    /// The store record() leaves after inserting `entries` one by one into
    /// an empty store: the same entries, cluster model and labels, and
    /// refit countdown, built with one fit instead of one per
    /// refit_interval inserts.
    static GroundTruth from_entries(std::vector<GroundTruthEntry> entries,
                                    GroundTruthConfig config = {});
    /// The persisted document for `entries` (what to_json() writes).
    static util::Json entries_to_json(const std::vector<GroundTruthEntry>& entries);
    /// The entries of a persisted document, in file order.
    static util::Result<std::vector<GroundTruthEntry>> try_load_entries(const std::string& path);
    void save(const std::string& path) const;
    static util::Result<GroundTruth> try_load(const std::string& path,
                                              GroundTruthConfig config = {});
    static GroundTruth load(const std::string& path, GroundTruthConfig config = {});

private:
    /// Re-cluster and relabel every entry (no-op below min_entries_for_model).
    void refit();

    GroundTruthConfig config_;
    std::vector<GroundTruthEntry> entries_;
    std::vector<std::size_t> labels_;  ///< cluster of entries_[i]; model changes only at refit
    mlcore::KMeansSimilarity similarity_;
    std::size_t inserts_since_fit_ = 0;
    bool fitted_ = false;
};

}  // namespace pipetune::core
