#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "pipetune/core/ground_truth.hpp"
#include "pipetune/mlcore/similarity.hpp"
#include "pipetune/util/rng.hpp"
#include "pipetune/util/stats.hpp"

namespace pipetune::core {
namespace {

// Feature vectors drawn from two synthetic workload families.
std::vector<double> family_vector(int family, util::Rng& rng) {
    std::vector<double> v(8);
    const double base = family == 0 ? 2.0 : 7.0;
    for (auto& x : v) x = base + rng.normal(0.0, 0.2);
    return v;
}

/// Same entries, labels and decisions — the observable state of a store.
void expect_same_store(const GroundTruth& want, const GroundTruth& got, util::Rng& rng) {
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got.model_ready(), want.model_ready());
    EXPECT_EQ(got.entry_clusters(), want.entry_clusters());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got.entries()[i].features, want.entries()[i].features);
    for (int q = 0; q < 8; ++q) {
        const auto query = family_vector(q % 2, rng);
        double want_score = -1.0;
        double got_score = -2.0;
        const auto want_hit = want.lookup(query, &want_score);
        const auto got_hit = got.lookup(query, &got_score);
        EXPECT_EQ(got_hit, want_hit);
        EXPECT_EQ(got_score, want_score);
    }
}

// A reloaded store must decide exactly as the live one that wrote it: its
// model is fitted where record() last refit, not on every entry.
TEST(GroundTruth, FromEntriesEqualsRecordingOneByOne) {
    for (const std::size_t interval : {1u, 3u, 4u}) {
        GroundTruthConfig config;
        config.refit_interval = interval;
        GroundTruth live(config);
        util::Rng rng(11);
        for (std::size_t n = 0; n <= 19; ++n) {
            SCOPED_TRACE("interval " + std::to_string(interval) + ", n " + std::to_string(n));
            util::Rng queries(100 + n);
            GroundTruth rebuilt = GroundTruth::from_entries(live.entries(), config);
            expect_same_store(live, rebuilt, queries);
            // The refit countdown carries over too: one more record each.
            const auto next = family_vector(static_cast<int>(n % 2), rng);
            live.record(next, {.cores = 2 + n, .memory_gb = 8}, 1.0 + n);
            rebuilt.record(next, {.cores = 2 + n, .memory_gb = 8}, 1.0 + n);
            expect_same_store(live, rebuilt, queries);
        }
    }
}

TEST(GroundTruth, EmptyStoreNeverMatches) {
    GroundTruth gt;
    double score = 1.0;
    EXPECT_FALSE(gt.lookup({1, 2, 3}, &score).has_value());
    EXPECT_DOUBLE_EQ(score, 0.0);
    EXPECT_FALSE(gt.model_ready());
}

TEST(GroundTruth, MatchesAfterEnoughEntries) {
    GroundTruth gt;
    util::Rng rng(1);
    for (int i = 0; i < 6; ++i)
        gt.record(family_vector(0, rng), {.cores = 16, .memory_gb = 32}, 10.0);
    EXPECT_TRUE(gt.model_ready());
    double score = 0.0;
    const auto hit = gt.lookup(family_vector(0, rng), &score);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cores, 16u);
    EXPECT_GT(score, gt.config().similarity_threshold);
}

TEST(GroundTruth, RejectsDissimilarProfiles) {
    GroundTruth gt;
    util::Rng rng(2);
    for (int i = 0; i < 6; ++i)
        gt.record(family_vector(0, rng), {.cores = 16, .memory_gb = 32}, 10.0);
    // A wildly different profile must miss (unseen workload -> probing).
    std::vector<double> alien(8, 1000.0);
    double score = 1.0;
    EXPECT_FALSE(gt.lookup(alien, &score).has_value());
    EXPECT_LT(score, gt.config().similarity_threshold);
}

TEST(GroundTruth, ReturnsBestMetricEntryOfMatchedCluster) {
    GroundTruth gt({.k = 2,
                    .similarity_threshold = 0.15,
                    .min_entries_for_model = 4,
                    .refit_interval = 1,
                    .seed = 1});
    util::Rng rng(3);
    // Family 0: two configs, one clearly better (lower metric).
    gt.record(family_vector(0, rng), {.cores = 4, .memory_gb = 8}, 50.0);
    gt.record(family_vector(0, rng), {.cores = 16, .memory_gb = 32}, 10.0);
    gt.record(family_vector(1, rng), {.cores = 8, .memory_gb = 16}, 5.0);
    gt.record(family_vector(1, rng), {.cores = 8, .memory_gb = 16}, 6.0);
    const auto hit = gt.lookup(family_vector(0, rng));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cores, 16u);  // the 10.0-metric entry, not the 50.0 one
}

TEST(GroundTruth, ClustersSeparateFamilies) {
    GroundTruth gt({.k = 2,
                    .similarity_threshold = 0.15,
                    .min_entries_for_model = 4,
                    .refit_interval = 2,
                    .seed = 2});
    util::Rng rng(4);
    for (int i = 0; i < 5; ++i) gt.record(family_vector(0, rng), {.cores = 4, .memory_gb = 8}, 1.0);
    for (int i = 0; i < 5; ++i) gt.record(family_vector(1, rng), {.cores = 16, .memory_gb = 32}, 1.0);
    const auto clusters = gt.entry_clusters();
    ASSERT_EQ(clusters.size(), 10u);
    for (int i = 1; i < 5; ++i) EXPECT_EQ(clusters[i], clusters[0]);
    for (int i = 6; i < 10; ++i) EXPECT_EQ(clusters[i], clusters[5]);
    EXPECT_NE(clusters[0], clusters[5]);
}

TEST(GroundTruth, PerClusterConfigsAreIsolated) {
    GroundTruth gt({.k = 2,
                    .similarity_threshold = 0.15,
                    .min_entries_for_model = 4,
                    .refit_interval = 2,
                    .seed = 3});
    util::Rng rng(5);
    for (int i = 0; i < 5; ++i) gt.record(family_vector(0, rng), {.cores = 4, .memory_gb = 8}, 1.0);
    for (int i = 0; i < 5; ++i) gt.record(family_vector(1, rng), {.cores = 16, .memory_gb = 32}, 0.5);
    const auto hit0 = gt.lookup(family_vector(0, rng));
    const auto hit1 = gt.lookup(family_vector(1, rng));
    ASSERT_TRUE(hit0 && hit1);
    EXPECT_EQ(hit0->cores, 4u);   // family 0's best, despite family 1's lower metric
    EXPECT_EQ(hit1->cores, 16u);
}

TEST(GroundTruth, ValidatesRecordInputs) {
    GroundTruth gt;
    EXPECT_THROW(gt.record({}, {.cores = 4, .memory_gb = 8}, 1.0), std::invalid_argument);
    gt.record({1, 2}, {.cores = 4, .memory_gb = 8}, 1.0);
    EXPECT_THROW(gt.record({1, 2, 3}, {.cores = 4, .memory_gb = 8}, 1.0), std::invalid_argument);
}

TEST(GroundTruth, ValidatesConfig) {
    EXPECT_THROW(GroundTruth({.k = 2, .similarity_threshold = 2.0, .min_entries_for_model = 4,
                              .refit_interval = 4, .seed = 1}),
                 std::invalid_argument);
    EXPECT_THROW(GroundTruth({.k = 4, .similarity_threshold = 0.5, .min_entries_for_model = 2,
                              .refit_interval = 4, .seed = 1}),
                 std::invalid_argument);
    EXPECT_THROW(GroundTruth({.k = 2, .similarity_threshold = 0.5, .min_entries_for_model = 4,
                              .refit_interval = 0, .seed = 1}),
                 std::invalid_argument);
}

TEST(GroundTruth, JsonRoundTripPreservesLookups) {
    GroundTruth gt;
    util::Rng rng(6);
    for (int i = 0; i < 6; ++i)
        gt.record(family_vector(0, rng), {.cores = 16, .memory_gb = 32}, 1.0);
    const GroundTruth restored = GroundTruth::from_json(gt.to_json());
    EXPECT_EQ(restored.size(), 6u);
    EXPECT_TRUE(restored.model_ready());
    const auto hit = restored.lookup(family_vector(0, rng));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cores, 16u);
}

TEST(GroundTruth, FileRoundTrip) {
    const auto path = std::filesystem::temp_directory_path() / "pt_gt_test.json";
    GroundTruth gt;
    util::Rng rng(7);
    for (int i = 0; i < 5; ++i)
        gt.record(family_vector(1, rng), {.cores = 8, .memory_gb = 16}, 2.0);
    gt.save(path.string());
    const GroundTruth restored = GroundTruth::load(path.string());
    EXPECT_EQ(restored.size(), 5u);
    std::filesystem::remove(path);
}

TEST(GroundTruth, RefitIntervalControlsReclustering) {
    // With a large refit interval, entries accumulate without refitting until
    // the interval elapses; lookups still work off the last fitted model.
    GroundTruth gt({.k = 2,
                    .similarity_threshold = 0.15,
                    .min_entries_for_model = 4,
                    .refit_interval = 100,
                    .seed = 4});
    util::Rng rng(8);
    for (int i = 0; i < 4; ++i) gt.record(family_vector(0, rng), {.cores = 4, .memory_gb = 8}, 1.0);
    EXPECT_TRUE(gt.model_ready());  // first fit happens as soon as possible
    for (int i = 0; i < 10; ++i) gt.record(family_vector(0, rng), {.cores = 4, .memory_gb = 8}, 1.0);
    EXPECT_EQ(gt.size(), 14u);
}

// ---- Property test: cached-label lookup == the original algorithm ----------

/// The store as it was before cluster labels were cached: lookup relabels
/// every entry through KMeansSimilarity::match (O(n²·d) per lookup). Kept as
/// the oracle the O(n·d) GroundTruth must agree with, decision for decision.
class ReferenceGroundTruth {
public:
    explicit ReferenceGroundTruth(GroundTruthConfig config)
        : config_(config),
          similarity_(mlcore::KMeansConfig{.k = config.k,
                                           .max_iterations = 100,
                                           .tolerance = 1e-6,
                                           .seed = config.seed}) {}

    void record(const std::vector<double>& features, const workload::SystemParams& best) {
        entries_.push_back({features, best, 0.0});
        if (++inserts_since_fit_ >= config_.refit_interval || !fitted_) refit();
    }

    /// The from_json path: entries first, one refit.
    static ReferenceGroundTruth loaded(GroundTruthConfig config,
                                       const std::vector<GroundTruthEntry>& entries) {
        ReferenceGroundTruth ref(config);
        ref.entries_ = entries;
        ref.refit();
        return ref;
    }

    std::optional<workload::SystemParams> lookup(const std::vector<double>& features,
                                                 double* score_out) const {
        *score_out = 0.0;
        if (!(fitted_ && entries_.size() >= config_.min_entries_for_model)) return std::nullopt;
        const auto match = similarity_.match(features);
        if (!match) return std::nullopt;
        *score_out = match->score;
        if (match->score < config_.similarity_threshold) return std::nullopt;
        const auto clusters = entry_clusters();
        const GroundTruthEntry* nearest = nullptr;
        double nearest_distance = std::numeric_limits<double>::max();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (clusters[i] != match->cluster) continue;
            const double distance = util::euclidean(entries_[i].features, features);
            if (distance < nearest_distance) {
                nearest_distance = distance;
                nearest = &entries_[i];
            }
        }
        if (nearest == nullptr) return std::nullopt;
        return nearest->best_system;
    }

    std::vector<std::size_t> entry_clusters() const {
        std::vector<std::size_t> clusters(entries_.size(), 0);
        if (!fitted_) return clusters;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const auto match = similarity_.match(entries_[i].features);
            clusters[i] = match ? match->cluster : 0;
        }
        return clusters;
    }

    std::size_t inserts_since_fit() const { return inserts_since_fit_; }

private:
    void refit() {
        if (entries_.size() < config_.min_entries_for_model) return;
        std::vector<std::vector<double>> features;
        for (const auto& entry : entries_) features.push_back(entry.features);
        similarity_.fit(features);
        fitted_ = true;
        inserts_since_fit_ = 0;
    }

    GroundTruthConfig config_;
    std::vector<GroundTruthEntry> entries_;
    mlcore::KMeansSimilarity similarity_;
    std::size_t inserts_since_fit_ = 0;
    bool fitted_ = false;
};

constexpr std::size_t kProfileDims = 58;  // perf::mean_features' width

/// Profiles scattered around a few random workload centres (log-rate-like
/// magnitudes), so the stores have cluster structure but uneven clusters.
struct ProfileSource {
    explicit ProfileSource(std::uint64_t seed) : rng(seed) {
        const std::size_t groups = 2 + rng.index(4);
        for (std::size_t g = 0; g < groups; ++g) {
            std::vector<double> centre(kProfileDims);
            for (auto& x : centre) x = rng.uniform(-5.0, 15.0);
            centres.push_back(std::move(centre));
        }
    }
    std::vector<double> stored() {
        const auto& centre = centres[rng.index(centres.size())];
        const double spread = rng.uniform(0.05, 1.5);
        std::vector<double> v(kProfileDims);
        for (std::size_t d = 0; d < kProfileDims; ++d) v[d] = centre[d] + rng.normal(0.0, spread);
        return v;
    }
    /// A stored row nudged by `noise` (0 = an exact repeat of that job).
    std::vector<double> near(const std::vector<GroundTruthEntry>& entries, double noise) {
        auto v = entries[rng.index(entries.size())].features;
        for (auto& x : v) x += rng.normal(0.0, noise);
        return v;
    }
    /// An unseen workload: nowhere near any centre.
    std::vector<double> far() {
        std::vector<double> v(kProfileDims);
        for (auto& x : v) x = rng.uniform(40.0, 200.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
        return v;
    }

    util::Rng rng;
    std::vector<std::vector<double>> centres;
};

struct Outcomes {
    std::size_t hits = 0;
    std::size_t misses = 0;
};

/// Hit/miss, score, chosen config and per-entry labels must all agree.
void expect_same_answers(const GroundTruth& gt, const ReferenceGroundTruth& ref,
                         ProfileSource& source, const std::string& where, Outcomes& outcomes) {
    EXPECT_EQ(gt.entry_clusters(), ref.entry_clusters()) << where;
    std::vector<std::vector<double>> queries;
    for (double noise : {0.0, 0.01, 0.3, 2.0}) queries.push_back(source.near(gt.entries(), noise));
    queries.push_back(source.stored());
    queries.push_back(source.far());
    for (std::size_t q = 0; q < queries.size(); ++q) {
        double score = -1.0;
        double ref_score = -1.0;
        const auto got = gt.lookup(queries[q], &score);
        const auto want = ref.lookup(queries[q], &ref_score);
        EXPECT_EQ(got.has_value(), want.has_value()) << where << " query " << q;
        EXPECT_EQ(score, ref_score) << where << " query " << q;
        if (got && want) {
            EXPECT_EQ(*got, *want) << where << " query " << q;
        }
        ++(got ? outcomes.hits : outcomes.misses);
    }
}

TEST(GroundTruthProperty, CachedLabelLookupMatchesReferenceAlgorithm) {
    struct Case {
        std::size_t entries;
        std::size_t refit_interval;
        std::size_t k;
        double threshold;
    };
    const std::vector<Case> cases = {{4, 1, 2, 0.15},    {5, 4, 2, 0.15},  {9, 3, 3, 0.0},
                                     {16, 4, 2, 0.15},   {33, 5, 2, 0.5},  {64, 4, 3, 0.15},
                                     {257, 16, 2, 0.15}, {1024, 300, 2, 0.15}};
    std::uint64_t seed = 100;
    Outcomes outcomes;
    for (const auto& c : cases) {
        const GroundTruthConfig config{.k = c.k,
                                       .similarity_threshold = c.threshold,
                                       .min_entries_for_model = 4,
                                       .refit_interval = c.refit_interval,
                                       .seed = seed};
        ProfileSource source(++seed);
        GroundTruth gt(config);
        ReferenceGroundTruth ref(config);
        for (std::size_t i = 0; i < c.entries; ++i) {
            const auto features = source.stored();
            // A distinct config per entry, so "same config" means "same entry".
            const workload::SystemParams best{.cores = i + 1, .memory_gb = 4 + i % 7};
            gt.record(features, best, 1.0);
            ref.record(features, best);
            // Check every small store, and big ones right after a refit, just
            // before the next one (labels assigned between refits), and at
            // the end.
            const std::size_t n = i + 1;
            const bool refit_edge = ref.inserts_since_fit() == 0 ||
                                    ref.inserts_since_fit() + 1 == c.refit_interval;
            if (n <= 40 || refit_edge || n == c.entries)
                expect_same_answers(gt, ref, source,
                                    "n=" + std::to_string(n) + " seed=" + std::to_string(seed),
                                    outcomes);
        }
        // The RCU republish path hands readers a copy of the store.
        const GroundTruth copy = gt;
        expect_same_answers(copy, ref, source, "copy seed=" + std::to_string(seed), outcomes);
        GroundTruth assigned(config);
        assigned = copy;
        expect_same_answers(assigned, ref, source, "assigned seed=" + std::to_string(seed),
                            outcomes);
        // A reloaded store labels every entry at its one refit.
        const GroundTruth reloaded = GroundTruth::from_json(gt.to_json(), config);
        const auto ref_reloaded = ReferenceGroundTruth::loaded(config, gt.entries());
        expect_same_answers(reloaded, ref_reloaded, source, "reload seed=" + std::to_string(seed),
                            outcomes);
    }
    // Both branches of the decision were exercised, not just one.
    EXPECT_GT(outcomes.hits, 100u);
    EXPECT_GT(outcomes.misses, 100u);
}

TEST(GroundTruthProperty, LabelsAreZeroUntilTheFirstFit) {
    GroundTruth gt;
    util::Rng rng(11);
    for (int i = 0; i < 3; ++i) gt.record(family_vector(i % 2, rng), {}, 1.0);
    EXPECT_EQ(gt.entry_clusters(), std::vector<std::size_t>(3, 0));
    gt.record(family_vector(1, rng), {}, 1.0);
    ASSERT_TRUE(gt.model_ready());
    EXPECT_EQ(gt.entry_clusters().size(), 4u);
}

}  // namespace
}  // namespace pipetune::core
