#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include <unistd.h>

#include "pipetune/metricsdb/tsdb.hpp"
#include "pipetune/util/rng.hpp"

namespace pipetune::metricsdb {
namespace {

TimeSeriesDb sample_db() {
    TimeSeriesDb db;
    db.append("epoch_duration", 0.0, 42.0, {{"workload", "lenet-mnist"}, {"trial", "1"}});
    db.append("epoch_duration", 1.0, 40.0, {{"workload", "lenet-mnist"}, {"trial", "1"}});
    db.append("epoch_duration", 2.0, 55.0, {{"workload", "cnn-news20"}, {"trial", "2"}});
    db.append("energy", 0.5, 9000.0, {{"workload", "lenet-mnist"}});
    return db;
}

TEST(TimeSeriesDb, AppendAndSelectBySeries) {
    const auto db = sample_db();
    EXPECT_EQ(db.select({.series = "epoch_duration"}).size(), 3u);
    EXPECT_EQ(db.select({.series = "energy"}).size(), 1u);
    EXPECT_TRUE(db.select({.series = "missing"}).empty());
}

TEST(TimeSeriesDb, TagFiltering) {
    const auto db = sample_db();
    Query query{.series = "epoch_duration", .tags = {{"workload", "lenet-mnist"}}};
    EXPECT_EQ(db.select(query).size(), 2u);
    query.tags["trial"] = "2";
    EXPECT_TRUE(db.select(query).empty());
}

TEST(TimeSeriesDb, TimeRangeFiltering) {
    const auto db = sample_db();
    Query query{.series = "epoch_duration"};
    query.from = 1.0;
    EXPECT_EQ(db.select(query).size(), 2u);
    query.to = 1.0;
    ASSERT_EQ(db.select(query).size(), 1u);
    EXPECT_DOUBLE_EQ(db.select(query)[0].value, 40.0);
}

TEST(TimeSeriesDb, Aggregates) {
    const auto db = sample_db();
    Query lenet{.series = "epoch_duration", .tags = {{"workload", "lenet-mnist"}}};
    EXPECT_DOUBLE_EQ(*db.mean(lenet), 41.0);
    EXPECT_DOUBLE_EQ(*db.last(lenet), 40.0);
    EXPECT_EQ(db.count(lenet), 2u);
    EXPECT_FALSE(db.mean({.series = "missing"}).has_value());
}

TEST(TimeSeriesDb, RejectsEmptySeriesAndTimeRegression) {
    TimeSeriesDb db;
    EXPECT_THROW(db.append("", 0.0, 1.0), std::invalid_argument);
    db.append("s", 5.0, 1.0);
    EXPECT_THROW(db.append("s", 4.0, 1.0), std::invalid_argument);
    db.append("s", 5.0, 2.0);  // equal timestamps allowed
}

TEST(TimeSeriesDb, SeriesNamesAndTotals) {
    const auto db = sample_db();
    const auto names = db.series_names();
    EXPECT_EQ(names.size(), 2u);
    EXPECT_EQ(db.total_points(), 4u);
}

TEST(TimeSeriesDb, ClearEmptiesEverything) {
    auto db = sample_db();
    db.clear();
    EXPECT_EQ(db.total_points(), 0u);
    EXPECT_TRUE(db.series_names().empty());
}

TEST(TimeSeriesDb, JsonRoundTrip) {
    const auto db = sample_db();
    const auto restored = TimeSeriesDb::from_json(db.to_json());
    EXPECT_EQ(restored.total_points(), db.total_points());
    Query query{.series = "epoch_duration", .tags = {{"workload", "cnn-news20"}}};
    EXPECT_DOUBLE_EQ(*restored.last(query), 55.0);
}

TEST(TimeSeriesDb, FileRoundTrip) {
    const auto path = std::filesystem::temp_directory_path() / "pt_tsdb_test.json";
    sample_db().save(path.string());
    const auto restored = TimeSeriesDb::load(path.string());
    EXPECT_EQ(restored.total_points(), 4u);
    std::filesystem::remove(path);
}

TEST(TimeSeriesDb, UntaggedPointsMatchEmptyFilter) {
    TimeSeriesDb db;
    db.append("s", 0.0, 1.0);
    EXPECT_EQ(db.select({.series = "s"}).size(), 1u);
    EXPECT_TRUE(db.select({.series = "s", .tags = {{"k", "v"}}}).empty());
}

TEST(TimeSeriesDb, ToJsonIsByteStable) {
    // The persisted layout predates the columnar store; metrics.json files
    // written before it must read back and re-save byte for byte.
    TimeSeriesDb db;
    db.append("epoch_duration", 0.0, 42.5, {{"trial", "1"}, {"phase", "profiling"}});
    db.append("epoch_duration", 1.0, 40.25, {{"trial", "1"}, {"phase", "profiling"}});
    db.append("epoch_duration", 1.0, 3.0);
    db.append("epoch_duration", 2.5, 55.0, {{"trial", "2"}, {"phase", "tuned"}});
    db.append("accuracy", 0.5, 0.125);
    db.append("accuracy", 7.0, 0.75, {{"trial", "1"}, {"phase", "profiling"}});
    db.append("energy", 3.0, 9000.0, {{"system", "8c/16g@2.4"}});
    const std::string golden = R"json({
  "accuracy": [
    {
      "t": 0.5,
      "v": 0.125
    },
    {
      "t": 7,
      "tags": {
        "phase": "profiling",
        "trial": "1"
      },
      "v": 0.75
    }
  ],
  "energy": [
    {
      "t": 3,
      "tags": {
        "system": "8c/16g@2.4"
      },
      "v": 9000
    }
  ],
  "epoch_duration": [
    {
      "t": 0,
      "tags": {
        "phase": "profiling",
        "trial": "1"
      },
      "v": 42.5
    },
    {
      "t": 1,
      "tags": {
        "phase": "profiling",
        "trial": "1"
      },
      "v": 40.25
    },
    {
      "t": 1,
      "v": 3
    },
    {
      "t": 2.5,
      "tags": {
        "phase": "tuned",
        "trial": "2"
      },
      "v": 55
    }
  ]
})json";
    EXPECT_EQ(db.to_json().dump(2), golden);
    EXPECT_EQ(TimeSeriesDb::from_json(util::Json::parse(golden)).to_json().dump(2), golden);
    // The streamed writer and the file save() leaves hold the same bytes.
    EXPECT_EQ(db.dump_json(), golden);
    const auto path = std::filesystem::temp_directory_path() /
                      ("pt_tsdb_golden_" + std::to_string(::getpid()) + ".json");
    db.save(path.string());
    std::ifstream in(path, std::ios::binary);
    const std::string saved((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    std::filesystem::remove(path);
    EXPECT_EQ(saved, golden + "\n");
    EXPECT_EQ(TimeSeriesDb().dump_json(), TimeSeriesDb().to_json().dump(2));
    // An empty series, an escaped name and non-integral numbers.
    const TimeSeriesDb odd = TimeSeriesDb::from_json(
        util::Json::parse(R"({"a": [], "b\"q": [{"t": 1e300, "v": -0.1}]})"));
    EXPECT_EQ(odd.dump_json(), odd.to_json().dump(2));
}

/// select()-based reference aggregates: what mean/last/count computed before
/// they scanned the columns in place.
struct Reference {
    std::size_t count = 0;
    std::optional<double> mean;
    std::optional<double> last;
};

Reference reference(const TimeSeriesDb& db, const Query& query) {
    const auto points = db.select(query);
    Reference ref;
    ref.count = points.size();
    if (points.empty()) return ref;
    double acc = 0.0;
    for (const auto& point : points) acc += point.value;
    ref.mean = acc / static_cast<double>(points.size());
    ref.last = points.back().value;
    return ref;
}

TEST(TimeSeriesDb, AggregatesMatchSelectReferenceUnderFilters) {
    util::Rng rng(21);
    const std::vector<std::string> names = {"epoch_duration", "epoch_energy", "epoch_accuracy"};
    const std::vector<std::string> trials = {"1", "2", "3"};
    const std::vector<std::string> phases = {"profiling", "probing", "tuned"};
    TimeSeriesDb db;
    for (const auto& name : names) {
        double t = rng.uniform(0.0, 3.0);
        for (int i = 0; i < 300; ++i) {
            t += rng.bernoulli(0.3) ? 0.0 : static_cast<double>(rng.uniform_int(1, 3));
            TagSet tags;
            if (!rng.bernoulli(0.2)) tags["trial"] = trials[rng.index(trials.size())];
            if (!rng.bernoulli(0.2)) tags["phase"] = phases[rng.index(phases.size())];
            db.append(name, t, rng.uniform(-10.0, 10.0), std::move(tags));
        }
    }
    for (int q = 0; q < 400; ++q) {
        Query query;
        query.series = rng.bernoulli(0.1) ? "missing" : names[rng.index(names.size())];
        if (rng.bernoulli(0.5)) query.tags["trial"] = trials[rng.index(trials.size())];
        if (rng.bernoulli(0.3)) query.tags["phase"] = phases[rng.index(phases.size())];
        if (rng.bernoulli(0.05)) query.tags["absent"] = "x";
        // Whole-number bounds land exactly on stored times (inclusivity).
        if (rng.bernoulli(0.5)) query.from = static_cast<double>(rng.uniform_int(0, 500));
        if (rng.bernoulli(0.5)) query.to = static_cast<double>(rng.uniform_int(0, 500));
        const Reference want = reference(db, query);
        EXPECT_EQ(db.count(query), want.count) << "query " << q;
        EXPECT_EQ(db.mean(query), want.mean) << "query " << q;
        EXPECT_EQ(db.last(query), want.last) << "query " << q;
    }
    for (const auto& name : names) {
        EXPECT_EQ(db.count({.series = name}), 300u);
        EXPECT_EQ(db.last_time(name), db.select({.series = name}).back().time);
    }
    EXPECT_FALSE(db.last_time("missing").has_value());
}

TEST(TimeSeriesDb, TryLoadRejectsTimesThatRegressWithinASeries) {
    const auto path = std::filesystem::temp_directory_path() / "pt_tsdb_regress.json";
    {
        std::ofstream out(path);
        out << R"({"a": [{"t": 1, "v": 1}], "s": [{"t": 5, "v": 1}, {"t": 4, "v": 2}]})";
    }
    util::Result<TimeSeriesDb> loaded = util::Result<TimeSeriesDb>::failure("not run");
    EXPECT_NO_THROW(loaded = TimeSeriesDb::try_load(path.string()));
    EXPECT_FALSE(loaded.ok());
    EXPECT_NE(loaded.error().find("non-decreasing"), std::string::npos) << loaded.error();
    std::filesystem::remove(path);
}

TEST(TimeSeriesDb, InternedTagSetsKeepEachPointsOwnTags) {
    TimeSeriesDb db;
    for (int i = 0; i < 10; ++i)
        db.append("s", i, i, {{"epoch", std::to_string(i % 3)}, {"phase", "tuned"}});
    db.append("t", 0.0, 1.0, {{"epoch", "0"}, {"phase", "tuned"}});
    const auto points = db.select({.series = "s"});
    ASSERT_EQ(points.size(), 10u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(points[i].tags.at("epoch"), std::to_string(i % 3));
    EXPECT_EQ(db.count({.series = "s", .tags = {{"epoch", "1"}}}), 3u);
    db.clear();
    db.append("s", 0.0, 1.0, {{"epoch", "9"}});
    EXPECT_EQ(db.select({.series = "s"})[0].tags.at("epoch"), "9");
}

}  // namespace
}  // namespace pipetune::metricsdb
