#pragma once
// Influx-lite time-series store. The paper persists profiling samples in
// InfluxDB (v1.7.4) and queries them when tuning and re-clustering (§6); this
// module covers the surface PipeTune actually uses: append points with tags,
// filter by series/tags/time-range, aggregate per epoch, persist as JSON.
//
// Storage is columnar: each series keeps parallel `times` / `values` /
// `tag_ids` vectors, and every distinct tag set is stored once in an
// interned table (a job's epochs repeat the same few sets). A point costs
// 20 bytes plus its share of the tag sets, and an unfiltered count() is the
// series' size.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pipetune/util/json.hpp"

namespace pipetune::metricsdb {

using TagSet = std::map<std::string, std::string>;

struct Point {
    double time = 0.0;  ///< seconds on the experiment clock
    double value = 0.0;
    TagSet tags;
};

struct Query {
    std::string series{};                ///< required measurement name
    TagSet tags{};                       ///< all listed tags must match
    std::optional<double> from{};        ///< inclusive lower time bound
    std::optional<double> to{};          ///< inclusive upper time bound
};

/// Minimal write/count surface of the metrics store. Tuning policies talk to
/// this interface instead of the concrete database so a scheduler can hand
/// concurrent jobs a locked (and pseudo-time-correcting) view of one shared
/// TimeSeriesDb (sched::SharedClusterState).
class MetricsSink {
public:
    virtual ~MetricsSink() = default;
    virtual void append(const std::string& series, double time, double value, TagSet tags) = 0;
    virtual std::size_t count(const Query& query) const = 0;
};

class TimeSeriesDb : public MetricsSink {
public:
    TimeSeriesDb() = default;
    TimeSeriesDb(const TimeSeriesDb&) = default;
    TimeSeriesDb(TimeSeriesDb&&) = default;
    TimeSeriesDb& operator=(const TimeSeriesDb&) = default;
    TimeSeriesDb& operator=(TimeSeriesDb&&) = default;

    /// Append one point to a measurement series. Throws std::invalid_argument
    /// on an empty series name, a non-finite time/value, or a time earlier
    /// than the series' last point.
    void append(const std::string& series, Point point);
    void append(const std::string& series, double time, double value, TagSet tags = {}) override;

    /// All points matching a query, in insertion (time) order.
    std::vector<Point> select(const Query& query) const;

    /// Mean of matching values; nullopt when nothing matches. mean/last/count
    /// scan the series in place; an unfiltered count is O(1).
    std::optional<double> mean(const Query& query) const;
    std::optional<double> last(const Query& query) const;
    std::size_t count(const Query& query) const override;
    /// Time of the series' last point; nullopt for an unknown or empty series.
    std::optional<double> last_time(const std::string& series) const;

    std::vector<std::string> series_names() const;
    std::size_t total_points() const;
    void clear();

    /// Persistence (JSON document with every series and point). from_json
    /// rebuilds through append(), so a loaded file passes the same checks.
    /// try_load is the Result-returning loader; load throws its error text.
    util::Json to_json() const;
    /// to_json().dump(2), streamed straight into a string without building
    /// a Json tree of every point; what save() writes.
    std::string dump_json() const;
    static TimeSeriesDb from_json(const util::Json& json);
    void save(const std::string& path) const;
    static util::Result<TimeSeriesDb> try_load(const std::string& path);
    static TimeSeriesDb load(const std::string& path);

private:
    struct Series {
        std::vector<double> times;  ///< non-decreasing
        std::vector<double> values;
        std::vector<std::uint32_t> tag_ids;  ///< index into tag_sets_
    };

    /// Id of `tags` in tag_sets_, adding it when new.
    std::uint32_t intern(TagSet tags);
    /// Calls fn(series, i) for every matching point index, in time order.
    template <typename Fn>
    void scan(const Query& query, Fn&& fn) const;

    std::map<std::string, Series> series_;
    std::vector<TagSet> tag_sets_;
    /// Injective string encoding of a tag set -> its id in tag_sets_.
    std::unordered_map<std::string, std::uint32_t> tag_index_;
};

}  // namespace pipetune::metricsdb
