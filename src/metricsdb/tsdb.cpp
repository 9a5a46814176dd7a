#include "pipetune/metricsdb/tsdb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "pipetune/util/fs.hpp"

namespace pipetune::metricsdb {

namespace {

bool tags_match(const TagSet& point_tags, const TagSet& filter) {
    for (const auto& [key, value] : filter) {
        auto it = point_tags.find(key);
        if (it == point_tags.end() || it->second != value) return false;
    }
    return true;
}

/// Length-prefixed, so distinct tag sets never share a key.
std::string encode(const TagSet& tags) {
    std::string key;
    for (const auto& [k, v] : tags) {
        key += std::to_string(k.size());
        key += ':';
        key += k;
        key += std::to_string(v.size());
        key += ':';
        key += v;
    }
    return key;
}

}  // namespace

std::uint32_t TimeSeriesDb::intern(TagSet tags) {
    auto [it, inserted] =
        tag_index_.try_emplace(encode(tags), static_cast<std::uint32_t>(tag_sets_.size()));
    if (inserted) {
        if (tag_sets_.size() == std::numeric_limits<std::uint32_t>::max())
            throw std::length_error("TimeSeriesDb: too many distinct tag sets");
        tag_sets_.push_back(std::move(tags));
    }
    return it->second;
}

void TimeSeriesDb::append(const std::string& series, Point point) {
    if (series.empty()) throw std::invalid_argument("TimeSeriesDb::append: empty series name");
    if (!std::isfinite(point.time) || !std::isfinite(point.value))
        throw std::invalid_argument(
            "TimeSeriesDb::append: non-finite time/value would not survive persistence");
    auto& s = series_[series];
    if (!s.times.empty() && point.time < s.times.back())
        throw std::invalid_argument("TimeSeriesDb::append: time must be non-decreasing within '" +
                                    series + "'");
    const std::uint32_t tag_id = intern(std::move(point.tags));
    s.times.push_back(point.time);
    s.values.push_back(point.value);
    s.tag_ids.push_back(tag_id);
}

void TimeSeriesDb::append(const std::string& series, double time, double value, TagSet tags) {
    append(series, Point{time, value, std::move(tags)});
}

template <typename Fn>
void TimeSeriesDb::scan(const Query& query, Fn&& fn) const {
    auto it = series_.find(query.series);
    if (it == series_.end()) return;
    const Series& s = it->second;
    // Times are non-decreasing, so the inclusive [from, to] window is one
    // contiguous index range.
    std::size_t lo = 0;
    std::size_t hi = s.times.size();
    if (query.from)
        lo = static_cast<std::size_t>(
            std::lower_bound(s.times.begin(), s.times.end(), *query.from) - s.times.begin());
    if (query.to)
        hi = static_cast<std::size_t>(
            std::upper_bound(s.times.begin(), s.times.end(), *query.to) - s.times.begin());
    for (std::size_t i = lo; i < hi; ++i)
        if (query.tags.empty() || tags_match(tag_sets_[s.tag_ids[i]], query.tags)) fn(s, i);
}

std::vector<Point> TimeSeriesDb::select(const Query& query) const {
    std::vector<Point> out;
    scan(query, [&](const Series& s, std::size_t i) {
        out.push_back({s.times[i], s.values[i], tag_sets_[s.tag_ids[i]]});
    });
    return out;
}

std::optional<double> TimeSeriesDb::mean(const Query& query) const {
    double acc = 0.0;
    std::size_t n = 0;
    scan(query, [&](const Series& s, std::size_t i) {
        acc += s.values[i];
        ++n;
    });
    if (n == 0) return std::nullopt;
    return acc / static_cast<double>(n);
}

std::optional<double> TimeSeriesDb::last(const Query& query) const {
    std::optional<double> out;
    scan(query, [&](const Series& s, std::size_t i) { out = s.values[i]; });
    return out;
}

std::size_t TimeSeriesDb::count(const Query& query) const {
    if (query.tags.empty() && !query.from && !query.to) {
        auto it = series_.find(query.series);
        return it == series_.end() ? 0 : it->second.times.size();
    }
    std::size_t n = 0;
    scan(query, [&](const Series&, std::size_t) { ++n; });
    return n;
}

std::optional<double> TimeSeriesDb::last_time(const std::string& series) const {
    auto it = series_.find(series);
    if (it == series_.end() || it->second.times.empty()) return std::nullopt;
    return it->second.times.back();
}

std::vector<std::string> TimeSeriesDb::series_names() const {
    std::vector<std::string> names;
    names.reserve(series_.size());
    for (const auto& [name, _] : series_) names.push_back(name);
    return names;
}

std::size_t TimeSeriesDb::total_points() const {
    std::size_t n = 0;
    for (const auto& [_, s] : series_) n += s.times.size();
    return n;
}

void TimeSeriesDb::clear() {
    series_.clear();
    tag_sets_.clear();
    tag_index_.clear();
}

util::Json TimeSeriesDb::to_json() const {
    util::Json json = util::Json::object();
    for (const auto& [name, s] : series_) {
        util::Json list = util::Json::array();
        for (std::size_t i = 0; i < s.times.size(); ++i) {
            util::Json p;
            p["t"] = s.times[i];
            p["v"] = s.values[i];
            const TagSet& point_tags = tag_sets_[s.tag_ids[i]];
            if (!point_tags.empty()) {
                util::Json tags = util::Json::object();
                for (const auto& [k, v] : point_tags) tags[k] = v;
                p["tags"] = std::move(tags);
            }
            list.push_back(std::move(p));
        }
        json[name] = std::move(list);
    }
    return json;
}

std::string TimeSeriesDb::dump_json() const {
    // Mirrors Json::dump(2) of to_json(): two-space indent, keys in map
    // order ("t" < "tags" < "v"), an empty series as [] and no "tags" key
    // for an untagged point. Each tag set is encoded once and reused.
    if (series_.empty()) return "{}";
    std::vector<std::string> encoded_tags(tag_sets_.size());
    for (std::size_t id = 0; id < tag_sets_.size(); ++id) {
        const TagSet& tags = tag_sets_[id];
        if (tags.empty()) continue;
        std::string& out = encoded_tags[id];
        out += "      \"tags\": {\n";
        std::size_t k = 0;
        for (const auto& [key, value] : tags) {
            out += "        ";
            util::append_json_string(out, key);
            out += ": ";
            util::append_json_string(out, value);
            out += ++k < tags.size() ? ",\n" : "\n";
        }
        out += "      },\n";
    }
    std::string out = "{\n";
    std::size_t n = 0;
    for (const auto& [name, s] : series_) {
        out += "  ";
        util::append_json_string(out, name);
        if (s.times.empty()) {
            out += ": []";
        } else {
            out += ": [\n";
            for (std::size_t i = 0; i < s.times.size(); ++i) {
                out += "    {\n      \"t\": ";
                util::append_json_number(out, s.times[i]);
                out += ",\n";
                out += encoded_tags[s.tag_ids[i]];
                out += "      \"v\": ";
                util::append_json_number(out, s.values[i]);
                out += i + 1 < s.times.size() ? "\n    },\n" : "\n    }\n";
            }
            out += "  ]";
        }
        out += ++n < series_.size() ? ",\n" : "\n";
    }
    out += '}';
    return out;
}

TimeSeriesDb TimeSeriesDb::from_json(const util::Json& json) {
    TimeSeriesDb db;
    for (const auto& [name, list] : json.as_object()) {
        if (name.empty()) throw std::invalid_argument("TimeSeriesDb: empty series name");
        db.series_.try_emplace(name);  // a persisted empty series stays listed
        for (const auto& p : list.as_array()) {
            Point point;
            point.time = p.at("t").as_number();
            point.value = p.at("v").as_number();
            if (p.contains("tags"))
                for (const auto& [k, v] : p.at("tags").as_object()) point.tags[k] = v.as_string();
            db.append(name, std::move(point));
        }
    }
    return db;
}

void TimeSeriesDb::save(const std::string& path) const {
    util::write_file_atomic(path, dump_json() + "\n");
}

util::Result<TimeSeriesDb> TimeSeriesDb::try_load(const std::string& path) {
    auto json = util::Json::try_load_file(path);
    if (!json) return util::Result<TimeSeriesDb>::failure("metrics db: " + json.error());
    try {
        return from_json(json.value());
    } catch (const std::exception& e) {
        return util::Result<TimeSeriesDb>::failure("metrics db " + path + ": " + e.what());
    }
}

TimeSeriesDb TimeSeriesDb::load(const std::string& path) {
    return std::move(try_load(path)).value();
}

}  // namespace pipetune::metricsdb
