#pragma once
// Minimal JSON value with a recursive-descent parser and serializer.
//
// Used for the persistence surfaces of the library: the ground-truth model
// store (core/), the metrics database (metricsdb/) and bench result dumps.
// Supports the full JSON grammar except exotic number edge cases; numbers are
// stored as double (adequate: persisted values are metrics and counters).

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "pipetune/util/result.hpp"

namespace pipetune::util {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Json() : value_(nullptr) {}
    Json(std::nullptr_t) : value_(nullptr) {}
    Json(bool b) : value_(b) {}
    Json(double d) : value_(d) {}
    Json(int i) : value_(static_cast<double>(i)) {}
    Json(unsigned i) : value_(static_cast<double>(i)) {}
    Json(long i) : value_(static_cast<double>(i)) {}
    Json(unsigned long i) : value_(static_cast<double>(i)) {}
    Json(long long i) : value_(static_cast<double>(i)) {}
    Json(unsigned long long i) : value_(static_cast<double>(i)) {}
    Json(const char* s) : value_(std::string(s)) {}
    Json(std::string s) : value_(std::move(s)) {}
    Json(JsonArray a) : value_(std::move(a)) {}
    Json(JsonObject o) : value_(std::move(o)) {}

    static Json array() { return Json(JsonArray{}); }
    static Json object() { return Json(JsonObject{}); }
    /// Convenience: array of doubles.
    static Json array_of(const std::vector<double>& values);

    Type type() const;
    bool is_null() const { return type() == Type::kNull; }
    bool is_bool() const { return type() == Type::kBool; }
    bool is_number() const { return type() == Type::kNumber; }
    bool is_string() const { return type() == Type::kString; }
    bool is_array() const { return type() == Type::kArray; }
    bool is_object() const { return type() == Type::kObject; }

    /// Typed accessors; throw std::runtime_error on type mismatch.
    bool as_bool() const;
    double as_number() const;
    std::int64_t as_int() const;
    const std::string& as_string() const;
    const JsonArray& as_array() const;
    JsonArray& as_array();
    const JsonObject& as_object() const;
    JsonObject& as_object();
    /// Array-of-numbers to vector<double>.
    std::vector<double> as_double_vector() const;

    /// Object field access. at() throws if missing; get() returns fallback.
    const Json& at(const std::string& key) const;
    bool contains(const std::string& key) const;
    double get_number(const std::string& key, double fallback) const;
    std::string get_string(const std::string& key, const std::string& fallback) const;
    bool get_bool(const std::string& key, bool fallback) const;

    /// Object field write access (creates object if null).
    Json& operator[](const std::string& key);
    /// Array append (creates array if null).
    void push_back(Json value);
    std::size_t size() const;

    /// Serialize. indent < 0 means compact single-line.
    std::string dump(int indent = -1) const;

    /// Parse from text. try_parse returns value-or-error (with offset in the
    /// error text); parse is the throwing wrapper over it.
    static Result<Json> try_parse(const std::string& text);
    static Json parse(const std::string& text);

    /// File helpers; save throws on I/O failure. try_load_file returns
    /// value-or-error for missing/bad files; load_file throws the same text.
    void save_file(const std::string& path) const;
    static Result<Json> try_load_file(const std::string& path);
    static Json load_file(const std::string& path);

    bool operator==(const Json& other) const;

private:
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;

    void dump_to(std::string& out, int indent, int depth) const;
};

/// The serializer's scalar encoders, for writers that stream a large
/// document straight into a string instead of building a Json tree first
/// (metricsdb::TimeSeriesDb::dump_json). The bytes equal what dump() emits
/// for the same value.
void append_json_string(std::string& out, const std::string& s);
void append_json_number(std::string& out, double d);

}  // namespace pipetune::util
