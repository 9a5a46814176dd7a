#include "pipetune/util/json.hpp"

#include "pipetune/util/fs.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pipetune::util {

Json Json::array_of(const std::vector<double>& values) {
    JsonArray arr;
    arr.reserve(values.size());
    for (double v : values) arr.emplace_back(v);
    return Json(std::move(arr));
}

Json::Type Json::type() const {
    switch (value_.index()) {
        case 0: return Type::kNull;
        case 1: return Type::kBool;
        case 2: return Type::kNumber;
        case 3: return Type::kString;
        case 4: return Type::kArray;
        default: return Type::kObject;
    }
}

namespace {
[[noreturn]] void type_error(const char* expected) {
    throw std::runtime_error(std::string("Json: expected ") + expected);
}
}  // namespace

bool Json::as_bool() const {
    if (auto* b = std::get_if<bool>(&value_)) return *b;
    type_error("bool");
}

double Json::as_number() const {
    if (auto* d = std::get_if<double>(&value_)) return *d;
    type_error("number");
}

std::int64_t Json::as_int() const {
    return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Json::as_string() const {
    if (auto* s = std::get_if<std::string>(&value_)) return *s;
    type_error("string");
}

const JsonArray& Json::as_array() const {
    if (auto* a = std::get_if<JsonArray>(&value_)) return *a;
    type_error("array");
}

JsonArray& Json::as_array() {
    if (auto* a = std::get_if<JsonArray>(&value_)) return *a;
    type_error("array");
}

const JsonObject& Json::as_object() const {
    if (auto* o = std::get_if<JsonObject>(&value_)) return *o;
    type_error("object");
}

JsonObject& Json::as_object() {
    if (auto* o = std::get_if<JsonObject>(&value_)) return *o;
    type_error("object");
}

std::vector<double> Json::as_double_vector() const {
    const auto& arr = as_array();
    std::vector<double> out;
    out.reserve(arr.size());
    for (const auto& v : arr) out.push_back(v.as_number());
    return out;
}

const Json& Json::at(const std::string& key) const {
    const auto& obj = as_object();
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("Json: missing key '" + key + "'");
    return it->second;
}

bool Json::contains(const std::string& key) const {
    if (!is_object()) return false;
    return as_object().count(key) > 0;
}

double Json::get_number(const std::string& key, double fallback) const {
    return contains(key) && at(key).is_number() ? at(key).as_number() : fallback;
}

std::string Json::get_string(const std::string& key, const std::string& fallback) const {
    return contains(key) && at(key).is_string() ? at(key).as_string() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
    return contains(key) && at(key).is_bool() ? at(key).as_bool() : fallback;
}

Json& Json::operator[](const std::string& key) {
    if (is_null()) value_ = JsonObject{};
    return as_object()[key];
}

void Json::push_back(Json value) {
    if (is_null()) value_ = JsonArray{};
    as_array().push_back(std::move(value));
}

std::size_t Json::size() const {
    if (is_array()) return as_array().size();
    if (is_object()) return as_object().size();
    return 0;
}

namespace {

void escape_string(const std::string& s, std::string& out) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void format_number(double d, std::string& out) {
    if (std::isnan(d) || std::isinf(d)) {
        out += "null";  // JSON has no NaN/Inf; persisted metrics treat them as missing
        return;
    }
    const double rounded = std::nearbyint(d);
    if (rounded == d && std::fabs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(rounded));
        out += buf;
    } else {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        out += buf;
    }
}

}  // namespace

void append_json_string(std::string& out, const std::string& s) { escape_string(s, out); }
void append_json_number(std::string& out, double d) { format_number(d, out); }

void Json::dump_to(std::string& out, int indent, int depth) const {
    const std::string pad = indent >= 0 ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ') : "";
    const std::string closing_pad = indent >= 0 ? std::string(static_cast<std::size_t>(indent) * depth, ' ') : "";
    const char* nl = indent >= 0 ? "\n" : "";
    switch (type()) {
        case Type::kNull: out += "null"; break;
        case Type::kBool: out += as_bool() ? "true" : "false"; break;
        case Type::kNumber: format_number(as_number(), out); break;
        case Type::kString: escape_string(as_string(), out); break;
        case Type::kArray: {
            const auto& arr = as_array();
            if (arr.empty()) {
                out += "[]";
                break;
            }
            out += '[';
            out += nl;
            for (std::size_t i = 0; i < arr.size(); ++i) {
                out += pad;
                arr[i].dump_to(out, indent, depth + 1);
                if (i + 1 < arr.size()) out += ',';
                out += nl;
            }
            out += closing_pad;
            out += ']';
            break;
        }
        case Type::kObject: {
            const auto& obj = as_object();
            if (obj.empty()) {
                out += "{}";
                break;
            }
            out += '{';
            out += nl;
            std::size_t i = 0;
            for (const auto& [key, value] : obj) {
                out += pad;
                escape_string(key, out);
                out += indent >= 0 ? ": " : ":";
                value.dump_to(out, indent, depth + 1);
                if (++i < obj.size()) out += ',';
                out += nl;
            }
            out += closing_pad;
            out += '}';
            break;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    Json parse() {
        Json value = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters");
        return value;
    }

private:
    const std::string& text_;
    std::size_t pos_ = 0;

    [[noreturn]] void fail(const std::string& why) {
        throw std::runtime_error("Json parse error at offset " + std::to_string(pos_) + ": " + why);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    char advance() {
        char c = peek();
        ++pos_;
        return c;
    }

    void expect(char c) {
        if (advance() != c) {
            --pos_;
            fail(std::string("expected '") + c + "'");
        }
    }

    bool consume_literal(const char* literal) {
        std::size_t len = 0;
        while (literal[len]) ++len;
        if (text_.compare(pos_, len, literal) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    Json parse_value() {
        skip_ws();
        const char c = peek();
        switch (c) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return Json(parse_string());
            case 't':
                if (consume_literal("true")) return Json(true);
                fail("bad literal");
            case 'f':
                if (consume_literal("false")) return Json(false);
                fail("bad literal");
            case 'n':
                if (consume_literal("null")) return Json(nullptr);
                fail("bad literal");
            default: return parse_number();
        }
    }

    Json parse_object() {
        expect('{');
        JsonObject obj;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return Json(std::move(obj));
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            obj[std::move(key)] = parse_value();
            skip_ws();
            const char c = advance();
            if (c == '}') break;
            if (c != ',') {
                --pos_;
                fail("expected ',' or '}'");
            }
        }
        return Json(std::move(obj));
    }

    Json parse_array() {
        expect('[');
        JsonArray arr;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return Json(std::move(arr));
        }
        while (true) {
            arr.push_back(parse_value());
            skip_ws();
            const char c = advance();
            if (c == ']') break;
            if (c != ',') {
                --pos_;
                fail("expected ',' or ']'");
            }
        }
        return Json(std::move(arr));
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            char c = advance();
            if (c == '"') break;
            if (c == '\\') {
                const char esc = advance();
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 't': out += '\t'; break;
                    case 'r': out += '\r'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'u': {
                        if (pos_ + 4 > text_.size()) fail("bad \\u escape");
                        unsigned code = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = advance();
                            code <<= 4;
                            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                            else fail("bad hex digit in \\u escape");
                        }
                        // UTF-8 encode (BMP only; surrogate pairs not needed for our data).
                        if (code < 0x80) {
                            out += static_cast<char>(code);
                        } else if (code < 0x800) {
                            out += static_cast<char>(0xC0 | (code >> 6));
                            out += static_cast<char>(0x80 | (code & 0x3F));
                        } else {
                            out += static_cast<char>(0xE0 | (code >> 12));
                            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                            out += static_cast<char>(0x80 | (code & 0x3F));
                        }
                        break;
                    }
                    default: fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    Json parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                                       text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                                       text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) fail("expected value");
        try {
            std::size_t consumed = 0;
            const std::string token = text_.substr(start, pos_ - start);
            const double d = std::stod(token, &consumed);
            if (consumed != token.size()) fail("bad number");
            return Json(d);
        } catch (const std::exception&) {
            fail("bad number");
        }
    }
};

}  // namespace

Result<Json> Json::try_parse(const std::string& text) {
    try {
        return Parser(text).parse();
    } catch (const std::exception& e) {
        return Result<Json>::failure(e.what());
    }
}

Json Json::parse(const std::string& text) { return std::move(try_parse(text)).value(); }

void Json::save_file(const std::string& path) const {
    // Temp-file + rename so a crash mid-write cannot corrupt persisted state
    // (a service's snapshot files are rewritten whole by each compaction).
    write_file_atomic(path, dump(2) + "\n");
}

Result<Json> Json::try_load_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Result<Json>::failure("Json::load_file: cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = try_parse(buffer.str());
    if (!parsed) return Result<Json>::failure(path + ": " + parsed.error());
    return parsed;
}

Json Json::load_file(const std::string& path) { return std::move(try_load_file(path)).value(); }

bool Json::operator==(const Json& other) const { return value_ == other.value_; }

}  // namespace pipetune::util
