#include "pipetune/ft/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "pipetune/util/fs.hpp"
#include "pipetune/util/json.hpp"
#include "pipetune/util/logging.hpp"

namespace pipetune::ft {

namespace {

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    return std::string(buf);
}

/// Parse one journal line into a record; returns false (with a reason) on any
/// structural or checksum mismatch.
bool parse_line(const std::string& line, JournalRecord& out, std::string& why) {
    auto parsed = util::Json::try_parse(line);
    if (!parsed) {
        why = parsed.error();
        return false;
    }
    const util::Json& json = parsed.value();
    if (!json.is_object() || !json.contains("seq") || !json.contains("type") ||
        !json.contains("crc") || !json.contains("payload")) {
        why = "missing seq/type/crc/payload";
        return false;
    }
    // A record line is exactly one canonical compact dump. A lenient parser
    // would accept a torn line whose closing braces are missing (the payload
    // and crc can both be intact); requiring the round-trip keeps the
    // "whole line or nothing" contract.
    if (json.dump() != line) {
        why = "torn line (not a canonical record)";
        return false;
    }
    out.seq = static_cast<std::uint64_t>(json.at("seq").as_number());
    out.type = json.at("type").as_string();
    out.payload = json.at("payload");
    const std::string expect = hex64(Journal::checksum(out.seq, out.type, out.payload.dump()));
    if (json.at("crc").as_string() != expect) {
        why = "checksum mismatch";
        return false;
    }
    return true;
}

}  // namespace

std::uint64_t Journal::checksum(std::uint64_t seq, const std::string& type,
                                const std::string& payload_dump) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](const char* data, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= static_cast<unsigned char>(data[i]);
            hash *= 0x100000001b3ULL;
        }
    };
    char seq_buf[32];
    const int seq_len =
        std::snprintf(seq_buf, sizeof(seq_buf), "%llu", static_cast<unsigned long long>(seq));
    mix(seq_buf, static_cast<std::size_t>(seq_len));
    mix("|", 1);
    mix(type.data(), type.size());
    mix("|", 1);
    mix(payload_dump.data(), payload_dump.size());
    return hash;
}

Journal::Journal(std::string path) : path_(std::move(path)) {
    // Continue the seq of whatever valid prefix already exists; a fresh or
    // unreadable file starts at 1 (recovery decides what the old bytes mean).
    auto existing = read(path_);
    if (!existing) return;
    if (!existing.value().records.empty())
        next_seq_ = existing.value().records.back().seq + 1;
    durable_seq_ = next_seq_ - 1;
    if (existing.value().truncated_tail) {
        // Chop the torn tail off before the first append: new records must
        // land on a clean line boundary inside the valid prefix, or every
        // record the resumed run writes would sit behind the corruption and
        // be dropped by the next read.
        std::error_code ec;
        std::filesystem::resize_file(path_, existing.value().valid_prefix_bytes, ec);
        if (ec)
            PT_LOG_WARN("ft").field("path", path_)
                << "cannot truncate torn journal tail: " << ec.message();
        else
            PT_LOG_WARN("ft")
                    .field("path", path_)
                    .field("kept_bytes", existing.value().valid_prefix_bytes)
                << "dropped torn journal tail before reuse";
    }
}

Journal::~Journal() {
    if (fd_ < 0) return;
    // A clean close leaves every record durable, not only the barriers.
    if (durable_seq_ < next_seq_ - 1) (void)::fsync(fd_);
    ::close(fd_);
}

bool Journal::is_barrier(const std::string& type) {
    return type == record_type::kJobSubmitted || type == record_type::kJobCompleted ||
           type == record_type::kJobFailed;
}

util::Result<std::uint64_t> Journal::append(const std::string& type, util::Json payload) {
    auto seq = write(type, std::move(payload));
    if (!seq || !is_barrier(type)) return seq;
    auto synced = sync(seq.value());
    if (!synced)
        return util::Result<std::uint64_t>::failure("journal append (" + type +
                                                    "): " + synced.error());
    return seq;
}

util::Result<std::uint64_t> Journal::write(const std::string& type, util::Json payload) {
    using Out = util::Result<std::uint64_t>;
    const std::string payload_dump = payload.dump();
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t seq = next_seq_;
    // The canonical compact dump of {crc, payload, seq, type}, keys in
    // order, assembled without a Json round trip.
    std::string line = "{\"crc\":\"" + hex64(checksum(seq, type, payload_dump)) + "\",\"payload\":";
    line += payload_dump;
    line += ",\"seq\":";
    util::append_json_number(line, static_cast<double>(seq));
    line += ",\"type\":";
    util::append_json_string(line, type);
    line += "}\n";
    if (fd_ < 0) {
        std::error_code ec;
        const bool existed = std::filesystem::exists(path_, ec);
        fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (fd_ < 0) {
            const std::string error = std::strerror(errno);
            return Out::failure("journal append (" + type + "): cannot open " + path_ + ": " +
                                error);
        }
        // A new file's directory entry must be durable before its records
        // can be.
        if (!existed) (void)util::fsync_parent_dir(path_);
    }
    if (!util::write_all(fd_, line.data(), line.size())) {
        const std::string error = std::strerror(errno);
        return Out::failure("journal append (" + type + "): write failed for " + path_ + ": " +
                            error);
    }
    ++next_seq_;
    bytes_written_ += line.size();
    if (records_total_ != nullptr) records_total_->inc();
    return seq;
}

util::Result<void> Journal::sync(std::uint64_t seq) {
    std::unique_lock<std::mutex> lock(mutex_);
    seq = std::min(seq, next_seq_ - 1);
    while (durable_seq_ < seq) {
        if (syncing_) {
            synced_.wait(lock);
            continue;
        }
        // Lead one fsync. It covers every record written before it starts,
        // so callers that wrote in the meantime ride along.
        syncing_ = true;
        const std::uint64_t covers = next_seq_ - 1;
        const int fd = fd_;
        lock.unlock();
        const bool ok = ::fsync(fd) == 0;
        const std::string error = ok ? std::string() : std::strerror(errno);
        lock.lock();
        syncing_ = false;
        if (ok) {
            durable_seq_ = std::max(durable_seq_, covers);
            if (fsyncs_total_ != nullptr) fsyncs_total_->inc();
        }
        synced_.notify_all();
        if (!ok) return util::Result<void>::failure("journal fsync " + path_ + ": " + error);
    }
    return util::Result<void>::success();
}

std::uint64_t Journal::last_seq() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_seq_ - 1;
}

std::uint64_t Journal::durable_seq() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return durable_seq_;
}

std::uint64_t Journal::bytes_written() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_written_;
}

void Journal::attach_metrics(obs::MetricsRegistry& registry) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_total_ = &registry.counter("pipetune_ft_journal_records_total", {},
                                       "Records appended to the write-ahead journal");
    fsyncs_total_ = &registry.counter(
        "pipetune_ft_journal_fsyncs_total", {},
        "Journal fsyncs; concurrent lifecycle records share one (group commit)");
}

util::Result<JournalReadResult> Journal::read(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return util::Result<JournalReadResult>::failure("journal: cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    JournalReadResult result;
    std::size_t total_lines = 0;
    std::size_t pos = 0;
    bool stopped = false;
    std::string first_reason;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        const std::string line =
            text.substr(pos, (eol == std::string::npos ? text.size() : eol) - pos);
        const bool terminated = eol != std::string::npos;
        pos = terminated ? eol + 1 : text.size();
        if (line.empty()) continue;
        ++total_lines;
        if (stopped) {
            ++result.lines_dropped;
            continue;
        }
        JournalRecord record;
        std::string why;
        // An unterminated final line is a torn append even when its content
        // happens to be a whole record: accepting it would let the next
        // append glue onto it (no trailing '\n'), corrupting BOTH records.
        if (!terminated || !parse_line(line, record, why) ||
            (!result.records.empty() && record.seq <= result.records.back().seq)) {
            // End of the usable prefix: a torn tail, bit rot, or a seq that
            // ran backwards. Everything after it is causally suspect.
            stopped = true;
            if (why.empty())
                why = terminated ? "sequence number not increasing" : "unterminated line";
            first_reason = why;
            ++result.lines_dropped;
            continue;
        }
        result.records.push_back(std::move(record));
        result.valid_prefix_bytes = pos;
    }
    result.truncated_tail = result.lines_dropped > 0;
    if (result.records.empty() && total_lines > 0)
        return util::Result<JournalReadResult>::failure(
            "journal: no valid records in " + path + " (first line: " + first_reason + ")");
    if (result.truncated_tail)
        PT_LOG_WARN("ft").field("path", path).field("dropped", result.lines_dropped)
            << "journal tail dropped: " << first_reason;
    return result;
}

}  // namespace pipetune::ft
