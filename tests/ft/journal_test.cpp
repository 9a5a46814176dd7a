// Write-ahead journal tests (DESIGN.md §10): durable append, checksummed
// read, group commit of the lifecycle records, and — the property the format
// exists for — tolerance of a torn tail at EVERY byte offset.

#include "pipetune/ft/journal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace pipetune::ft {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    TempDir() : path(fs::temp_directory_path() / ("pt_journal_" + std::to_string(::getpid()))) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string file(const std::string& name) const { return (path / name).string(); }
};

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

util::Json payload_with_id(std::uint64_t job_id) {
    util::Json payload = util::Json::object();
    payload["job_id"] = static_cast<double>(job_id);
    return payload;
}

TEST(Journal, AppendAndReadRoundtrip) {
    TempDir dir;
    Journal journal(dir.file("j.log"));
    ASSERT_TRUE(journal.append(record_type::kJobSubmitted, payload_with_id(1)).ok());
    ASSERT_TRUE(journal.append(record_type::kEpochCompleted, payload_with_id(1)).ok());
    ASSERT_TRUE(journal.append(record_type::kJobCompleted, payload_with_id(1)).ok());
    EXPECT_EQ(journal.last_seq(), 3u);

    auto read = Journal::read(journal.path());
    ASSERT_TRUE(read.ok()) << read.error();
    const auto& result = read.value();
    ASSERT_EQ(result.records.size(), 3u);
    EXPECT_FALSE(result.truncated_tail);
    EXPECT_EQ(result.lines_dropped, 0u);
    EXPECT_EQ(result.records[0].seq, 1u);
    EXPECT_EQ(result.records[0].type, record_type::kJobSubmitted);
    EXPECT_EQ(result.records[2].seq, 3u);
    EXPECT_EQ(result.records[1].payload.get_number("job_id", 0.0), 1.0);
}

TEST(Journal, SequenceContinuesAcrossHandles) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    {
        Journal journal(path);
        ASSERT_TRUE(journal.append(record_type::kJobSubmitted, payload_with_id(1)).ok());
        ASSERT_TRUE(journal.append(record_type::kJobCompleted, payload_with_id(1)).ok());
    }
    // A resumed service reopens the same journal: seq must extend, not reset.
    Journal reopened(path);
    ASSERT_TRUE(reopened.append(record_type::kJobSubmitted, payload_with_id(2)).ok());
    EXPECT_EQ(reopened.last_seq(), 3u);
    auto read = Journal::read(path);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(read.value().records.size(), 3u);
    EXPECT_EQ(read.value().records.back().seq, 3u);
}

TEST(Journal, EmptyFileReadsAsZeroRecords) {
    TempDir dir;
    spit(dir.file("empty.log"), "");
    auto read = Journal::read(dir.file("empty.log"));
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read.value().records.empty());
    EXPECT_FALSE(read.value().truncated_tail);
}

TEST(Journal, MissingFileIsAnError) {
    TempDir dir;
    auto read = Journal::read(dir.file("no_such.log"));
    EXPECT_FALSE(read.ok());
}

// The acceptance property: a crash can tear the file at ANY byte. For every
// prefix of a real journal, read() must not crash and must return exactly
// the records whose lines survived intact.
TEST(Journal, TruncationAtEveryOffsetKeepsValidPrefix) {
    TempDir dir;
    const std::string full_path = dir.file("full.log");
    {
        Journal journal(full_path);
        for (std::uint64_t id = 1; id <= 4; ++id) {
            ASSERT_TRUE(journal.append(record_type::kJobSubmitted, payload_with_id(id)).ok());
            ASSERT_TRUE(journal.append(record_type::kJobCompleted, payload_with_id(id)).ok());
        }
    }
    const std::string bytes = slurp(full_path);
    ASSERT_GT(bytes.size(), 0u);
    // Line boundaries tell us how many whole records each prefix preserves.
    std::vector<std::size_t> line_ends;
    for (std::size_t i = 0; i < bytes.size(); ++i)
        if (bytes[i] == '\n') line_ends.push_back(i + 1);
    ASSERT_EQ(line_ends.size(), 8u);

    const std::string truncated_path = dir.file("truncated.log");
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
        spit(truncated_path, bytes.substr(0, len));
        auto read = Journal::read(truncated_path);
        std::size_t whole_lines = 0;
        while (whole_lines < line_ends.size() && line_ends[whole_lines] <= len) ++whole_lines;
        if (!read.ok()) {
            // Only legal for a non-empty file with no complete record.
            EXPECT_EQ(whole_lines, 0u) << "offset " << len;
            EXPECT_GT(len, 0u);
            continue;
        }
        EXPECT_EQ(read.value().records.size(), whole_lines) << "offset " << len;
        const bool has_partial_tail = len > (whole_lines == 0 ? 0 : line_ends[whole_lines - 1]);
        EXPECT_EQ(read.value().truncated_tail, has_partial_tail) << "offset " << len;
        for (std::size_t i = 0; i < read.value().records.size(); ++i)
            EXPECT_EQ(read.value().records[i].seq, i + 1) << "offset " << len;
    }
}

TEST(Journal, ChecksumRejectsTamperedRecord) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    {
        Journal journal(path);
        ASSERT_TRUE(journal.append(record_type::kJobSubmitted, payload_with_id(1)).ok());
        ASSERT_TRUE(journal.append(record_type::kJobCompleted, payload_with_id(1)).ok());
    }
    std::string bytes = slurp(path);
    // Flip the job id inside the LAST line's payload; its crc no longer
    // matches, so the record must be dropped as the (corrupt) tail.
    const std::size_t first_line_end = bytes.find('\n');
    ASSERT_NE(first_line_end, std::string::npos);
    const std::size_t tamper = bytes.rfind("\"job_id\":1");
    ASSERT_NE(tamper, std::string::npos);
    ASSERT_GT(tamper, first_line_end);
    bytes[tamper + 9] = '7';
    spit(path, bytes);

    auto read = Journal::read(path);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(read.value().records.size(), 1u);
    EXPECT_EQ(read.value().records[0].type, record_type::kJobSubmitted);
    EXPECT_TRUE(read.value().truncated_tail);
    EXPECT_EQ(read.value().lines_dropped, 1u);
}

TEST(Journal, CorruptionMidFileEndsTheUsablePrefix) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    {
        Journal journal(path);
        for (std::uint64_t id = 1; id <= 3; ++id)
            ASSERT_TRUE(journal.append(record_type::kJobSubmitted, payload_with_id(id)).ok());
    }
    std::string bytes = slurp(path);
    // Garble the SECOND line. Valid records follow it, but an append-only
    // file with a hole has an unknown causal history: everything after the
    // bad record must be dropped, not resynced.
    const std::size_t first_end = bytes.find('\n');
    bytes[first_end + 5] = '#';
    spit(path, bytes);

    auto read = Journal::read(path);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(read.value().records.size(), 1u);
    EXPECT_TRUE(read.value().truncated_tail);
    EXPECT_EQ(read.value().lines_dropped, 2u);
}

TEST(Journal, ReopeningAfterATornTailRepairsTheFile) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    {
        Journal journal(path);
        ASSERT_TRUE(journal.append(record_type::kJobSubmitted, payload_with_id(1)).ok());
        ASSERT_TRUE(journal.append(record_type::kJobCompleted, payload_with_id(1)).ok());
    }
    // Tear the file mid-way through a third append (no trailing newline).
    std::string bytes = slurp(path);
    spit(path, bytes + "{\"seq\":3,\"type\":\"job_sub");

    // Reopening must drop the torn bytes; otherwise this append would glue
    // onto the torn line and be unreadable forever.
    Journal resumed(path);
    EXPECT_EQ(resumed.last_seq(), 2u);
    ASSERT_TRUE(resumed.append(record_type::kJobSubmitted, payload_with_id(2)).ok());

    auto read = Journal::read(path);
    ASSERT_TRUE(read.ok()) << read.error();
    ASSERT_EQ(read.value().records.size(), 3u);
    EXPECT_FALSE(read.value().truncated_tail);
    EXPECT_EQ(read.value().records[2].seq, 3u);
    EXPECT_EQ(read.value().records[2].payload.get_number("job_id", 0.0), 2.0);
}

TEST(Journal, ChecksumCoversSeqTypeAndPayload) {
    const std::uint64_t base = Journal::checksum(1, "job_submitted", "{}");
    EXPECT_NE(base, Journal::checksum(2, "job_submitted", "{}"));
    EXPECT_NE(base, Journal::checksum(1, "job_completed", "{}"));
    EXPECT_NE(base, Journal::checksum(1, "job_submitted", "{\"a\":1}"));
    EXPECT_EQ(base, Journal::checksum(1, "job_submitted", "{}"));
}

TEST(Journal, OnlyLifecycleRecordsAreBarriers) {
    EXPECT_TRUE(Journal::is_barrier(record_type::kJobSubmitted));
    EXPECT_TRUE(Journal::is_barrier(record_type::kJobCompleted));
    EXPECT_TRUE(Journal::is_barrier(record_type::kJobFailed));
    EXPECT_FALSE(Journal::is_barrier(record_type::kTrialStarted));
    EXPECT_FALSE(Journal::is_barrier(record_type::kEpochCompleted));
    EXPECT_FALSE(Journal::is_barrier(record_type::kTrialFinished));
    EXPECT_FALSE(Journal::is_barrier(record_type::kGtRecord));
}

TEST(Journal, AppendReturnsTheSeqAndBarriersReturnDurable) {
    TempDir dir;
    Journal journal(dir.file("j.log"));
    EXPECT_EQ(journal.durable_seq(), 0u);
    auto epoch = journal.append(record_type::kEpochCompleted, payload_with_id(1));
    ASSERT_TRUE(epoch.ok()) << epoch.error();
    EXPECT_EQ(epoch.value(), 1u);
    EXPECT_EQ(journal.durable_seq(), 0u);  // buffered: written, not yet synced
    auto done = journal.append(record_type::kJobCompleted, payload_with_id(1));
    ASSERT_TRUE(done.ok()) << done.error();
    EXPECT_EQ(done.value(), 2u);
    EXPECT_GE(journal.durable_seq(), 2u);  // the barrier's fsync covers both
    EXPECT_EQ(journal.bytes_written(), slurp(journal.path()).size());
    // A handle reopened on the file counts what it found as durable.
    Journal reopened(journal.path());
    EXPECT_EQ(reopened.durable_seq(), 2u);
    EXPECT_TRUE(reopened.sync(100).ok());  // past the end: nothing to wait for
}

// Group commit under contention: 8 threads append barrier and buffered
// records at once. Every barrier returns with the durable seq at or past its
// own; the file reads back as seqs 1..N, all canonical; and no barrier led
// more than one fsync (under contention they share them).
TEST(Journal, ConcurrentAppendsStayContiguousAndBarriersDurable) {
    TempDir dir;
    obs::MetricsRegistry registry;
    Journal journal(dir.file("j.log"));
    journal.attach_metrics(registry);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 40;
    std::atomic<int> violations{0};
    std::atomic<int> failures{0};
    std::atomic<int> barriers{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const bool barrier = (i + t) % 3 == 0;
                const char* type =
                    barrier ? record_type::kJobCompleted : record_type::kEpochCompleted;
                auto seq = journal.append(type, payload_with_id(t * 1000 + i));
                if (!seq.ok()) {
                    ++failures;
                    continue;
                }
                if (barrier) {
                    ++barriers;
                    if (journal.durable_seq() < seq.value()) ++violations;
                }
            }
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(violations.load(), 0);

    constexpr std::uint64_t kTotal = kThreads * kPerThread;
    EXPECT_EQ(journal.last_seq(), kTotal);
    auto read = Journal::read(journal.path());
    ASSERT_TRUE(read.ok()) << read.error();
    EXPECT_FALSE(read.value().truncated_tail);
    ASSERT_EQ(read.value().records.size(), kTotal);
    for (std::uint64_t i = 0; i < kTotal; ++i)
        EXPECT_EQ(read.value().records[i].seq, i + 1);
    EXPECT_EQ(registry.counter("pipetune_ft_journal_records_total").value(), kTotal);
    const auto fsyncs = registry.counter("pipetune_ft_journal_fsyncs_total").value();
    EXPECT_GE(fsyncs, 1u);
    EXPECT_LE(fsyncs, static_cast<std::uint64_t>(barriers.load()));
}

}  // namespace
}  // namespace pipetune::ft
