#pragma once
// Write-ahead journal (DESIGN.md §10): the durable record of what a tuning
// service has promised and observed. Every record is one JSON line
//
//   {"seq":12,"type":"epoch_completed","crc":"9f3a...","payload":{...}}
//
// written to one O_APPEND descriptor as append() is called. seq is a
// strictly increasing sequence number; crc is an FNV-1a checksum of
// type+payload, so a torn or bit-rotted line is detected on read.
//
// Durability is per record type. The job lifecycle records (job_submitted,
// job_completed, job_failed) are barriers: append() returns them only after
// an fsync that started after their write has completed. Concurrent barrier
// appends share that fsync (leader/follower group commit: one waiter syncs,
// the others wait for it, and nobody holds the journal mutex across the
// fsync). Every other record returns once written; the next barrier's fsync
// covers it. That is all recovery needs: ft::Recovery applies a job's
// gt_record mutations only once it has read the job's job_completed record,
// and reads the trial and epoch records only as counters.
//
// Reading tolerates exactly the failure the format is designed for: a crash
// mid-append leaves a partial (or checksum-failing) last line, which read()
// drops while keeping the valid prefix. Corruption that is *followed* by more
// valid records is still treated as the end of the usable prefix — a journal
// is only ever appended to, so anything after a bad record has an unknown
// causal history and ft::Recovery refuses to reason about it.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "pipetune/obs/metrics_registry.hpp"
#include "pipetune/util/json.hpp"
#include "pipetune/util/result.hpp"

namespace pipetune::ft {

/// Record type vocabulary. Payload schemas are documented in DESIGN.md §10;
/// ft::Recovery is the one consumer.
namespace record_type {
inline constexpr const char* kJobSubmitted = "job_submitted";
inline constexpr const char* kJobCompleted = "job_completed";
inline constexpr const char* kJobFailed = "job_failed";
inline constexpr const char* kTrialStarted = "trial_started";
inline constexpr const char* kEpochCompleted = "epoch_completed";
inline constexpr const char* kTrialFinished = "trial_finished";
inline constexpr const char* kGtRecord = "gt_record";
}  // namespace record_type

struct JournalRecord {
    std::uint64_t seq = 0;
    std::string type;
    util::Json payload;
};

/// Result of reading a journal file: the valid record prefix plus what (if
/// anything) was dropped from the tail.
struct JournalReadResult {
    std::vector<JournalRecord> records;
    bool truncated_tail = false;   ///< a partial/corrupt line was dropped
    std::size_t lines_dropped = 0; ///< lines discarded after the valid prefix
    /// Byte length of the valid prefix — the file offset just past the last
    /// accepted record's newline. Journal's constructor truncates the file
    /// back to this point so a resumed run's appends stay readable.
    std::size_t valid_prefix_bytes = 0;
};

class Journal {
public:
    /// Opens the journal at `path` (the file is created on the first
    /// append). If the file already holds records, appends continue from the
    /// last valid seq — so a resumed service extends the same journal it
    /// recovered from. The descriptor is opened lazily, by the first append.
    explicit Journal(std::string path);
    ~Journal();

    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    const std::string& path() const { return path_; }

    /// Whether append() waits for `type` to be durable (the job lifecycle
    /// records).
    static bool is_barrier(const std::string& type);

    /// Append one record and return its seq; thread-safe. A barrier record
    /// returns once an fsync covering it has completed, any other once
    /// written. On failure nothing was appended (the record may occupy a
    /// partial line on disk, which a later read() drops as a torn tail).
    util::Result<std::uint64_t> append(const std::string& type, util::Json payload);

    /// Write one record without waiting for it to be durable, whatever its
    /// type; sync(seq) makes it so. For a caller that orders its own state
    /// by seq under its own lock and must not hold that lock across an fsync.
    util::Result<std::uint64_t> write(const std::string& type, util::Json payload);

    /// Block until every record up to `seq` is durable, joining an fsync in
    /// flight or leading the next one.
    util::Result<void> sync(std::uint64_t seq);

    /// Records appended so far by this handle plus what existed at open.
    std::uint64_t last_seq() const;
    /// Highest seq known to be on stable storage (records that existed at
    /// open count as durable).
    std::uint64_t durable_seq() const;
    /// Bytes this handle has appended.
    std::uint64_t bytes_written() const;

    /// Count records and fsyncs into `registry`
    /// (pipetune_ft_journal_records_total, pipetune_ft_journal_fsyncs_total).
    void attach_metrics(obs::MetricsRegistry& registry);

    /// Parse the journal at `path` into its valid record prefix. Fails only
    /// when the file is missing/unreadable or holds no valid record while
    /// being non-empty (an empty file reads as zero records).
    static util::Result<JournalReadResult> read(const std::string& path);

    /// FNV-1a 64 over the canonical record body (exposed for tests).
    static std::uint64_t checksum(std::uint64_t seq, const std::string& type,
                                  const std::string& payload_dump);

private:
    std::string path_;
    mutable std::mutex mutex_;
    std::condition_variable synced_;
    int fd_ = -1;                    ///< O_APPEND, opened by the first write
    std::uint64_t next_seq_ = 1;
    std::uint64_t durable_seq_ = 0;  ///< covered by a completed fsync
    std::uint64_t bytes_written_ = 0;
    bool syncing_ = false;           ///< a leader's fsync is in flight
    obs::Counter* records_total_ = nullptr;
    obs::Counter* fsyncs_total_ = nullptr;
};

}  // namespace pipetune::ft
