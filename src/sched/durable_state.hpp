#pragma once
// A tuning service's state dir (DESIGN.md §10): a snapshot of committed
// state, plus — with a journal — the journal's tail past it.
//
//   ground_truth.json  the committed entries: seeded and warm-start ones,
//                      then each completed job's own record()s, job by job
//                      in job_completed order
//   metrics.json       an observation snapshot of the metrics store
//   snapshot.json      the manifest: the first n entries of ground_truth.json
//                      are everything committed up to journal seq S. It
//                      names both: S by the checksum of its job_completed
//                      record, the n entries by a digest of their text
//
// Loading takes the manifest's prefix and applies the gt_record mutations of
// the jobs whose job_completed seq is greater than S. The committed list only
// grows and the manifest is written last, so a crash between the snapshot's
// files leaves an older manifest over a longer file and still loads exactly.
// A manifest that names another journal or another file (a new or deleted
// journal, a ground_truth.json written by warm-start) is ignored: all of the
// file is prefix and S = 0, as in a dir without one. A service without a
// journal writes no manifest of its own, but keeps one it finds in step
// (same S, n = every entry), so a journal used with the dir before and after
// still finds its place.
//
// A job's completion is durable before its future settles: with a journal
// once its job_completed record is fsync'd (group commit), without one once a
// snapshot holding its entries is written. Snapshots are written by one
// lazily started compactor thread, never on a worker slot, one at a time,
// with requests coalesced. With a journal the compactor runs when the bytes
// journaled since the last snapshot reach that snapshot's size (at least
// kMinTailBytes), so rewriting the state amortizes to O(1) per record.
//
// Internal to pt_sched; ConcurrentPipeTuneService owns one per state dir.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipetune/core/ground_truth.hpp"
#include "pipetune/ft/journal.hpp"
#include "pipetune/obs/obs_context.hpp"
#include "pipetune/sched/shared_state.hpp"

namespace pipetune::sched {

class DurableState {
public:
    /// Instruments the service registered (all null without telemetry).
    struct Instruments {
        obs::ObsContext* obs = nullptr;
        obs::Counter* flush_total = nullptr;
        obs::Histogram* flush_seconds = nullptr;
        obs::Gauge* points = nullptr;
    };

    static constexpr std::uint64_t kMinTailBytes = 64 * 1024;

    /// Loads `state_dir` (created if missing) into `state`: the manifest's
    /// prefix of ground_truth.json plus, with a journal, the tail's
    /// completed jobs; and metrics.json. Starts no thread.
    DurableState(SharedClusterState& state, std::string state_dir, ft::Journal* journal,
                 const core::GroundTruthConfig& config, Instruments instruments);
    /// Stops the compactor; writes nothing (the owner persists).
    ~DurableState();
    DurableState(const DurableState&) = delete;
    DurableState& operator=(const DurableState&) = delete;

    /// Commit entries no job recorded (warm start, seeding). They have no
    /// journal record, so this requests a snapshot at once.
    void commit_base(const std::vector<core::GroundTruthEntry>& entries);
    /// Journal job `job_id`'s job_completed record and commit the entries
    /// it recorded. Returns once the completion is durable; without a
    /// journal, throws what the snapshot that should have held it threw.
    void commit_job(std::uint64_t job_id, std::vector<core::GroundTruthEntry> entries);

    /// Write a snapshot on the calling thread.
    void snapshot();
    /// Write one when something was committed since the last.
    void snapshot_if_dirty();
    /// Join the compactor thread (after the last commit).
    void stop_compactor();

    /// A job died of ft::SimulatedCrash: the modelled process is dead, so
    /// nothing is written from now on.
    void mark_crashed() { crashed_.store(true, std::memory_order_release); }

    /// The journal's completed-job mutations, in ft::Recovery order, that
    /// loading applied (empty without a journal).
    const std::vector<core::GroundTruthEntry>& recovered() const { return recovered_; }

    static std::string manifest_path(const std::string& state_dir);

private:
    /// What a manifest claims: the first `entries` entries of
    /// ground_truth.json, whose text digests to `entries_crc`, are
    /// everything committed up to journal seq `journal_seq`, whose
    /// job_completed record has checksum `journal_crc` (empty for seq 0).
    struct Manifest {
        std::uint64_t journal_seq = 0;
        std::string journal_crc;
        std::size_t entries = 0;
        std::string entries_crc;
    };

    void load(const core::GroundTruthConfig& config);
    /// Ask the compactor for a snapshot covering commit generation `gen`,
    /// starting it on first use. Caller holds compactor_mutex_.
    void request_locked(std::uint64_t gen);
    void run_compactor();
    /// Write the snapshot files for the entries captured up to journal seq
    /// `seq` (whose record has checksum `crc`); returns their size. Caller
    /// holds snapshot_mutex_.
    std::uint64_t write_files(std::uint64_t seq, const std::string& crc);
    void write_manifest(const Manifest& manifest);

    SharedClusterState& state_;
    const std::string dir_;
    ft::Journal* const journal_;
    const Instruments obs_;
    std::atomic<bool> crashed_{false};
    /// Completed-job mutations recovered from the journal at load.
    std::vector<core::GroundTruthEntry> recovered_;

    // Commit side. commit_mutex_ orders the job_completed write with the
    // commit, so the committed list is in job_completed seq order.
    std::mutex commit_mutex_;
    std::vector<core::GroundTruthEntry> uncaptured_;  ///< committed since the last capture
    std::uint64_t committed_seq_ = 0;  ///< job_completed seq of the last committed job
    std::string committed_crc_;        ///< that record's checksum
    std::uint64_t commit_gen_ = 0;     ///< commits so far

    // Snapshot side: one snapshot at a time.
    std::mutex snapshot_mutex_;
    std::vector<core::GroundTruthEntry> entries_;  ///< everything committed, as of the last capture
    /// What the dir's files say now: the manifest's claim, or without one
    /// that applies, all of ground_truth.json at seq 0.
    Manifest disk_;
    bool manifest_on_disk_ = false;  ///< snapshot.json exists
    bool manifest_holds_ = false;    ///< ... and says disk_

    // Compactor state and its trigger.
    std::mutex compactor_mutex_;
    std::condition_variable compactor_cv_;
    bool compactor_stop_ = false;
    std::uint64_t requested_gen_ = 0;
    std::uint64_t snapshotted_gen_ = 0;  ///< commits covered by the last snapshot
    std::exception_ptr snapshot_error_;  ///< what the last snapshot threw, if it did
    std::uint64_t journal_bytes_at_snapshot_ = 0;
    std::uint64_t snapshot_bytes_ = 0;
    std::thread compactor_;  ///< last: it uses every member above
};

}  // namespace pipetune::sched
