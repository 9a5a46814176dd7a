#pragma once
// ft::Recovery — turn a (possibly truncated) journal into a consistent resume
// plan (DESIGN.md §10). The invariant is job-granular atomicity:
//
//   - a job with a job_completed record contributes its ground-truth
//     mutations (gt_record) to the recovered state;
//   - a job with a job_failed record is terminal and is not re-run;
//   - a job with neither (it was queued or mid-flight at the crash) is a
//     pending job: its partial gt_record/epoch records are DROPPED and the
//     job re-runs deterministically from scratch on resume.
//
// Dropping the partial mutations is what makes kill-and-resume equivalent to
// an uninterrupted run: a deterministic re-run regenerates exactly the
// observations the crash threw away, without double-recording any of them.

#include <cstdint>
#include <string>
#include <vector>

#include "pipetune/ft/journal.hpp"
#include "pipetune/util/result.hpp"
#include "pipetune/workload/types.hpp"

namespace pipetune::ft {

/// One ground-truth record() call journaled by a completed job.
struct RecoveredGtMutation {
    std::uint64_t job_id = 0;
    std::uint64_t completed_seq = 0;  ///< seq of the job's job_completed record
    std::vector<double> features;
    workload::SystemParams best_system;
    double metric = 0.0;
};

/// One job's journaled lifecycle.
struct RecoveredJob {
    std::uint64_t job_id = 0;
    std::string label;
    std::string workload;  ///< workload name (resolvable via find_workload)
    util::Json submit;     ///< full job_submitted payload (config, seed, ...)
    bool completed = false;
    std::uint64_t completed_seq = 0;  ///< seq of job_completed when completed
    bool failed = false;
    std::string error;              ///< failure reason when failed
    std::size_t epochs_logged = 0;  ///< epoch_completed records seen
    std::size_t trials_finished = 0;
};

struct RecoveryPlan {
    std::vector<RecoveredJob> jobs;  ///< in submission (journal) order
    /// Ground-truth state to seed a resumed service with: mutations of
    /// completed jobs only, job by job in job_completed order, each job's in
    /// journal order.
    std::vector<RecoveredGtMutation> ground_truth;
    std::size_t records_read = 0;
    bool truncated_tail = false;
    std::size_t lines_dropped = 0;

    /// Jobs that must re-run (no terminal record), in submission order.
    std::vector<RecoveredJob> pending_jobs() const;
    std::size_t completed_count() const;
    std::size_t failed_count() const;
};

class Recovery {
public:
    /// Read + fold the journal at `journal_path`. Fails exactly when
    /// Journal::read does (missing/unreadable file, or a non-empty file with
    /// no valid record); an empty journal yields an empty plan.
    static util::Result<RecoveryPlan> analyze(const std::string& journal_path);
};

}  // namespace pipetune::ft
