#include "pipetune/ft/recovery.hpp"

#include <map>

#include "pipetune/ft/codec.hpp"

namespace pipetune::ft {

std::vector<RecoveredJob> RecoveryPlan::pending_jobs() const {
    std::vector<RecoveredJob> pending;
    for (const RecoveredJob& job : jobs)
        if (!job.completed && !job.failed) pending.push_back(job);
    return pending;
}

std::size_t RecoveryPlan::completed_count() const {
    std::size_t n = 0;
    for (const RecoveredJob& job : jobs) n += job.completed ? 1 : 0;
    return n;
}

std::size_t RecoveryPlan::failed_count() const {
    std::size_t n = 0;
    for (const RecoveredJob& job : jobs) n += job.failed ? 1 : 0;
    return n;
}

util::Result<RecoveryPlan> Recovery::analyze(const std::string& journal_path) {
    auto read = Journal::read(journal_path);
    if (!read) return util::Result<RecoveryPlan>::failure(read.error());

    RecoveryPlan plan;
    plan.records_read = read.value().records.size();
    plan.truncated_tail = read.value().truncated_tail;
    plan.lines_dropped = read.value().lines_dropped;

    std::map<std::uint64_t, std::size_t> job_index;  // job_id -> plan.jobs slot
    // gt mutations buffered per job; promoted into the plan only once the
    // owning job's job_completed record is seen.
    std::map<std::uint64_t, std::vector<RecoveredGtMutation>> buffered_gt;

    // Slots auto-create on first reference: with concurrent workers a job's
    // lifecycle records can overtake its job_submitted record in the file,
    // and losing a job_completed that way would re-run the job on resume
    // (double-recording its ground truth).
    auto job_slot = [&](std::uint64_t job_id) -> RecoveredJob* {
        auto it = job_index.find(job_id);
        if (it == job_index.end()) {
            RecoveredJob job;
            job.job_id = job_id;
            it = job_index.emplace(job_id, plan.jobs.size()).first;
            plan.jobs.push_back(std::move(job));
        }
        return &plan.jobs[it->second];
    };

    for (const JournalRecord& record : read.value().records) {
        const util::Json& payload = record.payload;
        const std::uint64_t job_id =
            static_cast<std::uint64_t>(payload.get_number("job_id", 0.0));
        if (record.type == record_type::kJobSubmitted) {
            RecoveredJob* job = job_slot(job_id);
            job->label = payload.get_string("label", "");
            job->workload = payload.get_string("workload", "");
            job->submit = payload;
        } else if (record.type == record_type::kJobCompleted) {
            if (RecoveredJob* job = job_slot(job_id)) {
                job->completed = true;
                job->completed_seq = record.seq;
                auto buffered = buffered_gt.find(job_id);
                if (buffered != buffered_gt.end()) {
                    for (RecoveredGtMutation& mutation : buffered->second) {
                        mutation.completed_seq = record.seq;
                        plan.ground_truth.push_back(std::move(mutation));
                    }
                    buffered_gt.erase(buffered);
                }
            }
        } else if (record.type == record_type::kJobFailed) {
            if (RecoveredJob* job = job_slot(job_id)) {
                job->failed = true;
                job->error = payload.get_string("error", "unknown");
            }
        } else if (record.type == record_type::kGtRecord) {
            RecoveredGtMutation mutation;
            mutation.job_id = job_id;
            if (payload.contains("features"))
                mutation.features = payload.at("features").as_double_vector();
            if (payload.contains("best_system"))
                mutation.best_system = system_from_json(payload.at("best_system"));
            mutation.metric = payload.get_number("metric", 0.0);
            buffered_gt[job_id].push_back(std::move(mutation));
        } else if (record.type == record_type::kEpochCompleted) {
            if (RecoveredJob* job = job_slot(job_id)) ++job->epochs_logged;
        } else if (record.type == record_type::kTrialFinished) {
            if (RecoveredJob* job = job_slot(job_id)) ++job->trials_finished;
        }
        // Unknown record types are skipped: an older pipetune reading a newer
        // journal recovers what it understands.
    }
    return plan;
}

}  // namespace pipetune::ft
