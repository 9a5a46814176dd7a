// ft::Recovery tests: folding a journal into a resume plan with job-granular
// atomicity — completed jobs contribute their ground-truth mutations, failed
// jobs are terminal, everything else re-runs.

#include "pipetune/ft/recovery.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "pipetune/cluster/cluster_sim.hpp"
#include "pipetune/core/tuning_service.hpp"
#include "pipetune/ft/codec.hpp"

namespace pipetune::ft {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    TempDir() : path(fs::temp_directory_path() / ("pt_recovery_" + std::to_string(::getpid()))) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string file(const std::string& name) const { return (path / name).string(); }
};

util::Json submitted(std::uint64_t job_id, const std::string& workload) {
    util::Json payload = util::Json::object();
    payload["job_id"] = static_cast<double>(job_id);
    payload["label"] = workload;
    payload["workload"] = workload;
    payload["backend_seed"] = std::string("12345");
    return payload;
}

util::Json terminal(std::uint64_t job_id, const std::string& error = "") {
    util::Json payload = util::Json::object();
    payload["job_id"] = static_cast<double>(job_id);
    if (!error.empty()) payload["error"] = error;
    return payload;
}

util::Json gt_record(std::uint64_t job_id, double feature, double metric) {
    util::Json payload = util::Json::object();
    payload["job_id"] = static_cast<double>(job_id);
    util::Json features = util::Json::array();
    features.push_back(feature);
    features.push_back(feature * 2.0);
    payload["features"] = std::move(features);
    workload::SystemParams system;
    system.cores = 8;
    system.memory_gb = 16;
    payload["best_system"] = system_to_json(system);
    payload["metric"] = metric;
    return payload;
}

TEST(Recovery, FoldsCompletedFailedAndPendingJobs) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    {
        Journal journal(path);
        // Job 1: full lifecycle, two gt mutations -> completed, gt promoted.
        ASSERT_TRUE(journal.append(record_type::kJobSubmitted, submitted(1, "lenet-mnist")).ok());
        ASSERT_TRUE(journal.append(record_type::kGtRecord, gt_record(1, 1.0, 10.0)).ok());
        ASSERT_TRUE(journal.append(record_type::kEpochCompleted, terminal(1)).ok());
        ASSERT_TRUE(journal.append(record_type::kTrialFinished, terminal(1)).ok());
        ASSERT_TRUE(journal.append(record_type::kGtRecord, gt_record(1, 2.0, 20.0)).ok());
        ASSERT_TRUE(journal.append(record_type::kJobCompleted, terminal(1)).ok());
        // Job 2: failed -> terminal, never re-run.
        ASSERT_TRUE(journal.append(record_type::kJobSubmitted, submitted(2, "cnn-news20")).ok());
        ASSERT_TRUE(journal.append(record_type::kJobFailed, terminal(2, "oom")).ok());
        // Job 3: submitted, partial work, no terminal record -> pending.
        ASSERT_TRUE(journal.append(record_type::kJobSubmitted, submitted(3, "bfs-rodinia")).ok());
        ASSERT_TRUE(journal.append(record_type::kGtRecord, gt_record(3, 3.0, 30.0)).ok());
        ASSERT_TRUE(journal.append(record_type::kEpochCompleted, terminal(3)).ok());
    }

    auto plan = Recovery::analyze(path);
    ASSERT_TRUE(plan.ok()) << plan.error();
    const RecoveryPlan& recovered = plan.value();
    ASSERT_EQ(recovered.jobs.size(), 3u);
    EXPECT_EQ(recovered.records_read, 11u);
    EXPECT_FALSE(recovered.truncated_tail);
    EXPECT_EQ(recovered.completed_count(), 1u);
    EXPECT_EQ(recovered.failed_count(), 1u);

    EXPECT_TRUE(recovered.jobs[0].completed);
    EXPECT_EQ(recovered.jobs[0].workload, "lenet-mnist");
    EXPECT_EQ(recovered.jobs[0].epochs_logged, 1u);
    EXPECT_EQ(recovered.jobs[0].trials_finished, 1u);
    EXPECT_TRUE(recovered.jobs[1].failed);
    EXPECT_EQ(recovered.jobs[1].error, "oom");

    const auto pending = recovered.pending_jobs();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].job_id, 3u);
    EXPECT_EQ(pending[0].workload, "bfs-rodinia");
    EXPECT_EQ(pending[0].submit.get_string("backend_seed", ""), "12345");

    // Only the COMPLETED job's mutations survive; job 3's partial gt_record
    // is dropped (its deterministic re-run will regenerate it).
    ASSERT_EQ(recovered.ground_truth.size(), 2u);
    EXPECT_EQ(recovered.ground_truth[0].job_id, 1u);
    EXPECT_EQ(recovered.ground_truth[0].features, (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(recovered.ground_truth[0].best_system.cores, 8u);
    EXPECT_EQ(recovered.ground_truth[1].metric, 20.0);
}

TEST(Recovery, ToleratesLifecycleRecordsBeforeJobSubmitted) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    {
        // Concurrent workers can interleave so that a job's completion (or
        // even its gt mutations) hit the file before its job_submitted line.
        Journal journal(path);
        ASSERT_TRUE(journal.append(record_type::kGtRecord, gt_record(1, 1.0, 10.0)).ok());
        ASSERT_TRUE(journal.append(record_type::kJobCompleted, terminal(1)).ok());
        ASSERT_TRUE(journal.append(record_type::kJobSubmitted, submitted(1, "lenet-mnist")).ok());
    }
    auto plan = Recovery::analyze(path);
    ASSERT_TRUE(plan.ok()) << plan.error();
    ASSERT_EQ(plan.value().jobs.size(), 1u);
    EXPECT_TRUE(plan.value().jobs[0].completed);
    EXPECT_EQ(plan.value().jobs[0].workload, "lenet-mnist");
    EXPECT_TRUE(plan.value().pending_jobs().empty());
    // The mutation arrived before the completion, which arrived before the
    // submission — it must still be promoted exactly once.
    ASSERT_EQ(plan.value().ground_truth.size(), 1u);
    EXPECT_EQ(plan.value().ground_truth[0].metric, 10.0);
}

TEST(Recovery, TruncatedTailLeavesMidFlightJobPending) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    {
        Journal journal(path);
        ASSERT_TRUE(journal.append(record_type::kJobSubmitted, submitted(1, "lenet-mnist")).ok());
        ASSERT_TRUE(journal.append(record_type::kGtRecord, gt_record(1, 1.0, 10.0)).ok());
        ASSERT_TRUE(journal.append(record_type::kJobCompleted, terminal(1)).ok());
    }
    // Chop the job_completed line in half: the crash hit mid-append.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    const std::size_t second_end = bytes.find('\n', bytes.find('\n') + 1);
    ASSERT_NE(second_end, std::string::npos);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, second_end + 1 + (bytes.size() - second_end) / 2);
    }

    auto plan = Recovery::analyze(path);
    ASSERT_TRUE(plan.ok()) << plan.error();
    EXPECT_TRUE(plan.value().truncated_tail);
    ASSERT_EQ(plan.value().jobs.size(), 1u);
    EXPECT_FALSE(plan.value().jobs[0].completed);
    ASSERT_EQ(plan.value().pending_jobs().size(), 1u);
    // The pending job's partial mutation must NOT leak into the seed state.
    EXPECT_TRUE(plan.value().ground_truth.empty());
}

TEST(Recovery, EmptyJournalYieldsEmptyPlan) {
    TempDir dir;
    const std::string path = dir.file("empty.log");
    { std::ofstream out(path); }
    auto plan = Recovery::analyze(path);
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(plan.value().jobs.empty());
    EXPECT_TRUE(plan.value().ground_truth.empty());
}

TEST(Recovery, MissingJournalIsAnError) {
    TempDir dir;
    EXPECT_FALSE(Recovery::analyze(dir.file("no_such.log")).ok());
}

TEST(Recovery, UnknownRecordTypesAreSkipped) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    {
        Journal journal(path);
        ASSERT_TRUE(journal.append(record_type::kJobSubmitted, submitted(1, "lenet-mnist")).ok());
        ASSERT_TRUE(journal.append("future_record_type", terminal(1)).ok());
        ASSERT_TRUE(journal.append(record_type::kJobCompleted, terminal(1)).ok());
    }
    auto plan = Recovery::analyze(path);
    ASSERT_TRUE(plan.ok()) << plan.error();
    EXPECT_EQ(plan.value().records_read, 3u);
    ASSERT_EQ(plan.value().jobs.size(), 1u);
    EXPECT_TRUE(plan.value().jobs[0].completed);
}

TEST(Recovery, MutationsCarryTheirJobsCompletionSeq) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    {
        Journal journal(path);
        ASSERT_TRUE(journal.append(record_type::kGtRecord, gt_record(2, 1.0, 10.0)).ok());
        ASSERT_TRUE(journal.append(record_type::kGtRecord, gt_record(1, 2.0, 20.0)).ok());
        ASSERT_TRUE(journal.append(record_type::kJobCompleted, terminal(1)).ok());  // seq 3
        ASSERT_TRUE(journal.append(record_type::kJobCompleted, terminal(2)).ok());  // seq 4
    }
    auto plan = Recovery::analyze(path);
    ASSERT_TRUE(plan.ok()) << plan.error();
    // Job by job in completion order, each stamped with its completion seq.
    ASSERT_EQ(plan.value().ground_truth.size(), 2u);
    EXPECT_EQ(plan.value().ground_truth[0].job_id, 1u);
    EXPECT_EQ(plan.value().ground_truth[0].completed_seq, 3u);
    EXPECT_EQ(plan.value().ground_truth[1].job_id, 2u);
    EXPECT_EQ(plan.value().ground_truth[1].completed_seq, 4u);
}

// An unseen job (cluster::generate_arrivals perturbs the workload's name,
// dataset and memory scale) is journaled whole, so resume rebuilds exactly
// the workload that ran; a catalogue workload is journaled by name alone.
TEST(Recovery, PerturbedWorkloadsRoundTripThroughTheSubmitPayload) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    cluster::ArrivalConfig arrivals;
    arrivals.job_count = 6;
    arrivals.unseen_fraction = 1.0;
    const auto jobs = cluster::generate_arrivals(workload::catalogue(), arrivals);
    {
        Journal journal(path);
        std::uint64_t id = 0;
        for (const auto& job : jobs)
            ASSERT_TRUE(journal
                            .append(record_type::kJobSubmitted,
                                    core::journal_submit_payload(++id, job.workload.name,
                                                                 job.workload, {}, {}))
                            .ok());
        ASSERT_TRUE(journal
                        .append(record_type::kJobSubmitted,
                                core::journal_submit_payload(++id, "plain",
                                                             workload::catalogue()[0], {}, {}))
                        .ok());
    }
    auto plan = Recovery::analyze(path);
    ASSERT_TRUE(plan.ok()) << plan.error();
    const auto pending = plan.value().pending_jobs();
    ASSERT_EQ(pending.size(), jobs.size() + 1);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(jobs[i].unseen);
        EXPECT_THROW((void)workload::find_workload(pending[i].workload), std::invalid_argument);
        const workload::Workload rebuilt = core::workload_from_journal(pending[i].submit);
        EXPECT_EQ(workload_to_json(rebuilt), workload_to_json(jobs[i].workload)) << i;
        EXPECT_TRUE(pending[i].submit.contains("workload_spec")) << i;
    }
    const util::Json& plain = pending.back().submit;
    EXPECT_FALSE(plain.contains("workload_spec"));
    EXPECT_EQ(workload_to_json(core::workload_from_journal(plain)),
              workload_to_json(workload::catalogue()[0]));
}

}  // namespace
}  // namespace pipetune::ft
