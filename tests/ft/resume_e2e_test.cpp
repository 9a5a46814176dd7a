// End-to-end acceptance tests for pipetune::ft (DESIGN.md §10):
//
//   1. kill-and-resume equivalence — a campaign killed mid-job and resumed
//      from its journal ends with the same ground-truth store as the same
//      campaign run uninterrupted;
//   2. fault-injected completion — with ~10% of epochs failing, every job
//      still completes via bounded retries, and the retry counters in the
//      obs registry account for every injected fault;
//   3. the state dir as snapshot + journal tail — resuming into the crashed
//      run's own state dir, at every crash point and over a torn snapshot,
//      ends with the uninterrupted run's ground_truth.json byte for byte;
//      a snapshot's manifest never claims a seq that is not durable; and no
//      worker slot writes a snapshot.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "pipetune/ft/fault_injector.hpp"
#include "pipetune/ft/ft_backend.hpp"
#include "pipetune/ft/journal.hpp"
#include "pipetune/ft/recovery.hpp"
#include "pipetune/obs/obs_context.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"

namespace pipetune::ft {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kBaseSeed = 42;

struct TempDir {
    fs::path path;
    TempDir() : path(fs::temp_directory_path() / ("pt_resume_" + std::to_string(::getpid()))) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string file(const std::string& name) const { return (path / name).string(); }
};

// Counts epochs without perturbing anything — used to find out where inside
// the campaign a given epoch index lands.
class EpochCounter final : public workload::EpochObserver {
public:
    void before_epoch(const workload::Workload&, const workload::HyperParams&, std::size_t,
                      const workload::SystemParams&) override {
        ++count_;
    }
    void after_epoch(const workload::Workload&, std::size_t,
                     workload::EpochResult&) override {}
    std::size_t count() const { return count_; }

private:
    std::size_t count_ = 0;
};

ReseedingBackend::Factory sim_factory(workload::EpochObserver* observer) {
    return [observer](std::uint64_t seed) -> std::unique_ptr<workload::Backend> {
        sim::SimBackendConfig config;
        config.seed = seed;
        config.epoch_observer = observer;
        return std::make_unique<sim::SimBackend>(config);
    };
}

hpt::HptJobConfig quick_job(std::uint64_t seed) {
    hpt::HptJobConfig job;
    job.seed = seed;
    return job;
}

const std::vector<std::string>& campaign_workloads() {
    static const std::vector<std::string> names{"lenet-mnist", "cnn-news20"};
    return names;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void expect_same_store(const core::GroundTruth& reference, const core::GroundTruth& resumed) {
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < reference.entries().size(); ++i) {
        const core::GroundTruthEntry& want = reference.entries()[i];
        const core::GroundTruthEntry& got = resumed.entries()[i];
        ASSERT_EQ(got.features.size(), want.features.size()) << "entry " << i;
        for (std::size_t f = 0; f < want.features.size(); ++f)
            EXPECT_DOUBLE_EQ(got.features[f], want.features[f]) << "entry " << i;
        EXPECT_EQ(got.best_system, want.best_system) << "entry " << i;
        EXPECT_DOUBLE_EQ(got.metric, want.metric) << "entry " << i;
    }
}

TEST(ResumeE2E, KillAndResumeEndsWithTheSameGroundTruth) {
    TempDir tmp;

    // --- Reference: the uninterrupted campaign, counting per-job epochs so
    // we can aim the crash at the middle of job 2.
    EpochCounter counter;
    ReseedingBackend reference_backend(sim_factory(&counter), 1);
    sched::ConcurrentPipeTuneService reference(reference_backend, {});
    std::vector<std::size_t> epochs_per_job;
    for (std::size_t i = 0; i < campaign_workloads().size(); ++i) {
        const std::uint64_t job_id = i + 1;
        const std::uint64_t derived = ReseedingBackend::job_seed(kBaseSeed, job_id);
        reference_backend.begin_job(derived);
        const std::size_t before = counter.count();
        core::SubmitOptions options;
        options.backend_seed = derived;
        (void)reference.run(workload::find_workload(campaign_workloads()[i]),
                            quick_job(job_id), options);
        epochs_per_job.push_back(counter.count() - before);
    }
    ASSERT_EQ(reference.jobs_served(), 2u);
    ASSERT_GT(reference.ground_truth_snapshot().size(), 0u);
    ASSERT_GE(epochs_per_job[1], 1u);

    // --- Crashed run: same campaign, journaled, with the "process" dying
    // partway into job 2.
    const std::string journal_path = tmp.file("journal.log");
    FaultInjectorConfig crash_config;
    crash_config.crash_after_epochs =
        epochs_per_job[0] + std::max<std::size_t>(1, epochs_per_job[1] / 2);
    FaultInjector crasher(crash_config);
    ReseedingBackend crashed_backend(sim_factory(&crasher), 1);
    {
        Journal journal(journal_path);
        core::ServiceOptions options;
        options.journal = &journal;
        sched::ConcurrentPipeTuneService crashed(crashed_backend, options);
        for (std::size_t i = 0; i < campaign_workloads().size(); ++i) {
            const std::uint64_t job_id = i + 1;
            const std::uint64_t derived = ReseedingBackend::job_seed(kBaseSeed, job_id);
            crashed_backend.begin_job(derived);
            core::SubmitOptions options_i;
            options_i.backend_seed = derived;
            if (job_id == 2) {
                EXPECT_THROW((void)crashed.run(
                                 workload::find_workload(campaign_workloads()[i]),
                                 quick_job(job_id), options_i),
                             SimulatedCrash);
                break;  // the process is dead; nothing else runs
            }
            (void)crashed.run(workload::find_workload(campaign_workloads()[i]),
                              quick_job(job_id), options_i);
        }
    }

    // --- Recovery: fold the journal, seed a fresh service, re-run pending.
    auto analyzed = Recovery::analyze(journal_path);
    ASSERT_TRUE(analyzed.ok()) << analyzed.error();
    const RecoveryPlan& plan = analyzed.value();
    EXPECT_EQ(plan.completed_count(), 1u);
    EXPECT_EQ(plan.failed_count(), 0u);  // a dead process journals no failure
    const auto pending = plan.pending_jobs();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].job_id, 2u);
    EXPECT_EQ(pending[0].workload, "cnn-news20");

    std::vector<core::GroundTruthEntry> seed_entries;
    for (const RecoveredGtMutation& mutation : plan.ground_truth)
        seed_entries.push_back({mutation.features, mutation.best_system, mutation.metric});

    ReseedingBackend resumed_backend(sim_factory(nullptr), 1);
    Journal extended(journal_path);  // the resumed run extends the journal
    core::ServiceOptions resume_options;
    resume_options.journal = &extended;
    sched::ConcurrentPipeTuneService resumed(resumed_backend, resume_options);
    resumed.seed_ground_truth(seed_entries);
    for (const RecoveredJob& job : pending) {
        core::SubmitOptions options = core::submit_options_from_journal(job.submit);
        options.job_id = job.job_id;  // terminal record must name THIS job
        ASSERT_NE(options.backend_seed, 0u);
        resumed_backend.begin_job(options.backend_seed);
        (void)resumed.run(workload::find_workload(job.workload),
                          core::job_config_from_journal(job.submit), options);
    }

    // The acceptance property: byte-for-byte the same learned state.
    expect_same_store(reference.ground_truth_snapshot(), resumed.ground_truth_snapshot());

    // And resume converged: a second recovery finds nothing to do.
    auto reanalyzed = Recovery::analyze(journal_path);
    ASSERT_TRUE(reanalyzed.ok());
    EXPECT_TRUE(reanalyzed.value().pending_jobs().empty());
    EXPECT_EQ(reanalyzed.value().completed_count(), 2u);
}

// A crash is process death: the state files must keep the state of the last
// completed job, not the crashed job's partial probes (resume would otherwise
// start from state the uninterrupted run never had).
TEST(ResumeE2E, CrashLeavesTheStateFilesAtTheLastCompletedJob) {
    TempDir tmp;
    const auto& lenet = workload::find_workload("lenet-mnist");
    const auto& cnn = workload::find_workload("cnn-news20");
    // The same two jobs uninterrupted, counting each one's epochs.
    EpochCounter counter;
    sim::SimBackend counting({.seed = kBaseSeed, .epoch_observer = &counter});
    std::size_t first_epochs = 0;
    {
        sched::ConcurrentPipeTuneService reference(counting, {});
        (void)reference.run(lenet, quick_job(1));
        first_epochs = counter.count();
        (void)reference.run(cnn, quick_job(2));
    }
    const std::size_t second_epochs = counter.count() - first_epochs;
    ASSERT_GE(second_epochs, 4u);

    const std::string state_dir = tmp.file("state");
    // Job 1 completes; job 2 dies three quarters of the way through.
    FaultInjector crasher({.crash_after_epochs = first_epochs + 3 * second_epochs / 4});
    sim::SimBackend backend({.seed = kBaseSeed, .epoch_observer = &crasher});
    std::string after_first;
    {
        sched::ConcurrentPipeTuneService service(backend, {.state_dir = state_dir});
        (void)service.run(lenet, quick_job(1));
        after_first = slurp(service.ground_truth_path());
        const std::size_t size_after_first = service.ground_truth_snapshot().size();
        EXPECT_THROW((void)service.run(cnn, quick_job(2)), SimulatedCrash);
        // The crashed job did learn something in memory before it died ...
        ASSERT_GT(service.ground_truth_snapshot().size(), size_after_first);
        service.persist();  // ... but a dead process writes nothing,
    }                       // and neither does the shutdown.
    EXPECT_EQ(slurp(state_dir + "/ground_truth.json"), after_first);
}

TEST(ResumeE2E, FaultInjectedCampaignCompletesViaRetries) {
    TempDir tmp;
    obs::ObsContext obs;
    // ~10% of epochs fail before running; the retry wrapper must absorb all
    // of them without any job failing.
    FaultInjector injector({.epoch_failure_rate = 0.1, .seed = 123, .obs = &obs});
    sim::SimBackend sim({.seed = 9, .epoch_observer = &injector});
    FaultTolerantBackend backend(sim, {.retry = {.max_retries = 10}, .obs = &obs});

    Journal journal(tmp.file("journal.log"));
    core::ServiceOptions options;
    options.obs = &obs;
    options.journal = &journal;
    sched::ConcurrentPipeTuneService service(backend, options);

    const std::vector<std::string> jobs{"lenet-mnist", "jacobi-rodinia", "bfs-rodinia"};
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_NO_THROW((void)service.run(workload::find_workload(jobs[i]),
                                          quick_job(i + 1)));
    EXPECT_EQ(service.jobs_served(), jobs.size());

    ASSERT_GT(injector.injected_epoch_failures(), 0u);
    EXPECT_EQ(backend.retries_total(), injector.injected_epoch_failures());
    EXPECT_EQ(backend.gave_up_total(), 0u);
    EXPECT_GT(backend.recoveries_total(), 0u);

    // The counters an operator scrapes via --metrics-out tell the same story.
    EXPECT_DOUBLE_EQ(obs.metrics().counter("pipetune_ft_retries_total").value(),
                     static_cast<double>(injector.injected_epoch_failures()));
    EXPECT_DOUBLE_EQ(obs.metrics().counter("pipetune_ft_injected_epoch_failures_total").value(),
                     static_cast<double>(injector.injected_epoch_failures()));
    const std::string metrics_path = tmp.file("metrics.prom");
    obs.write_prometheus(metrics_path);
    std::ifstream in(metrics_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string snapshot = buf.str();
    EXPECT_NE(snapshot.find("pipetune_ft_retries_total"), std::string::npos);
    EXPECT_NE(snapshot.find("pipetune_ft_recoveries_total"), std::string::npos);

    // The journal agrees: every job reached job_completed.
    auto plan = Recovery::analyze(journal.path());
    ASSERT_TRUE(plan.ok()) << plan.error();
    EXPECT_EQ(plan.value().completed_count(), jobs.size());
    EXPECT_TRUE(plan.value().pending_jobs().empty());
}

// ---------------------------------------------- state dir = snapshot + tail

hpt::HptJobConfig small_job(std::uint64_t seed) {
    hpt::HptJobConfig job;
    job.seed = seed;
    job.hyperband_resource = 3;
    return job;
}

const std::vector<std::string>& three_jobs() {
    static const std::vector<std::string> names{"lenet-mnist", "cnn-news20", "jacobi-rodinia"};
    return names;
}

/// What the crashed run does between jobs.
struct CrashPlan {
    std::size_t crash_after_epochs = 0;  ///< 0 = no crash
    bool snapshot_after_job1 = false;    ///< persist() once job 1 completes
    bool tear_after_job2 = false;        ///< persist() after job 2, then put
                                         ///< job 1's manifest back
};

/// Run the campaign with `state_dir` and a journal in it until the planned
/// crash. Returns the epochs each completed job ran.
std::vector<std::size_t> run_until_crash(const std::string& state_dir, const CrashPlan& plan,
                                         std::size_t job_count) {
    EpochCounter counter;
    FaultInjector crasher({.crash_after_epochs = plan.crash_after_epochs});
    workload::EpochObserver* observer =
        plan.crash_after_epochs > 0 ? static_cast<workload::EpochObserver*>(&crasher) : &counter;
    ReseedingBackend backend(sim_factory(observer), 1);
    Journal journal(state_dir + "/journal.log");
    core::ServiceOptions options;
    options.state_dir = state_dir;
    options.journal = &journal;
    sched::ConcurrentPipeTuneService service(backend, options);
    std::vector<std::size_t> epochs;
    std::string job1_manifest;
    for (std::size_t i = 0; i < job_count; ++i) {
        const std::uint64_t job_id = i + 1;
        const std::uint64_t derived = ReseedingBackend::job_seed(kBaseSeed, job_id);
        backend.begin_job(derived);
        core::SubmitOptions submit;
        submit.backend_seed = derived;
        const std::size_t before = counter.count();
        try {
            (void)service.run(workload::find_workload(three_jobs()[i]), small_job(job_id),
                              submit);
        } catch (const SimulatedCrash&) {
            break;  // the process is dead; nothing else runs
        }
        epochs.push_back(counter.count() - before);
        if (job_id == 1 && (plan.snapshot_after_job1 || plan.tear_after_job2)) {
            service.persist();
            job1_manifest = slurp(state_dir + "/snapshot.json");
        }
        if (job_id == 2 && plan.tear_after_job2) {
            service.persist();
            // A crash between the snapshot's files: ground_truth.json is
            // newer than the manifest that describes its prefix.
            std::ofstream(state_dir + "/snapshot.json", std::ios::trunc) << job1_manifest;
        }
    }
    return epochs;
}

/// The library resume flow, into the crashed run's own state dir; then the
/// campaign's jobs the crash kept from being submitted.
void resume_into(const std::string& state_dir, std::size_t job_count) {
    const std::string journal_path = state_dir + "/journal.log";
    auto analyzed = Recovery::analyze(journal_path);
    ASSERT_TRUE(analyzed.ok()) << analyzed.error();
    std::vector<core::GroundTruthEntry> seed_entries;
    for (const RecoveredGtMutation& mutation : analyzed.value().ground_truth)
        seed_entries.push_back({mutation.features, mutation.best_system, mutation.metric});
    ReseedingBackend backend(sim_factory(nullptr), 1);
    Journal journal(journal_path);
    core::ServiceOptions options;
    options.state_dir = state_dir;
    options.journal = &journal;
    sched::ConcurrentPipeTuneService service(backend, options);
    service.seed_ground_truth(seed_entries);
    for (const RecoveredJob& job : analyzed.value().pending_jobs()) {
        core::SubmitOptions submit = core::submit_options_from_journal(job.submit);
        submit.job_id = job.job_id;
        backend.begin_job(submit.backend_seed);
        (void)service.run(core::workload_from_journal(job.submit),
                          core::job_config_from_journal(job.submit), submit);
    }
    std::uint64_t next_job = 1;
    for (const RecoveredJob& job : analyzed.value().jobs)
        next_job = std::max(next_job, job.job_id + 1);
    for (std::uint64_t job_id = next_job; job_id <= job_count; ++job_id) {
        core::SubmitOptions submit;
        submit.job_id = job_id;
        submit.backend_seed = ReseedingBackend::job_seed(kBaseSeed, job_id);
        backend.begin_job(submit.backend_seed);
        (void)service.run(workload::find_workload(three_jobs()[job_id - 1]),
                          small_job(job_id), submit);
    }
}

/// ground_truth.json of the uninterrupted campaign, and its epochs per job.
std::string reference_store(const TempDir& tmp, std::size_t job_count,
                            std::vector<std::size_t>* epochs = nullptr) {
    const std::string dir = tmp.file("reference");
    const auto ran = run_until_crash(dir, {}, job_count);
    if (epochs != nullptr) *epochs = ran;
    return slurp(dir + "/ground_truth.json");
}

TEST(ResumeE2E, ResumeIntoTheSameStateDirMatchesTheUninterruptedStore) {
    TempDir tmp;
    std::vector<std::size_t> epochs;
    const std::string want = reference_store(tmp, 2, &epochs);
    ASSERT_EQ(epochs.size(), 2u);
    ASSERT_FALSE(want.empty());

    // Job 1 completes (and its state is on disk); job 2 dies halfway.
    const std::string dir = tmp.file("crashed");
    run_until_crash(dir,
                    {.crash_after_epochs = epochs[0] + std::max<std::size_t>(1, epochs[1] / 2),
                     .snapshot_after_job1 = true},
                    2);
    resume_into(dir, 2);
    // Job 1's entries once, not once from the state dir and again from the
    // journal.
    EXPECT_EQ(slurp(dir + "/ground_truth.json"), want);
}

// ROADMAP item 7's crash sweep, on one worker: crash at every epoch of a
// three-job campaign, resume into the same state dir, and compare the store.
TEST(ResumeE2E, CrashAtEveryEpochThenResumeMatchesTheUninterruptedStore) {
    TempDir tmp;
    std::vector<std::size_t> epochs;
    const std::string want = reference_store(tmp, three_jobs().size(), &epochs);
    ASSERT_EQ(epochs.size(), three_jobs().size());
    ASSERT_GE(util::Json::parse(want).at("entries").size(), three_jobs().size());
    const std::size_t total = epochs[0] + epochs[1] + epochs[2];
    for (std::size_t k = 1; k <= total; ++k) {
        SCOPED_TRACE("crash after epoch " + std::to_string(k));
        const std::string dir = tmp.file("crash" + std::to_string(k));
        // Snapshot after job 1, so later crashes load a manifest prefix and
        // replay job 2 from the journal's tail.
        run_until_crash(dir, {.crash_after_epochs = k, .snapshot_after_job1 = true},
                        three_jobs().size());
        resume_into(dir, three_jobs().size());
        ASSERT_EQ(slurp(dir + "/ground_truth.json"), want);
        std::filesystem::remove_all(dir);
    }
}

TEST(ResumeE2E, TornSnapshotThenResumeMatchesTheUninterruptedStore) {
    TempDir tmp;
    std::vector<std::size_t> epochs;
    const std::string want = reference_store(tmp, three_jobs().size(), &epochs);
    ASSERT_EQ(epochs.size(), three_jobs().size());
    const std::string dir = tmp.file("torn");
    run_until_crash(dir,
                    {.crash_after_epochs = epochs[0] + epochs[1] + epochs[2] / 2,
                     .tear_after_job2 = true},
                    three_jobs().size());
    // The manifest claims fewer entries than the file holds.
    const util::Json manifest = util::Json::load_file(dir + "/snapshot.json");
    const util::Json truth = util::Json::load_file(dir + "/ground_truth.json");
    ASSERT_LT(manifest.get_number("ground_truth_entries", 0.0),
              static_cast<double>(truth.at("entries").size()));
    resume_into(dir, three_jobs().size());
    EXPECT_EQ(slurp(dir + "/ground_truth.json"), want);
}

/// Run jobs [first, last) of the three-job campaign into `state_dir`, with
/// the journal at `journal_path` (none when empty), and crash after
/// `crash_after_epochs` epochs of this run (0 = never).
void run_jobs(const std::string& state_dir, const std::string& journal_path, std::size_t first,
              std::size_t last, std::size_t crash_after_epochs = 0) {
    FaultInjector crasher({.crash_after_epochs = crash_after_epochs});
    ReseedingBackend backend(sim_factory(crash_after_epochs > 0 ? &crasher : nullptr), 1);
    std::unique_ptr<Journal> journal;
    if (!journal_path.empty()) journal = std::make_unique<Journal>(journal_path);
    core::ServiceOptions options;
    options.state_dir = state_dir;
    options.journal = journal.get();
    sched::ConcurrentPipeTuneService service(backend, options);
    for (std::size_t i = first; i < last; ++i) {
        core::SubmitOptions submit;
        submit.job_id = i + 1;
        submit.backend_seed = ReseedingBackend::job_seed(kBaseSeed, submit.job_id);
        backend.begin_job(submit.backend_seed);
        try {
            (void)service.run(workload::find_workload(three_jobs()[i]), small_job(i + 1),
                              submit);
        } catch (const SimulatedCrash&) {
            return;
        }
    }
}

// A run without a journal between two runs with one keeps the manifest in
// step: the last run neither drops the middle run's entries nor replays the
// first run's job again.
TEST(ResumeE2E, JournalThenNoJournalThenJournalKeepsEveryEntryOnce) {
    TempDir tmp;
    const std::string want = reference_store(tmp, three_jobs().size());
    const std::string dir = tmp.file("mixed");
    const std::string journal = tmp.file("mixed.log");
    run_jobs(dir, journal, 0, 1);
    run_jobs(dir, "", 1, 2);
    run_jobs(dir, journal, 2, 3);
    EXPECT_EQ(slurp(dir + "/ground_truth.json"), want);
}

// A fresh journal over a manifest another journal left: the manifest's seq
// names a record the new journal does not have, so none of the new
// journal's completed jobs counts as already in the snapshot. Job 2
// completes, job 3 dies before any snapshot, and the resume must still hold
// job 2's entries.
TEST(ResumeE2E, NewJournalOverAnOldManifestReplaysItsWholeTail) {
    TempDir tmp;
    std::vector<std::size_t> epochs;
    const std::string want = reference_store(tmp, three_jobs().size(), &epochs);
    ASSERT_EQ(epochs.size(), three_jobs().size());
    const std::string dir = tmp.file("reused");
    run_jobs(dir, tmp.file("old.log"), 0, 1);
    ASSERT_TRUE(fs::exists(dir + "/snapshot.json"));
    fs::remove(tmp.file("old.log"));
    run_jobs(dir, dir + "/journal.log", 1, 3, epochs[1] + 1);
    resume_into(dir, three_jobs().size());
    EXPECT_EQ(slurp(dir + "/ground_truth.json"), want);
}

// ground_truth.json replaced behind the manifest's back (what `pipetune
// warm-start --state-dir` does): the manifest no longer describes the file,
// so all of it is prefix and every completed job of the journal is tail.
TEST(ResumeE2E, ReplacedGroundTruthFileIsReadWholeWithTheJournalTail) {
    TempDir tmp;
    const std::string want = reference_store(tmp, three_jobs().size());
    const std::string dir = tmp.file("replaced");
    const std::string journal = tmp.file("replaced.log");
    run_jobs(dir, journal, 0, 1);
    const util::Json manifest = util::Json::load_file(dir + "/snapshot.json");
    ASSERT_GE(manifest.get_number("ground_truth_entries", 0.0), 1.0);
    const core::GroundTruthEntry stranger =
        core::GroundTruth::from_json(util::Json::parse(want)).entries().back();
    core::GroundTruth replacement;
    replacement.record(stranger.features, stranger.best_system, stranger.metric);
    replacement.save(dir + "/ground_truth.json");

    auto plan = Recovery::analyze(journal);
    ASSERT_TRUE(plan.ok()) << plan.error();
    ASSERT_FALSE(plan.value().ground_truth.empty());
    {
        sim::SimBackend backend({.seed = kBaseSeed});
        Journal reopened(journal);
        core::ServiceOptions options;
        options.state_dir = dir;
        options.journal = &reopened;
        sched::ConcurrentPipeTuneService service(backend, options);
        EXPECT_EQ(service.ground_truth_snapshot().size(), 1 + plan.value().ground_truth.size());
    }
    const auto entries = core::GroundTruth::load(dir + "/ground_truth.json").entries();
    ASSERT_EQ(entries.size(), 1 + plan.value().ground_truth.size());
    EXPECT_EQ(entries.front(), stranger);
    for (std::size_t i = 0; i < plan.value().ground_truth.size(); ++i)
        EXPECT_EQ(entries[i + 1].features, plan.value().ground_truth[i].features) << i;
}

// Without a journal the snapshot is the job's durability: when it cannot be
// written, the job fails instead of reporting a success the files lack.
TEST(ResumeE2E, WithoutAJournalAFailedSnapshotFailsTheJob) {
    TempDir tmp;
    const std::string dir = tmp.file("blocked");
    sim::SimBackend backend({.seed = kBaseSeed});
    sched::ConcurrentPipeTuneService service(backend, {.state_dir = dir});
    // A directory where the snapshot's file goes: the rename onto it fails.
    fs::create_directories(dir + "/ground_truth.json/occupied");
    EXPECT_THROW((void)service.run(workload::find_workload("lenet-mnist"), small_job(1)),
                 std::runtime_error);
    fs::remove_all(dir + "/ground_truth.json");
    EXPECT_NO_THROW((void)service.run(workload::find_workload("lenet-mnist"), small_job(2)));
    EXPECT_TRUE(fs::is_regular_file(dir + "/ground_truth.json"));
}

// A service reopened on its state dir must decide exactly as the live one
// would have: the reloaded store's model is fitted where record() last refit,
// not on every loaded entry. Restart at every job boundary of an 8-job
// campaign and compare the final store with the uninterrupted one.
TEST(ResumeE2E, RestartAtEveryJobBoundaryDecidesAsTheLiveStore) {
    TempDir tmp;
    constexpr std::size_t kJobs = 8;
    auto run_jobs = [](const std::string& dir, std::size_t from, std::size_t to) {
        ReseedingBackend backend(sim_factory(nullptr), 1);
        sched::ConcurrentPipeTuneService service(backend, {.state_dir = dir});
        for (std::size_t i = from; i < to; ++i) {
            backend.begin_job(ReseedingBackend::job_seed(kBaseSeed, i + 1));
            const auto& catalogue = workload::catalogue();
            (void)service.run(catalogue[i % catalogue.size()], quick_job(i + 1));
        }
    };
    run_jobs(tmp.file("reference"), 0, kJobs);
    const std::string want = slurp(tmp.file("reference") + "/ground_truth.json");
    ASSERT_GT(util::Json::parse(want).at("entries").size(), 4u);
    for (std::size_t split = 1; split < kJobs; ++split) {
        SCOPED_TRACE("restart after job " + std::to_string(split));
        const std::string dir = tmp.file("split" + std::to_string(split));
        run_jobs(dir, 0, split);
        run_jobs(dir, split, kJobs);
        ASSERT_EQ(slurp(dir + "/ground_truth.json"), want);
    }
}

// Every manifest a reader can see claims a seq the journal has already made
// durable, and its prefix holds exactly the jobs completed up to that seq.
TEST(ResumeE2E, SnapshotManifestClaimsOnlyDurableCompletedJobs) {
    TempDir tmp;
    const std::string dir = tmp.file("state");
    sim::SimBackend backend({.seed = kBaseSeed});
    Journal journal(dir + "/journal.log");
    struct Seen {
        std::uint64_t seq = 0;
        std::size_t entries = 0;
        util::Json truth;
    };
    std::vector<Seen> seen;
    std::atomic<bool> done{false};
    std::atomic<int> undurable{0};
    {
        core::ServiceOptions options;
        options.state_dir = dir;
        options.journal = &journal;
        options.concurrency = 2;
        sched::ConcurrentPipeTuneService service(backend, options);
        std::thread reader([&] {
            std::string last;
            while (!done.load()) {
                const std::string text = slurp(dir + "/snapshot.json");
                if (!text.empty() && text != last) {
                    last = text;
                    auto manifest = util::Json::try_parse(text);
                    if (manifest) {
                        Seen s;
                        s.seq = static_cast<std::uint64_t>(
                            manifest.value().get_number("journal_seq", 0.0));
                        s.entries = static_cast<std::size_t>(
                            manifest.value().get_number("ground_truth_entries", 0.0));
                        if (journal.durable_seq() < s.seq) ++undurable;
                        // Read after the manifest, so at least as new.
                        auto truth = util::Json::try_load_file(dir + "/ground_truth.json");
                        if (truth) {
                            s.truth = truth.value();
                            seen.push_back(std::move(s));
                        }
                    }
                }
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        });
        std::vector<core::TuningService::Submission> jobs;
        for (std::uint64_t i = 0; i < 12; ++i) {
            auto submitted = service.submit(
                workload::find_workload(campaign_workloads()[i % 2]), quick_job(i + 1));
            ASSERT_TRUE(submitted.has_value());
            jobs.push_back(std::move(*submitted));
        }
        for (auto& job : jobs) (void)job.result.get();
        service.persist();
        done.store(true);
        reader.join();
    }
    EXPECT_EQ(undurable.load(), 0);
    ASSERT_FALSE(seen.empty());

    auto plan = Recovery::analyze(journal.path());
    ASSERT_TRUE(plan.ok()) << plan.error();
    for (const Seen& s : seen) {
        SCOPED_TRACE("manifest seq " + std::to_string(s.seq));
        std::vector<const RecoveredGtMutation*> covered;
        for (const RecoveredGtMutation& mutation : plan.value().ground_truth)
            if (mutation.completed_seq <= s.seq) covered.push_back(&mutation);
        ASSERT_EQ(s.entries, covered.size());
        const auto& entries = s.truth.at("entries").as_array();
        ASSERT_GE(entries.size(), s.entries);
        for (std::size_t i = 0; i < s.entries; ++i)
            EXPECT_EQ(entries[i].at("features").as_double_vector(), covered[i]->features);
    }
}

// Snapshots are written on the compactor thread (or by an explicit
// persist()), never on a worker slot — with a journal and without one.
TEST(ResumeE2E, NoWorkerSlotWritesASnapshot) {
    for (const bool journaled : {true, false}) {
        SCOPED_TRACE(journaled ? "with a journal" : "without a journal");
        TempDir tmp;
        const std::string dir = tmp.file("state");
        obs::ObsContext obs;
        sim::SimBackend backend({.seed = kBaseSeed});
        std::unique_ptr<Journal> journal;
        if (journaled) journal = std::make_unique<Journal>(tmp.file("journal.log"));
        {
            core::ServiceOptions options;
            options.state_dir = dir;
            options.journal = journal.get();
            options.concurrency = 2;
            options.obs = &obs;
            sched::ConcurrentPipeTuneService service(backend, options);
            std::vector<core::TuningService::Submission> jobs;
            for (std::uint64_t i = 0; i < 8; ++i) {
                auto submitted = service.submit(
                    workload::find_workload(campaign_workloads()[i % 2]), quick_job(i + 1));
                ASSERT_TRUE(submitted.has_value());
                jobs.push_back(std::move(*submitted));
            }
            for (auto& job : jobs) (void)job.result.get();
        }
        std::set<std::uint32_t> worker_threads;
        std::size_t snapshots = 0;
        const auto spans = obs.tracer().completed();
        for (const auto& span : spans)
            if (span.name == "job") worker_threads.insert(span.thread);
        ASSERT_FALSE(worker_threads.empty());
        for (const auto& span : spans) {
            if (span.name != "snapshot") continue;
            ++snapshots;
            EXPECT_EQ(worker_threads.count(span.thread), 0u);
        }
        EXPECT_GE(snapshots, 1u);
        if (journaled) {
            // The 8 jobs' 16 lifecycle records took at most 16 fsyncs.
            const auto fsyncs =
                obs.metrics().counter("pipetune_ft_journal_fsyncs_total").value();
            EXPECT_GE(fsyncs, 1u);
            EXPECT_LE(fsyncs, 16u);
        }
    }
}

}  // namespace
}  // namespace pipetune::ft
