// End-to-end acceptance tests for pipetune::ft (DESIGN.md §10):
//
//   1. kill-and-resume equivalence — a campaign killed mid-job and resumed
//      from its journal ends with the same ground-truth store as the same
//      campaign run uninterrupted;
//   2. fault-injected completion — with ~10% of epochs failing, every job
//      still completes via bounded retries, and the retry counters in the
//      obs registry account for every injected fault.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

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

}  // namespace
}  // namespace pipetune::ft
