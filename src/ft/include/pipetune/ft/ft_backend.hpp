#pragma once
// Backend decorators of the fault-tolerance layer. All three wrap any
// workload::Backend (sim or real) behind the same interface, so they compose
// with each other and slot under every tuner unchanged:
//
//   FaultTolerantBackend — epoch-level retry: catches ft::TransientFailure
//       from run_epoch, retries per RetryPolicy, charges the backoff into the
//       epoch's duration (virtual time) or sleeps it (wall time). A
//       SimulatedCrash is NOT transient and always propagates.
//   ReseedingBackend — rebuilds its inner backend from a factory per job
//       (begin_job(seed)), giving each job an id-derived trial-seed stream.
//       This is what makes a resumed run bit-equal to an uninterrupted one:
//       without it, jobs draw trial seeds from one shared cursor and a
//       skipped (already-completed) job would shift every later job's draws.
//   ResumableBackend — trial checkpoint/resume over a CheckpointStore: each
//       session snapshots its completed epochs after every epoch; a restarted
//       process replays the snapshot (recorded results, no recompute) and
//       lazily catches the inner session up before the first live epoch.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "pipetune/ft/checkpoint.hpp"
#include "pipetune/ft/errors.hpp"
#include "pipetune/ft/retry_policy.hpp"
#include "pipetune/obs/obs_context.hpp"
#include "pipetune/util/rng.hpp"
#include "pipetune/workload/types.hpp"

namespace pipetune::ft {

struct FaultTolerantBackendConfig {
    RetryPolicy retry{};
    /// true (default): add each backoff to the retried epoch's duration_s —
    /// the virtual-time convention every bench uses. false: actually sleep.
    bool charge_backoff_to_duration = true;
    std::uint64_t seed = 7;  ///< jitter stream
    /// Telemetry (pipetune_ft_retries/recoveries/gave_up_total). Not owned.
    obs::ObsContext* obs = nullptr;
};

class FaultTolerantBackend final : public workload::Backend {
public:
    FaultTolerantBackend(workload::Backend& inner, FaultTolerantBackendConfig config = {});

    std::unique_ptr<workload::TrialSession> start_trial(
        const workload::Workload& workload, const workload::HyperParams& hyper) override;
    std::string name() const override { return "ft(" + inner_.name() + ")"; }

    /// TransientFailures caught and retried.
    std::uint64_t retries_total() const { return retries_.load(); }
    /// Epochs that succeeded after at least one retry.
    std::uint64_t recoveries_total() const { return recoveries_.load(); }
    /// Epochs whose retry budget was exhausted (failure rethrown).
    std::uint64_t gave_up_total() const { return gave_up_.load(); }

private:
    friend class FaultTolerantSession;

    workload::Backend& inner_;
    FaultTolerantBackendConfig config_;
    std::atomic<std::uint64_t> retries_{0};
    std::atomic<std::uint64_t> recoveries_{0};
    std::atomic<std::uint64_t> gave_up_{0};
    std::atomic<std::uint64_t> session_seq_{0};
    obs::Counter* obs_retries_ = nullptr;
    obs::Counter* obs_recoveries_ = nullptr;
    obs::Counter* obs_gave_up_ = nullptr;
};

class ReseedingBackend final : public workload::Backend {
public:
    /// The factory builds a fresh inner backend for a given seed; begin_job
    /// tears the previous one down and installs the new one. Trials started
    /// before a begin_job stay valid only as long as their backend — callers
    /// (one-slot services, the CLI drivers) begin a job, run it to completion,
    /// then begin the next.
    using Factory = std::function<std::unique_ptr<workload::Backend>(std::uint64_t seed)>;

    explicit ReseedingBackend(Factory factory, std::uint64_t initial_seed = 1);

    /// Deterministic per-job seed derivation (splitmix of base ^ job id) —
    /// one definition so the reference run and the resumed run agree.
    static std::uint64_t job_seed(std::uint64_t base_seed, std::uint64_t job_id);

    void begin_job(std::uint64_t seed);
    std::uint64_t current_seed() const { return current_seed_; }

    std::unique_ptr<workload::TrialSession> start_trial(
        const workload::Workload& workload, const workload::HyperParams& hyper) override;
    std::string name() const override { return "reseeding(" + inner_->name() + ")"; }

private:
    Factory factory_;
    std::unique_ptr<workload::Backend> inner_;
    std::uint64_t current_seed_ = 0;
};

class ResumableBackend final : public workload::Backend {
public:
    /// Sessions are keyed (job_id, trial_id) with trial ids assigned in
    /// start_trial order — deterministic for a serial tuner, so the resumed
    /// process hands the same trial the same snapshot. Call begin_job when
    /// the owning job changes.
    ResumableBackend(workload::Backend& inner, CheckpointStore& store,
                     std::uint64_t job_id = 0);

    void begin_job(std::uint64_t job_id);
    std::uint64_t checkpoints_saved() const { return saves_.load(); }
    std::uint64_t epochs_replayed() const { return replays_.load(); }

    std::unique_ptr<workload::TrialSession> start_trial(
        const workload::Workload& workload, const workload::HyperParams& hyper) override;
    std::string name() const override { return "resumable(" + inner_.name() + ")"; }

private:
    friend class ResumableSession;

    workload::Backend& inner_;
    CheckpointStore& store_;
    std::uint64_t job_id_ = 0;
    std::uint64_t next_trial_id_ = 0;
    std::atomic<std::uint64_t> saves_{0};
    std::atomic<std::uint64_t> replays_{0};
};

}  // namespace pipetune::ft
