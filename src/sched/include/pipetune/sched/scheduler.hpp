#pragma once
// ClusterScheduler: dispatches queued jobs onto a pool of N worker slots —
// the real-concurrency counterpart of cluster::FifoClusterSim's virtual-time
// model (§7.4). Jobs are admitted through a bounded priority queue
// (backpressure per SchedulerConfig::overflow) and executed on
// util::ThreadPool workers; the scheduler tracks each job's lifecycle and
// wall-clock timings so a finished trace feeds the same
// cluster::summarize_trace as the simulator.
//
// Lifecycle:
//
//   submit ── kQueued ──(worker picks up)── kRunning ──┬── kCompleted
//      │          │                                    ├── kFailed (threw)
//      │          ├── cancel() ───────── kCancelled    └── kCancelled (*)
//      │          └── deadline passes ── kTimedOut
//      └── queue full (kReject) ── no ticket, nothing recorded
//
//   (*) cancellation of a RUNNING job is cooperative: the job's JobContext
//   flag flips, and if the function returns while the flag is set the job is
//   accounted kCancelled. Worker threads are never killed.
//
// Deadlines bound *queueing*: a job whose deadline passes before a worker
// picks it up is discarded as kTimedOut without running. Running jobs can
// poll JobContext::deadline_expired() to stop cooperatively.
//
// Concurrency architecture (DESIGN.md §12). The hot path is lock-light:
//  - dispatch runs through a Vyukov MPMC ring per priority class (plus a
//    small mutex-protected retry lane per class for requeued jobs);
//  - job records live in a sharded hash table — each shard has its own
//    mutex, so per-job state transitions never contend globally;
//  - queued jobs are retired by a claim CAS (worker vs canceller race is a
//    single compare-exchange; the loser walks away);
//  - counters are plain atomics; queue-depth/running gauges are flushed in
//    batches; waiter condition variables are only signalled when a waiter
//    has registered (Dekker-paired atomic waiter counts).

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pipetune/cluster/cluster_sim.hpp"
#include "pipetune/ft/retry_policy.hpp"
#include "pipetune/obs/obs_context.hpp"
#include "pipetune/util/thread_pool.hpp"

namespace pipetune::sched {

/// Scheduling classes, highest urgency first. Each class is FIFO; a worker
/// always serves the highest non-empty class, so an interactive request
/// overtakes queued batch work without starving it.
enum class Priority { kHigh = 0, kNormal = 1, kBatch = 2 };
inline constexpr std::size_t kPriorityClasses = 3;

const char* to_string(Priority priority);

/// What submit() does when the queue is full: shed the job (admission
/// control at the edge) or park the submitting thread until a slot frees
/// (producer throttling).
enum class OverflowPolicy { kReject, kBlock };

/// Handle returned on admission; ids are unique per scheduler, never reused.
struct JobTicket {
    std::uint64_t id = 0;
};

enum class JobState { kQueued, kRunning, kCompleted, kFailed, kCancelled, kTimedOut };

const char* to_string(JobState state);
bool is_terminal(JobState state);

class ClusterScheduler;

/// Handed to the running job for cooperative cancellation/deadline checks.
class JobContext {
public:
    std::uint64_t id() const { return id_; }
    bool cancel_requested() const { return cancel_->load(std::memory_order_relaxed); }
    /// True once the job's deadline (if any) has passed.
    bool deadline_expired() const;

private:
    friend class ClusterScheduler;
    JobContext(const ClusterScheduler& scheduler, std::uint64_t id,
               const std::atomic<bool>* cancel, double deadline_s)
        : scheduler_(scheduler), id_(id), cancel_(cancel), deadline_s_(deadline_s) {}

    const ClusterScheduler& scheduler_;
    std::uint64_t id_;
    const std::atomic<bool>* cancel_;
    double deadline_s_;  ///< absolute, scheduler clock; <= 0 means none
};

struct JobOptions {
    /// Force the job id (0 = assign the next one). A forced id advances the
    /// id counter past itself, so later auto ids never collide with it; an id
    /// the scheduler already holds makes submit() throw std::invalid_argument
    /// with nothing recorded. The resume path uses this to re-run a journaled
    /// job under its original id.
    std::uint64_t id = 0;
    Priority priority = Priority::kNormal;
    std::string label{};     ///< e.g. workload name; lands in the trace
    double deadline_s = 0.0; ///< budget from submit; 0 = none
};

struct JobInfo {
    std::uint64_t id = 0;
    std::string label;
    Priority priority = Priority::kNormal;
    JobState state = JobState::kQueued;
    double submit_s = 0.0;   ///< scheduler-clock seconds
    double start_s = -1.0;   ///< -1 while never started
    double finish_s = -1.0;  ///< -1 while not terminal (or discarded unstarted)
    double deadline_s = 0.0; ///< absolute; 0 = none
    std::string error;       ///< exception message when kFailed
    std::size_t attempts = 0; ///< times a worker started running the job
};

struct SchedulerConfig {
    std::size_t worker_slots = 4;  ///< concurrently running jobs (cluster nodes)
    std::size_t queue_capacity = 64;
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// Job-level retry (DESIGN.md §10): a job whose function throws an
    /// ft::TransientFailure is requeued at the front of its priority class —
    /// same id, original priority/deadline/submit time — after the policy's
    /// backoff (slept on the failing worker, so the backoff also acts as
    /// load-shedding). max_retries = 0 (default) keeps the old fail-fast
    /// behaviour. Non-transient failures are always terminal.
    ft::RetryPolicy retry{.max_retries = 0};
    /// Telemetry (queue-depth/running gauges, lifecycle counters, queue-wait
    /// histogram, one "job" span per executed job). Not owned; may be null.
    obs::ObsContext* obs = nullptr;
};

struct SchedulerStats {
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::size_t timed_out = 0;
    std::size_t running = 0;
    std::size_t queued = 0;
    std::size_t max_queue_depth = 0;
    std::size_t requeued = 0;  ///< retry requeues after a transient failure
};

namespace detail {

/// Claim states for the queued→{running,cancelled} race. A queued job is
/// retired by exactly one party: the worker that pops it (kClaimWorker) or a
/// canceller (kClaimCancel) — decided by one compare-exchange on `claimed`.
/// The loser leaves the job alone; a worker popping an already-cancelled
/// entry just skips the stale queue slot. A retried job is republished by
/// storing kClaimNone again before it re-enters the queue.
inline constexpr std::uint8_t kClaimNone = 0;
inline constexpr std::uint8_t kClaimWorker = 1;
inline constexpr std::uint8_t kClaimCancel = 2;

/// One job record, allocated once per submit and stable for the scheduler's
/// lifetime (queues and JobContext hold raw pointers into it). `info` is
/// guarded by the owning shard's mutex; `cancel`/`claimed` are lock-free;
/// `fn` is owned by whoever holds the claim.
struct Job {
    JobInfo info;
    std::atomic<bool> cancel{false};
    std::atomic<std::uint8_t> claimed{kClaimNone};
    std::function<void(JobContext&)> fn;
    std::function<void(const JobInfo&, std::exception_ptr)> on_done;
};

/// The dispatch queue (MPMC ring per priority class plus a retry lane;
/// defined in scheduler.cpp). pop() returns jobs already claimed for the
/// calling worker.
class DispatchQueue;

}  // namespace detail

class ClusterScheduler {
public:
    using JobFn = std::function<void(JobContext&)>;
    /// Invoked exactly once per admitted job, after its terminal transition
    /// is published (finish_s stamped; state(), jobs(), stats() and wait()
    /// all see it) and outside every scheduler lock, on the thread that made
    /// the transition: a worker (completed, failed, cancelled while running,
    /// or cancelled/timed out when popped) or the caller of cancel() /
    /// discard_queued(). The exception_ptr is the job's original exception
    /// when it failed terminally — retries exhausted or non-transient — and
    /// null otherwise. Retried attempts do not fire it; a submit that
    /// returns nullopt never does.
    using DoneFn = std::function<void(const JobInfo&, std::exception_ptr)>;

    explicit ClusterScheduler(SchedulerConfig config = {});
    ~ClusterScheduler();  // drains the queue, then joins the workers
    ClusterScheduler(const ClusterScheduler&) = delete;
    ClusterScheduler& operator=(const ClusterScheduler&) = delete;

    /// Admit a job. Returns nullopt when the queue rejected it (kReject and
    /// full, or scheduler already shut down). Throws std::invalid_argument for
    /// an empty job or a forced JobOptions::id the scheduler already holds.
    std::optional<JobTicket> submit(JobFn fn, JobOptions options = {}, DoneFn on_done = {});

    JobState state(std::uint64_t id) const;
    std::optional<JobInfo> info(std::uint64_t id) const;
    /// Every job ever submitted, in id order.
    std::vector<JobInfo> jobs() const;

    /// Cancel a job: a queued job is discarded immediately (true); a running
    /// job gets its cooperative flag set (true). Terminal/unknown: false.
    bool cancel(std::uint64_t id);

    /// Discard every job still waiting in the queue (each retires as
    /// kCancelled through its DoneFn). Running jobs are NOT flagged —
    /// unlike shutdown(false), which cancels them cooperatively — so this is
    /// the graceful-drain primitive: callers discard the queue, then drain()
    /// to let the running remainder finish cleanly. Returns the drop count.
    std::size_t discard_queued();

    /// Wait until `id` reaches a terminal state. Negative timeout = forever.
    /// Returns false on timeout or unknown id.
    bool wait(std::uint64_t id, double timeout_s = -1.0);
    /// Wait until every submitted job is terminal (does not close the queue).
    void drain();
    /// Drain (optionally discarding still-queued jobs) and join the workers.
    /// Idempotent; submit() afterwards returns nullopt.
    void shutdown(bool drain_queue = true);

    SchedulerStats stats() const;

    /// Completed jobs as a cluster trace (arrival = submit, wall-clock
    /// seconds on the scheduler clock) — feed to cluster::summarize_trace to
    /// compare against FifoClusterSim runs.
    std::vector<cluster::JobRecord> trace() const;

    /// Seconds since scheduler construction (steady clock).
    double now_s() const;

    const SchedulerConfig& config() const { return config_; }

private:
    /// Job records, sharded by id so per-job transitions don't contend.
    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<std::uint64_t, std::unique_ptr<detail::Job>> jobs;
    };
    static constexpr std::size_t kShards = 8;  // power of two
    static constexpr std::uint32_t kGaugeFlushInterval = 32;  // power of two

    Shard& shard(std::uint64_t id) { return shards_[id & (kShards - 1)]; }
    const Shard& shard(std::uint64_t id) const { return shards_[id & (kShards - 1)]; }

    /// Insert a new job record under `forced_id`, or the next free auto id
    /// when it is 0, and return the id. Throws std::invalid_argument (the
    /// record is dropped) when a forced id is already held.
    std::uint64_t register_job(std::unique_ptr<detail::Job> owned, std::uint64_t forced_id);
    void worker_loop();
    /// Mark a RUNNING job terminal, notify waiters, then fire its DoneFn.
    /// Caller must hold the job's claim and no shard mutex.
    void finish(detail::Job* job, JobState state, const std::string& error = {},
                std::exception_ptr failure = nullptr);
    /// Count one terminal transition on the obs counters.
    void count_terminal(JobState state);
    /// One state transition happened: flush gauges on every
    /// kGaugeFlushInterval-th transition.
    void gauge_tick();
    /// Force the depth/running gauges to the current counters.
    void flush_gauges() const;
    /// Wake terminal waiters, if any have registered.
    void notify_terminal();

    SchedulerConfig config_;
    std::chrono::steady_clock::time_point epoch_;
    std::unique_ptr<detail::DispatchQueue> queue_;
    std::array<Shard, kShards> shards_;

    // Lifecycle counters. queued_/running_ are seq_cst-updated: drain()'s
    // wakeup protocol Dekker-pairs them with terminal_waiters_.
    std::atomic<std::int64_t> queued_{0};
    std::atomic<std::int64_t> running_{0};
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> cancelled_{0};
    std::atomic<std::uint64_t> timed_out_{0};
    std::atomic<std::uint64_t> requeued_{0};
    std::atomic<std::uint64_t> next_job_id_{1};
    std::atomic<bool> shut_down_{false};
    mutable std::atomic<std::uint32_t> gauge_ticks_{0};

    // Terminal-wait machinery: waiters register in terminal_waiters_ before
    // evaluating their predicate; notifiers skip the CV entirely when the
    // count is zero (the common case on the hot path).
    std::mutex wait_mutex_;
    std::condition_variable terminal_cv_;
    std::atomic<int> terminal_waiters_{0};

    // Instrument references cached at construction (null when obs is null).
    obs::Counter* obs_submitted_ = nullptr;
    obs::Counter* obs_rejected_ = nullptr;
    obs::Counter* obs_completed_ = nullptr;
    obs::Counter* obs_failed_ = nullptr;
    obs::Counter* obs_cancelled_ = nullptr;
    obs::Counter* obs_timed_out_ = nullptr;
    obs::Counter* obs_requeued_ = nullptr;
    obs::Gauge* obs_queue_depth_ = nullptr;
    obs::Gauge* obs_running_ = nullptr;
    obs::Histogram* obs_queue_wait_ = nullptr;
    util::ThreadPool pool_;  ///< last member: workers must die before state
};

}  // namespace pipetune::sched
