#include "pipetune/sched/scheduler.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <thread>

#include "pipetune/ft/errors.hpp"
#include "pipetune/sched/mpmc_ring.hpp"
#include "pipetune/util/logging.hpp"
#include "pipetune/util/rng.hpp"

namespace pipetune::sched {

const char* to_string(Priority priority) {
    switch (priority) {
        case Priority::kHigh: return "high";
        case Priority::kNormal: return "normal";
        case Priority::kBatch: return "batch";
    }
    return "?";
}

const char* to_string(JobState state) {
    switch (state) {
        case JobState::kQueued: return "queued";
        case JobState::kRunning: return "running";
        case JobState::kCompleted: return "completed";
        case JobState::kFailed: return "failed";
        case JobState::kCancelled: return "cancelled";
        case JobState::kTimedOut: return "timed-out";
    }
    return "?";
}

bool is_terminal(JobState state) {
    return state != JobState::kQueued && state != JobState::kRunning;
}

bool JobContext::deadline_expired() const {
    return deadline_s_ > 0.0 && scheduler_.now_s() > deadline_s_;
}

using detail::Job;
using detail::kClaimCancel;
using detail::kClaimNone;
using detail::kClaimWorker;

/// Lock-light dispatch queue (DESIGN.md §12): one Vyukov MPMC ring per
/// priority class plus a small mutex-protected retry lane per class (the
/// retry path is rare and must preserve front-of-class order, which a ring
/// cannot). Capacity admission and occupancy are plain atomics; the mutex +
/// condition variables exist only to PARK — pushers/poppers sleep solely
/// after a failed non-blocking attempt, and the waker side skips the CV
/// entirely unless a waiter has registered (seq_cst Dekker pairing between
/// the waiter counts and the occupancy counters).
///
/// Cancelled-while-queued jobs are retired out-of-band by a claim CAS; their
/// ring entries go STALE and are skipped (and drained) by later pops. Rings
/// are sized 2x the logical capacity to absorb that backlog; a cancel storm
/// deeper than the slack degrades pushes to yield-retry, never deadlock.
class detail::DispatchQueue {
public:
    DispatchQueue(std::size_t capacity, OverflowPolicy policy)
        : capacity_(static_cast<std::int64_t>(capacity == 0 ? 1 : capacity)),
          policy_(policy) {
        for (auto& ring : rings_)
            ring = std::make_unique<MpmcRing<Job*>>(2 * static_cast<std::size_t>(capacity_));
    }

    bool push(Job* job) {
        const std::size_t cls = static_cast<std::size_t>(job->info.priority);
        for (;;) {
            if (closed_.load(std::memory_order_acquire)) return false;
            const std::int64_t live = live_.fetch_add(1, std::memory_order_seq_cst);
            if (live >= capacity_) {
                live_.fetch_sub(1, std::memory_order_seq_cst);
                if (policy_ == OverflowPolicy::kReject) return false;
                wait_not_full();
                continue;
            }
            if (rings_[cls]->try_push(job)) break;
            // Ring physically full (stale cancelled backlog): workers are
            // necessarily awake draining it, so yield and retry.
            live_.fetch_sub(1, std::memory_order_seq_cst);
            if (policy_ == OverflowPolicy::kReject) return false;
            std::this_thread::yield();
        }
        bump_depth();
        pending_.fetch_add(1, std::memory_order_seq_cst);
        notify_not_empty();
        return true;
    }

    bool push_front(Job* job) {
        if (closed_.load(std::memory_order_acquire)) return false;
        const std::size_t cls = static_cast<std::size_t>(job->info.priority);
        live_.fetch_add(1, std::memory_order_seq_cst);  // retries occupy capacity
        {
            std::lock_guard<std::mutex> lock(lanes_[cls].mutex);
            lanes_[cls].jobs.push_back(job);
        }
        lanes_[cls].count.fetch_add(1, std::memory_order_release);
        bump_depth();
        pending_.fetch_add(1, std::memory_order_seq_cst);
        notify_not_empty();
        return true;
    }

    Job* pop() {
        for (;;) {
            bool popped_any = false;
            for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
                Job* job = take_one(cls);
                if (job == nullptr) continue;
                popped_any = true;
                pending_.fetch_sub(1, std::memory_order_seq_cst);
                std::uint8_t expected = kClaimNone;
                if (job->claimed.compare_exchange_strong(expected, kClaimWorker,
                                                         std::memory_order_acq_rel)) {
                    live_.fetch_sub(1, std::memory_order_seq_cst);
                    notify_not_full();
                    return job;
                }
                // Stale entry (cancelled while queued): its capacity slot was
                // already released via retired(). Rescan from the top so a
                // higher class pushed meanwhile is not starved.
                break;
            }
            if (popped_any) continue;
            if (closed_.load(std::memory_order_acquire) &&
                pending_.load(std::memory_order_seq_cst) <= 0)
                return nullptr;
            wait_not_empty();
            if (closed_.load(std::memory_order_acquire) &&
                pending_.load(std::memory_order_seq_cst) <= 0)
                return nullptr;
        }
    }

    void retired(Job*) {
        live_.fetch_sub(1, std::memory_order_seq_cst);
        notify_not_full();
    }

    void close() {
        closed_.store(true, std::memory_order_release);
        { std::lock_guard<std::mutex> lock(park_mutex_); }
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    std::size_t max_depth() const {
        return static_cast<std::size_t>(
            std::max<std::int64_t>(0, max_depth_.load(std::memory_order_relaxed)));
    }

private:
    struct RetryLane {
        std::mutex mutex;
        std::deque<Job*> jobs;
        std::atomic<int> count{0};  ///< cheap emptiness probe before locking
    };

    Job* take_one(std::size_t cls) {
        // Retry lane first: requeued jobs run ahead of fresh ones in their
        // class (front-of-class contract of the retry path).
        if (lanes_[cls].count.load(std::memory_order_acquire) > 0) {
            std::lock_guard<std::mutex> lock(lanes_[cls].mutex);
            if (!lanes_[cls].jobs.empty()) {
                Job* job = lanes_[cls].jobs.front();
                lanes_[cls].jobs.pop_front();
                lanes_[cls].count.fetch_sub(1, std::memory_order_release);
                return job;
            }
        }
        Job* job = nullptr;
        if (rings_[cls]->try_pop(&job)) return job;
        return nullptr;
    }

    void bump_depth() {
        const std::int64_t depth = live_.load(std::memory_order_seq_cst);
        std::int64_t cur = max_depth_.load(std::memory_order_relaxed);
        while (depth > cur &&
               !max_depth_.compare_exchange_weak(cur, depth, std::memory_order_relaxed)) {
        }
    }

    void wait_not_empty() {
        std::unique_lock<std::mutex> lock(park_mutex_);
        pop_waiters_.fetch_add(1, std::memory_order_seq_cst);
        not_empty_.wait(lock, [this] {
            return closed_.load(std::memory_order_acquire) ||
                   pending_.load(std::memory_order_seq_cst) > 0;
        });
        pop_waiters_.fetch_sub(1, std::memory_order_seq_cst);
    }

    void wait_not_full() {
        std::unique_lock<std::mutex> lock(park_mutex_);
        push_waiters_.fetch_add(1, std::memory_order_seq_cst);
        not_full_.wait(lock, [this] {
            return closed_.load(std::memory_order_acquire) ||
                   live_.load(std::memory_order_seq_cst) < capacity_;
        });
        push_waiters_.fetch_sub(1, std::memory_order_seq_cst);
    }

    void notify_not_empty() {
        if (pop_waiters_.load(std::memory_order_seq_cst) == 0) return;
        // Empty lock/unlock: a waiter between predicate-false and the actual
        // sleep holds park_mutex_; acquiring it serializes our notify after
        // its wait registration.
        { std::lock_guard<std::mutex> lock(park_mutex_); }
        not_empty_.notify_one();
    }

    void notify_not_full() {
        if (push_waiters_.load(std::memory_order_seq_cst) == 0) return;
        { std::lock_guard<std::mutex> lock(park_mutex_); }
        not_full_.notify_one();
    }

    const std::int64_t capacity_;
    const OverflowPolicy policy_;
    std::array<std::unique_ptr<MpmcRing<Job*>>, kPriorityClasses> rings_;
    std::array<RetryLane, kPriorityClasses> lanes_;
    std::atomic<std::int64_t> live_{0};     ///< claimable entries (capacity accounting)
    std::atomic<std::int64_t> pending_{0};  ///< poppable entries incl. stale
    std::atomic<std::int64_t> max_depth_{0};
    std::atomic<bool> closed_{false};
    std::mutex park_mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::atomic<int> pop_waiters_{0};
    std::atomic<int> push_waiters_{0};
};

ClusterScheduler::ClusterScheduler(SchedulerConfig config)
    : config_(config),
      epoch_(std::chrono::steady_clock::now()),
      queue_(std::make_unique<detail::DispatchQueue>(config.queue_capacity, config.overflow)),
      pool_(config.worker_slots == 0 ? 1 : config.worker_slots) {
    if (config_.obs != nullptr) {
        auto& registry = config_.obs->metrics();
        obs_submitted_ = &registry.counter("pipetune_sched_jobs_submitted_total", {},
                                           "Jobs admitted to the scheduler queue");
        obs_rejected_ = &registry.counter("pipetune_sched_jobs_rejected_total", {},
                                          "Jobs shed at submit (queue full or shut down)");
        obs_completed_ = &registry.counter("pipetune_sched_jobs_completed_total", {},
                                           "Jobs that ran to completion");
        obs_failed_ = &registry.counter("pipetune_sched_jobs_failed_total", {},
                                        "Jobs whose function threw");
        obs_cancelled_ = &registry.counter("pipetune_sched_jobs_cancelled_total", {},
                                           "Jobs cancelled (queued or cooperative)");
        obs_timed_out_ = &registry.counter("pipetune_sched_jobs_timed_out_total", {},
                                           "Jobs discarded after their queueing deadline");
        obs_requeued_ = &registry.counter(
            "pipetune_ft_requeues_total", {},
            "Jobs requeued after a transient failure (scheduler retry path)");
        obs_queue_depth_ =
            &registry.gauge("pipetune_sched_queue_depth", {}, "Jobs waiting in the queue");
        obs_running_ =
            &registry.gauge("pipetune_sched_jobs_running", {}, "Jobs occupying worker slots");
        obs_queue_wait_ = &registry.histogram(
            "pipetune_sched_queue_wait_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 60.0}, {},
            "Queue wait (submit to start) of jobs that ran");
    }
    // Each worker slot is one long-lived pool task looping over the queue;
    // the loops exit when the queue is closed and drained.
    for (std::size_t i = 0; i < pool_.size(); ++i)
        (void)pool_.submit([this] { worker_loop(); });
}

ClusterScheduler::~ClusterScheduler() { shutdown(true); }

double ClusterScheduler::now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void ClusterScheduler::flush_gauges() const {
    if (obs_queue_depth_ != nullptr)
        obs_queue_depth_->set(static_cast<double>(
            std::max<std::int64_t>(0, queued_.load(std::memory_order_seq_cst))));
    if (obs_running_ != nullptr)
        obs_running_->set(static_cast<double>(
            std::max<std::int64_t>(0, running_.load(std::memory_order_seq_cst))));
}

void ClusterScheduler::gauge_tick() {
    if (obs_queue_depth_ == nullptr && obs_running_ == nullptr) return;
    // Batched (DESIGN.md §12): gauges are sampling instruments; every
    // kGaugeFlushInterval-th transition refreshes them, and the synchronous
    // readers (stats(), drain(), shutdown()) force a flush for exactness.
    if ((gauge_ticks_.fetch_add(1, std::memory_order_relaxed) &
         (kGaugeFlushInterval - 1)) == 0)
        flush_gauges();
}

void ClusterScheduler::count_terminal(JobState state) {
    switch (state) {
        case JobState::kCompleted:
            if (obs_completed_ != nullptr) obs_completed_->inc();
            break;
        case JobState::kFailed:
            if (obs_failed_ != nullptr) obs_failed_->inc();
            break;
        case JobState::kCancelled:
            if (obs_cancelled_ != nullptr) obs_cancelled_->inc();
            break;
        case JobState::kTimedOut:
            if (obs_timed_out_ != nullptr) obs_timed_out_->inc();
            break;
        default:
            break;
    }
}

void ClusterScheduler::notify_terminal() {
    // Gated wakeup: waiters registered in terminal_waiters_ (seq_cst) before
    // re-checking their predicate, and this load is seq_cst too, so either we
    // see the registration or the waiter sees the state we just published.
    if (terminal_waiters_.load(std::memory_order_seq_cst) == 0) return;
    // Empty lock/unlock: serializes after a waiter that has evaluated its
    // predicate but not yet slept (it holds wait_mutex_ for that window).
    { std::lock_guard<std::mutex> lock(wait_mutex_); }
    terminal_cv_.notify_all();
}

std::optional<JobTicket> ClusterScheduler::submit(JobFn fn, JobOptions options, DoneFn on_done) {
    if (!fn) throw std::invalid_argument("ClusterScheduler::submit: empty job");
    if (shut_down_.load(std::memory_order_acquire)) return std::nullopt;
    auto owned = std::make_unique<detail::Job>();
    detail::Job* job = owned.get();
    job->info.label = std::move(options.label);
    job->info.priority = options.priority;
    job->info.state = JobState::kQueued;
    job->info.submit_s = now_s();
    job->info.deadline_s =
        options.deadline_s > 0 ? job->info.submit_s + options.deadline_s : 0.0;
    job->fn = std::move(fn);
    job->on_done = std::move(on_done);
    const std::uint64_t id = register_job(std::move(owned), options.id);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    queued_.fetch_add(1, std::memory_order_seq_cst);
    if (obs_submitted_ != nullptr) obs_submitted_->inc();
    gauge_tick();
    // Pushed outside the shard lock: a kBlock push may park this thread until
    // a worker frees a slot. Workers popping `id` before we return still find
    // its record registered above.
    if (queue_->push(job)) return JobTicket{id};

    // Rejected (queue full under kReject, or closed): roll the ghost back.
    // Claiming under the shard lock excludes a concurrent canceller — only
    // the claim winner may erase, and every other claim attempt happens
    // inside a shard critical section, so nobody holds a dangling Job*.
    bool rolled_back = false;
    {
        Shard& sh = shard(id);
        std::lock_guard<std::mutex> lock(sh.mutex);
        std::uint8_t expected = kClaimNone;
        if (job->claimed.compare_exchange_strong(expected, kClaimWorker,
                                                 std::memory_order_acq_rel)) {
            sh.jobs.erase(id);
            submitted_.fetch_sub(1, std::memory_order_relaxed);
            queued_.fetch_sub(1, std::memory_order_seq_cst);
            // The optimistic admission above already counted it; the rejected
            // counter is the net signal (submitted_total stays monotone).
            if (obs_rejected_ != nullptr) obs_rejected_->inc();
            rolled_back = true;
        }
    }
    gauge_tick();
    notify_terminal();
    // A canceller that won the claim first retired the job as kCancelled and
    // fired its DoneFn: the record stays, so hand out its ticket.
    if (!rolled_back) return JobTicket{id};
    return std::nullopt;
}

std::uint64_t ClusterScheduler::register_job(std::unique_ptr<detail::Job> owned,
                                             std::uint64_t forced_id) {
    if (forced_id != 0) {
        // Keep later auto ids clear of the forced one.
        std::uint64_t next = next_job_id_.load(std::memory_order_relaxed);
        while (next <= forced_id &&
               !next_job_id_.compare_exchange_weak(next, forced_id + 1,
                                                   std::memory_order_relaxed)) {
        }
    }
    for (;;) {
        const std::uint64_t id =
            forced_id != 0 ? forced_id : next_job_id_.fetch_add(1, std::memory_order_relaxed);
        owned->info.id = id;
        Shard& sh = shard(id);
        std::lock_guard<std::mutex> lock(sh.mutex);
        // try_emplace leaves `owned` untouched when the key exists.
        if (sh.jobs.try_emplace(id, std::move(owned)).second) return id;
        if (forced_id != 0)
            throw std::invalid_argument("ClusterScheduler::submit: job id " +
                                        std::to_string(id) + " is already in use");
        // An auto id lost the race to a concurrent forced one: take the next.
    }
}

JobState ClusterScheduler::state(std::uint64_t id) const {
    const Shard& sh = shard(id);
    std::lock_guard<std::mutex> lock(sh.mutex);
    auto it = sh.jobs.find(id);
    if (it == sh.jobs.end())
        throw std::out_of_range("ClusterScheduler::state: unknown job id " + std::to_string(id));
    return it->second->info.state;
}

std::optional<JobInfo> ClusterScheduler::info(std::uint64_t id) const {
    const Shard& sh = shard(id);
    std::lock_guard<std::mutex> lock(sh.mutex);
    auto it = sh.jobs.find(id);
    if (it == sh.jobs.end()) return std::nullopt;
    return it->second->info;
}

std::vector<JobInfo> ClusterScheduler::jobs() const {
    std::vector<JobInfo> out;
    for (const Shard& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh.mutex);
        out.reserve(out.size() + sh.jobs.size());
        for (const auto& [id, job] : sh.jobs) out.push_back(job->info);
    }
    std::sort(out.begin(), out.end(),
              [](const JobInfo& a, const JobInfo& b) { return a.id < b.id; });
    return out;
}

bool ClusterScheduler::cancel(std::uint64_t id) {
    JobInfo discarded;
    DoneFn on_done;
    detail::Job* retired_job = nullptr;
    {
        Shard& sh = shard(id);
        std::lock_guard<std::mutex> lock(sh.mutex);
        auto it = sh.jobs.find(id);
        if (it == sh.jobs.end() || is_terminal(it->second->info.state)) return false;
        detail::Job* job = it->second.get();
        job->cancel.store(true, std::memory_order_relaxed);
        std::uint8_t expected = kClaimNone;
        if (job->claimed.compare_exchange_strong(expected, kClaimCancel,
                                                 std::memory_order_acq_rel)) {
            // Still queued and we won the claim: retire it here. The queue
            // entry goes stale; retired() releases its capacity slot.
            job->info.state = JobState::kCancelled;
            job->info.finish_s = now_s();
            discarded = job->info;
            on_done = std::move(job->on_done);
            retired_job = job;
        }
        // else: a worker owns it (running or retiring) — the flag is set and
        // the job retires as kCancelled when the worker checks it.
    }
    if (retired_job != nullptr) {
        queued_.fetch_sub(1, std::memory_order_seq_cst);
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        count_terminal(JobState::kCancelled);
        gauge_tick();
        queue_->retired(retired_job);
        notify_terminal();
        if (on_done) on_done(discarded, nullptr);
    }
    return true;
}

std::size_t ClusterScheduler::discard_queued() {
    // Claim under the shard lock, run the callbacks outside every lock (a
    // DoneFn settles a promise, and the waiter may call back into the
    // scheduler). Jobs a worker claims between scan and CAS stay running —
    // exactly the contract.
    std::vector<std::pair<JobInfo, DoneFn>> discarded;
    std::vector<detail::Job*> retired_jobs;
    for (Shard& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh.mutex);
        for (auto& [id, owned] : sh.jobs) {
            detail::Job* job = owned.get();
            if (job->info.state != JobState::kQueued) continue;
            std::uint8_t expected = kClaimNone;
            if (!job->claimed.compare_exchange_strong(expected, kClaimCancel,
                                                      std::memory_order_acq_rel))
                continue;  // worker-owned (popped or mid-retry): leave it
            job->cancel.store(true, std::memory_order_relaxed);
            job->info.state = JobState::kCancelled;
            job->info.finish_s = now_s();
            discarded.emplace_back(job->info, std::move(job->on_done));
            retired_jobs.push_back(job);
        }
    }
    if (!discarded.empty()) {
        for (detail::Job* job : retired_jobs) {
            queued_.fetch_sub(1, std::memory_order_seq_cst);
            cancelled_.fetch_add(1, std::memory_order_relaxed);
            count_terminal(JobState::kCancelled);
            queue_->retired(job);
        }
        gauge_tick();
        notify_terminal();
        for (auto& [info, on_done] : discarded)
            if (on_done) on_done(info, nullptr);
    }
    return discarded.size();
}

void ClusterScheduler::finish(detail::Job* job, JobState state, const std::string& error,
                              std::exception_ptr failure) {
    DoneFn on_done;
    JobInfo done_info;
    {
        Shard& sh = shard(job->info.id);
        std::lock_guard<std::mutex> lock(sh.mutex);
        JobInfo& info = job->info;
        info.state = state;
        info.finish_s = now_s();
        info.error = error;
        on_done = std::move(job->on_done);
        if (on_done) done_info = info;
    }
    running_.fetch_sub(1, std::memory_order_seq_cst);
    switch (state) {
        case JobState::kCompleted: completed_.fetch_add(1, std::memory_order_relaxed); break;
        case JobState::kFailed: failed_.fetch_add(1, std::memory_order_relaxed); break;
        case JobState::kCancelled: cancelled_.fetch_add(1, std::memory_order_relaxed); break;
        case JobState::kTimedOut: timed_out_.fetch_add(1, std::memory_order_relaxed); break;
        default: break;
    }
    count_terminal(state);
    gauge_tick();
    notify_terminal();
    if (on_done) on_done(done_info, state == JobState::kFailed ? failure : nullptr);
}

void ClusterScheduler::worker_loop() {
    for (;;) {
        detail::Job* job = queue_->pop();  // returns already claimed for us
        if (job == nullptr) return;        // closed and drained
        const std::uint64_t id = job->info.id;

        JobFn fn;
        double deadline_s = 0.0;
        double queue_wait_s = 0.0;
        double submit_s = 0.0;
        std::size_t attempts = 0;
        std::string label;
        JobInfo discarded;
        DoneFn on_done;
        bool discard = false;
        JobState discard_state = JobState::kCancelled;
        {
            Shard& sh = shard(id);
            std::lock_guard<std::mutex> lock(sh.mutex);
            JobInfo& info = job->info;
            const double now = now_s();
            if (job->cancel.load(std::memory_order_relaxed)) {
                info.state = JobState::kCancelled;
                info.finish_s = now;
                discard = true;
                discard_state = JobState::kCancelled;
            } else if (info.deadline_s > 0 && now > info.deadline_s) {
                // The deadline passed while the job sat in the queue: shed it
                // rather than start work whose response-time budget is spent.
                info.state = JobState::kTimedOut;
                info.finish_s = now;
                discard = true;
                discard_state = JobState::kTimedOut;
            } else {
                info.state = JobState::kRunning;
                info.start_s = now;
                attempts = ++info.attempts;
                deadline_s = info.deadline_s;
                submit_s = info.submit_s;
                queue_wait_s = now - info.submit_s;
                label = info.label;
                fn = std::move(job->fn);
                job->fn = nullptr;
            }
            if (discard) {
                discarded = info;
                on_done = std::move(job->on_done);
            }
        }
        if (discard) {
            queued_.fetch_sub(1, std::memory_order_seq_cst);
            if (discard_state == JobState::kCancelled)
                cancelled_.fetch_add(1, std::memory_order_relaxed);
            else
                timed_out_.fetch_add(1, std::memory_order_relaxed);
            count_terminal(discard_state);
            gauge_tick();
            notify_terminal();
            if (on_done) on_done(discarded, nullptr);
            continue;
        }
        // Count the slot before releasing the queue count (and the reverse
        // on requeue below): drain() waits for both to read zero, so the sum
        // must never dip below the jobs still to run.
        running_.fetch_add(1, std::memory_order_seq_cst);
        queued_.fetch_sub(1, std::memory_order_seq_cst);
        gauge_tick();

        if (obs_queue_wait_ != nullptr) obs_queue_wait_->observe(queue_wait_s);
        obs::Tracer::Span job_span;
        if (config_.obs != nullptr) {
            job_span = config_.obs->tracer().span("job", "sched");
            job_span.arg("job_id", std::to_string(id));
            if (!label.empty()) job_span.arg("label", label);
            if (attempts > 1) job_span.arg("attempt", std::to_string(attempts));
        }
        JobContext ctx(*this, id, &job->cancel, deadline_s);
        std::string error;
        bool failed = false;
        bool transient = false;
        std::exception_ptr failure;
        try {
            fn(ctx);
        } catch (const ft::TransientFailure& e) {
            failed = true;
            transient = true;
            error = e.what();
            failure = std::current_exception();
        } catch (const std::exception& e) {
            failed = true;
            error = e.what();
            failure = std::current_exception();
        } catch (...) {
            failed = true;
            error = "unknown exception";
            failure = std::current_exception();
        }

        // Retry path (DESIGN.md §10): a transient failure under a non-zero
        // retry policy puts the job back at the FRONT of its original
        // priority class — same id, so its priority/deadline/submit-time
        // accounting are preserved — after a backoff slept on this worker
        // (the failing slot absorbs the delay, throttling a flapping job
        // without blocking the rest of the pool).
        if (failed && transient && config_.retry.enabled() &&
            !job->cancel.load(std::memory_order_relaxed) &&
            config_.retry.should_retry(attempts, now_s() - submit_s)) {
            {
                Shard& sh = shard(id);
                std::lock_guard<std::mutex> lock(sh.mutex);
                job->info.state = JobState::kQueued;
            }
            queued_.fetch_add(1, std::memory_order_seq_cst);
            running_.fetch_sub(1, std::memory_order_seq_cst);
            requeued_.fetch_add(1, std::memory_order_relaxed);
            if (obs_requeued_ != nullptr) obs_requeued_->inc();
            gauge_tick();
            PT_LOG_WARN("sched").field("job", id).field("attempt", attempts)
                << "transient job failure, requeueing: " << error;
            util::Rng backoff_rng(id * 0x9e3779b97f4a7c15ULL + attempts);
            const double backoff = config_.retry.backoff_s(attempts, backoff_rng);
            if (backoff > 0.0)
                std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
            // Republish: hand the function back and release our claim, THEN
            // enqueue — from the release on, a canceller may win the job.
            job->fn = std::move(fn);
            job->claimed.store(kClaimNone, std::memory_order_release);
            if (queue_->push_front(job)) continue;
            // Queue closed mid-retry: take the job back and fail it so the
            // accounting balances. Losing this claim means a canceller
            // retired it while we were away — nothing left to do.
            std::uint8_t expected = kClaimNone;
            {
                Shard& sh = shard(id);
                std::lock_guard<std::mutex> lock(sh.mutex);
                if (!job->claimed.compare_exchange_strong(expected, kClaimWorker,
                                                          std::memory_order_acq_rel)) {
                    notify_terminal();
                    continue;
                }
                job->info.state = JobState::kRunning;
                job->fn = nullptr;
            }
            running_.fetch_add(1, std::memory_order_seq_cst);
            queued_.fetch_sub(1, std::memory_order_seq_cst);
            requeued_.fetch_sub(1, std::memory_order_relaxed);
            gauge_tick();
        }

        const JobState final_state =
            failed ? JobState::kFailed
                   : (job->cancel.load(std::memory_order_relaxed) ? JobState::kCancelled
                                                                  : JobState::kCompleted);
        if (failed) PT_LOG_WARN("sched") << "job " << id << " failed: " << error;
        finish(job, final_state, error, failure);
    }
}

bool ClusterScheduler::wait(std::uint64_t id, double timeout_s) {
    {
        const Shard& sh = shard(id);
        std::lock_guard<std::mutex> lock(sh.mutex);
        if (sh.jobs.find(id) == sh.jobs.end()) return false;
    }
    auto terminal = [this, id] {
        const Shard& sh = shard(id);
        std::lock_guard<std::mutex> lock(sh.mutex);
        auto it = sh.jobs.find(id);
        return it == sh.jobs.end() || is_terminal(it->second->info.state);
    };
    std::unique_lock<std::mutex> lock(wait_mutex_);
    terminal_waiters_.fetch_add(1, std::memory_order_seq_cst);
    bool ok = true;
    if (timeout_s < 0)
        terminal_cv_.wait(lock, terminal);
    else
        ok = terminal_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), terminal);
    terminal_waiters_.fetch_sub(1, std::memory_order_seq_cst);
    return ok;
}

void ClusterScheduler::drain() {
    {
        std::unique_lock<std::mutex> lock(wait_mutex_);
        terminal_waiters_.fetch_add(1, std::memory_order_seq_cst);
        terminal_cv_.wait(lock, [this] {
            return queued_.load(std::memory_order_seq_cst) == 0 &&
                   running_.load(std::memory_order_seq_cst) == 0;
        });
        terminal_waiters_.fetch_sub(1, std::memory_order_seq_cst);
    }
    flush_gauges();  // quiesced: make the sampled gauges exact
}

void ClusterScheduler::shutdown(bool drain_queue) {
    if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
    if (drain_queue) {
        drain();
    } else {
        // Discard everything still queued; running jobs get cooperative
        // cancel flags and are waited for (threads are never killed).
        for (Shard& sh : shards_) {
            std::lock_guard<std::mutex> lock(sh.mutex);
            for (auto& [id, job] : sh.jobs)
                job->cancel.store(true, std::memory_order_relaxed);
        }
        discard_queued();
        drain();
    }
    queue_->close();
    pool_.shutdown(true);
    flush_gauges();
}

SchedulerStats ClusterScheduler::stats() const {
    SchedulerStats out;
    out.submitted = submitted_.load(std::memory_order_relaxed);
    out.completed = completed_.load(std::memory_order_relaxed);
    out.failed = failed_.load(std::memory_order_relaxed);
    out.cancelled = cancelled_.load(std::memory_order_relaxed);
    out.timed_out = timed_out_.load(std::memory_order_relaxed);
    out.requeued = requeued_.load(std::memory_order_relaxed);
    out.running = static_cast<std::size_t>(
        std::max<std::int64_t>(0, running_.load(std::memory_order_seq_cst)));
    out.queued = static_cast<std::size_t>(
        std::max<std::int64_t>(0, queued_.load(std::memory_order_seq_cst)));
    out.max_queue_depth = queue_->max_depth();
    flush_gauges();  // synchronous observation point: make gauges exact
    return out;
}

std::vector<cluster::JobRecord> ClusterScheduler::trace() const {
    std::vector<cluster::JobRecord> records;
    for (const Shard& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh.mutex);
        for (const auto& [id, job] : sh.jobs) {
            if (job->info.state != JobState::kCompleted) continue;
            cluster::JobRecord record;
            record.index = id;
            record.workload_name = job->info.label;
            record.arrival_s = job->info.submit_s;
            record.start_s = job->info.start_s;
            record.completion_s = job->info.finish_s;
            records.push_back(std::move(record));
        }
    }
    std::sort(records.begin(), records.end(),
              [](const cluster::JobRecord& a, const cluster::JobRecord& b) {
                  return a.index < b.index;
              });
    return records;
}

}  // namespace pipetune::sched
