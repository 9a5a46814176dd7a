#include "pipetune/util/worker_team.hpp"

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace pipetune::util {

namespace {

// Busy-wait budget before a waiter blocks in the kernel. An epoch's shards
// are near-equal, so the caller's wait for its helpers and a helper's wait
// for the next minibatch are usually microseconds: spinning that long is
// cheaper than a futex sleep and wake-up, and the budget bounds the CPU a
// waiter burns when the other side is slow.
constexpr int kSpinIterations = 2048;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/// Wait until `word` differs from `old`; returns the new value.
std::uint32_t wait_for_change(const std::atomic<std::uint32_t>& word, std::uint32_t old) {
    for (int i = 0; i < kSpinIterations; ++i) {
        const std::uint32_t now = word.load(std::memory_order_acquire);
        if (now != old) return now;
        cpu_relax();
    }
    std::uint32_t now;
    while ((now = word.load(std::memory_order_acquire)) == old)
        word.wait(old, std::memory_order_acquire);
    return now;
}

// Set on helper threads for their lifetime and on a caller while it fans out:
// a nested fan_out runs serially instead of growing another team.
thread_local bool t_inside_fan_out = false;

class WorkerTeam {
public:
    WorkerTeam() = default;
    WorkerTeam(const WorkerTeam&) = delete;
    WorkerTeam& operator=(const WorkerTeam&) = delete;

    ~WorkerTeam() {
        for (auto& helper : helpers_) {
            helper->stop.store(true, std::memory_order_relaxed);
            helper->ticket.fetch_add(1, std::memory_order_release);
            helper->ticket.notify_one();
        }
        for (auto& helper : helpers_) helper->thread.join();
    }

    std::size_t helpers() const { return helpers_.size(); }

    void run(std::size_t count, const std::function<void(std::size_t)>& fn) {
        helpers_.reserve(count - 1);  // push_back below must not throw with a thread running
        while (helpers_.size() + 1 < count) {
            auto helper = std::make_unique<Helper>();
            Helper* raw = helper.get();
            const std::size_t index = helpers_.size() + 1;
            raw->thread = std::thread([this, raw, index] { helper_loop(*raw, index); });
            helpers_.push_back(std::move(helper));
        }
        // Publish the job, then hand a ticket to exactly the helpers it uses:
        // an idle helper never reads fn_, so the next run may rewrite it as
        // soon as pending_ reaches zero.
        fn_ = &fn;
        error_ = nullptr;
        const auto helpers_used = static_cast<std::uint32_t>(count - 1);
        pending_.store(helpers_used, std::memory_order_relaxed);
        for (std::size_t h = 0; h < helpers_used; ++h) {
            helpers_[h]->ticket.fetch_add(1, std::memory_order_release);
            helpers_[h]->ticket.notify_one();
        }
        run_index(0);
        for (std::uint32_t left = pending_.load(std::memory_order_acquire); left != 0;
             left = pending_.load(std::memory_order_acquire))
            wait_for_change(pending_, left);
        fn_ = nullptr;
        if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
    }

private:
    struct Helper {
        std::atomic<std::uint32_t> ticket{0};  ///< bumped once per job (and at stop)
        std::atomic<bool> stop{false};
        std::thread thread;
    };

    void helper_loop(Helper& self, std::size_t index) {
        t_inside_fan_out = true;
        std::uint32_t seen = 0;  // tickets start at 0; only the owner moves them
        while (true) {
            seen = wait_for_change(self.ticket, seen);
            if (self.stop.load(std::memory_order_relaxed)) return;
            run_index(index);
            if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) pending_.notify_one();
        }
    }

    void run_index(std::size_t index) {
        try {
            (*fn_)(index);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex_);
            if (!error_) error_ = std::current_exception();
        }
    }

    std::vector<std::unique_ptr<Helper>> helpers_;  ///< touched by the owning thread only
    const std::function<void(std::size_t)>* fn_ = nullptr;
    std::atomic<std::uint32_t> pending_{0};  ///< helpers still running the current job
    std::mutex error_mutex_;
    std::exception_ptr error_;  ///< guarded by error_mutex_ while a job runs
};

WorkerTeam& this_threads_team() {
    thread_local WorkerTeam team;
    return team;
}

}  // namespace

void fan_out(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (count <= 1 || t_inside_fan_out) {
        std::exception_ptr first_error;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!first_error) first_error = std::current_exception();
            }
        }
        if (first_error) std::rethrow_exception(first_error);
        return;
    }
    t_inside_fan_out = true;
    struct Reset {
        ~Reset() { t_inside_fan_out = false; }
    } reset;
    this_threads_team().run(count, fn);
}

std::size_t team_helpers() { return this_threads_team().helpers(); }

}  // namespace pipetune::util
