#pragma once
// Fixed-size thread pool behind the scheduler's worker slots
// (sched::ClusterScheduler submits one task per job). The data-parallel epoch
// path does not use it: it fans out on util::fan_out's per-thread worker teams
// (worker_team.hpp).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pipetune::util {

class ThreadPool {
public:
    explicit ThreadPool(std::size_t num_threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t size() const { return pool_size_; }

    /// Graceful teardown. `drain = true` (the destructor's behavior) lets the
    /// workers finish every queued task before joining; `drain = false`
    /// discards still-queued tasks (their futures report broken_promise) and
    /// joins as soon as in-flight tasks return. Idempotent; submit() after
    /// shutdown throws.
    void shutdown(bool drain = true);

    /// Submit a task; returns a future for its result.
    template <typename F>
    auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
        using Result = std::invoke_result_t<F>;
        auto packaged = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(task));
        std::future<Result> future = packaged->get_future();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
            tasks_.emplace([packaged] { (*packaged)(); });
        }
        cv_.notify_one();
        return future;
    }

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t pool_size_ = 0;
    bool stopping_ = false;
};

}  // namespace pipetune::util
