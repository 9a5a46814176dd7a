#include "pipetune/util/thread_pool.hpp"

#include <algorithm>

namespace pipetune::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
    num_threads = std::max<std::size_t>(1, num_threads);
    pool_size_ = num_threads;
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(true); }

void ThreadPool::shutdown(bool drain) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        if (!drain) {
            // Dropping the queued packaged_tasks breaks their promises; any
            // caller blocked on the corresponding future gets a future_error.
            std::queue<std::function<void()>> discard;
            tasks_.swap(discard);
        }
    }
    cv_.notify_all();
    for (auto& worker : workers_)
        if (worker.joinable()) worker.join();
    workers_.clear();
}

void ThreadPool::worker_loop() {
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
            if (stopping_ && tasks_.empty()) return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

}  // namespace pipetune::util
