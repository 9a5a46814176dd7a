// Shutdown with jobs settling on other threads. Replies are built on the
// thread that settles a job, so a stopping server must answer every admitted
// submit, return from stop(), and never be touched by a settle callback once
// it is gone (the asan and tsan presets run this suite). With no epoll
// timeout left, an idle server must still stop promptly when asked from
// another thread.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipetune/net/client.hpp"
#include "pipetune/net/server.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"
#include "pipetune/workload/types.hpp"

namespace {

using namespace pipetune;
using namespace std::chrono_literals;

/// SimBackend whose start_trial waits at a gate while held, so one job can
/// sit running while the others queue behind it.
class GatedBackend final : public workload::Backend {
public:
    std::unique_ptr<workload::TrialSession> start_trial(
        const workload::Workload& workload, const workload::HyperParams& hyper) override {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            gate_cv_.wait(lock, [this] { return !held_; });
        }
        return inner_.start_trial(workload, hyper);
    }
    std::string name() const override { return "gated"; }

    void hold() {
        std::lock_guard<std::mutex> lock(mutex_);
        held_ = true;
    }
    void release() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            held_ = false;
        }
        gate_cv_.notify_all();
    }

private:
    sim::SimBackend inner_;
    std::mutex mutex_;
    std::condition_variable gate_cv_;
    bool held_ = false;
};

template <typename Predicate>
bool eventually(Predicate done, std::chrono::milliseconds budget = 20s) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(1ms);
    }
    return true;
}

TEST(ServerShutdownTest, FastStopAnswersEveryClientAndOutlivesNoCallback) {
    GatedBackend backend;
    backend.hold();
    core::ServiceOptions options;
    options.concurrency = 1;  // one slot: the first job runs, the rest queue
    options.queue_capacity = 16;
    options.reject_when_full = true;
    auto service = std::make_unique<sched::ConcurrentPipeTuneService>(backend, options);
    net::ServerConfig config;
    config.service = service.get();
    auto server = std::make_unique<net::TuningServer>(config);
    ASSERT_TRUE(server->start().ok());
    const std::uint16_t port = server->port();

    constexpr std::size_t kClients = 5;
    std::vector<std::future<util::Result<net::Response>>> replies;
    for (std::size_t i = 0; i < kClients; ++i) {
        replies.push_back(std::async(std::launch::async, [port, i] {
            auto client = net::Client::connect("127.0.0.1", port, 60.0);
            if (!client.ok()) return util::Result<net::Response>::failure(client.error());
            util::Json params = util::Json::object();
            params["workload"] = workload::catalogue()[0].name;
            params["parallel_slots"] = 1;
            params["hyperband_resource"] = 1;
            params["final_epochs"] = 1;
            params["seed"] = i;
            return client.value().call(net::method::kSubmit, params);
        }));
    }
    ASSERT_TRUE(eventually([&] {
        const auto stats = service->stats();
        return stats.running == 1 && stats.queued == kClients - 1;
    })) << "submits never reached the service";

    // Fast stop: the IO thread discards the queue (those settle as 503 on
    // the IO thread itself); the running job then finishes on its worker.
    server->request_stop(net::DrainMode::kFast);
    ASSERT_TRUE(eventually([&] { return service->stats().cancelled == kClients - 1; }));
    backend.release();
    server->stop();
    EXPECT_FALSE(server->running());

    std::size_t ok = 0, draining = 0;
    for (auto& reply : replies) {
        auto result = reply.get();
        ASSERT_TRUE(result.ok()) << result.error();
        const int status = result.value().status;
        EXPECT_TRUE(status == net::status::kOk || status == net::status::kDraining) << status;
        ok += status == net::status::kOk;
        draining += status == net::status::kDraining;
    }
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(draining, kClients - 1);
    EXPECT_EQ(server->counters().jobs_completed, 1u);

    // Destroy the server first, then the service (which joins its workers):
    // a settle callback still running would now touch freed memory.
    server.reset();
    service.reset();
}

TEST(ServerShutdownTest, IdleStopFromAnotherThreadReturnsPromptly) {
    sim::SimBackend backend;
    sched::ConcurrentPipeTuneService service(backend, core::ServiceOptions{});
    net::ServerConfig config;
    config.service = &service;
    net::TuningServer server(config);
    ASSERT_TRUE(server.start().ok());
    std::this_thread::sleep_for(50ms);  // let the IO thread park in epoll_wait

    const auto begin = std::chrono::steady_clock::now();
    auto stopped = std::async(std::launch::async, [&server] { server.stop(); });
    ASSERT_EQ(stopped.wait_for(10s), std::future_status::ready) << "stop() hung";
    EXPECT_LT(std::chrono::steady_clock::now() - begin, 2s);
    EXPECT_FALSE(server.running());
}

}  // namespace
