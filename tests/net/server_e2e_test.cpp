// End-to-end loopback suite (DESIGN.md §11 acceptance): N tenants submit
// tuning jobs over real sockets and the results match an in-process
// TuningService run byte-for-byte — net::job_result_to_json serializes both
// sides, util::Json objects are sorted maps, so a string compare is exact.
// Admission-control behavior (quota 429, queue-full 429, draining 503) is
// pinned with a hand-rolled FakeService whose futures the test resolves by
// hand, making every race deterministic.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
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

// ---------------------------------------------------------------- FakeService
// A TuningService whose jobs the TEST settles. Lets the e2e tests hold a
// tenant's quota slot open (or shed a job) for exactly as long as the
// assertion needs, with zero timing dependence. Honours the on_settled
// contract: resolve/fail/discard make the future ready, then run the hook.
class FakeService : public core::TuningService {
public:
    bool accept = true;          ///< false → submit returns nullopt (queue full)
    bool cancellable = false;    ///< what cancel() reports

    std::optional<Submission> submit(const workload::Workload& workload,
                                     const hpt::HptJobConfig& job_config,
                                     core::SubmitOptions options) override {
        (void)workload;
        (void)job_config;
        std::lock_guard<std::mutex> lock(mutex_);
        if (!accept) return std::nullopt;
        jobs_.push_back(std::make_unique<Job>());
        jobs_.back()->on_settled = std::move(options.on_settled);
        Submission submission;
        submission.id = jobs_.size();
        submission.result = jobs_.back()->promise.get_future();
        return submission;
    }
    void resolve(std::size_t job_id) {
        settle(job_id, [](auto& promise) { promise.set_value(core::PipeTuneJobResult{}); });
    }
    /// A job failure whose message is `message`.
    void fail(std::size_t job_id, const std::string& message) {
        settle(job_id, [&](auto& promise) {
            promise.set_exception(std::make_exception_ptr(std::runtime_error(message)));
        });
    }
    /// Dropped before running, as the concurrent service reports it.
    void discard(std::size_t job_id) {
        settle(job_id, [&](auto& promise) {
            promise.set_exception(std::make_exception_ptr(sched::JobDiscarded(
                "pipetune job " + std::to_string(job_id) + " cancelled before running")));
        });
    }
    std::size_t submissions() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return jobs_.size();
    }

    void drain() override {}
    bool cancel(std::uint64_t) override { return cancellable; }
    void persist() const override {}
    std::size_t jobs_served() const override { return 0; }
    core::ServiceStats stats() const override { return {}; }
    std::vector<core::JobTiming> job_timings() const override { return {}; }
    core::GroundTruth ground_truth_snapshot() const override { return core::GroundTruth{}; }
    metricsdb::TimeSeriesDb metrics_snapshot() const override { return {}; }
    void seed_ground_truth(const std::vector<core::GroundTruthEntry>&) override {}
    std::string ground_truth_path() const override { return {}; }
    std::string metrics_path() const override { return {}; }
    obs::ObsContext* obs() const override { return nullptr; }

private:
    struct Job {
        std::promise<core::PipeTuneJobResult> promise;
        std::function<void()> on_settled;
    };

    template <typename Settle>
    void settle(std::size_t job_id, Settle&& make_ready) {
        std::function<void()> on_settled;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Job& job = *jobs_.at(job_id - 1);
            make_ready(job.promise);
            on_settled = std::move(job.on_settled);
        }
        if (on_settled) on_settled();
    }

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Job>> jobs_;
};

net::Client connect_to(const net::TuningServer& server, double timeout_s = 30.0) {
    auto client = net::Client::connect("127.0.0.1", server.port(), timeout_s);
    EXPECT_TRUE(client.ok()) << client.error();
    return std::move(client.value());
}

util::Json submit_params(const std::string& workload, std::uint64_t seed) {
    util::Json params = util::Json::object();
    params["workload"] = workload;
    params["parallel_slots"] = 2;
    params["hyperband_resource"] = 3;
    params["hyperband_eta"] = 3;
    params["final_epochs"] = 3;
    params["seed"] = seed;
    return params;
}

hpt::HptJobConfig reference_job(std::uint64_t seed) {
    hpt::HptJobConfig job;
    job.parallel_slots = 2;
    job.hyperband_resource = 3;
    job.hyperband_eta = 3;
    job.final_epochs = 3;
    job.seed = seed;
    return job;
}

// --------------------------------------------------------------- byte-for-byte

TEST(ServerE2eTest, MultiTenantResultsMatchInProcessServiceByteForByte) {
    constexpr std::uint64_t kBackendSeed = 7;
    constexpr std::size_t kJobs = 6;
    const std::vector<std::string> tenants = {"alice", "bob", "carol"};
    const std::vector<std::string> workloads = {workload::catalogue()[0].name,
                                                workload::catalogue()[1].name};

    // Network side: a one-slot service behind the server (jobs run one at a
    // time, in submit order), three authenticated tenants.
    sim::SimBackendConfig backend_config;
    backend_config.seed = kBackendSeed;
    sim::SimBackend net_backend(backend_config);
    core::ServiceOptions options;
    options.concurrency = 1;
    sched::ConcurrentPipeTuneService net_service(net_backend, options);
    net::TenantRegistry registry(std::vector<net::TenantConfig>{
        {"alice", "tok-alice", 0}, {"bob", "tok-bob", 0}, {"carol", "tok-carol", 0}});
    net::ServerConfig config;
    config.service = &net_service;
    config.tenants = &registry;
    net::TuningServer server(config);
    auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    // Each tenant keeps one connection open, submits round-robin, in order.
    std::vector<net::Client> clients;
    for (std::size_t t = 0; t < tenants.size(); ++t) clients.push_back(connect_to(server, 120.0));
    std::vector<std::string> wire_results;
    for (std::size_t i = 0; i < kJobs; ++i) {
        const std::string& workload_name = workloads[i % workloads.size()];
        auto reply = clients[i % clients.size()].call(
            net::method::kSubmit, submit_params(workload_name, 100 + i),
            "tok-" + tenants[i % tenants.size()]);
        ASSERT_TRUE(reply.ok()) << reply.error();
        ASSERT_TRUE(reply.value().ok()) << reply.value().error;
        EXPECT_EQ(reply.value().result.get_number("job_id", 0), static_cast<double>(i + 1));
        ASSERT_TRUE(reply.value().result.contains("result"));
        wire_results.push_back(reply.value().result.at("result").dump());
    }

    // In-process reference: fresh backend with the SAME seed, same one-slot
    // service, same submission sequence — shared ground truth and all.
    sim::SimBackend ref_backend(backend_config);
    sched::ConcurrentPipeTuneService ref_service(ref_backend, core::ServiceOptions{});
    for (std::size_t i = 0; i < kJobs; ++i) {
        const workload::Workload& w =
            workload::find_workload(workloads[i % workloads.size()]);
        core::PipeTuneJobResult ref = ref_service.run(w, reference_job(100 + i));
        EXPECT_EQ(wire_results[i], net::job_result_to_json(ref).dump())
            << "job " << (i + 1) << " diverged from the in-process reference";
    }

    // The service behind the socket really did the work (and only that work).
    auto stats_reply = clients[0].call(net::method::kStats, util::Json::object(), "tok-alice");
    ASSERT_TRUE(stats_reply.ok()) << stats_reply.error();
    ASSERT_TRUE(stats_reply.value().ok());
    const util::Json& service_stats = stats_reply.value().result.at("service");
    EXPECT_EQ(service_stats.get_number("submitted", -1), static_cast<double>(kJobs));
    EXPECT_EQ(service_stats.get_number("completed", -1), static_cast<double>(kJobs));
    const util::Json& tenant_stats = stats_reply.value().result.at("tenants");
    ASSERT_EQ(tenant_stats.as_array().size(), 3u);

    // status: a finished job reports completed with a wall-clock lifecycle.
    util::Json status_params = util::Json::object();
    status_params["job_id"] = 1;
    auto status_reply = clients[0].call(net::method::kStatus, status_params, "tok-alice");
    ASSERT_TRUE(status_reply.ok()) << status_reply.error();
    ASSERT_TRUE(status_reply.value().ok());
    EXPECT_EQ(status_reply.value().result.get_string("state", ""), "completed");

    server.stop(net::DrainMode::kFull);
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.counters().jobs_completed, kJobs);
}

// ------------------------------------------------------------------- ordering

TEST(ServerE2eTest, StatusRightAfterEach200ShowsTheJobTerminal) {
    // The reply is sent from the job's terminal transition; a job the client
    // has been told is done must never read back as queued or running.
    sim::SimBackend backend;
    core::ServiceOptions options;
    options.concurrency = 2;
    options.queue_capacity = 16;
    sched::ConcurrentPipeTuneService service(backend, options);
    net::ServerConfig config;
    config.service = &service;
    net::TuningServer server(config);
    ASSERT_TRUE(server.start().ok());

    constexpr std::size_t kClients = 2;
    constexpr std::size_t kSubmitsPerClient = 25;
    std::vector<std::thread> clients;
    std::atomic<std::size_t> checked{0};
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            net::Client client = connect_to(server, 120.0);
            for (std::size_t i = 0; i < kSubmitsPerClient; ++i) {
                util::Json params = util::Json::object();
                params["workload"] = workload::catalogue()[0].name;
                params["parallel_slots"] = 1;
                params["hyperband_resource"] = 1;
                params["final_epochs"] = 1;
                params["seed"] = 1000 * c + i;
                auto reply = client.call(net::method::kSubmit, params);
                ASSERT_TRUE(reply.ok()) << reply.error();
                ASSERT_TRUE(reply.value().ok()) << reply.value().error;
                util::Json status_params = util::Json::object();
                status_params["job_id"] = reply.value().result.get_number("job_id", 0);
                auto status = client.call(net::method::kStatus, status_params);
                ASSERT_TRUE(status.ok()) << status.error();
                ASSERT_TRUE(status.value().ok()) << status.value().error;
                EXPECT_GE(status.value().result.get_number("finish_s", -1.0), 0.0);
                EXPECT_TRUE(status.value().result.get_bool("ok", false));
                checked.fetch_add(1);
            }
        });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(checked.load(), kClients * kSubmitsPerClient);
    server.stop(net::DrainMode::kFull);
    EXPECT_EQ(server.counters().jobs_completed, kClients * kSubmitsPerClient);
}

// ------------------------------------------------------------------ admission

TEST(ServerE2eTest, UnknownTokenGets401ButPingNeedsNoAuth) {
    FakeService service;
    net::TenantRegistry registry(
        std::vector<net::TenantConfig>{{"alice", "tok-alice", 0}});
    net::ServerConfig config;
    config.service = &service;
    config.tenants = &registry;
    net::TuningServer server(config);
    ASSERT_TRUE(server.start().ok());

    net::Client client = connect_to(server);
    auto pong = client.call(net::method::kPing);  // no token
    ASSERT_TRUE(pong.ok()) << pong.error();
    EXPECT_TRUE(pong.value().ok());

    auto reply = client.call(net::method::kSubmit,
                             submit_params(workload::catalogue()[0].name, 1), "wrong-token");
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().status, net::status::kUnauthorized);
    EXPECT_EQ(service.submissions(), 0u);
    EXPECT_GE(server.counters().auth_failures, 1u);
    server.stop();
}

TEST(ServerE2eTest, TenantOverQuotaGets429UntilAJobSettles) {
    FakeService service;
    net::TenantRegistry registry(
        std::vector<net::TenantConfig>{{"alice", "tok-alice", 1}});
    net::ServerConfig config;
    config.service = &service;
    config.tenants = &registry;
    net::TuningServer server(config);
    ASSERT_TRUE(server.start().ok());
    const std::string workload_name = workload::catalogue()[0].name;

    net::Client client = connect_to(server);
    util::Json params = submit_params(workload_name, 1);
    params["wait"] = false;  // immediate ack; the job holds the quota slot
    auto first = client.call(net::method::kSubmit, params, "tok-alice");
    ASSERT_TRUE(first.ok()) << first.error();
    ASSERT_TRUE(first.value().ok()) << first.value().error;
    EXPECT_EQ(first.value().result.get_string("state", ""), "queued");

    // Quota 1, one job in flight → the second submit is rejected at the door.
    auto second = client.call(net::method::kSubmit, params, "tok-alice");
    ASSERT_TRUE(second.ok()) << second.error();
    EXPECT_EQ(second.value().status, net::status::kRejected);
    EXPECT_NE(second.value().error.find("over quota"), std::string::npos);
    EXPECT_EQ(service.submissions(), 1u);

    // Settle the in-flight job; its quota slot frees and submits flow again.
    service.resolve(1);
    bool readmitted = false;
    for (int attempt = 0; attempt < 200 && !readmitted; ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        auto retry = client.call(net::method::kSubmit, params, "tok-alice");
        ASSERT_TRUE(retry.ok()) << retry.error();
        readmitted = retry.value().ok();
    }
    EXPECT_TRUE(readmitted) << "quota slot never released after settle";
    service.resolve(2);
    server.stop(net::DrainMode::kFull);
}

TEST(ServerE2eTest, FullQueueGets429FromServiceBackpressure) {
    FakeService service;
    service.accept = false;  // every submit is shed, as a full scheduler queue would
    net::ServerConfig config;
    config.service = &service;
    net::TuningServer server(config);
    ASSERT_TRUE(server.start().ok());

    net::Client client = connect_to(server);
    auto reply = client.call(net::method::kSubmit,
                             submit_params(workload::catalogue()[0].name, 1));
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().status, net::status::kRejected);
    EXPECT_NE(reply.value().error.find("queue full"), std::string::npos);
    EXPECT_GE(server.counters().rejects, 1u);
    server.stop();
}

TEST(ServerE2eTest, DrainingAnswersNewSubmitsWith503) {
    FakeService service;
    net::ServerConfig config;
    config.service = &service;
    net::TuningServer server(config);
    ASSERT_TRUE(server.start().ok());
    const std::string workload_name = workload::catalogue()[0].name;

    // One job in flight (unresolved future) keeps the server alive through
    // the drain; this client's connection was accepted before the listener
    // closes, so its post-drain submit exercises the 503 path.
    net::Client client = connect_to(server);
    util::Json params = submit_params(workload_name, 1);
    params["wait"] = false;
    auto ack = client.call(net::method::kSubmit, params);
    ASSERT_TRUE(ack.ok()) << ack.error();
    ASSERT_TRUE(ack.value().ok());

    server.request_stop(net::DrainMode::kFast);
    // Give the IO thread a moment to observe the stop and flip draining.
    bool draining_seen = false;
    for (int attempt = 0; attempt < 200 && !draining_seen; ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        auto probe = client.call(net::method::kPing);
        ASSERT_TRUE(probe.ok()) << probe.error();
        draining_seen = probe.value().result.get_bool("draining", false);
    }
    ASSERT_TRUE(draining_seen);

    auto rejected = client.call(net::method::kSubmit, params);
    ASSERT_TRUE(rejected.ok()) << rejected.error();
    EXPECT_EQ(rejected.value().status, net::status::kDraining);

    // The in-flight job finishes; only then does the server wind down.
    EXPECT_TRUE(server.running());
    service.resolve(1);
    server.wait();
    EXPECT_FALSE(server.running());
}

TEST(ServerE2eTest, DiscardedJobSettlesAs503NotServerFault) {
    FakeService service;
    net::ServerConfig config;
    config.service = &service;
    net::TuningServer server(config);
    ASSERT_TRUE(server.start().ok());

    net::Client client = connect_to(server);
    auto submitted = std::async(std::launch::async, [&client] {
        return client.call(net::method::kSubmit,
                           submit_params(workload::catalogue()[0].name, 1));
    });
    // Wait for the job to reach the service, then discard it the way a fast
    // drain does: its future reports a sched::JobDiscarded.
    while (service.submissions() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    service.discard(1);
    auto reply = submitted.get();
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().status, net::status::kDraining);
    EXPECT_NE(reply.value().error.find("cancelled"), std::string::npos);

    // A genuine job failure, by contrast, is a 500 — even when the job's own
    // error text happens to say "cancelled" or "timed-out".
    const std::vector<std::string> failures = {"trial diverged",
                                               "upstream cancelled the dataset download",
                                               "metric fetch timed-out"};
    for (std::size_t i = 0; i < failures.size(); ++i) {
        auto failed = std::async(std::launch::async, [&client, i] {
            return client.call(net::method::kSubmit,
                               submit_params(workload::catalogue()[0].name, 2 + i));
        });
        while (service.submissions() == i + 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        service.fail(i + 2, failures[i]);
        auto failure = failed.get();
        ASSERT_TRUE(failure.ok()) << failure.error();
        EXPECT_EQ(failure.value().status, net::status::kJobFailed) << failures[i];
        EXPECT_EQ(failure.value().error, failures[i]);
    }
    server.stop();
}

TEST(ServerE2eTest, CancelIsForwardedToTheService) {
    FakeService service;
    service.cancellable = true;
    net::ServerConfig config;
    config.service = &service;
    net::TuningServer server(config);
    ASSERT_TRUE(server.start().ok());

    net::Client client = connect_to(server);
    util::Json params = util::Json::object();
    params["job_id"] = 5;
    auto reply = client.call(net::method::kCancel, params);
    ASSERT_TRUE(reply.ok()) << reply.error();
    ASSERT_TRUE(reply.value().ok());
    EXPECT_TRUE(reply.value().result.get_bool("cancelled", false));
    server.stop();
}

// ----------------------------------------------------------------- drain RPC

TEST(ServerE2eTest, DrainRpcFinishesAdmittedWorkThenStops) {
    sim::SimBackend backend;
    core::ServiceOptions options;
    options.concurrency = 2;
    options.queue_capacity = 8;
    options.reject_when_full = true;
    sched::ConcurrentPipeTuneService service(backend, options);
    net::ServerConfig config;
    config.service = &service;
    net::TuningServer server(config);
    ASSERT_TRUE(server.start().ok());
    const std::uint16_t port = server.port();

    net::Client client = connect_to(server, 120.0);
    for (std::uint64_t i = 0; i < 3; ++i) {
        auto reply = client.call(net::method::kSubmit,
                                 submit_params(workload::catalogue()[0].name, 10 + i));
        ASSERT_TRUE(reply.ok()) << reply.error();
        ASSERT_TRUE(reply.value().ok()) << reply.value().error;
    }
    util::Json params = util::Json::object();
    params["run_queued"] = true;
    auto drained = client.call(net::method::kDrain, params);
    ASSERT_TRUE(drained.ok()) << drained.error();
    ASSERT_TRUE(drained.value().ok());
    EXPECT_EQ(drained.value().result.get_string("mode", ""), "full");

    server.wait();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.counters().jobs_completed, 3u);
    // The listener is gone: new connections are refused.
    EXPECT_FALSE(net::Client::connect("127.0.0.1", port, 2.0).ok());
    service.drain();
}

}  // namespace
