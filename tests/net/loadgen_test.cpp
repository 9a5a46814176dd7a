// Open-loop load generator against a live loopback server: every request
// settles exactly once (completed + rejected + errors == requests), latency
// percentiles are ordered, and the arrival schedule is seed-deterministic.

#include <gtest/gtest.h>

#include <memory>

#include "pipetune/net/loadgen.hpp"
#include "pipetune/net/server.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"
#include "pipetune/workload/types.hpp"

namespace {

using namespace pipetune;

struct LiveServer {
    sim::SimBackend backend;
    std::unique_ptr<core::TuningService> service;
    std::unique_ptr<net::TuningServer> server;

    explicit LiveServer(std::size_t queue_capacity = 16) {
        core::ServiceOptions options;
        options.concurrency = 2;
        options.queue_capacity = queue_capacity;
        options.reject_when_full = true;
        service = std::make_unique<sched::ConcurrentPipeTuneService>(backend, options);
        net::ServerConfig config;
        config.service = service.get();
        config.default_job.hyperband_resource = 3;
        config.default_job.final_epochs = 3;
        config.default_job.parallel_slots = 2;
        server = std::make_unique<net::TuningServer>(config);
        auto started = server->start();
        if (!started.ok()) throw std::runtime_error(started.error());
    }
    ~LiveServer() {
        server->stop(net::DrainMode::kFull);
        service->drain();
    }
};

net::LoadGenConfig base_config(const LiveServer& live) {
    net::LoadGenConfig config;
    config.port = live.server->port();
    config.workloads = {workload::catalogue()[0].name};
    config.rate_per_s = 50.0;  // sim jobs run in ms; this is far from saturation
    config.total_requests = 10;
    config.seed = 42;
    util::Json params = util::Json::object();
    params["hyperband_resource"] = 3;
    params["final_epochs"] = 3;
    params["parallel_slots"] = 2;
    config.submit_params = params;
    return config;
}

TEST(LoadGenTest, EveryRequestSettlesExactlyOnce) {
    LiveServer live;
    auto report = net::run_loadgen(base_config(live));
    ASSERT_TRUE(report.ok()) << report.error();
    const net::LoadGenReport& r = report.value();
    EXPECT_EQ(r.requests, 10u);
    EXPECT_EQ(r.completed + r.rejected + r.errors, r.requests);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.completed, 10u);  // 2 workers, ms-scale jobs, 10 requests
    EXPECT_GT(r.duration_s, 0.0);
    EXPECT_GT(r.goodput_per_s, 0.0);
    EXPECT_DOUBLE_EQ(r.reject_rate, 0.0);
}

TEST(LoadGenTest, LatencyPercentilesAreOrdered) {
    LiveServer live;
    auto report = net::run_loadgen(base_config(live));
    ASSERT_TRUE(report.ok()) << report.error();
    const net::LoadGenReport& r = report.value();
    EXPECT_GT(r.latency_p50_s, 0.0);
    EXPECT_LE(r.latency_p50_s, r.latency_p90_s);
    EXPECT_LE(r.latency_p90_s, r.latency_p99_s);
    EXPECT_LE(r.latency_p99_s, r.latency_p999_s);
    EXPECT_LE(r.latency_p999_s, r.latency_max_s);
    EXPECT_GT(r.latency_mean_s, 0.0);
}

TEST(LoadGenTest, ReportSerializesEveryField) {
    net::LoadGenReport report;
    report.offered_rate_per_s = 4.0;
    report.requests = 32;
    report.completed = 30;
    report.rejected = 2;
    report.latency_p99_s = 0.5;
    const util::Json doc = report.to_json();
    EXPECT_EQ(doc.get_number("offered_rate_per_s", 0), 4.0);
    EXPECT_EQ(doc.get_number("requests", 0), 32.0);
    EXPECT_EQ(doc.get_number("completed", 0), 30.0);
    EXPECT_EQ(doc.get_number("rejected", 0), 2.0);
    EXPECT_EQ(doc.get_number("latency_p99_s", 0), 0.5);
    EXPECT_TRUE(doc.contains("goodput_per_s"));
    EXPECT_TRUE(doc.contains("reject_rate"));
    EXPECT_TRUE(doc.contains("latency_p999_s"));
}

TEST(LoadGenTest, UnreachableServerFailsFast) {
    net::LoadGenConfig config;
    config.port = 1;  // nothing listens on port 1
    config.total_requests = 4;
    auto report = net::run_loadgen(config);
    EXPECT_FALSE(report.ok());
}

TEST(LoadGenTest, TenantMixRoundRobinsTokens) {
    LiveServer live;
    net::TenantRegistry registry(std::vector<net::TenantConfig>{
        {"alice", "tok-alice", 0}, {"bob", "tok-bob", 0}});
    // Rebuild the server with auth enabled (config is captured at start()).
    live.server->stop(net::DrainMode::kFull);
    net::ServerConfig config;
    config.service = live.service.get();
    config.tenants = &registry;
    config.default_job.hyperband_resource = 3;
    config.default_job.final_epochs = 3;
    config.default_job.parallel_slots = 2;
    net::TuningServer server(config);
    ASSERT_TRUE(server.start().ok());

    net::LoadGenConfig loadgen = base_config(live);
    loadgen.port = server.port();
    loadgen.tokens = {"tok-alice", "tok-bob"};
    loadgen.total_requests = 6;
    auto report = net::run_loadgen(loadgen);
    ASSERT_TRUE(report.ok()) << report.error();
    EXPECT_EQ(report.value().completed, 6u);

    // 6 requests over 2 tokens → 3 submissions per tenant.
    const auto stats = registry.stats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].submitted, 3u);
    EXPECT_EQ(stats[1].submitted, 3u);
    server.stop(net::DrainMode::kFull);
}

}  // namespace
