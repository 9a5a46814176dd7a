// Protocol-robustness suite (DESIGN.md §11): a live TuningServer fed
// garbage bytes, truncated frames cut at EVERY byte offset, oversized
// frames and unknown methods. The invariant throughout: hostile input gets
// a clean error reply (or a clean disconnect), never a wedge — and the
// server keeps serving well-formed requests afterwards.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "pipetune/net/client.hpp"
#include "pipetune/net/framing.hpp"
#include "pipetune/net/server.hpp"
#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/sim_backend.hpp"

namespace {

using namespace pipetune;

// Server over a 2-worker sim-backed service; jobs finish in milliseconds.
struct LiveServer {
    sim::SimBackend backend;
    std::unique_ptr<core::TuningService> service;
    std::unique_ptr<net::TuningServer> server;

    explicit LiveServer(std::size_t max_frame_bytes = net::kDefaultMaxFrameBytes) {
        core::ServiceOptions options;
        options.concurrency = 2;
        options.queue_capacity = 8;
        options.reject_when_full = true;
        service = std::make_unique<sched::ConcurrentPipeTuneService>(backend, options);
        net::ServerConfig config;
        config.service = service.get();
        config.max_frame_bytes = max_frame_bytes;
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
    net::Client connect(double timeout_s = 10.0) const {
        auto client = net::Client::connect("127.0.0.1", server->port(), timeout_s);
        EXPECT_TRUE(client.ok()) << client.error();
        return std::move(client.value());
    }
};

// One ping round trip — the "is the server still alive?" probe.
void expect_alive(const LiveServer& live) {
    net::Client client = live.connect();
    auto reply = client.call(net::method::kPing);
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_TRUE(reply.value().ok());
}

TEST(ServerRobustnessTest, GarbageBytesGetCleanBadRequest) {
    LiveServer live;
    net::Client client = live.connect();
    ASSERT_TRUE(client.raw_send("this is definitely not JSON\n").ok());
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.ok()) << frame.error();
    auto reply = net::parse_response(frame.value());
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().status, net::status::kBadRequest);
    EXPECT_EQ(reply.value().id, 0u);  // unparsable request → id 0

    // Same connection still works afterwards.
    auto pong = client.call(net::method::kPing);
    ASSERT_TRUE(pong.ok()) << pong.error();
    EXPECT_TRUE(pong.value().ok());
    EXPECT_GE(live.server->counters().bad_frames, 1u);
}

TEST(ServerRobustnessTest, BinaryGarbageDoesNotWedge) {
    LiveServer live;
    net::Client client = live.connect();
    std::string junk;
    for (int i = 0; i < 256; ++i) junk.push_back(static_cast<char>(i == '\n' ? 0 : i));
    junk.push_back('\n');
    ASSERT_TRUE(client.raw_send(junk).ok());
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.ok()) << frame.error();
    auto reply = net::parse_response(frame.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().status, net::status::kBadRequest);
    expect_alive(live);
}

TEST(ServerRobustnessTest, TruncatedFrameAtEveryByteOffset) {
    LiveServer live;
    const std::string wire =
        net::encode_frame(R"({"id":1,"method":"stats","params":{}})");
    // Cut the frame at every offset, send the prefix, hang up mid-frame.
    // The server must shrug every one of them off.
    for (std::size_t cut = 1; cut < wire.size(); ++cut) {
        net::Client client = live.connect();
        ASSERT_TRUE(client.raw_send(wire.substr(0, cut)).ok()) << "cut=" << cut;
        client.close();
    }
    // And a split-then-complete variant: first half, pause, second half.
    {
        net::Client client = live.connect();
        const std::size_t half = wire.size() / 2;
        ASSERT_TRUE(client.raw_send(wire.substr(0, half)).ok());
        ASSERT_TRUE(client.raw_send(wire.substr(half)).ok());
        auto frame = client.read_frame();
        ASSERT_TRUE(frame.ok()) << frame.error();
        auto reply = net::parse_response(frame.value());
        ASSERT_TRUE(reply.ok());
        EXPECT_TRUE(reply.value().ok());
        EXPECT_EQ(reply.value().id, 1u);
    }
    expect_alive(live);
}

TEST(ServerRobustnessTest, OversizedFrameGets413AndConnectionSurvives) {
    LiveServer live(/*max_frame_bytes=*/256);
    net::Client client = live.connect();
    const std::string big(1024, 'a');
    ASSERT_TRUE(client.raw_send(big + "\n").ok());
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.ok()) << frame.error();
    auto reply = net::parse_response(frame.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().status, net::status::kFrameTooLarge);

    // The SAME connection keeps working: the oversized line was discarded
    // through its terminator, not left to poison the stream.
    auto pong = client.call(net::method::kPing);
    ASSERT_TRUE(pong.ok()) << pong.error();
    EXPECT_TRUE(pong.value().ok());
    EXPECT_GE(live.server->counters().oversized_frames, 1u);
}

TEST(ServerRobustnessTest, UnknownMethodGets405) {
    LiveServer live;
    net::Client client = live.connect();
    auto reply = client.call("frobnicate");
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().status, net::status::kUnknownMethod);
    expect_alive(live);
}

TEST(ServerRobustnessTest, SubmitWithoutWorkloadGets400) {
    LiveServer live;
    net::Client client = live.connect();
    auto reply = client.call(net::method::kSubmit);
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().status, net::status::kBadRequest);
}

TEST(ServerRobustnessTest, SubmitUnknownWorkloadGets404) {
    LiveServer live;
    net::Client client = live.connect();
    util::Json params = util::Json::object();
    params["workload"] = "no-such-model";
    auto reply = client.call(net::method::kSubmit, params);
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().status, net::status::kNotFound);
}

TEST(ServerRobustnessTest, StatusForUnknownJobGets404) {
    LiveServer live;
    net::Client client = live.connect();
    util::Json params = util::Json::object();
    params["job_id"] = 424242;
    auto reply = client.call(net::method::kStatus, params);
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().status, net::status::kNotFound);
}

TEST(ServerRobustnessTest, HttpMetricsAndUnknownPath) {
    LiveServer live;
    {
        // No obs context configured → /metrics still answers (empty export).
        net::Client client = live.connect();
        ASSERT_TRUE(client.raw_send("GET /metrics HTTP/1.0\r\n\r\n").ok());
        auto status_line = client.read_frame();
        ASSERT_TRUE(status_line.ok()) << status_line.error();
        EXPECT_NE(status_line.value().find("200"), std::string::npos);
    }
    {
        net::Client client = live.connect();
        ASSERT_TRUE(client.raw_send("GET /nope HTTP/1.0\r\n\r\n").ok());
        auto status_line = client.read_frame();
        ASSERT_TRUE(status_line.ok()) << status_line.error();
        EXPECT_NE(status_line.value().find("404"), std::string::npos);
    }
    expect_alive(live);
    EXPECT_GE(live.server->counters().http_requests, 2u);
}

TEST(ServerRobustnessTest, ServerSurvivesTheWholeGauntletThenServesAJob) {
    LiveServer live;
    // Throw everything at it in sequence...
    {
        net::Client client = live.connect();
        ASSERT_TRUE(client.raw_send("garbage\n{\"id\":\n[1,2]\n").ok());
        for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.read_frame().ok());
        client.close();
    }
    // ...then a real submit must still go through end to end.
    net::Client client = live.connect(60.0);
    util::Json params = util::Json::object();
    params["workload"] = "lenet-mnist";
    auto reply = client.call(net::method::kSubmit, params);
    ASSERT_TRUE(reply.ok()) << reply.error();
    ASSERT_TRUE(reply.value().ok()) << reply.value().error;
    EXPECT_TRUE(reply.value().result.contains("result"));
    EXPECT_GT(reply.value().result.get_number("job_id", 0), 0);
}

}  // namespace
