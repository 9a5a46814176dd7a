#include "pipetune/util/worker_team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pipetune::util {
namespace {

TEST(WorkerTeam, FanOutCoversAllIndices) {
    std::vector<std::atomic<int>> hits(100);
    fan_out(100, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerTeam, ZeroIsANoopAndOneRunsOnTheCaller) {
    fan_out(0, [&](std::size_t) { FAIL() << "must not run"; });
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    std::size_t calls = 0;
    fan_out(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ran_on = std::this_thread::get_id();
        ++calls;
    });
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(ran_on, caller);
}

TEST(WorkerTeam, CallerRunsIndexZeroAndHelpersPersist) {
    std::thread([] {
        EXPECT_EQ(team_helpers(), 0u);
        const std::thread::id caller = std::this_thread::get_id();
        std::vector<std::thread::id> first(3), second(3);
        fan_out(3, [&](std::size_t i) { first[i] = std::this_thread::get_id(); });
        EXPECT_EQ(first[0], caller);
        EXPECT_NE(first[1], caller);
        EXPECT_NE(first[1], first[2]);
        EXPECT_EQ(team_helpers(), 2u);
        // Narrower and repeated fan-outs reuse the same helpers.
        for (int round = 0; round < 50; ++round) fan_out(2, [](std::size_t) {});
        fan_out(3, [&](std::size_t i) { second[i] = std::this_thread::get_id(); });
        EXPECT_EQ(second, first);
        EXPECT_EQ(team_helpers(), 2u);
    }).join();
}

TEST(WorkerTeam, ExceptionOnAHelperReachesTheCallerAfterEveryIndexRan) {
    std::atomic<int> ran{0};
    EXPECT_THROW(fan_out(4,
                         [&](std::size_t i) {
                             ran.fetch_add(1);
                             if (i == 3) throw std::runtime_error("boom");
                         }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 4);
    // The team is still usable after a failed fan-out.
    std::atomic<int> after{0};
    fan_out(4, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 4);
}

TEST(WorkerTeam, ManyIndicesAggregateCorrectly) {
    std::atomic<long> total{0};
    fan_out(1000, [&](std::size_t i) { total.fetch_add(static_cast<long>(i)); });
    EXPECT_EQ(total.load(), 999L * 1000 / 2);
}

TEST(WorkerTeam, NestedFanOutRunsSeriallyWithoutGrowingATeam) {
    std::thread([] {
        std::atomic<int> inner{0};
        fan_out(2, [&](std::size_t) {
            const std::thread::id outer = std::this_thread::get_id();
            fan_out(3, [&](std::size_t) {
                EXPECT_EQ(std::this_thread::get_id(), outer);
                inner.fetch_add(1);
            });
        });
        EXPECT_EQ(inner.load(), 6);
        EXPECT_EQ(team_helpers(), 1u);
    }).join();
}

TEST(WorkerTeam, ConcurrentCallersEachUseTheirOwnTeam) {
    constexpr int kRounds = 200;
    std::atomic<long> totals[2] = {0, 0};
    std::atomic<std::size_t> helpers[2] = {0, 0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 2; ++c)
        callers.emplace_back([&, c] {
            for (int round = 0; round < kRounds; ++round)
                fan_out(3, [&](std::size_t i) { totals[c].fetch_add(static_cast<long>(i) + 1); });
            helpers[c] = team_helpers();
        });
    for (auto& t : callers) t.join();
    for (int c = 0; c < 2; ++c) {
        EXPECT_EQ(totals[c].load(), 6L * kRounds);
        EXPECT_EQ(helpers[c].load(), 2u);
    }
}

}  // namespace
}  // namespace pipetune::util
