// TenantRegistry: bearer-token auth + per-tenant in-flight quotas — the
// FIRST admission gate (DESIGN.md §11), ahead of the scheduler queue's global
// backpressure.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "pipetune/net/auth.hpp"

namespace {

using pipetune::net::kAnonymousTenant;
using pipetune::net::TenantConfig;
using pipetune::net::TenantRegistry;

TEST(AuthTest, OpenModeAcceptsAnyToken) {
    TenantRegistry registry;  // open, unlimited
    EXPECT_TRUE(registry.open_mode());
    auto who = registry.authenticate("anything");
    ASSERT_TRUE(who.ok());
    EXPECT_EQ(who.value(), kAnonymousTenant);
    EXPECT_TRUE(registry.authenticate("").ok());
    // Unlimited quota: admit far past any default.
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(registry.try_admit(kAnonymousTenant).ok());
}

TEST(AuthTest, OpenModeQuotaBounds) {
    TenantRegistry registry(2);
    ASSERT_TRUE(registry.try_admit(kAnonymousTenant).ok());
    ASSERT_TRUE(registry.try_admit(kAnonymousTenant).ok());
    EXPECT_FALSE(registry.try_admit(kAnonymousTenant).ok());
    registry.release(kAnonymousTenant, /*completed=*/true);
    EXPECT_TRUE(registry.try_admit(kAnonymousTenant).ok());
}

TEST(AuthTest, ClosedModeRejectsUnknownTokens) {
    TenantRegistry registry(std::vector<TenantConfig>{
        {"alice", "tok-a", 2},
        {"bob", "tok-b", 0},
    });
    EXPECT_FALSE(registry.open_mode());
    EXPECT_EQ(registry.tenant_count(), 2u);
    auto alice = registry.authenticate("tok-a");
    ASSERT_TRUE(alice.ok());
    EXPECT_EQ(alice.value(), "alice");
    EXPECT_FALSE(registry.authenticate("wrong").ok());
    EXPECT_FALSE(registry.authenticate("").ok());
}

TEST(AuthTest, DuplicateNamesOrTokensThrow) {
    EXPECT_THROW(TenantRegistry(std::vector<TenantConfig>{{"a", "t1", 1}, {"a", "t2", 1}}),
                 std::invalid_argument);
    EXPECT_THROW(TenantRegistry(std::vector<TenantConfig>{{"a", "t", 1}, {"b", "t", 1}}),
                 std::invalid_argument);
}

TEST(AuthTest, QuotaIsPerTenant) {
    TenantRegistry registry(std::vector<TenantConfig>{
        {"alice", "tok-a", 1},
        {"bob", "tok-b", 1},
    });
    ASSERT_TRUE(registry.try_admit("alice").ok());
    EXPECT_FALSE(registry.try_admit("alice").ok());  // alice full
    EXPECT_TRUE(registry.try_admit("bob").ok());     // bob unaffected
}

TEST(AuthTest, StatsCountAdmissionsAndRejections) {
    TenantRegistry registry(std::vector<TenantConfig>{{"alice", "tok-a", 1}});
    ASSERT_TRUE(registry.try_admit("alice").ok());
    ASSERT_FALSE(registry.try_admit("alice").ok());
    registry.release("alice", /*completed=*/true);
    const auto stats = registry.stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].name, "alice");
    EXPECT_EQ(stats[0].submitted, 1u);
    EXPECT_EQ(stats[0].completed, 1u);
    EXPECT_EQ(stats[0].rejected, 1u);
    EXPECT_EQ(stats[0].in_flight, 0u);
    EXPECT_EQ(stats[0].max_in_flight, 1u);
}

TEST(AuthTest, FromSpecParsesTenantsAndQuotas) {
    auto registry = TenantRegistry::from_spec("alice=tok-a:2,bob=tok-b");
    ASSERT_TRUE(registry.ok()) << registry.error();
    EXPECT_FALSE(registry.value().open_mode());
    EXPECT_EQ(registry.value().tenant_count(), 2u);
    EXPECT_EQ(registry.value().authenticate("tok-a").value(), "alice");
    EXPECT_EQ(registry.value().authenticate("tok-b").value(), "bob");
    // alice=...:2 quota is enforced
    ASSERT_TRUE(registry.value().try_admit("alice").ok());
    ASSERT_TRUE(registry.value().try_admit("alice").ok());
    EXPECT_FALSE(registry.value().try_admit("alice").ok());
}

TEST(AuthTest, FromSpecEmptyIsOpenMode) {
    auto registry = TenantRegistry::from_spec("", 3);
    ASSERT_TRUE(registry.ok());
    EXPECT_TRUE(registry.value().open_mode());
}

TEST(AuthTest, FromSpecRejectsMalformed) {
    EXPECT_FALSE(TenantRegistry::from_spec("no-equals-sign").ok());
    EXPECT_FALSE(TenantRegistry::from_spec("a=t:notanumber").ok());
}

TEST(AuthTest, ConcurrentAdmitReleaseStaysConsistent) {
    TenantRegistry registry(std::vector<TenantConfig>{{"alice", "tok-a", 4}});
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&registry] {
            for (int i = 0; i < 200; ++i) {
                if (registry.try_admit("alice").ok())
                    registry.release("alice", /*completed=*/true);
            }
        });
    }
    for (auto& thread : threads) thread.join();
    const auto stats = registry.stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].in_flight, 0u);
    EXPECT_EQ(stats[0].submitted, stats[0].completed);
}

}  // namespace
