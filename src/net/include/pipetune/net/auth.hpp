#pragma once
// Tenant identity and admission control for the tuning daemon (DESIGN.md
// §11). Authentication is a static bearer token per tenant — the right
// weight for a cluster-internal service whose real isolation boundary is
// the deployment, not the crypto. Quotas are the FIRST admission gate: a
// tenant over its in-flight budget is rejected (429) before its job ever
// reaches the scheduler queue, so one greedy tenant cannot monopolize the
// shared queue capacity that backs global backpressure.
//
// Registry with no tenants = open mode: every connection maps onto the
// implicit "anonymous" tenant with the default quota. That keeps single-user
// deployments (and the loopback benches) free of token plumbing while the
// multi-tenant path stays on by construction.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pipetune/util/result.hpp"

namespace pipetune::net {

struct TenantConfig {
    std::string name;
    std::string token;  ///< bearer token; must be unique across tenants
    /// Jobs a tenant may have queued or running at once; 0 = unlimited.
    std::size_t max_in_flight = 8;
};

/// Point-in-time per-tenant accounting (stats reply, bench reports).
struct TenantStats {
    std::string name;
    std::size_t in_flight = 0;
    std::size_t max_in_flight = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;  ///< quota rejections (not queue-full ones)
};

class TenantRegistry {
public:
    /// Open mode (anonymous tenant, `anonymous_quota` in-flight, 0 = unlimited).
    explicit TenantRegistry(std::size_t anonymous_quota = 0);

    /// Closed mode: only the given tenants may authenticate. Throws
    /// std::invalid_argument on duplicate names or tokens.
    explicit TenantRegistry(const std::vector<TenantConfig>& tenants);

    /// Parse "name=token[:max_in_flight],name2=token2,..." — the CLI's
    /// --tenants spelling. Empty spec = open mode.
    static util::Result<TenantRegistry> from_spec(const std::string& spec,
                                                  std::size_t anonymous_quota = 0);

    bool open_mode() const { return open_mode_; }
    std::size_t tenant_count() const;

    /// Token -> tenant name. Fails (for a 401) when the registry is closed
    /// and the token is unknown; open mode accepts anything as "anonymous".
    util::Result<std::string> authenticate(const std::string& token) const;

    /// Reserve one in-flight slot for `tenant`. Fails (for a 429) when the
    /// tenant is at its quota; counts the rejection.
    util::Result<void> try_admit(const std::string& tenant);
    /// Release a slot reserved by try_admit (job reached a terminal state).
    void release(const std::string& tenant, bool completed);

    std::vector<TenantStats> stats() const;

private:
    struct Tenant {
        TenantConfig config;
        std::size_t in_flight = 0;
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t rejected = 0;
    };

    /// unique_ptr so the registry stays movable (Result<TenantRegistry>,
    /// ServerConfig by value) while the accounting stays lockable.
    mutable std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
    bool open_mode_ = true;
    std::map<std::string, Tenant> tenants_;        ///< by name
    std::map<std::string, std::string> by_token_;  ///< token -> name
};

/// Name of the implicit open-mode tenant.
inline constexpr const char* kAnonymousTenant = "anonymous";

}  // namespace pipetune::net
