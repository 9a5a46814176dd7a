#pragma once
// The load generator: one thread, at most `spec.clients` (<= nproc) pipelined
// connections, one epoll loop. Open loop sends each request when its
// pre-drawn time comes, whatever the server is doing (a timerfd wakes the
// loop at the exact due time); closed loop keeps one request in flight per
// connection. Every request's latency starts from when it was due, so a
// stall is charged to the requests it delays, and `sent - due` shows how
// late the generator itself ran.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pipetune/util/result.hpp"

namespace ptbench {

struct LoadConfig {
    std::uint16_t port = 0;
    const WorkloadSpec* spec = nullptr;
    const std::vector<PlannedRequest>* plan = nullptr;
    std::vector<std::string> tokens;  ///< bearer token per tenant
};

struct LoadResult {
    std::vector<RequestRecord> records;  ///< by plan index
    std::size_t pings = 0;               ///< non-submit frames sent (conservation)
    Clock::time_point start{};           ///< when request 0 was due
    std::string error;                   ///< why the loop stopped early, if it did
};

/// Fails only when the server cannot be reached; a dead connection mid-run
/// leaves its requests unanswered (they count as failed) and sets `error`.
util::Result<LoadResult> run_load(const LoadConfig& config);

/// Label the load generator puts on request `index`; the timing decorator
/// reads it back to join its own records to the generator's.
std::string request_label(std::size_t index);
/// Inverse of request_label; false for labels it did not make.
bool parse_request_label(const std::string& label, std::size_t* index);

}  // namespace ptbench
