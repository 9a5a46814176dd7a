#pragma once
// One benchmark run: set the stack up, drive the workload, gate the outputs,
// compute the metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace ptbench {

struct RunOptions {
    const WorkloadSpec* spec = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /// false: end-to-end metrics from an untraced pass. true: per-layer
    /// metrics from a pass with the timing decorators installed.
    bool trace = false;
    /// Traced runs: latency_p50_ms of the untraced run of the same schedule,
    /// the base of trace.overhead_frac.
    double untraced_p50_ms = 0.0;
    /// Untraced runs: set-up times measured in other processes, pooled
    /// with this one's into setup_s.
    std::vector<double> child_setup_s;
    /// Corrupt one reply (or the determinism comparison); the gate must fail.
    bool self_test = false;
    std::string work_dir;   ///< scratch for state dirs and journals; created and removed
    std::string trace_out;  ///< Chrome trace path (traced runs)
};

struct RunOutcome {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> errors;  ///< what the correctness gate found
    util::Json details;               ///< everything else, for --out
};

RunOutcome run_benchmark(const RunOptions& options);

/// Stack set-ups one process times: a sim stack builds in about 0.1 ms, the
/// real backend's warm-start campaign takes seconds.
std::size_t setups_per_process(const WorkloadSpec& spec);
/// Builds and tears down `spec`'s stack setups_per_process(spec) times;
/// returns each build's wall time in seconds.
std::vector<double> time_setups(const WorkloadSpec& spec, std::uint64_t seed,
                                const std::string& work_dir);

struct LayerTimings {
    double conv2d_us = 0.0;
    double matmul_us = 0.0;
    double lenet_epoch_ms = 0.0;
    double lstm_epoch_ms = 0.0;
    double textcnn_epoch_ms = 0.0;
};
/// Direct calls into tensor and nn at sim::RealBackend's shapes.
LayerTimings time_layers(std::uint64_t seed);

}  // namespace ptbench
