// Thread bound of the real epoch path (DESIGN.md §12 "Real epochs"): every
// data-parallel epoch fans out on its scheduler slot's persistent worker
// team, so real trials through a 2-slot service never hold more than
// 2 x (max_workers - 1) threads beyond the service's own — sampled
// throughout the run, not only once the trials are done.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/sim/real_backend.hpp"
#include "pipetune/workload/types.hpp"

namespace pipetune::sched {
namespace {

std::size_t threads_in_process() {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++n;
    }
    return n;
}

TEST(RealEpochThreads, FortyTrialsOnTwoSlotsStayWithinTheTeamBound) {
    if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "no /proc/self/task";
    constexpr std::size_t kSlots = 2;
    sim::RealBackendConfig config;
    config.train_samples = 32;
    config.test_samples = 8;
    config.image_size = 16;
    config.max_workers = 3;  // every probe runs at >= 4 cores, so every epoch uses 3
    config.seed = 9;
    sim::RealBackend backend(config);
    core::ServiceOptions options;
    options.concurrency = kSlots;
    options.queue_capacity = 32;
    ConcurrentPipeTuneService service(backend, options);

    std::atomic<bool> done{false};
    std::atomic<std::size_t> peak{0};
    std::thread sampler([&] {
        while (!done.load()) {
            const std::size_t now = threads_in_process();
            std::size_t seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    // The service's own threads, the sampler and this one.
    const std::size_t baseline = threads_in_process();

    hpt::HptJobConfig job;
    job.parallel_slots = 2;
    job.hyperband_resource = 3;
    job.final_epochs = 1;
    std::vector<ConcurrentPipeTuneService::Submission> submissions;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        job.seed = seed;
        auto submission = service.submit(workload::find_workload("lenet-mnist"), job);
        ASSERT_TRUE(submission.has_value());
        submissions.push_back(std::move(*submission));
    }
    service.drain();
    done.store(true);
    sampler.join();

    std::size_t trials = 0;
    for (auto& submission : submissions) trials += submission.result.get().baseline.tuning.trials;
    EXPECT_GE(trials, 40u);
    const std::size_t bound = kSlots * (config.max_workers - 1);
    EXPECT_LE(peak.load(), baseline + bound) << "baseline " << baseline;
    EXPECT_LE(threads_in_process(), baseline - 1 + bound);  // the sampler has exited
}

}  // namespace
}  // namespace pipetune::sched
