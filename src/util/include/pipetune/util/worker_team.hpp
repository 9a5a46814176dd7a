#pragma once
// Fan-out for the data-parallel epoch path: nn::Trainer's minibatch shards and
// split evaluation, and the Type-III kernels' row blocks (DESIGN.md §12 "Real
// epochs").
//
// Every calling thread owns one team of persistent helper threads. A helper
// is created the first time that thread fans out wider than its team, and
// lives until the thread exits; the caller always runs index 0 itself. So a
// thread whose fan-outs never exceed `w` holds at most w - 1 helpers for its
// whole life: a scheduler slot training at `max_workers` costs
// max_workers - 1 threads, never a pool per trial or per epoch.

#include <cstddef>
#include <functional>

namespace pipetune::util {

/// Run fn(i) for every i in [0, count) and return once all have finished.
/// Index 0 runs on the calling thread, index i >= 1 on its team's helper i.
/// When an index throws, the others still run to completion and the first
/// exception caught is rethrown here. A fan_out issued from inside fn (on the
/// caller or a helper) runs its indices serially on that thread.
void fan_out(std::size_t count, const std::function<void(std::size_t)>& fn);

/// Helper threads the calling thread's team holds (0 before its first
/// fan_out wider than 1).
std::size_t team_helpers();

}  // namespace pipetune::util
